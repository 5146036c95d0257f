"""Tests for the Figure-2-style batch timeline drawn from a tracer."""

import pytest

from repro import GpuUvmSimulator, Observability, build_workload, systems
from repro.obs import render_batches
from repro.obs.tracer import Tracer


def run_tracer() -> Tracer:
    """A tracer with one open sim scope, as a simulation leaves it."""
    tracer = Tracer(max_events=200_000)
    tracer.set_scope(tracer.open_scope("run"))
    return tracer


def record_batch(tracer, index, begin, first_migration, end):
    tracer.complete("batches", f"fault handling {index}", begin, first_migration)
    tracer.complete("batches", f"batch {index}", begin, end)


class TestTimeline:
    def test_render_batches_on_large_timeline(self):
        """render_batches used to re-scan the whole timeline per lane."""
        import time as _time

        tracer = run_tracer()
        for i in range(1000):
            t = i * 100
            record_batch(tracer, i, t, t + 20, t + 90)
            for k in range(40):
                tracer.instant("uvm", "page arrival", t + 30 + k)
            tracer.instant("eviction", "evict", t + 80)
        start = _time.perf_counter()
        text = render_batches(tracer, max_batches=50)
        elapsed = _time.perf_counter() - start
        assert "B49" in text
        assert elapsed < 1.0, f"render took {elapsed:.2f}s"


class TestRendering:
    def test_empty_timeline(self):
        assert "no batches" in render_batches(Tracer())

    def test_render_contains_lanes_and_markers(self):
        tracer = run_tracer()
        record_batch(tracer, 0, 0, 100, 300)
        tracer.instant("eviction", "evict", 150)
        tracer.instant("uvm", "page arrival", 200)
        text = render_batches(tracer)
        assert "B0" in text
        assert "#" in text
        assert "=" in text
        assert "*" in text
        assert "!" in text

    def test_render_respects_max_batches(self):
        tracer = run_tracer()
        for i in range(10):
            record_batch(tracer, i, i * 100, i * 100, i * 100 + 50)
        text = render_batches(tracer, max_batches=3)
        assert "B2" in text
        assert "B3" not in text


@pytest.fixture(scope="module")
def full_run():
    workload = build_workload("KCORE", scale="tiny")
    config = systems.BASELINE.configure(workload)
    session = Observability("full")
    result = GpuUvmSimulator(workload, config, obs=session).run()
    return session.tracer, result


def batch_spans(tracer, kind):
    return {
        int(e.name.rpartition(" ")[2]): e
        for e in tracer.of_track("batches")
        if e.name.rpartition(" ")[0] == kind
    }


class TestSimulatorIntegration:
    def test_simulation_populates_timeline(self, full_run):
        tracer, _ = full_run
        assert batch_spans(tracer, "fault handling").keys() == (
            batch_spans(tracer, "batch").keys()
        )
        assert tracer.of_track("uvm")
        assert tracer.of_track("eviction")

    def test_arrivals_match_migrated_pages(self, full_run):
        tracer, result = full_run
        arrivals = [e for e in tracer.of_track("uvm") if e.name == "page arrival"]
        assert len(arrivals) == result.migrated_pages

    def test_batch_events_are_ordered(self, full_run):
        tracer, _ = full_run
        ends = batch_spans(tracer, "batch")
        for index, span in batch_spans(tracer, "fault handling").items():
            assert span.ts <= span.ts + span.dur <= ends[index].ts + ends[index].dur

    def test_no_timeline_by_default(self):
        workload = build_workload("KCORE", scale="tiny")
        config = systems.BASELINE.configure(workload)
        sim = GpuUvmSimulator(workload, config)
        sim.run()
        assert sim.observer is None
