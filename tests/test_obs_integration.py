"""End-to-end observability: real runs, CLI export, determinism.

These tests exercise the acceptance path: a tiny BFS run with full
instrumentation must produce a valid Chrome trace with batch, eviction,
DMA-channel, and SM tracks, and exporting twice must be byte-identical.
"""

import json
import pytest

from repro import GpuUvmSimulator, Observability, build_workload, obs, systems
from repro.cli import main as cli_main
from repro.experiments.runner import main as runner_main

from tests.test_obs_export import validate_chrome_events


def run_tiny(workload_name: str, mode: str = "full") -> Observability:
    ob = Observability(mode)
    workload = build_workload(workload_name, scale="tiny", seed=0)
    config = systems.by_name("TO+UE").configure(workload)
    GpuUvmSimulator(workload, config, obs=ob).run()
    return ob


@pytest.fixture(scope="module")
def bfs_obs() -> Observability:
    return run_tiny("BFS-TWC")


class TestRealRunTrace:
    def test_required_tracks_present(self, bfs_obs):
        tracks = bfs_obs.tracer.track_names()
        assert "batches" in tracks
        assert "eviction" in tracks
        assert "dma.h2d" in tracks
        assert any(t.startswith("sm") for t in tracks)

    def test_scope_named_after_workload(self, bfs_obs):
        labels = [label for label, domain in bfs_obs.tracer.scopes()]
        assert "BFS-TWC" in labels

    def test_export_is_schema_valid(self, bfs_obs):
        validate_chrome_events(obs.chrome_trace_events(bfs_obs.tracer))

    def test_batch_spans_cover_fault_handling(self, bfs_obs):
        spans = [
            e for e in bfs_obs.tracer.of_track("batches") if e.ph == "X"
        ]
        assert any(e.name.startswith("batch ") for e in spans)
        assert any(e.name.startswith("fault handling ") for e in spans)

    def test_core_metrics_populated(self, bfs_obs):
        reg = bfs_obs.metrics
        assert reg.counter("uvm.batches").value > 0
        assert reg.total("uvm.evictions") > 0
        assert reg.total("dma.pages") > 0
        assert reg.histogram("uvm.fault_to_arrival_cycles", 1000).count > 0
        assert reg.histogram("uvm.batch_cycles", 1000).count > 0

    def test_report_renders(self, bfs_obs):
        text = bfs_obs.report()
        assert "observability report" in text
        assert "batches" in text
        assert "uvm.batches" in text


class TestModes:
    def test_full_has_high_frequency_detail(self, bfs_obs):
        assert len(bfs_obs.metrics.series("engine.events", "counter")) > 0
        arrivals = [
            e for e in bfs_obs.tracer.of_track("uvm") if e.name == "page arrival"
        ]
        assert arrivals

    def test_light_omits_high_frequency_detail(self):
        ob = run_tiny("KCORE", mode="light")
        assert ob.metrics.series("engine.events") == []
        assert ob.tracer.of_track("uvm") == []
        # ...but keeps the structural spans and aggregate metrics.
        assert ob.metrics.counter("uvm.batches").value > 0
        assert "batches" in ob.tracer.track_names()

    def test_off_leaves_simulator_uninstrumented(self):
        workload = build_workload("KCORE", scale="tiny", seed=0)
        config = systems.by_name("TO+UE").configure(workload)
        sim = GpuUvmSimulator(workload, config)
        assert sim.obs is None
        assert sim.engine.obs is None
        assert sim.observer is None
        assert sim.runtime.observer is None

    def test_session_installs_for_ambient_pickup(self):
        with obs.session("light") as ob:
            workload = build_workload("KCORE", scale="tiny", seed=0)
            config = systems.by_name("TO+UE").configure(workload)
            sim = GpuUvmSimulator(workload, config)
            assert sim.obs is ob
        assert obs.current() is None


class TestObserver:
    def test_subscribers_share_one_slot_across_a_checkpoint(self):
        """Recorder, analytics and invariant checker fan out from one
        observer that a mid-run checkpoint carries intact."""
        from repro.checkpoint import restore_checkpoint
        from repro.errors import SimulationError
        from repro.obs.observer import Fanout

        workload = build_workload("BFS-TTC", scale="tiny", seed=0)
        config = systems.by_name("TO+UE").configure(
            workload, check_invariants=True
        )

        def session():
            return Observability("full", analytics=True)

        whole = session()
        expected = GpuUvmSimulator(workload, config, obs=whole).run()
        sim = GpuUvmSimulator(workload, config, obs=session())
        assert isinstance(sim.observer, Fanout)
        assert sim.runtime.observer is sim.pcie.h2d.observer is sim.observer
        with pytest.raises(SimulationError):
            sim.run(max_events=2000)
        restored = restore_checkpoint(sim.snapshot())
        assert restored.resume() == expected
        assert restored.obs.metrics.snapshot() == whole.metrics.snapshot()
        resumed_run = restored.obs.analytics.runs[-1]
        whole_run = whole.analytics.runs[-1]
        assert len(resumed_run.batches) == len(whole_run.batches)
        assert resumed_run.attr.totals() == whole_run.attr.totals()


class TestDeterminism:
    def test_same_run_exports_identically(self):
        a = run_tiny("KCORE")
        b = run_tiny("KCORE")
        assert obs.render_chrome_trace(a.tracer) == obs.render_chrome_trace(
            b.tracer
        )
        assert a.metrics.snapshot() == b.metrics.snapshot()


class TestCli:
    def test_single_run_cli_writes_valid_files(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code = cli_main(
            [
                "KCORE", "--scale", "tiny",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
                "--report",
            ]
        )
        assert code == 0
        loaded = json.loads(trace.read_text())
        validate_chrome_events(loaded["traceEvents"])
        assert loaded["otherData"]["dropped_events"] == 0
        data = json.loads(metrics.read_text())
        assert data["snapshot"]["uvm.batches"] > 0
        out = capsys.readouterr().out
        assert "observability report" in out
        assert "trace:" in out

    def test_cli_obs_off_rejects_outputs(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                ["KCORE", "--obs", "off", "--trace-out", str(tmp_path / "t.json")]
            )

    @pytest.mark.parametrize("mode", ["full", "off"])
    def test_cli_timeline_renders_from_the_trace(self, mode, capsys):
        assert cli_main(["KCORE", "--obs", mode, "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "batch timeline:" in out
        assert "*" in out.split("batch timeline:")[1]  # arrival markers

    def test_cli_timeline_rejects_light_mode(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["KCORE", "--obs", "light", "--timeline"])
        assert excinfo.value.code == 2

    def test_cli_metrics_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        assert cli_main(["KCORE", "--scale", "tiny", "--metrics-out", str(path)]) == 0
        header = path.read_text().splitlines()[0]
        assert header.startswith("type,name,labels")

    def test_experiments_runner_writes_session_trace(self, tmp_path, capsys):
        trace = tmp_path / "exp-trace.json"
        metrics = tmp_path / "exp-metrics.json"
        code = runner_main(
            [
                "table1", "--scale", "tiny", "--no-cache", "--no-progress",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        assert obs.current() is None  # session uninstalled afterwards
        loaded = json.loads(trace.read_text())
        validate_chrome_events(loaded["traceEvents"])
        harness = [
            e
            for e in loaded["traceEvents"]
            if e["ph"] == "X" and e["pid"] == 1
        ]
        assert any(e["name"] == "table1" for e in harness)
