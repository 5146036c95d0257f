"""Self-healing experiment runner: retries, keep-going, cache quarantine."""

import os
from dataclasses import replace

import pytest

from repro import systems
from repro.chaos.config import parse_chaos_spec
from repro.errors import CellFailure, SimulationError, SimulationStalledError
from repro.experiments import common
from repro.experiments import fig08_eviction_impact, fig17_oversubscription_sweep

FAILING_CHAOS = parse_chaos_spec("fail-batch:batch=0", seed=0)


@pytest.fixture()
def harness(tmp_path):
    """Isolated cache plus pristine execution policy, restored after."""
    saved = common.policy()
    common.set_policy(common.ExecutionPolicy())
    common.clear_run_cache()
    common.reset_cache_stats()
    common.set_cache_dir(tmp_path)
    common.set_cache_enabled(True)
    common.drain_failures()
    yield tmp_path
    common.set_cache_dir(None)
    common.set_cache_enabled(True)
    common.set_policy(saved)
    common.drain_failures()
    common.clear_run_cache()


def use_policy(**fields):
    """Patch the process policy for the rest of the test."""
    common.set_policy(replace(common.policy(), **fields))


def log_attempts(monkeypatch, log, fail_first=False):
    """Append ``"<pid> <memo digest> <outcome>"`` to ``log`` for every
    ``_simulate_spec`` call, in whichever process makes it (forked pool
    workers inherit the patch).  With ``fail_first``, each cell's first
    attempt raises ``OSError``."""
    real = common._simulate_spec

    def logged(spec):
        digest = common._spec_digest(spec)
        marker = log.with_name(f"{digest}.failed")
        outcome = "ok"
        try:
            if fail_first and not marker.exists():
                marker.touch()
                outcome = "OSError"
                raise OSError("spurious I/O hiccup")
            try:
                return real(spec)
            except Exception as exc:
                outcome = type(exc).__name__
                raise
        finally:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {digest} {outcome}\n")

    monkeypatch.setattr(common, "_simulate_spec", logged)
    monkeypatch.setattr(common, "_RETRY_BACKOFF", 0.0)


def read_attempts(log):
    """The ``(pid, digest, outcome)`` lines :func:`log_attempts` wrote."""
    return [tuple(line.split()) for line in log.read_text().splitlines()]


def two_cells():
    """Two distinct cells, so ``jobs=2`` really fans out to the pool."""
    return [
        common.RunSpec("KCORE", preset=preset, scale="tiny")
        for preset in (systems.BASELINE, systems.TO)
    ]


def specs(*chaos_slots):
    """One BFS-TTC cell per slot; a truthy slot injects failing chaos."""
    presets = (systems.BASELINE, systems.UE, systems.TO)
    return [
        common.RunSpec(
            "BFS-TTC",
            preset=presets[i % len(presets)],
            scale="tiny",
            chaos=FAILING_CHAOS if bad else None,
        )
        for i, bad in enumerate(chaos_slots)
    ]


class TestQuarantine:
    def test_corrupt_entry_quarantined_with_warning(self, harness):
        first = common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        (entry,) = harness.glob("*.pkl")
        entry.write_bytes(b"these are not the bytes you pickled")
        common.clear_run_cache()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            second = common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        assert second.exec_cycles == first.exec_cycles  # recomputed
        corrupt = list(harness.glob("*.pkl.corrupt"))
        assert len(corrupt) == 1, "corrupted entry must be kept for autopsy"
        assert list(harness.glob("*.pkl")), "recomputed result re-cached"

    def test_missing_entry_stays_a_silent_miss(self, harness):
        common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        for path in harness.glob("*.pkl"):
            path.unlink()
        common.clear_run_cache()
        common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        assert not list(harness.glob("*.pkl.corrupt"))

    def test_clear_persistent_cache_sweeps_quarantined_files(self, harness):
        common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        (entry,) = harness.glob("*.pkl")
        entry.write_bytes(b"junk")
        common.clear_run_cache()
        with pytest.warns(RuntimeWarning):
            common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        assert common.clear_persistent_cache() >= 2  # fresh .pkl + .corrupt
        assert not list(harness.glob("*"))


class TestOnErrorPolicy:
    def test_raise_policy_aborts_with_structured_failure(self, harness):
        use_policy(chaos=FAILING_CHAOS)
        with pytest.raises(CellFailure) as excinfo:
            common.run_system(systems.BASELINE, "BFS-TTC", scale="tiny")
        failure = excinfo.value
        assert failure.workload == "BFS-TTC"
        assert failure.system == "BASELINE"
        assert failure.error_type == "InjectionError"
        assert failure.__cause__ is not None  # chained to the original

    def test_keep_going_serial_sweep_completes(self, harness):
        use_policy(on_error="keep-going")
        results = common.run_cells(specs(False, True, False), jobs=1)
        assert [common.is_failure(r) for r in results] == [False, True, False]
        failures = common.drain_failures()
        assert len(failures) == 1
        assert failures[0].system == "UE"
        assert common.drain_failures() == []  # drained exactly once

    def test_keep_going_parallel_sweep_completes(self, harness):
        use_policy(on_error="keep-going")
        results = common.run_cells(specs(True, False, False), jobs=2)
        assert [common.is_failure(r) for r in results] == [True, False, False]
        assert len(common.drain_failures()) == 1

    def test_failed_cells_are_never_cached(self, harness):
        use_policy(on_error="keep-going")
        results = common.run_cells(specs(False, True, False), jobs=1)
        successes = sum(not common.is_failure(r) for r in results)
        assert len(list(harness.glob("*.pkl"))) == successes

    def test_failure_record_serializes(self, harness):
        use_policy(on_error="keep-going")
        common.run_cells(specs(True), jobs=1)
        (failure,) = common.drain_failures()
        record = failure.to_dict()
        assert record["workload"] == "BFS-TTC"
        assert record["error_type"] == "InjectionError"
        assert "fail-batch" in record["message"]
        assert "BFS-TTC" in failure.summary()


class TestRetryPolicy:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_error_retried(self, harness, monkeypatch, jobs):
        log = harness / "attempts.log"
        log_attempts(monkeypatch, log, fail_first=True)
        use_policy(retries=2)
        results = common.run_cells(two_cells(), jobs=jobs)
        assert all(result.exec_cycles > 0 for result in results)
        attempts = read_attempts(log)
        assert sorted(outcome for _, _, outcome in attempts) == [
            "OSError", "OSError", "ok", "ok"
        ], "each cell: one failed attempt, one retry"

    def test_pool_retries_run_in_the_worker(self, harness, monkeypatch):
        log = harness / "attempts.log"
        log_attempts(monkeypatch, log, fail_first=True)
        results = common.run_cells(two_cells(), jobs=2)
        assert not any(common.is_failure(r) for r in results)
        attempts = read_attempts(log)
        assert len(attempts) == 4
        assert str(os.getpid()) not in {pid for pid, _, _ in attempts}, (
            "the parent process must simulate nothing"
        )
        for digest in {digest for _, digest, _ in attempts}:
            pids = {pid for pid, d, _ in attempts if d == digest}
            assert len(pids) == 1, "a cell retries where it ran"

    def test_deterministic_error_not_retried(self, harness, monkeypatch):
        calls = []

        def broken(spec):
            calls.append(spec)
            raise SimulationError("same bits, same crash")

        monkeypatch.setattr(common, "_simulate_spec", broken)
        monkeypatch.setattr(common, "_RETRY_BACKOFF", 0.0)
        use_policy(retries=5, on_error="keep-going")
        result = common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        assert common.is_failure(result)
        assert len(calls) == 1, "re-running a deterministic failure is waste"

    def test_retry_budget_exhausted(self, harness, monkeypatch):
        calls = []

        def always_flaky(spec):
            calls.append(spec)
            raise OSError("the disk is on fire")

        monkeypatch.setattr(common, "_simulate_spec", always_flaky)
        monkeypatch.setattr(common, "_RETRY_BACKOFF", 0.0)
        use_policy(retries=2, on_error="keep-going")
        result = common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        assert common.is_failure(result)
        assert result.error_type == "OSError"
        assert len(calls) == 3  # first attempt + 2 retries

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unknown_exception_propagates(self, harness, monkeypatch, jobs):
        def buggy(spec):
            raise ValueError("a bug, not a cell failure")

        monkeypatch.setattr(common, "_simulate_spec", buggy)
        use_policy(on_error="keep-going")
        with pytest.raises(ValueError) as excinfo:
            common.run_cells(two_cells(), jobs=jobs)
        assert type(excinfo.value) is ValueError
        assert common.drain_failures() == []


class TestOneRunPerCell:
    def test_repeated_spec_runs_once(self, harness, monkeypatch):
        log = harness / "attempts.log"
        log_attempts(monkeypatch, log)
        spec = common.RunSpec("KCORE", preset=systems.BASELINE, scale="tiny")
        first, second = common.run_cells([spec, spec], jobs=1)
        assert len(read_attempts(log)) == 1, "one simulation per memo key"
        assert first is second

    def test_repeated_failing_spec_has_one_failure_record(self, harness):
        use_policy(on_error="keep-going")
        (bad,) = specs(True)
        first, second = common.run_cells([bad, bad], jobs=1)
        assert common.is_failure(first)
        assert first is second
        assert len(common.drain_failures()) == 1

    @pytest.mark.parametrize(
        "experiment, jobs",
        [(fig17_oversubscription_sweep, 2), (fig08_eviction_impact, 1)],
        ids=["fig17", "fig8"],
    )
    def test_keep_going_figure_records_each_failed_cell_once(
        self, harness, monkeypatch, experiment, jobs
    ):
        log = harness / "attempts.log"
        log_attempts(monkeypatch, log)
        use_policy(
            jobs=jobs,
            on_error="keep-going",
            chaos=parse_chaos_spec("fail-batch:batch=2", seed=0),
        )
        experiment.run(scale="tiny")
        failures = common.drain_failures()
        assert all(f.error_type == "InjectionError" for f in failures)
        failed = [digest for _, digest, outcome in read_attempts(log)
                  if outcome == "InjectionError"]
        assert len(failed) == len(set(failed)), "a cell ran twice"
        assert len(failures) == len(failed)
        if experiment is fig17_oversubscription_sweep:
            ratios = fig17_oversubscription_sweep.RATIOS
            assert len(failures) == 1 + 2 * len(ratios) - 1

    def test_failure_records_name_their_cell(self, harness):
        use_policy(
            on_error="keep-going",
            chaos=parse_chaos_spec("fail-batch:batch=2", seed=0),
        )
        fig17_oversubscription_sweep.run(scale="tiny")
        failures = common.drain_failures()
        ratios = fig17_oversubscription_sweep.RATIOS
        assert len(failures) == 1 + 2 * len(ratios) - 1
        records = [failure.to_dict() for failure in failures]
        cells = {record["context"]["cell"] for record in records}
        assert len(cells) == len(records), "two records name one cell"
        for system in ("BASELINE", "UE"):
            swept = [f.context["ratio"] for f in failures if f.system == system]
            assert sorted(swept) == sorted(ratios)
        for failure in failures:
            assert "fault_handling_cycles" in failure.context
            assert f"@{failure.context['ratio']}:" in failure.summary()


class TestCellTimeout:
    # ratio=0.5 keeps the cell above the watchdog's 8192-event sampling
    # interval; a shorter run finishes before the deadline is ever read.
    def test_timeout_becomes_structured_failure(self, harness):
        use_policy(cell_timeout=1e-9, on_error="keep-going")
        result = common.run_system(
            systems.BASELINE, "BFS-TTC", scale="tiny", ratio=0.5
        )
        assert common.is_failure(result)
        assert result.error_type == "SimulationStalledError"

    def test_timeout_raises_under_default_policy(self, harness):
        use_policy(cell_timeout=1e-9)
        with pytest.raises(CellFailure) as excinfo:
            common.run_system(
                systems.BASELINE, "BFS-TTC", scale="tiny", ratio=0.5
            )
        assert isinstance(excinfo.value.__cause__, SimulationStalledError)


class TestPolicyDefaults:
    def test_resolved_fills_policy_defaults(self, harness):
        chaos = parse_chaos_spec("drop-fault:prob=0.1", seed=5)
        use_policy(chaos=chaos, invariants=True, cell_timeout=30.0)
        spec = common.RunSpec("KCORE", preset=systems.BASELINE).resolved()
        assert spec.chaos == chaos
        assert spec.check_invariants is True
        assert spec.wall_budget_seconds == 30.0

    def test_explicit_spec_beats_defaults(self, harness):
        use_policy(chaos=FAILING_CHAOS)
        other = parse_chaos_spec("dup-fault:prob=0.2", seed=1)
        spec = common.RunSpec(
            "KCORE", preset=systems.BASELINE, chaos=other
        ).resolved()
        assert spec.chaos == other

    def test_explicit_policy_beats_process_policy(self, harness):
        use_policy(invariants=True, cell_timeout=30.0)
        own = common.ExecutionPolicy(cell_timeout=5.0)
        spec = common.RunSpec("KCORE", preset=systems.BASELINE).resolved(own)
        assert spec.check_invariants is False
        assert spec.wall_budget_seconds == 5.0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(cell_timeout=0),
            dict(retries=-1),
            dict(checkpoint_every=0),
            dict(breaker_threshold=0),
            dict(on_error="shrug"),
            dict(jobs=0),
            dict(worker_deadline=0),
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_policy_rejects_invalid_values(self, bad):
        with pytest.raises(ValueError):
            common.ExecutionPolicy(**bad)
