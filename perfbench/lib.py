"""Shared helpers for the benchmark: paths, statistics, result digests,
child processes and the per-layer attribution built from the simulator's
component profiler.

Nothing here starts a process or touches a file at import time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import resource
import signal
import statistics
import subprocess
import time

#: The checkout root: the benchmark runs from there, so ``src/`` and
#: ``BENCHMARK.json`` are found relative to it.
ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = pathlib.Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"
#: Scratch space for caches, outputs and ready-files; inside the checkout.
TMP_ROOT = ROOT / ".perfbench_tmp"

#: Graph seeds with committed expected results; ``--seed n`` runs graph
#: seed ``n % GRAPH_SEEDS`` so every seed has a correctness reference.
GRAPH_SEEDS = 10
SCALE = "tiny"


def graph_seed(seed: int) -> int:
    return seed % GRAPH_SEEDS


def child_env() -> dict[str, str]:
    """Environment for program subprocesses: the checkout's ``src`` only,
    with unbuffered output so each line reaches the pipe when printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(run_tmp())
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_JOBS", None)
    return env


def run_tmp() -> pathlib.Path:
    """This benchmark process's scratch root, removed when the run ends."""
    return TMP_ROOT / f"run-{os.getpid()}"


def scratch_dir(name: str) -> pathlib.Path:
    """A fresh, empty directory under this run's scratch root."""
    path = run_tmp() / f"{name}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def fmt_seconds(values) -> str:
    return ", ".join(f"{v:.3f}" for v in values)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def children_peak_rss_mb() -> float:
    """Peak resident set of the largest waited-for descendant, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ----------------------------------------------------------------------
# Result digests (the correctness references)
# ----------------------------------------------------------------------
#: ``events_processed`` counts engine events, an implementation detail a
#: speed-only change may lower; every other field is simulated output.
DIGEST_EXCLUDED = ("events_processed",)


def result_digest(payload: dict) -> str:
    """sha256 of a result's simulated statistics.

    ``payload`` is ``dataclasses.asdict(result)`` or the server's JSON
    ``result`` field; both serialise to the same canonical text.
    """
    fields = {k: v for k, v in payload.items() if k not in DIGEST_EXCLUDED}
    text = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def sim_digest(result) -> str:
    return result_digest(dataclasses.asdict(result))


def cell_key(workload: str, system: str) -> str:
    return f"{workload}/{system}"


def load_expected(seed: int) -> dict:
    """Committed Figure-11 grid results for one graph seed, by cell key."""
    path = EXPECTED_DIR / f"seed{graph_seed(seed)}.json"
    return json.loads(path.read_text())["fig11"]


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def stop_process(proc: subprocess.Popen, grace: float = 20.0) -> int:
    """SIGTERM, wait up to ``grace`` seconds, then SIGKILL; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            return proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
    return proc.wait()


# ----------------------------------------------------------------------
# Per-layer attribution from repro.obs.ComponentProfiler
# ----------------------------------------------------------------------
#: Profiler component -> (self-time metric, call-count metric or None).
COMPONENT_METRICS = {
    "warp.issue": ("gpu.warp_issue_self_s", "gpu.warp_issue_calls"),
    "warp.wake": ("gpu.warp_wake_self_s", None),
    "pt.translate": ("vm.translate_self_s", None),
    "pt.walk": ("vm.walk_self_s", "vm.walks"),
    "fault.raise": ("uvm.fault_raise_self_s", None),
    "batch.preprocess": ("uvm.batch_preprocess_self_s", None),
    "prefetch.expand": ("uvm.prefetch_expand_self_s", "uvm.prefetch_expand_calls"),
    "evict": ("uvm.evict_self_s", None),
    "page.arrival": ("uvm.page_arrival_self_s", None),
}


class LayerProfile:
    """Aggregates ComponentProfiler attributions and result counters over
    many simulations, attaching one profiler per simulator from outside."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = {c: 0 for c in COMPONENT_METRICS}
        self.calls: dict[str, int] = {c: 0 for c in COMPONENT_METRICS}
        self.wall_ns = 0
        self.sims = 0
        self.counts = {
            "events": 0,
            "faults": 0,
            "batches": 0,
            "evicted": 0,
            "premature": 0,
            "migrated": 0,
            "prefetched": 0,
        }

    def attach(self, sim) -> None:
        """Profile ``sim``'s next run; usable as a ``set_cell_hook`` hook."""
        from repro.obs import ComponentProfiler

        prof = ComponentProfiler().attach(sim)
        run = sim.run

        def profiled_run(*args, **kwargs):
            try:
                result = run(*args, **kwargs)
            finally:
                prof.detach()
                self._absorb(prof)
            self.add_result(result)
            return result

        sim.run = profiled_run

    def _absorb(self, prof) -> None:
        for component, ns in prof.self_ns.items():
            self.self_ns[component] = self.self_ns.get(component, 0) + ns
            self.calls[component] = (
                self.calls.get(component, 0) + prof.calls[component]
            )
        self.wall_ns += prof.wall_ns
        self.sims += 1

    def add_result(self, result) -> None:
        counts = self.counts
        counts["events"] += result.events_processed
        counts["faults"] += result.faults_raised
        counts["batches"] += result.batch_stats.num_batches
        counts["evicted"] += result.evicted_pages
        counts["premature"] += result.premature_refaults
        counts["migrated"] += result.migrated_pages
        counts["prefetched"] += result.prefetched_pages

    def metrics(self) -> dict[str, float]:
        """Layer metrics over every profiled simulation."""
        out: dict[str, float] = {}
        for component, (self_name, calls_name) in COMPONENT_METRICS.items():
            out[self_name] = self.self_ns.get(component, 0) / 1e9
            if calls_name:
                out[calls_name] = self.calls.get(component, 0)
        issue_calls = self.calls.get("warp.issue", 0)
        expand_calls = self.calls.get("prefetch.expand", 0)
        out["gpu.warp_issue_us_per_call"] = (
            self.self_ns.get("warp.issue", 0) / 1e3 / issue_calls
            if issue_calls
            else 0.0
        )
        out["uvm.prefetch_expand_us_per_call"] = (
            self.self_ns.get("prefetch.expand", 0) / 1e3 / expand_calls
            if expand_calls
            else 0.0
        )
        wall = self.wall_ns / 1e9
        residual = max(0.0, wall - sum(self.self_ns.values()) / 1e9)
        counts = self.counts
        out["sim.wall_s"] = wall
        out["sim.events"] = counts["events"]
        out["sim.events_per_s"] = counts["events"] / wall if wall else 0.0
        out["sim.residual_self_s"] = residual
        out["sim.residual_share"] = residual / wall if wall else 0.0
        out["uvm.faults"] = counts["faults"]
        out["uvm.batches"] = counts["batches"]
        out["uvm.evicted_pages"] = counts["evicted"]
        out["uvm.premature_eviction_rate"] = (
            counts["premature"] / counts["evicted"] if counts["evicted"] else 0.0
        )
        out["uvm.migrated_pages"] = counts["migrated"]
        out["uvm.prefetched_pages"] = counts["prefetched"]
        return out


def build_workloads(names, seed: int) -> tuple[dict, float]:
    """Build every named workload at ``seed``; returns (workloads, seconds)."""
    from repro import build_workload

    start = time.perf_counter()
    built = {name: build_workload(name, scale=SCALE, seed=seed) for name in names}
    return built, time.perf_counter() - start


# ----------------------------------------------------------------------
# Spans recorded around calls into the program's public entry points
# ----------------------------------------------------------------------
class Spans:
    """In-memory span recorder for one traced run (single-threaded).

    Each span is ``(name, start, end)``, recorded when a call into the
    program returns and reduced to metrics when the run ends.
    """

    def __init__(self) -> None:
        self.records: list[tuple[str, float, float]] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records.append((name, start, time.perf_counter()))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper until
        :meth:`unwrap`.  A memoised (``lru_cache``) function records a
        span only when the call missed its memo."""
        fn = getattr(owner, attr)
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if cache_info is None or cache_info().misses > misses:
                    self.records.append((name, start, time.perf_counter()))

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def wrap_everywhere(self, modules, attr: str, name: str) -> None:
        """Wrap ``attr`` in every module that bound the same function."""
        original = getattr(modules[0], attr)
        for module in modules:
            if getattr(module, attr, None) is original:
                self.wrap(module, attr, name)

    def unwrap(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def mark(self) -> int:
        """A position in the record; pass two marks to window a query."""
        return len(self.records)

    def _durations(self, name: str, since: int, until: int | None) -> list[float]:
        return [
            end - start
            for n, start, end in self.records[since:until]
            if n == name
        ]

    def total(self, name: str, since: int = 0, until: int | None = None) -> float:
        return sum(self._durations(name, since, until))

    def count(self, name: str, since: int = 0, until: int | None = None) -> int:
        return len(self._durations(name, since, until))


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def catalogue() -> dict:
    """``BENCHMARK.json``: the declared workloads and metrics with units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def idle_layers(prefixes) -> dict[str, float]:
    """Zero for every per-layer metric of a layer a workload leaves idle."""
    return {
        m["name"]: 0.0
        for m in catalogue()["per_layer"]
        if m["name"].startswith(tuple(prefixes))
    }


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failures: dict[str, int]
    mismatches: list[str]
    report: list[str]
    #: Simulated speed-ups beside the paper's, where the run produced them.
    fidelity: dict | None = None

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


#: Figure 11's TO+UE average speed-up over BASELINE in the paper.
PAPER_TO_UE_SPEEDUP = 2.0


def fidelity(to_ue_average: float) -> dict:
    """The model's error against the paper, stamped beside each result."""
    return {
        "fig11_to_ue_average_speedup": to_ue_average,
        "paper_to_ue_average_speedup": PAPER_TO_UE_SPEEDUP,
        "relative_error": to_ue_average / PAPER_TO_UE_SPEEDUP - 1,
        "reference": "the paper is the only reference; the model is otherwise unvalidated",
    }
