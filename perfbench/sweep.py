"""``repro-all``: what a reproducer runs -- every figure and table, cold then warm.

The timed run starts ``python -m repro.experiments all --scale tiny
--jobs $(nproc)`` (the ``repro-experiments`` entry point) on a fresh
cache directory, then again in new processes on the filled cache until
``--seconds`` have passed since the cold pass started (at least
``WARM_PASSES`` times).  The input is the paper's fixed figure set, so
``--seed`` does not apply.

``setup_s`` is spawn to the first table line on the child's (unbuffered)
standard output, sampled on every invocation, including the
``repro-experiments table1`` probes that follow each warm pass.

The traced run drives the same experiment modules in-process, with spans
around each experiment's ``run``, every ``run_cells`` call and every
``build_workload`` call that misses its memo (a real build), and
captures each supervised pool's counters when it closes:

1. cold pass at ``--jobs $(nproc)`` on a fresh cache;
2. warm pass on the filled cache (in-process memo dropped first);
3. serial pass with the run cache off and a ``ComponentProfiler`` on
   every simulator (through ``experiments.common.set_cell_hook``),
   Figure 11 first;
4. Figure 11 again, serial and unprofiled: the tracing-overhead baseline.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time

import lib

RESULTS_DIR = lib.ROOT / "benchmarks" / "results"
COMPLETED = re.compile(r"^\[(\S+) completed in ")
IDLE_LAYERS = ("serve.",)
#: Experiments that simulate no cells; the profiled serial pass skips them.
NO_CELLS = ("table1", "fig1", "sec65")
#: Fewest warm invocations per timed run, whatever ``--seconds`` says.
WARM_PASSES = 3
#: Extra ``setup_s`` samples after each warm pass, so they spread over
#: the run: ``repro-experiments table1`` pays the same spawn-to-first-table
#: cost as ``all`` and exits right after it.
PROBES_PER_PASS = 4


def _experiment_ids() -> list[str]:
    from repro.experiments.runner import EXPERIMENTS

    return list(EXPERIMENTS)


def _check_rendering(name: str, text: str, mismatches: list, where: str) -> None:
    committed = (RESULTS_DIR / f"{name}.txt").read_text()
    if text != committed:
        mismatches.append(f"{where}: {name} table differs from benchmarks/results/{name}.txt")


def fidelity_from_fig11(table: str) -> dict:
    """Figure 11's TO+UE average speed-up beside the paper's 2x."""
    header = next(line for line in table.splitlines() if line.startswith("workload"))
    average = next(line for line in table.splitlines() if line.startswith("AVERAGE"))
    value = float(average.split()[header.split().index("TO+UE")])
    return lib.fidelity(value)


def run(seed: int, seconds: float, trace: bool) -> lib.Outcome:
    del seed  # the paper's figure set is the input
    return (_run_traced if trace else _run_timed)(seconds)


# ----------------------------------------------------------------------
# Timed: the CLI in subprocesses
# ----------------------------------------------------------------------
def _cli_pass(cache, tag: str, ids, mismatches, failures, target="all"):
    """One CLI invocation of ``target``, which renders ``ids``; returns
    (wall, spawn-to-first-table, stdout, output directory)."""
    out = lib.scratch_dir(tag)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m", "repro.experiments", target,
            "--scale", lib.SCALE,
            "--jobs", str(lib.nproc()),
            "--cache-dir", str(cache),
            "--output", str(out),
            "--no-progress",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=lib.child_env(),
    )
    first = None
    lines = []
    try:
        for line in proc.stdout:
            if first is None and line.strip():
                first = time.perf_counter() - start
            lines.append(line)
    finally:
        code = lib.stop_process(proc)
    wall = time.perf_counter() - start
    done = {m.group(1) for m in map(COMPLETED.match, lines) if m}
    for name in ids:
        path = out / f"{name}.txt"
        if name not in done or not path.is_file():
            failures["experiment_incomplete"] = failures.get("experiment_incomplete", 0) + 1
            mismatches.append(f"{tag}: {name} produced no table")
            continue
        _check_rendering(name, path.read_text(), mismatches, tag)
    if code != 0:
        failures["exit_nonzero"] = failures.get("exit_nonzero", 0) + 1
    return wall, first if first is not None else wall, "".join(lines), out


def _run_timed(seconds: float) -> lib.Outcome:
    ids = _experiment_ids()
    cache = lib.scratch_dir("cache")
    mismatches: list[str] = []
    failures: dict[str, int] = {}
    start = time.perf_counter()
    cold, first_cold, cold_out, cold_dir = _cli_pass(
        cache, "cold", ids, mismatches, failures
    )
    setups = [first_cold]
    warms = []
    while len(warms) < WARM_PASSES or time.perf_counter() - start < seconds:
        wall, first, _, _ = _cli_pass(cache, "warm", ids, mismatches, failures)
        warms.append(wall)
        setups.append(first)
        for _ in range(PROBES_PER_PASS):
            _, first, _, _ = _cli_pass(
                cache, "setup", ["table1"], mismatches, failures, target="table1"
            )
            setups.append(first)
    attempted = (len(ids) + PROBES_PER_PASS) * len(warms) + len(ids)
    metrics = {
        "setup_s": lib.median(setups),
        "cold_s": cold,
        "warm_s": lib.median(warms),
        "peak_rss_mb": lib.children_peak_rss_mb(),
    }
    cli_lines = [f"    {l}" for l in cold_out.splitlines() if COMPLETED.match(l)]
    report = [
        f"repro-all: {len(ids)} experiments per pass, --jobs {lib.nproc()}, "
        f"1 cold and {len(warms)} warm passes",
        f"  setup samples (s): {lib.fmt_seconds(setups)}",
        f"  cold pass {cold:.3f} s; warm passes (s): {lib.fmt_seconds(warms)}",
        "  cold pass, as the CLI reports it:",
        *cli_lines,
    ]
    fig11 = cold_dir / "fig11.txt"
    return lib.Outcome(
        metrics,
        attempted,
        failures,
        mismatches,
        report,
        fidelity_from_fig11(fig11.read_text()) if fig11.is_file() else None,
    )


# ----------------------------------------------------------------------
# Traced: the experiment modules in-process
# ----------------------------------------------------------------------
def _experiment_pass(spans, ids, mismatches, failures, where):
    from repro.experiments.runner import EXPERIMENTS

    tables = {}
    for name in ids:
        try:
            with spans.span(f"experiments.{name}"):
                result = EXPERIMENTS[name].run(scale=lib.SCALE)
        except Exception as exc:  # one failed experiment; the pass goes on
            failures[type(exc).__name__] = failures.get(type(exc).__name__, 0) + 1
            mismatches.append(f"{where}: {name} raised {type(exc).__name__}")
            continue
        # The CLI's --output files are the table plus a newline.
        tables[name] = result.format_table() + "\n"
        _check_rendering(name, tables[name], mismatches, where)
    return tables


def _run_traced(seconds: float) -> lib.Outcome:
    del seconds  # the traced passes are fixed work
    from repro.experiments import common
    from repro.experiments.runner import EXPERIMENTS
    from repro.pool import SupervisedPool

    ids = _experiment_ids()
    mismatches: list[str] = []
    failures: dict[str, int] = {}
    spans = lib.Spans()
    repro_modules = [
        m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "repro"
    ]
    spans.wrap_everywhere(
        [common, *EXPERIMENTS.values()], "run_cells", "experiments.run_cells"
    )
    from repro.workloads import registry

    spans.wrap_everywhere(
        [registry, *repro_modules], "build_workload", "workloads.build"
    )
    pool_stats: list[dict] = []
    close = SupervisedPool.close

    def close_and_record(self):
        pool_stats.append(self.stats())
        return close(self)

    SupervisedPool.close = close_and_record
    profile = lib.LayerProfile()
    attempted = 0
    try:
        common.set_cache_dir(lib.scratch_dir("cache"))
        common.set_default_jobs(lib.nproc())
        common.clear_run_cache()
        common.reset_cache_stats()

        start = time.perf_counter()
        cold = spans.mark()
        tables = _experiment_pass(spans, ids, mismatches, failures, "cold")
        cold_wall = time.perf_counter() - start
        cold_stats = common.cache_stats()

        common.clear_run_cache()
        common.reset_cache_stats()
        warm = spans.mark()
        start = time.perf_counter()
        _experiment_pass(spans, ids, mismatches, failures, "warm")
        warm_wall = time.perf_counter() - start
        warm_stats = common.cache_stats()
        attempted += 2 * len(ids)

        common.set_default_jobs(1)
        common.set_cache_enabled(False)
        common.clear_run_cache()
        serial_ids = ["fig11"] + [i for i in ids if i not in NO_CELLS + ("fig11",)]
        common.set_cell_hook(profile.attach)
        serial = spans.mark()
        try:
            _experiment_pass(spans, serial_ids, mismatches, failures, "serial profiled")
        finally:
            common.set_cell_hook(None)

        common.clear_run_cache()
        plain = spans.mark()
        _experiment_pass(spans, ["fig11"], mismatches, failures, "serial plain")
        attempted += len(serial_ids) + 1
    finally:
        SupervisedPool.close = close
        spans.unwrap()
        common.set_cache_enabled(True)
        common.set_cache_dir(None)
        common.clear_run_cache()

    parallel_cells_s = spans.total("experiments.run_cells", cold, warm)
    serial_cells_s = spans.total("experiments.run_cells", serial, plain)
    traced_fig11 = spans.total("experiments.fig11", serial, plain)
    plain_fig11 = spans.total("experiments.fig11", plain)
    hits = cold_stats["memory_hits"] + warm_stats["memory_hits"]
    disk = cold_stats["disk_hits"] + warm_stats["disk_hits"]
    misses = cold_stats["misses"] + warm_stats["misses"]
    metrics = lib.idle_layers(IDLE_LAYERS)
    metrics.update(profile.metrics())
    metrics.update(
        {
            f"experiments.{name}_s": spans.total(f"experiments.{name}", cold, warm)
            for name in ids
        }
    )
    metrics.update(
        {
            "workloads.build_s": spans.total("workloads.build", cold, warm),
            "workloads.builds": spans.count("workloads.build", cold, warm),
            "experiments.run_cells_s": parallel_cells_s,
            "experiments.cells_run": cold_stats["misses"],
            "experiments.cache_memory_hits": hits,
            "experiments.cache_disk_hits": disk,
            "experiments.cache_misses": misses,
            "experiments.cache_hit_ratio": (hits + disk) / max(1, hits + disk + misses),
            "pool.parallel_efficiency": serial_cells_s
            / (lib.nproc() * parallel_cells_s),
            "pool.completed": sum(s["completed"] for s in pool_stats),
            "pool.restarts": sum(s["restarts"] for s in pool_stats),
            "pool.crashes": sum(s["crashes"] for s in pool_stats),
            "trace.overhead_s": traced_fig11 - plain_fig11,
            "trace.overhead_share": (traced_fig11 - plain_fig11) / plain_fig11,
        }
    )
    report = [
        f"repro-all traced: cold pass {cold_wall:.3f} s and warm pass "
        f"{warm_wall:.3f} s in-process at --jobs {lib.nproc()}; "
        f"{len(pool_stats)} pools",
        f"  serial profiled pass: {profile.sims} cells, run_cells "
        f"{serial_cells_s:.3f} s; fig11 traced {traced_fig11:.3f} s "
        f"against {plain_fig11:.3f} s plain",
    ]
    return lib.Outcome(
        metrics,
        attempted,
        failures,
        mismatches,
        report,
        fidelity_from_fig11(tables["fig11"]) if "fig11" in tables else None,
    )
