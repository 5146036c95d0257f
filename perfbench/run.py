"""The reproduction's benchmark: one workload per run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload repro-all --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 45 --trace 1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no tracing; ``--trace 1`` is a separate run that records spans around
the program's entry points and prints the per-layer metrics.  The last
line of standard output is the result object; everything before it is a
human-readable report (provenance, samples, failure kinds).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import platform
import shutil
import subprocess
import sys
import tempfile

import lib

WORKLOADS = ("repro-all", "serve-mix")

#: Per-layer prefix -> the end-to-end metrics (and workloads) it should move.
MOVES = {
    "workloads.": "warm_s on repro-all (fig1 and sec65 build in every "
    "process), cold_s on serve-mix (each pool worker builds)",
    "sim.": "cold_s on repro-all and serve-mix",
    "gpu.": "cold_s on repro-all and serve-mix",
    "vm.": "cold_s on repro-all and serve-mix",
    "uvm.": "cold_s on repro-all and serve-mix",
    "experiments.": "cold_s (cache writes) and warm_s (cache reads, fig1) "
    "on repro-all",
    "pool.": "cold_s on repro-all and serve-mix",
    "serve.": "warm_s (hits) and cold_s (misses) on serve-mix",
    "trace.": "none: the cost of the traced run itself",
}


def provenance() -> dict:
    import hashlib

    import numpy

    digest = hashlib.sha256()
    for path in sorted(lib.SRC.rglob("*.py")):
        digest.update(path.relative_to(lib.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": lib.nproc(),
        "platform": platform.platform(),
    }


def result_metrics(outcome: lib.Outcome, trace: bool) -> dict:
    """Attach units from BENCHMARK.json; refuse a missing or extra name."""
    declared = lib.catalogue()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(outcome.metrics))
    extra = sorted(set(outcome.metrics) - set(units))
    if missing or extra:
        raise SystemExit(f"metric set mismatch: missing {missing}, extra {extra}")
    out = {}
    for name, unit in units.items():
        value = float(outcome.metrics[name])
        if not math.isfinite(value):
            raise SystemExit(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": unit}
    return out


def print_layers(metrics: dict) -> None:
    for name, entry in metrics.items():
        moves = next(v for k, v in MOVES.items() if name.startswith(k))
        print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']:<6} -> {moves}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (lib.SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {lib.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(lib.SRC))
    import repro

    if not repro.__file__.startswith(str(lib.SRC)):
        print(f"repro imported from {repro.__file__}, not {lib.SRC}", file=sys.stderr)
        return 2

    # Untimed warm-up: write the program's bytecode caches, so the first
    # run in a fresh checkout times the same imports as every later run.
    compileall.compile_dir(lib.SRC, quiet=1)

    import serve_mix
    import sweep

    runner = {
        "repro-all": sweep.run,
        "serve-mix": serve_mix.run,
    }[args.workload]
    trace = bool(args.trace)
    lib.run_tmp().mkdir(parents=True)
    tempfile.tempdir = str(lib.run_tmp())
    try:
        outcome = runner(args.seed, args.seconds, trace)
    finally:
        shutil.rmtree(lib.run_tmp(), ignore_errors=True)

    print(f"provenance: {json.dumps(provenance(), sort_keys=True)}")
    if outcome.fidelity is not None:
        print(f"model fidelity: {json.dumps(outcome.fidelity, sort_keys=True)}")
    for line in outcome.report:
        print(line)
    print(
        f"operations: {outcome.attempted} attempted, {outcome.failed} failed, "
        f"error_rate {outcome.failed / max(1, outcome.attempted):.4f}, "
        f"failure kinds {json.dumps(outcome.failures, sort_keys=True)}"
    )
    for mismatch in outcome.mismatches:
        print(f"MISMATCH {mismatch}")
    # A failed operation (a missing table, a non-200 reply, a timeout)
    # fails the run: a healthy program fails none.
    correct = not outcome.mismatches and outcome.failed == 0 and bool(outcome.metrics)
    metrics = result_metrics(outcome, trace) if outcome.metrics else {}
    if trace and metrics:
        print("per-layer metrics (name, value, unit -> end-to-end metric it moves):")
        print_layers(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
