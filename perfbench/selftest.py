"""Self-test: every declared metric is emitted, by name and with its unit.

Run from the repository root::

    python3 perfbench/selftest.py            # every workload, both modes (~4 min)

It checks ``BENCHMARK.json`` against the benchmark's format limits, runs
``perfbench/run.py`` for one second per workload with ``--trace 0`` and
``--trace 1``, and requires the last output line to be a correct result
carrying exactly the declared metrics with their declared units.  It
also runs the benchmark in a directory holding only ``BENCHMARK.json``
and ``perfbench/``, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import lib
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_catalogue(problems: list[str]) -> dict:
    bench = lib.catalogue()
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(bench)} != {sorted(keys)}")
    names = [w["name"] for w in bench["workloads"]]
    if names != list(run.WORKLOADS):
        problems.append(f"workloads {names} != run.py's {list(run.WORKLOADS)}")
    metrics = bench["end_to_end"] + bench["per_layer"]
    seen = set()
    for metric in metrics:
        name = metric["name"]
        if not NAME.match(name) or name in seen:
            problems.append(f"bad or repeated metric name {name!r}")
        seen.add(name)
        if not UNIT.match(metric["unit"]):
            problems.append(f"bad unit {metric['unit']!r} for {name}")
    for metric in bench["end_to_end"]:
        if not 0 < metric["bound"] <= 0.25:
            problems.append(f"bound of {metric['name']} outside (0, 0.25]")
    for metric in bench["per_layer"]:
        if not any(metric["name"].startswith(prefix) for prefix in run.MOVES):
            problems.append(f"{metric['name']} maps to no end-to-end metric")
    return bench


def check_run(bench: dict, workload: str, trace: int, problems: list[str]) -> None:
    where = f"{workload} --trace {trace}"
    proc = subprocess.run(
        [
            sys.executable, str(lib.BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        cwd=lib.ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{where}: not a correct result: {lines[-1][:200]}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if emitted != declared:
        problems.append(
            f"{where}: emitted metrics differ: missing "
            f"{sorted(set(declared) - set(emitted))}, extra "
            f"{sorted(set(emitted) - set(declared))}, units "
            f"{sorted(n for n in emitted if emitted[n] != declared.get(n, emitted[n]))}"
        )
    if not trace:
        zero = [n for n, entry in result["metrics"].items() if entry["value"] <= 0]
        if zero:
            problems.append(f"{where}: end-to-end metrics not positive: {zero}")
    print(f"ok {where}: {len(emitted)} metrics", flush=True)


def check_refuses_without_source(problems: list[str]) -> None:
    bare = lib.scratch_dir("bare")
    shutil.copy(lib.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        lib.BENCH_DIR,
        bare / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", run.WORKLOADS[0],
            "--seed", "1",
            "--seconds", "1",
            "--trace", "0",
        ],
        capture_output=True,
        text=True,
        cwd=bare,
        timeout=180,
    )
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("a directory without src/ still produced a result")
    else:
        print("ok refuses to run without the program source", flush=True)


def main() -> int:
    problems: list[str] = []
    bench = check_catalogue(problems)
    lib.run_tmp().mkdir(parents=True)
    try:
        check_refuses_without_source(problems)
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                check_run(bench, workload, trace, problems)
    finally:
        shutil.rmtree(lib.run_tmp(), ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
