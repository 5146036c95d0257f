"""Section 6.5 — sensitivity to the context-switching overhead.

The paper compares TO with its global-memory context-switch cost against
a close-to-ideal variant using an infinite-size shared memory (the VT
equations), and finds overall execution time insensitive: under demand
paging the switch latency hides inside the batch stalls.

We sweep the context cost multiplier (0 = free, 1 = the global-memory
model, 2 = doubled) and report TO+UE execution time normalised to the
multiplier-1 run.
"""

from __future__ import annotations

from dataclasses import replace

from repro import systems
from repro.experiments.common import (
    ExperimentResult,
    RunSpec,
    half_ratio,
    run_cells,
)
from repro.workloads.registry import build_workload

EXPECTATION = (
    "TO+UE execution time changes only marginally across context-switch "
    "cost models (the paper found it insensitive)."
)

MULTIPLIERS = (0.0, 0.5, 1.0, 2.0)


def run(scale: str = "tiny", workload: str = "BFS-TTC",
        multipliers=MULTIPLIERS, ratio=None) -> ExperimentResult:
    wl = build_workload(workload, scale=scale)
    if ratio is None:
        ratio = half_ratio(scale)
    result = ExperimentResult(
        experiment="sec65",
        title=(
            f"Section 6.5: TO+UE sensitivity to context switch cost "
            f"({workload})"
        ),
        columns=["exec_cycles", "normalised", "switch_cycles"],
        notes=EXPECTATION,
    )
    config = systems.TO_UE.configure(wl, ratio=ratio)
    cells = [
        RunSpec(
            workload=workload,
            config=replace(
                config,
                gpu=replace(config.gpu, context_cost_multiplier=multiplier),
            ),
            scale=scale,
        )
        for multiplier in multipliers
    ]
    runs = dict(zip(multipliers, run_cells(cells, label="sec65")))
    reference = runs.get(1.0) or next(iter(runs.values()))
    for multiplier, run_result in runs.items():
        result.add_row(
            f"x{multiplier:g}",
            exec_cycles=run_result.exec_cycles,
            normalised=run_result.exec_cycles / reference.exec_cycles,
            switch_cycles=run_result.switch_cycles,
        )
    return result
