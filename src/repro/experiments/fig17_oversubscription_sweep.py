"""Figure 17 — sensitivity to the memory oversubscription ratio.

Sweeping the GPU memory capacity from 10% of the footprint to 100%:

* baseline execution time grows steeply as memory shrinks;
* the speedup of Unobtrusive Eviction over the baseline grows as
  evictions become more frequent (paper: ~1.63x at ratio 0.1, exactly
  1.0 at ratio 1.0 where no evictions happen).
"""

from __future__ import annotations

from repro import systems
from repro.experiments.common import (
    ExperimentResult,
    RunSpec,
    is_failure,
    run_cells,
)

EXPECTATION = (
    "Relative execution time rises monotonically as memory shrinks; UE's "
    "speedup scales up with oversubscription and is exactly 1.0 with all "
    "data resident."
)

RATIOS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def run(scale: str = "tiny", workload: str = "BFS-TTC", ratios=RATIOS) -> ExperimentResult:
    wl = workload
    result = ExperimentResult(
        experiment="fig17",
        title=(
            f"Figure 17: oversubscription-ratio sensitivity ({workload})"
        ),
        columns=["relative_exec_time", "ue_speedup"],
        notes=EXPECTATION,
    )
    # The full-memory baseline may repeat a swept ratio (1.0 by
    # default); run_cells runs a repeated cell once.
    full, *sweep = run_cells(
        [RunSpec(wl, preset=systems.BASELINE, scale=scale, ratio=1.0)]
        + [
            RunSpec(wl, preset=preset, scale=scale, ratio=ratio)
            for ratio in ratios
            for preset in (systems.BASELINE, systems.UE)
        ],
        label="fig17",
    )
    if is_failure(full):
        result.notes = f"cell failed: {full.summary()}"
        return result
    for k, ratio in enumerate(ratios):
        base, ue = sweep[2 * k : 2 * k + 2]
        if is_failure(base) or is_failure(ue):
            continue  # keep-going sweeps: skip rows with failed cells
        result.add_row(
            f"{ratio:.1f}",
            relative_exec_time=base.exec_cycles / full.exec_cycles,
            ue_speedup=base.exec_cycles / ue.exec_cycles,
        )
    return result
