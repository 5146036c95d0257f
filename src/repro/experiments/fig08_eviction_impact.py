"""Figure 8 — the cost of oversubscription and of eviction latency.

Two bars per workload, both normalised to a GPU with unlimited memory:

* **BASELINE** — 50%-oversubscribed memory (calibrated ratio, see
  DESIGN.md §5) with the usual serialized evictions.  Paper: average
  performance drops to ~0.54 of unlimited.
* **IDEAL EVICTION** — the same but evictions take zero time.  Paper:
  removing eviction latency buys back ~16%.
"""

from __future__ import annotations

from repro import systems
from repro.experiments.common import (
    PAPER_WORKLOADS,
    ExperimentResult,
    RunSpec,
    is_failure,
    run_cells,
)

EXPECTATION = (
    "Oversubscription costs every workload a large fraction of its "
    "performance; instant (ideal) eviction recovers a consistent chunk "
    "(~16% in the paper) but not all of it."
)


def run(scale: str = "tiny", workloads=PAPER_WORKLOADS, ratio=None) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig8",
        title=(
            "Figure 8: performance under oversubscription normalised to "
            "unlimited memory"
        ),
        columns=["baseline", "ideal_eviction"],
        notes=EXPECTATION,
    )
    settings = (
        (systems.UNLIMITED, 1.0),
        (systems.BASELINE, ratio),
        (systems.IDEAL_EVICTION, ratio),
    )
    runs = run_cells(
        [
            RunSpec(name, preset=preset, scale=scale, ratio=cell_ratio)
            for name in workloads
            for preset, cell_ratio in settings
        ],
        label="fig8",
    )
    for k, name in enumerate(workloads):
        unlimited, baseline, ideal = runs[3 * k : 3 * k + 3]
        if is_failure(unlimited) or is_failure(baseline) or is_failure(ideal):
            continue  # keep-going sweeps: skip rows with failed cells
        result.add_row(
            name,
            baseline=unlimited.exec_cycles / baseline.exec_cycles,
            ideal_eviction=unlimited.exec_cycles / ideal.exec_cycles,
        )
    result.add_row(
        "AVERAGE",
        baseline=result.mean("baseline"),
        ideal_eviction=result.mean("ideal_eviction"),
    )
    return result
