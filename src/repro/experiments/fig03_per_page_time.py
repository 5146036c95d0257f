"""Figure 3 — per-page fault handling time vs. batch size.

The paper profiles BFS on a Titan Xp and finds that the time to handle
each page falls steeply as batches grow: the fixed GPU-runtime fault
handling cost amortises over more pages.  We reproduce the scatter from
the simulated baseline's batch records (per-page time = batch processing
time / pages in the batch).
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
    "Per-page fault handling time decreases monotonically (hyperbolically) "
    "with batch size: fixed fault-handling cost amortised over more pages."
)


def run(scale: str = "tiny", workload: str = "BFS-TTC") -> ExperimentResult:
    (sim,) = run_cells(
        [RunSpec(workload, preset=systems.BASELINE, scale=scale)],
        label="fig3",
    )
    result = ExperimentResult(
        experiment="fig3",
        title=(
            "Figure 3: per-page fault handling time vs batch size "
            f"({workload}, baseline)"
        ),
        columns=["batch_kb", "pages", "per_page_us"],
        notes=EXPECTATION,
    )
    if is_failure(sim):
        result.notes = f"cell failed: {sim.summary()}"
        return result
    for record in sim.batch_stats.records:
        if not record.migrated_pages:
            continue
        result.add_row(
            f"batch{record.index}",
            batch_kb=record.batch_bytes / 1024,
            pages=record.migrated_pages,
            per_page_us=record.per_page_time / 1000.0,
        )
    return result


def bucket_means(result: ExperimentResult, num_buckets: int = 8) -> list[tuple[float, float]]:
    """(batch_kb, mean per-page us) pairs bucketed by size, ascending."""
    rows = sorted(
        (values["batch_kb"], values["per_page_us"])
        for _, values in result.rows
    )
    if not rows:
        return []
    lo, hi = rows[0][0], rows[-1][0]
    width = max(1e-9, (hi - lo) / num_buckets)
    buckets: dict[int, list[float]] = {}
    for kb, us in rows:
        buckets.setdefault(min(num_buckets - 1, int((kb - lo) / width)), []).append(us)
    return [
        (lo + (b + 0.5) * width, sum(vals) / len(vals))
        for b, vals in sorted(buckets.items())
    ]
