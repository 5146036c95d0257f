"""Human-readable text views of one observability session.

``render_report`` digests the tracer (per-track span counts and busy
time) and the metric registry (counters, gauges, histogram tails) into an
aligned text block — the quick look you print after a run when you don't
want to open the full trace in Perfetto.  ``render_batches`` draws one
run's batches as the paper's Figure 2.
"""

from __future__ import annotations

from repro.obs.metrics import MetricRegistry
from repro.obs.tracer import Tracer


def _fmt(value: float) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.2f}"
    return f"{int(value):,}"


def _track_table(tracer: Tracer) -> list[str]:
    scopes = tracer.scopes()
    per_track: dict[tuple[int, str], dict[str, float]] = {}
    for event in tracer.events:
        row = per_track.setdefault(
            (event.scope, event.track), {"spans": 0, "instants": 0, "busy": 0.0}
        )
        if event.ph == "X":
            row["spans"] += 1
            row["busy"] += event.dur or 0.0
        elif event.ph == "B":
            row["spans"] += 1
        elif event.ph == "i":
            row["instants"] += 1
    if not per_track:
        return ["  (no trace events recorded)"]
    lines = [
        f"  {'scope':<16} {'track':<16} {'spans':>8} {'instants':>9} "
        f"{'busy':>14}"
    ]
    for (scope, track), row in sorted(per_track.items()):
        label, domain = scopes[scope]
        unit = "cycles" if domain == "sim" else "us"
        lines.append(
            f"  {label:<16} {track:<16} {int(row['spans']):>8} "
            f"{int(row['instants']):>9} {row['busy']:>11,.0f} {unit}"
        )
    return lines


def _label_sort_key(labels) -> tuple:
    """Numeric-aware label ordering: ``sm=2`` sorts before ``sm=10``.

    Plain string ordering interleaves numeric label values
    (``0, 1, 10, 11, 2, ...``), which scrambles per-SM series in the
    report.  Digits compare as integers; everything else stays
    lexicographic (all-numeric values sort before text for the same key).
    """
    return tuple(
        (k, 0, int(v), "") if v.isdigit() else (k, 1, 0, v)
        for k, v in labels
    )


def _metric_sort_key(metric) -> tuple:
    return (metric.kind, metric.name, _label_sort_key(metric.labels))


def _metric_table(registry: MetricRegistry) -> list[str]:
    if not len(registry):
        return ["  (no metrics recorded)"]
    metrics = sorted(registry, key=_metric_sort_key)
    scalars = [m for m in metrics if m.kind != "histogram"]
    histograms = [m for m in metrics if m.kind == "histogram"]
    lines = []
    for metric in scalars:
        if metric.kind == "counter":
            lines.append(f"  {metric.full_name:<44} {_fmt(metric.value):>14}")
        else:
            peak = f" (peak {_fmt(metric.max)})" if metric.max is not None else ""
            lines.append(
                f"  {metric.full_name:<44} {_fmt(metric.value):>14}{peak}"
            )
    if histograms:
        width = max(9, max(len(m.full_name) for m in histograms))
        lines.append("")
        lines.append(
            f"  {'histogram':<{width}} {'n':>8} {'mean':>12} {'min':>10} "
            f"{'p50':>10} {'p99':>10} {'max':>12}"
        )
        for metric in histograms:
            lines.append(
                f"  {metric.full_name:<{width}} {metric.count:>8,} "
                f"{_fmt(metric.mean):>12} {_fmt(metric.min):>10} "
                f"{_fmt(metric.percentile(50)):>10} "
                f"{_fmt(metric.percentile(99)):>10} {_fmt(metric.max):>12}"
            )
    return lines


def render_report(tracer: Tracer, registry: MetricRegistry) -> str:
    """Aligned text report over one tracer + registry pair."""
    lines = ["observability report", "===================="]
    lines.append("")
    lines.append("tracks")
    lines.append("------")
    lines.extend(_track_table(tracer))
    if tracer.dropped:
        lines.append(
            f"  ({tracer.dropped:,} trace events dropped beyond the "
            f"{tracer.max_events:,}-event ring buffer)"
        )
    lines.append("")
    lines.append("metrics")
    lines.append("-------")
    lines.extend(_metric_table(registry))
    return "\n".join(lines)


def render_batches(
    tracer: Tracer,
    scope: int | None = None,
    max_batches: int = 8,
    width: int = 72,
) -> str:
    """ASCII rendering of a run's first ``max_batches`` batch lanes.

    The paper's Figure 2, drawn from one sim scope of a tracer (default:
    the most recently opened): ``#`` marks the GPU-runtime fault-handling
    window, ``=`` the migration stream, ``!`` eviction starts, ``*``
    page arrivals.  One lane per batch, a shared time axis in cycles.
    Arrival markers exist only in ``full`` mode.
    """
    if scope is None:
        scope = len(tracer.scopes()) - 1
    handling, ends = {}, {}  # batch index -> (begin, first migration) / end
    marks = {"!": [], "*": []}  # eviction starts, then arrivals on top
    for event in tracer.events:
        if event.scope != scope:
            continue
        if event.track == "batches":
            kind, _, index = event.name.rpartition(" ")
            if kind == "fault handling":
                handling[int(index)] = (event.ts, event.ts + event.dur)
            elif kind == "batch":
                ends[int(index)] = event.ts + event.dur
        elif event.track == "eviction":
            marks["!"].append(event.ts)
        elif event.name == "page arrival":
            marks["*"].append(event.ts)
    lanes = list(handling.items())[:max_batches]
    if not lanes:
        return "(no batches recorded)"
    t0 = lanes[0][1][0]
    t1 = max((ends[i] for i, _ in lanes if i in ends), default=t0 + 1)
    span = max(1, t1 - t0)

    def column(time: float) -> int:
        return min(width - 1, max(0, int((time - t0) * (width - 1) // span)))

    lines = [
        f"batch timeline: {t0} .. {t1} cycles "
        f"(# fault handling, = migration, ! eviction, * arrival)"
    ]
    for index, (begin, fht_end) in lanes:
        end = ends.get(index, t1)
        lane = [" "] * width
        for c in range(column(begin), column(fht_end) + 1):
            lane[c] = "#"
        for c in range(column(fht_end), column(end) + 1):
            if lane[c] == " ":
                lane[c] = "="
        for glyph, times in marks.items():
            for time in times:
                if begin <= time <= end:
                    lane[column(time)] = glyph
        lines.append(f"B{index:<3d} |{''.join(lane)}|")
    if tracer.dropped:
        lines.append(f"({tracer.dropped} events dropped beyond the cap)")
    return "\n".join(lines)
