"""Observability off must cost <2% — the ISSUE's zero-cost criterion.

Strategy: the instrumentation is one observer slot per simulation — every
report site reduces to one ``observer is not None`` test when nothing
listens (no session installed, no invariant checker).
A guard's cost is too small to resolve inside one real simulation run
(run-to-run noise swamps it), so we measure it directly:

1. A **bare engine replica** (the pre-instrumentation event loop, inlined
   below) and the reference :class:`repro.sim.HeapEngine` each drain the
   same synthetic event storm; the timing delta is the guard cost per
   event on the loop architecture that actually carries per-event guards.
   (The production :class:`~repro.sim.Engine` hoists the ``obs`` test out
   of its fast loop entirely when no session is attached — see
   ``docs/performance.md`` — so this per-event estimate is an upper
   bound for it.)
2. A real tiny run with obs off gives events-processed and wall-clock.
   Estimated overhead = guard cost x events x guard sites / runtime.

The estimate is asserted below 2%; the full-instrumentation ratio is also
measured and printed for the docs (informational, no threshold — ``full``
mode is *supposed* to pay for its data).
"""

from __future__ import annotations

import heapq
import pathlib
import time

from repro import GpuUvmSimulator, build_workload, obs, systems
from repro.errors import SimulationError
from repro.sim.engine import HeapEngine

#: Upper bound on `is not None` guard evaluations per engine event across
#: all instrumented components (engine step, fault path, buffer, DMA, SM):
#: the engine's own `obs` test plus the observer report sites.
GUARD_SITES_PER_EVENT = 8

#: Events in the synthetic storm used to resolve the per-event guard cost.
STORM_EVENTS = 200_000

#: Upper bound on the observer report sites per engine event that carry
#: the facts repro.obs.analytics subscribes to: op execution (2 busy-charge
#: sites), warp wake (3 wake paths), batch begin/end, page arrival, SM
#: context switch.  With nothing attached these pointer tests are the
#: only cost.
ANALYTICS_GUARD_SITES = 8


class BareEngine(HeapEngine):
    """The seed's event loop, verbatim minus the obs hooks.

    ``step``/``run`` below are byte-for-byte the pre-instrumentation
    bodies (commit c1363d8), so the timing delta against
    :class:`HeapEngine` — the reference loop those hooks were added to —
    isolates exactly what the observability change added per event.
    """

    def step(self) -> bool:
        if not self._queue:
            return False
        time, _seq, callback = heapq.heappop(self._queue)
        if time < self.now:
            raise SimulationError("event queue went backwards in time")
        self.now = time
        self._events_processed += 1
        callback()
        return True

    def run(self, until=None, max_events=None) -> None:
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        try:
            processed = 0
            while self._queue:
                if until is not None and self._queue[0][0] > until:
                    break
                if max_events is not None and processed >= max_events:
                    break
                self.step()
                processed += 1
        finally:
            self._running = False
        if until is not None and until > self.now:
            if not self._queue or self._queue[0][0] > until:
                self.now = until


def drain_storm(engine, n: int = STORM_EVENTS) -> float:
    """Time draining n self-rescheduling events; returns seconds."""
    remaining = [n]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            engine.schedule(1, tick)

    engine.schedule(0, tick)
    start = time.perf_counter()
    engine.run()
    return time.perf_counter() - start


def interleaved_mins(fn_a, fn_b, repeats: int = 7) -> tuple[float, float]:
    """Best-of timings for two rivals, alternating so drift hits both."""
    a_times, b_times = [], []
    for _ in range(repeats):
        a_times.append(fn_a())
        b_times.append(fn_b())
    return min(a_times), min(b_times)


def timed_tiny_run(obs_session) -> tuple[float, int]:
    """(wall seconds, engine events) for one KCORE tiny run."""
    workload = build_workload("KCORE", scale="tiny", seed=0)
    config = systems.by_name("TO+UE").configure(workload)
    sim = GpuUvmSimulator(workload, config, obs=obs_session)
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start, sim.engine.events_processed


def test_obs_off_overhead_below_two_percent():
    assert obs.current() is None, "a leaked obs session would skew timing"

    bare, guarded = interleaved_mins(
        lambda: drain_storm(BareEngine()), lambda: drain_storm(HeapEngine())
    )
    guard_cost_per_event = max(0.0, guarded - bare) / STORM_EVENTS

    off_seconds, events = min(timed_tiny_run(None) for _ in range(3))
    estimated = guard_cost_per_event * GUARD_SITES_PER_EVENT * events
    overhead = estimated / off_seconds

    print(
        f"\nguard cost: {guard_cost_per_event * 1e9:.1f} ns/event "
        f"(bare {bare * 1e3:.1f} ms vs guarded {guarded * 1e3:.1f} ms "
        f"over {STORM_EVENTS:,} events)"
    )
    print(
        f"obs off: {off_seconds * 1e3:.0f} ms, {events:,} engine events, "
        f"estimated guard overhead {overhead:.3%} "
        f"({GUARD_SITES_PER_EVENT} guard sites/event)"
    )
    assert overhead < 0.02, (
        f"obs-off guard overhead {overhead:.3%} exceeds the 2% budget"
    )


def test_analytics_off_overhead_below_two_percent():
    """Analytics disabled must stay under the same 2% budget.

    With nothing attached every site analytics subscribes to is one
    pointer test (``self.observer is not None``), the same shape as the
    engine's guard, so the measured per-guard cost transfers directly:
    estimated overhead = guard cost x analytics guard sites x events /
    runtime.
    """
    assert obs.current() is None, "a leaked obs session would skew timing"

    bare, guarded = interleaved_mins(
        lambda: drain_storm(BareEngine()), lambda: drain_storm(HeapEngine())
    )
    guard_cost_per_event = max(0.0, guarded - bare) / STORM_EVENTS

    off_seconds, events = min(timed_tiny_run(None) for _ in range(3))
    estimated = guard_cost_per_event * ANALYTICS_GUARD_SITES * events
    overhead = estimated / off_seconds

    print(
        f"\nanalytics off: estimated guard overhead {overhead:.3%} "
        f"({ANALYTICS_GUARD_SITES} analytics guard sites/event over "
        f"{events:,} events)"
    )
    assert overhead < 0.02, (
        f"analytics-off guard overhead {overhead:.3%} exceeds the 2% budget"
    )


def _timed_tiny_sim(checkpoint_dir=None, every=1):
    """Like :func:`timed_tiny_run` but returns the simulator too."""
    workload = build_workload("KCORE", scale="tiny", seed=0)
    config = systems.by_name("TO+UE").configure(workload)
    sim = GpuUvmSimulator(workload, config)
    if checkpoint_dir is not None:
        sim.enable_checkpoints(checkpoint_dir, every=every)
    start = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - start, sim, result


#: Pointer tests the disabled checkpoint path pays per *lifecycle
#: transition* (not per event): the batch machine's observer slot, the
#: observer's invariants + hook tests, and the ``complete`` compare.
CHECKPOINT_GUARD_SITES_PER_TRANSITION = 4


def test_checkpoint_off_overhead_below_two_percent():
    """Checkpointing disabled must cost <2% — same budget as obs off.

    With no checkpoint hook installed the engine keeps its unguarded
    fast loop (hook selection happens once per ``run()``), so the only
    recurring cost is the batch machine's observer forward — a handful
    of pointer tests per *batch transition*, and transitions are three
    orders of magnitude rarer than events.  Estimated the same way as
    the obs guards: measured per-guard cost x sites x transitions.
    """
    assert obs.current() is None, "a leaked obs session would skew timing"

    bare, guarded = interleaved_mins(
        lambda: drain_storm(BareEngine()), lambda: drain_storm(HeapEngine())
    )
    guard_cost_per_event = max(0.0, guarded - bare) / STORM_EVENTS

    off_seconds, sim, _ = min(
        (_timed_tiny_sim() for _ in range(3)), key=lambda t: t[0]
    )
    transitions = sum(sim.runtime.machine.counts.values()) + sum(
        sim.engine.lifecycle.counts.values()
    )
    events = sim.engine.events_processed
    estimated = (
        guard_cost_per_event * CHECKPOINT_GUARD_SITES_PER_TRANSITION
        * transitions
    )
    overhead = estimated / off_seconds

    print(
        f"\ncheckpoint off: {transitions:,} lifecycle transitions over "
        f"{events:,} events ({transitions / events:.4%} of events), "
        f"estimated overhead {overhead:.4%} "
        f"({CHECKPOINT_GUARD_SITES_PER_TRANSITION} guards/transition)"
    )
    assert overhead < 0.02, (
        f"checkpoint-off overhead {overhead:.3%} exceeds the 2% budget"
    )


def test_checkpoint_write_restore_latency_informational(tmp_path):
    """Measure (and print) checkpoint write/restore latency — no
    threshold, but the resumed run must stay bit-identical."""
    from repro.checkpoint import restore_checkpoint

    off_seconds, _, baseline = _timed_tiny_sim()
    on_seconds, sim, result = _timed_tiny_sim(tmp_path, every=1)
    assert result == baseline, "checkpointing changed the simulation"
    assert sim.checkpoint_writes > 0

    per_write = sim.checkpoint_write_seconds / sim.checkpoint_writes
    size = pathlib.Path(sim.last_checkpoint_path).stat().st_size

    start = time.perf_counter()
    restored = restore_checkpoint(sim.last_checkpoint_path)
    restore_seconds = time.perf_counter() - start
    resumed = restored.resume()
    assert resumed == baseline, "restored run diverged"

    print(
        f"\ncheckpointing every batch: {sim.checkpoint_writes} writes, "
        f"{per_write * 1e3:.2f} ms/write ({size / 1024:.0f} KiB file), "
        f"restore {restore_seconds * 1e3:.2f} ms; "
        f"run {on_seconds * 1e3:.0f} ms vs off {off_seconds * 1e3:.0f} ms "
        f"({on_seconds / off_seconds:.2f}x with every-batch writes)"
    )


def test_full_mode_ratio_informational():
    """Measure (and print) what full instrumentation costs — no threshold."""
    off_seconds, _ = timed_tiny_run(None)
    full = obs.Observability("full")
    full_seconds, _ = timed_tiny_run(full)
    ratio = full_seconds / off_seconds
    print(
        f"\nfull-mode run: {full_seconds * 1e3:.0f} ms vs off "
        f"{off_seconds * 1e3:.0f} ms ({ratio:.2f}x, "
        f"{len(full.tracer.events):,} trace events, "
        f"{len(full.metrics)} metric series)"
    )
    assert len(full.tracer.events) > 0
