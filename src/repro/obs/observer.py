"""The simulation's one observer slot and the session's run recorder.

The model layers (UVM runtime, fault buffer, DMA channels, SMs, warp
wake/issue paths) report each fact about the paper's §2.2 / Figure 2
batch pipeline once, to one :class:`SimObserver` reference they share;
it is ``None`` when nothing listens, so each site costs one pointer
test.  :func:`fan_out` builds it from the subscribers attached:
:class:`RunRecorder` (spans and metrics — the only code that knows track
and metric names), :class:`~repro.obs.analytics.RunAnalytics` and
:class:`~repro.invariants.InvariantChecker`.
"""

from __future__ import annotations


class SimObserver:
    """Every fact the model reports; each default is a no-op.  ``runtime``
    is the :class:`~repro.uvm.runtime.UvmRuntime`, ``record`` its
    :class:`~repro.core.batching.BatchRecord`."""

    def page_faulted(self, page, now):
        """First fault on ``page`` while none for it is outstanding."""

    def batch_begin(self, runtime, index, now):
        """Batch ``index`` opens, before the fault buffer is drained."""

    def empty_drain(self, now, entries, replayed):
        """The drained ``entries`` held no page to migrate."""

    def batch_planned(self, runtime, record, entries, pages, plan, fht):
        """Preprocessing fixed the migrated ``pages``, the eviction
        ``plan`` and the fault-handling time ``fht``."""

    def evict(self, page, now):
        """``page`` was unmapped to free a frame."""

    def page_arrived(self, page, now):
        """``page`` landed in GPU memory, before its waiters wake."""

    def batch_end(self, runtime, record, replayed):
        """The last page landed and ``replayed`` lost faults re-raised."""

    def fault_buffered(self, occupancy):
        """An entry took a fault-buffer slot."""

    def fault_overflow(self, page, now):
        """A fault found the buffer full and was dropped."""

    def fault_drained(self, entries):
        """The buffer was emptied into a batch."""

    def dma_transfer(self, channel, start, finish):
        """One page crossed the link on ``channel`` (``h2d``/``d2h``)."""

    def context_switch(self, sm_id, out, into, cost, now):
        """Block ``out`` was swapped for block ``into`` on an SM."""

    def op_busy(self, sm_id, cycles, replay):
        """An issued op kept its SM busy; ``replay`` after a stall."""

    def stall_end(self, sm_id, warp_id, start, now, issuing):
        """A warp's fault stall ended; ``issuing`` if it re-issues now."""

    def kernel_start(self, kernel, blocks, now):
        """Kernel number ``kernel`` launched ``blocks`` thread blocks."""

    def kernel_done(self, sms):
        """The kernel on ``sms`` retired its last block."""

    def run_finished(self, sim, result):
        """The run completed with ``result``."""

    def run_failed(self, sim, exc):
        """The run stopped with ``exc``."""


class Fanout(SimObserver):
    """Several subscribers behind the one slot: each fact goes, in order,
    only to the subscribers that override it."""

    def __init__(self, subscribers) -> None:
        for name in [n for n in vars(SimObserver) if not n.startswith("_")]:
            default = getattr(SimObserver, name)
            calls = _Broadcast(
                getattr(s, name)
                for s in subscribers
                if getattr(type(s), name) is not default
            )
            if calls:
                setattr(self, name, calls[0] if len(calls) == 1 else calls)


class _Broadcast(tuple):
    """Bound methods called in turn (a tuple, so checkpoints pickle it)."""

    def __call__(self, *args) -> None:
        for call in self:
            call(*args)


def fan_out(subscribers) -> SimObserver | None:
    """The observer for ``subscribers``: None when empty, the subscriber
    itself when alone, else a :class:`Fanout`."""
    subscribers = [s for s in subscribers if s is not None]
    if not subscribers:
        return None
    if len(subscribers) == 1:
        return subscribers[0]
    return Fanout(subscribers)


class RunRecorder(SimObserver):
    """Records one run into an obs session's tracer and metric registry
    (``full`` mode adds arrival instants and the occupancy gauge)."""

    def __init__(self, obs) -> None:
        self.tracer = obs.tracer
        self.metrics = obs.metrics
        self.full = obs.full
        #: First-fault time per in-flight page (fault→arrival latency).
        self._fault_times: dict[int, int] = {}

    def page_faulted(self, page, now):
        self._fault_times[page] = now

    def batch_planned(self, runtime, record, entries, pages, plan, fht):
        metrics = self.metrics
        metrics.counter("uvm.batches").inc()
        metrics.counter("uvm.migrated_pages").inc(len(pages))
        metrics.counter("uvm.prefetched_pages").inc(record.prefetched_pages)
        metrics.histogram("uvm.batch_pages", 8).record(len(pages))
        metrics.histogram("uvm.fault_handling_cycles", 1000).record(fht)
        if plan.evictions:
            metrics.histogram("uvm.eviction_occupancy_pct", 5).record(
                plan.eviction_occupancy() * 100
            )
        self.tracer.complete(
            "batches",
            f"fault handling {record.index}",
            record.begin_time,
            record.first_migration_time,
            entries=record.fault_entries,
            pages=len(pages),
        )

    def evict(self, page, now):
        self.metrics.counter("uvm.evictions").inc()
        self.tracer.instant("eviction", "evict", now, page=f"{page:#x}")

    def page_arrived(self, page, now):
        fault_time = self._fault_times.pop(page, None)
        if fault_time is not None:
            self.metrics.histogram("uvm.fault_to_arrival_cycles", 1000).record(
                now - fault_time
            )
        if self.full:
            self.tracer.instant("uvm", "page arrival", now, page=f"{page:#x}")

    def batch_end(self, runtime, record, replayed):
        self.metrics.histogram("uvm.batch_cycles", 1000).record(
            record.end_time - record.begin_time
        )
        self.tracer.complete(
            "batches",
            f"batch {record.index}",
            record.begin_time,
            record.end_time,
            entries=record.fault_entries,
            pages=record.demand_pages,
            prefetched=record.prefetched_pages,
            evicted=record.evicted_pages,
        )

    def fault_buffered(self, occupancy):
        if self.full:
            self.metrics.gauge("fault_buffer.occupancy").set(occupancy)

    def fault_overflow(self, page, now):
        self.metrics.counter("fault_buffer.overflows").inc()
        if self.full:
            self.tracer.instant("fault_buffer", "overflow", now, page=page)

    def fault_drained(self, entries):
        self.metrics.histogram("fault_buffer.drained_entries", 16).record(entries)
        if self.full:
            self.metrics.gauge("fault_buffer.occupancy").set(0)

    def dma_transfer(self, channel, start, finish):
        self.tracer.complete("dma." + channel, "page transfer", start, finish)

    def stall_end(self, sm_id, warp_id, start, now, issuing):
        if issuing:
            stalled = now - start
            self.tracer.complete(
                f"sm{sm_id}", "warp stall", start, now, warp=warp_id
            )
            self.metrics.counter("sm.stall_cycles", sm=sm_id).inc(stalled)
            self.metrics.histogram("sm.warp_stall_cycles", 1000).record(stalled)

    def kernel_done(self, sms):
        metrics = self.metrics
        for sm in sms:
            if sm.context_switches:
                metrics.counter("sm.context_switches", sm=sm.sm_id).inc(
                    sm.context_switches
                )
            if sm.switch_cycles_spent:
                metrics.counter("sm.switch_cycles", sm=sm.sm_id).inc(
                    sm.switch_cycles_spent
                )

    def run_finished(self, sim, result):
        metrics = self.metrics
        name = result.workload
        metrics.gauge("sim.exec_cycles", workload=name).set(result.exec_cycles)
        metrics.gauge("sim.batches", workload=name).set(
            result.batch_stats.num_batches
        )
        metrics.gauge("sim.warp_stall_cycles", workload=name).set(
            result.warp_stall_cycles
        )
        metrics.gauge("sim.faults_raised", workload=name).set(result.faults_raised)
        metrics.gauge("fault_buffer.peak_occupancy").set(
            sim.runtime.fault_buffer.peak_occupancy
        )
        for channel in (sim.pcie.h2d, sim.pcie.d2h):
            metrics.counter("dma.pages", channel=channel.name).inc(
                channel.pages_transferred
            )
            metrics.counter("dma.busy_cycles", channel=channel.name).inc(
                channel.busy_cycles
            )
