"""Hardware page-fault buffer.

The GPU MMU pushes replayable fault entries into a 1024-entry buffer
(Table 1); the runtime drains *all* buffered entries when a batch's
processing begins (Figure 2 step 1).  Faults raised while a batch is being
processed accumulate here and are picked up by the immediately following
batch (Figure 2 steps 3/5).

Multiple warps faulting on the same page each occupy an entry in real
hardware; we record them all (they matter for buffer-capacity pressure) but
the runtime deduplicates pages when it preprocesses the batch.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.errors import ConfigError


class FaultEntry(NamedTuple):
    """One replayable fault: which page, who faulted, and when.

    A NamedTuple rather than a dataclass: one entry is constructed per
    raised fault (the hottest allocation on the fault path), and tuple
    construction is several times cheaper than a frozen dataclass's
    ``__init__`` + ``__setattr__`` round trip.  Field order is part of
    the interface.
    """

    page: int
    warp: Any
    time: int


class FaultBuffer:
    """Bounded FIFO of fault entries with per-page dedup assistance."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigError("fault buffer capacity must be positive")
        self.capacity = capacity
        self._entries: list[FaultEntry] = []
        self._pages: set[int] = set()
        self.total_faults = 0
        self.overflow_faults = 0
        self.peak_occupancy = 0
        self.chaos_dropped = 0
        self.chaos_duplicated = 0
        #: Optional :class:`repro.obs.observer.SimObserver` told of
        #: occupancy, overflows and drains.
        self.observer = None
        #: Optional :class:`repro.chaos.ChaosSession`; when set, pushes may
        #: be dropped (lost replayable faults) or duplicated (replay
        #: storms).  None keeps the push path unperturbed.
        self.chaos = None

    def push(self, entry: FaultEntry, *, replay: bool = False) -> bool:
        """Append a fault entry; returns False when the buffer is full.

        A full buffer drops the entry — the warp's access replays and
        refaults after the buffer drains, which the simulator models by the
        warp staying stalled until its page arrived anyway; we only track
        the overflow for statistics.  A chaos session may likewise drop
        the entry (returning False) or duplicate it; duplicates occupy
        real capacity, exactly like multiple warps faulting on one page.

        ``replay=True`` marks an entry re-raised by the MMU's replay
        mechanism for a previously lost fault; it is exempt from chaos
        (a drop models losing one buffer write, not the page forever —
        unbounded re-drops would deadlock the waiting warps).
        """
        self.total_faults += 1
        observer = self.observer
        chaos = self.chaos
        if chaos is not None and not replay:
            action = chaos.fault_entry_action(entry.page, entry.time)
            if action == "drop":
                self.chaos_dropped += 1
                return False
            if action == "dup" and len(self._entries) < self.capacity:
                self.chaos_duplicated += 1
                self._entries.append(entry)
                self._pages.add(entry.page)
                # The duplicate occupies real capacity, so it counts
                # toward peak occupancy and the reported occupancy exactly
                # like the normal append below — in particular when the
                # duplicate is what fills the buffer and the original
                # entry overflows.
                if len(self._entries) > self.peak_occupancy:
                    self.peak_occupancy = len(self._entries)
                if observer is not None:
                    observer.fault_buffered(len(self._entries))
        if len(self._entries) >= self.capacity:
            self.overflow_faults += 1
            if observer is not None:
                observer.fault_overflow(entry.page, entry.time)
            return False
        self._entries.append(entry)
        self._pages.add(entry.page)
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
        if observer is not None:
            observer.fault_buffered(len(self._entries))
        return True

    def drain(self) -> list[FaultEntry]:
        """Remove and return all buffered entries in arrival order."""
        entries = self._entries
        self._entries = []
        self._pages = set()
        if self.observer is not None:
            self.observer.fault_drained(len(entries))
        return entries

    def counters(self) -> dict[str, int]:
        """Snapshot of the cumulative buffer counters (embedded in every
        flight-recorder failure dump)."""
        return {
            "total_faults": self.total_faults,
            "overflow_faults": self.overflow_faults,
            "peak_occupancy": self.peak_occupancy,
            "chaos_dropped": self.chaos_dropped,
            "chaos_duplicated": self.chaos_duplicated,
            "buffered_entries": len(self._entries),
        }

    def contains_page(self, page: int) -> bool:
        return page in self._pages

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def empty(self) -> bool:
        return not self._entries
