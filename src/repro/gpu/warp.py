"""Warp model.

A warp is the primary execution unit: 32 scalar threads in SIMT lockstep.
Each warp executes a pre-generated *trace* of :class:`WarpOp` items.  A warp
op bundles the compute cycles leading up to one (coalesced) memory
instruction with the byte addresses the instruction touches.  The simulator
advances a warp op-by-op; a warp stalls when any page it touches is not
resident in GPU memory (Section 2.2: "A warp is stalled once it generates a
page fault").
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

from repro.gpu.config import LINE_SIZE
from repro.lifecycle import WARP_LIFECYCLE


class WarpState(enum.Enum):
    READY = "ready"          # runnable, next op not yet scheduled
    RUNNING = "running"      # op event in flight
    STALLED = "stalled"      # waiting on one or more page faults
    SUSPENDED = "suspended"  # block context-switched out (TO)
    FINISHED = "finished"


# The declared machine is the single source of truth for warp states;
# this enum (and the SoA store's integer codes) must mirror it exactly.
assert tuple(s.value for s in WarpState) == WARP_LIFECYCLE.states


class WarpOp:
    """One coalesced memory instruction plus the compute preceding it.

    ``addresses`` are virtual byte addresses; the access unit derives the
    unique cache lines and pages itself.  An op with no addresses models a
    pure-compute stretch (e.g. the tail of a kernel).
    """

    __slots__ = (
        "compute_cycles",
        "addresses",
        "is_store",
        "store_addresses",
        "dependent_addresses",
        "_lines",
        "_pages",
        "_store_pages",
        "_independent_pages",
    )

    def __init__(
        self,
        compute_cycles: int,
        addresses: Sequence[int] = (),
        is_store: bool = False,
        store_addresses: Sequence[int] | None = None,
        dependent_addresses: Sequence[int] | None = None,
    ) -> None:
        self.compute_cycles = int(compute_cycles)
        self.addresses = tuple(map(int, addresses))
        self.is_store = is_store
        # Which of the addresses are written.  ``is_store`` without an
        # explicit subset means the whole access is a store.
        if store_addresses is not None:
            self.store_addresses = tuple(map(int, store_addresses))
            self.is_store = self.is_store or bool(self.store_addresses)
        elif is_store:
            self.store_addresses = self.addresses
        else:
            self.store_addresses = ()
        # Addresses computable only from earlier loads' *values* (e.g. a
        # destination property record found through an edge list entry).
        # Speculative techniques — runahead probing — cannot form these.
        self.dependent_addresses = (
            tuple(map(int, dependent_addresses))
            if dependent_addresses is not None
            else ()
        )
        # Memoized derived sets: ops are immutable and re-executed on
        # fault replays, so these are hot.
        self._lines: tuple[int, ...] | None = None
        self._pages: tuple[int, tuple[int, ...]] | None = None
        self._store_pages: tuple[int, tuple[int, ...]] | None = None
        self._independent_pages: tuple[int, tuple[int, ...]] | None = None

    def lines(self) -> tuple[int, ...]:
        """Unique 128-byte line numbers touched, ascending."""
        if self._lines is None:
            self._lines = tuple(sorted({a // LINE_SIZE for a in self.addresses}))
        return self._lines

    def pages(self, page_shift: int) -> tuple[int, ...]:
        """Unique virtual page numbers touched, ascending."""
        cached = self._pages
        if cached is not None and cached[0] == page_shift:
            return cached[1]
        pages = tuple(sorted({a >> page_shift for a in self.addresses}))
        self._pages = (page_shift, pages)
        return pages

    def store_pages(self, page_shift: int) -> tuple[int, ...]:
        """Unique virtual page numbers *written*, ascending."""
        if not self.store_addresses:
            return ()
        cached = self._store_pages
        if cached is not None and cached[0] == page_shift:
            return cached[1]
        pages = tuple(sorted({a >> page_shift for a in self.store_addresses}))
        self._store_pages = (page_shift, pages)
        return pages

    def independent_pages(self, page_shift: int) -> tuple[int, ...]:
        """Pages whose addresses are computable without loaded values —
        the only ones a runahead engine can probe."""
        cached = self._independent_pages
        if cached is not None and cached[0] == page_shift:
            return cached[1]
        dependent = set(self.dependent_addresses)
        pages = tuple(
            sorted(
                {a >> page_shift for a in self.addresses if a not in dependent}
            )
        )
        self._independent_pages = (page_shift, pages)
        return pages

    def __repr__(self) -> str:
        return (
            f"WarpOp(compute={self.compute_cycles}, "
            f"naddr={len(self.addresses)}, store={self.is_store})"
        )


class Warp:
    """A warp executing a trace of :class:`WarpOp` items."""

    __slots__ = (
        "warp_id",
        "block",
        "ops",
        "pc",
        "state",
        "waiting_pages",
        "resume_latency",
        "stall_start",
        "stalled_cycles",
        "mem_wait",
        "replay_pending",
        "exec_event",
        "complete_event",
        "validator",
    )

    def __init__(self, warp_id: int, ops: Sequence[WarpOp], block=None) -> None:
        self.warp_id = warp_id
        self.block = block
        self.ops = ops
        self.pc = 0
        self.state = WarpState.READY
        self.waiting_pages: set[int] = set()
        #: Interned engine events (set by the simulator): one reusable
        #: bound-argument object per warp for the hot op-issue/completion
        #: schedulings, instead of a fresh closure per event.
        self.exec_event = None
        self.complete_event = None
        #: Latency still owed to the in-flight op when the warp resumes
        #: after its faults are serviced (the memory access replays).
        self.resume_latency = 0
        self.stall_start = 0
        self.stalled_cycles = 0
        #: True while the warp's in-flight access is waiting on DRAM; used
        #: by the forced-oversubscription (Figure 5) switch trigger.
        self.mem_wait = False
        #: True between a fault-stall wake and the next op issue; tells
        #: the simulation's observer the re-issued op is a replay.  Only
        #: written while an observer is attached.
        self.replay_pending = False
        #: Shared :class:`repro.lifecycle.TransitionValidator`; installed
        #: only under ``check_invariants`` so the hot path pays one
        #: ``is None`` test.
        self.validator = None

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.state is WarpState.FINISHED

    @property
    def remaining_ops(self) -> int:
        return len(self.ops) - self.pc

    def current_op(self) -> WarpOp:
        return self.ops[self.pc]

    # ------------------------------------------------------------------
    def stall_on(self, pages: Iterable[int], now: int, replay_latency: int) -> None:
        """Stall this warp until every page in ``pages`` becomes resident.

        A warp that is *already* stalled may accrue more waiting pages
        (e.g. a replayed access faulting on a different page set while
        earlier faults are still outstanding).  In that case the original
        ``stall_start`` is preserved — the warp has been stalled since the
        first fault, and overwriting it would silently drop the
        already-accrued stall time from ``stalled_cycles``.  Replay
        latencies merge by ``max``: the replays overlap, so the warp owes
        the longest one, not their sum.
        """
        validator = self.validator
        if validator is not None:
            already = self.state is WarpState.STALLED
            validator.check(
                "restall" if already else "stall",
                self.state.value,
                warp=self.warp_id,
                now=now,
            )
        self.waiting_pages.update(pages)
        if self.state is WarpState.STALLED:
            self.resume_latency = max(self.resume_latency, replay_latency)
            return
        self.state = WarpState.STALLED
        self.resume_latency = replay_latency
        self.stall_start = now

    def page_arrived(self, page: int, now: int) -> bool:
        """Notify the warp that ``page`` is resident; True if it can resume."""
        self.waiting_pages.discard(page)
        if self.waiting_pages:
            return False
        if self.state is WarpState.STALLED:
            validator = self.validator
            if validator is not None:
                validator.check("wake", "stalled", warp=self.warp_id, now=now)
            self.stalled_cycles += now - self.stall_start
            self.state = WarpState.READY
            return True
        return False

    def advance(self) -> None:
        """Retire the current op and move to the next."""
        self.pc += 1
        done = self.pc >= len(self.ops)
        validator = self.validator
        if validator is not None:
            validator.check(
                "finish" if done else "retire",
                self.state.value,
                warp=self.warp_id,
                pc=self.pc,
            )
        if done:
            self.state = WarpState.FINISHED
        else:
            self.state = WarpState.READY

    def __repr__(self) -> str:
        return f"Warp(id={self.warp_id}, pc={self.pc}/{len(self.ops)}, {self.state.value})"
