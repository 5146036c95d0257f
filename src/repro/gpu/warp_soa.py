"""Struct-of-arrays warp state: the vectorized model backend.

The object model (:mod:`repro.gpu.warp`) keeps each warp's scheduler
state in its own Python object; per-warp predicates are attribute loads
and block-level predicates (``fully_stalled``, ``ready_to_run``) are
Python loops over those objects.  At tiny scale this is fine; at sweep
scale the warp/fault hot path dominates end-to-end runtime (see
``docs/performance.md`` and ``scripts/tprof.py``).

This module restructures that state as struct-of-arrays, one parallel
flat array per field across *every* warp of a kernel launch:

* ``pc``, ``state``, ``waiting_count``, ``stall_start``,
  ``stalled_cycles``, ``resume_latency``, ``mem_wait`` — parallel
  arrays indexed by a global warp index;
* per-op derived data (page tuples, line tuples, store-page tuples,
  time-scaled compute cycles) precomputed once per kernel launch — and
  shared across launches of the same trace via the simulator's derived
  cache — so replays never re-derive them;
* blocks own contiguous index ranges, so every block-level predicate is
  a short early-exit scan over the block's ``[lo, hi)`` slice.

The parallel arrays are compact Python ``list``s, not NumPy ndarrays —
a deliberate, profiler-driven choice.  The event core drives warps one
event at a time, so the hot accesses are *scalar*: a NumPy scalar read
costs ~3× a list index, a scalar read-modify-write ~10×, and vector
predicates over an 8–32-warp block slice lose to an early-exit loop
(small-array dispatch overhead exceeds the whole scan).  NumPy earns its
keep in this codebase where thousands of elements move per call (the
prefetcher's region masks); warp state is the opposite regime.  The
layout — index-aligned flat arrays, precomputed derivatives, contiguous
block slices — is what the speedup comes from, not the element type.

:class:`SoAWarp` handles give the SM/dispatcher/runtime code the same
duck-typed interface as :class:`~repro.gpu.warp.Warp` (state enums,
``page_arrived``, ``stall_on``); the simulator's SoA issue loop bypasses
the handles and works on the arrays directly.

Equivalence contract: the SoA backend must be *bit-identical* to the
object model — same golden cells, same metrics, same chaos counters
(``tests/test_equivalence_golden.py``, ``tests/test_soa_equivalence.py``).
The object model stays in-tree as the behavioural reference, exactly as
:class:`~repro.sim.engine.HeapEngine` does for the event core.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.gpu.thread_block import BlockState, ThreadBlock
from repro.gpu.warp import WarpOp, WarpState
from repro.lifecycle import WARP_LIFECYCLE

# Integer encoding of WarpState for the ``state`` array: the index of
# each state in the declared machine, so the spec is the single source
# of truth for both backends.  Values are load-bearing only through the
# mapping tables below.
_CODE_OF = {name: code for code, name in enumerate(WARP_LIFECYCLE.states)}
READY = _CODE_OF["ready"]
RUNNING = _CODE_OF["running"]
STALLED = _CODE_OF["stalled"]
SUSPENDED = _CODE_OF["suspended"]
FINISHED = _CODE_OF["finished"]

_STATE_TO_CODE = {state: _CODE_OF[state.value] for state in WarpState}
_CODE_TO_STATE = {code: state for state, code in _STATE_TO_CODE.items()}
#: Code → declared state name (index-aligned with the spec's states).
_CODE_TO_NAME = WARP_LIFECYCLE.states


def derive_ops(
    ops: Sequence[WarpOp], page_shift: int, compute_scale
) -> tuple:
    """Precompute one warp's per-op derived data.

    Returns ``(op_pages, op_lines, op_store_pages, op_compute)`` —
    tuples-of-tuples index-aligned with ``ops``.  ``compute_scale`` maps
    raw compute cycles to scheduled cycles (the simulator's time-scale
    hook), applied once here instead of per executed op.  The result is
    immutable and safe to share across simulator instances (the
    simulator caches it per kernel trace).
    """
    return (
        tuple(op.pages(page_shift) for op in ops),
        tuple(op.lines() for op in ops),
        tuple(op.store_pages(page_shift) for op in ops),
        tuple(compute_scale(op.compute_cycles) for op in ops),
    )


class WarpStore:
    """Struct-of-arrays state for every warp of one kernel launch."""

    __slots__ = (
        "n",
        "pc",
        "state",
        "waiting_count",
        "stall_start",
        "stalled_cycles",
        "resume_latency",
        "mem_wait",
        "replay_pending",
        "n_ops",
        "op_pages",
        "op_lines",
        "op_store_pages",
        "op_compute",
        "waiting_pages",
        "warps",
        "ops",
        "validator",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self.pc = [0] * n
        self.state = [READY] * n
        self.waiting_count = [0] * n
        self.stall_start = [0] * n
        self.stalled_cycles = [0] * n
        self.resume_latency = [0] * n
        self.mem_wait = [False] * n
        # Observer-only flag (see Warp.replay_pending); stays False
        # everywhere when no observer is attached.
        self.replay_pending = [False] * n
        self.n_ops = [0] * n
        # Ragged per-warp data, indexed by the same warp index: tuples
        # per op, precomputed once at launch (or fetched from the
        # simulator's per-kernel derived cache).
        self.op_pages: list[tuple[tuple[int, ...], ...]] = [()] * n
        self.op_lines: list[tuple[tuple[int, ...], ...]] = [()] * n
        self.op_store_pages: list[tuple[tuple[int, ...], ...]] = [()] * n
        self.op_compute: list[tuple[int, ...]] = [()] * n
        #: Outstanding faulted pages per warp (mirrored by waiting_count).
        self.waiting_pages: list[set[int]] = [set() for _ in range(n)]
        #: Handle objects, index-aligned.
        self.warps: list[SoAWarp] = []
        #: Original WarpOp traces (runahead probing reads them).
        self.ops: list[Sequence[WarpOp]] = [()] * n
        #: Shared :class:`repro.lifecycle.TransitionValidator`; installed
        #: only under ``check_invariants`` (one ``is None`` test on the
        #: handle paths; the inlined array loops stay untouched and are
        #: covered transitively by the equivalence locks).
        self.validator = None

    def add_warp(
        self,
        index: int,
        warp_id: int,
        ops: Sequence[WarpOp],
        page_shift: int,
        compute_scale,
    ) -> "SoAWarp":
        """Install one warp's trace at ``index`` and return its handle,
        deriving the per-op data here (see :func:`derive_ops`)."""
        return self.add_warp_derived(
            index, warp_id, ops, derive_ops(ops, page_shift, compute_scale)
        )

    def add_warp_derived(
        self,
        index: int,
        warp_id: int,
        ops: Sequence[WarpOp],
        derived: tuple,
    ) -> "SoAWarp":
        """Install one warp's trace with precomputed derived data."""
        self.ops[index] = ops
        self.n_ops[index] = len(ops)
        (
            self.op_pages[index],
            self.op_lines[index],
            self.op_store_pages[index],
            self.op_compute[index],
        ) = derived
        if not ops:
            self.state[index] = FINISHED
        warp = SoAWarp(self, index, warp_id)
        self.warps.append(warp)
        return warp


class SoAWarp:
    """Lightweight handle: a warp index into a :class:`WarpStore`.

    Exposes the :class:`~repro.gpu.warp.Warp` interface for the
    SM/block/dispatcher code; hot paths index the store arrays directly.
    """

    __slots__ = ("store", "index", "warp_id", "block", "exec_event", "complete_event")

    def __init__(self, store: WarpStore, index: int, warp_id: int) -> None:
        self.store = store
        self.index = index
        self.warp_id = warp_id
        self.block = None
        self.exec_event = None
        self.complete_event = None

    # -- Warp interface parity -----------------------------------------
    @property
    def state(self) -> WarpState:
        return _CODE_TO_STATE[self.store.state[self.index]]

    @state.setter
    def state(self, value: WarpState) -> None:
        self.store.state[self.index] = _STATE_TO_CODE[value]

    @property
    def pc(self) -> int:
        return self.store.pc[self.index]

    @property
    def ops(self) -> Sequence[WarpOp]:
        return self.store.ops[self.index]

    @property
    def finished(self) -> bool:
        return self.store.state[self.index] == FINISHED

    @property
    def remaining_ops(self) -> int:
        return self.store.n_ops[self.index] - self.store.pc[self.index]

    def current_op(self) -> WarpOp:
        return self.store.ops[self.index][self.store.pc[self.index]]

    @property
    def waiting_pages(self) -> set[int]:
        return self.store.waiting_pages[self.index]

    @property
    def stalled_cycles(self) -> int:
        return self.store.stalled_cycles[self.index]

    @property
    def stall_start(self) -> int:
        return self.store.stall_start[self.index]

    @property
    def resume_latency(self) -> int:
        return self.store.resume_latency[self.index]

    @property
    def mem_wait(self) -> bool:
        return self.store.mem_wait[self.index]

    @mem_wait.setter
    def mem_wait(self, value: bool) -> None:
        self.store.mem_wait[self.index] = value

    @property
    def replay_pending(self) -> bool:
        return self.store.replay_pending[self.index]

    @replay_pending.setter
    def replay_pending(self, value: bool) -> None:
        self.store.replay_pending[self.index] = value

    def stall_on(self, pages: Iterable[int], now: int, replay_latency: int) -> None:
        """Same semantics as :meth:`Warp.stall_on`, including the
        preserved ``stall_start`` when the warp is already stalled."""
        store = self.store
        i = self.index
        validator = store.validator
        if validator is not None:
            code = store.state[i]
            validator.check(
                "restall" if code == STALLED else "stall",
                _CODE_TO_NAME[code],
                warp=self.warp_id,
                now=now,
            )
        waiting = store.waiting_pages[i]
        waiting.update(pages)
        store.waiting_count[i] = len(waiting)
        if store.state[i] == STALLED:
            if replay_latency > store.resume_latency[i]:
                store.resume_latency[i] = replay_latency
            return
        store.state[i] = STALLED
        store.resume_latency[i] = replay_latency
        store.stall_start[i] = now

    def page_arrived(self, page: int, now: int) -> bool:
        """Same semantics as :meth:`Warp.page_arrived`."""
        store = self.store
        i = self.index
        waiting = store.waiting_pages[i]
        waiting.discard(page)
        count = len(waiting)
        store.waiting_count[i] = count
        if count:
            return False
        if store.state[i] == STALLED:
            validator = store.validator
            if validator is not None:
                validator.check("wake", "stalled", warp=self.warp_id, now=now)
            store.stalled_cycles[i] += now - store.stall_start[i]
            store.state[i] = READY
            return True
        return False

    def advance(self) -> None:
        store = self.store
        i = self.index
        pc = store.pc[i] + 1
        done = pc >= store.n_ops[i]
        validator = store.validator
        if validator is not None:
            validator.check(
                "finish" if done else "retire",
                _CODE_TO_NAME[store.state[i]],
                warp=self.warp_id,
                pc=pc,
            )
        store.pc[i] = pc
        store.state[i] = FINISHED if done else READY

    def __repr__(self) -> str:
        return (
            f"SoAWarp(id={self.warp_id}, pc={self.pc}/"
            f"{self.store.n_ops[self.index]}, {self.state.value})"
        )


class SoAThreadBlock(ThreadBlock):
    """Thread block over a contiguous warp-index range of a WarpStore.

    Every predicate the SM scheduler consults per stall/wake/switch scans
    the block's warps; here each is an early-exit loop over the block's
    ``[lo, hi)`` slice of the store arrays — one C-level slice copy plus
    at most hi−lo integer compares, no per-warp attribute loads.
    """

    __slots__ = ("store", "lo", "hi")

    def __init__(self, block_id: int, warps: Sequence[SoAWarp]) -> None:
        super().__init__(block_id, warps)
        self.store = warps[0].store
        self.lo = warps[0].index
        self.hi = warps[-1].index + 1
        if [w.index for w in warps] != list(range(self.lo, self.hi)):
            raise ValueError("SoAThreadBlock requires contiguous warp indices")

    # -- slice-scan predicates -----------------------------------------
    @property
    def finished(self) -> bool:
        for s in self.store.state[self.lo : self.hi]:
            if s != FINISHED:
                return False
        return True

    def fully_stalled(self) -> bool:
        saw_stalled = False
        for s in self.store.state[self.lo : self.hi]:
            if s == STALLED:
                saw_stalled = True
            elif s == READY or s == RUNNING:
                return False
        return saw_stalled

    def fully_mem_stalled(self) -> bool:
        store = self.store
        state = store.state
        mem_wait = store.mem_wait
        unfinished = False
        for i in range(self.lo, self.hi):
            s = state[i]
            if s == FINISHED:
                continue
            if s != STALLED and not mem_wait[i]:
                return False
            unfinished = True
        return unfinished

    def ready_to_run(self) -> bool:
        for s in self.store.state[self.lo : self.hi]:
            if s == READY or s == SUSPENDED:
                return True
        return False

    def suspend_runnable_warps(self) -> list[SoAWarp]:
        store = self.store
        state = store.state
        warps = store.warps
        validator = store.validator
        picked: list[SoAWarp] = []
        for i in range(self.lo, self.hi):
            if state[i] == READY:
                if validator is not None:
                    validator.check("suspend", "ready", warp=warps[i].warp_id)
                state[i] = SUSPENDED
                picked.append(warps[i])
        return picked

    def resume_suspended_warps(self) -> list[SoAWarp]:
        store = self.store
        state = store.state
        warps = store.warps
        validator = store.validator
        picked: list[SoAWarp] = []
        for i in range(self.lo, self.hi):
            if state[i] == SUSPENDED:
                if validator is not None:
                    validator.check("resume", "suspended", warp=warps[i].warp_id)
                state[i] = READY
                picked.append(warps[i])
        return picked


__all__ = [
    "WarpStore",
    "SoAWarp",
    "SoAThreadBlock",
    "BlockState",
    "derive_ops",
    "READY",
    "RUNNING",
    "STALLED",
    "SUSPENDED",
    "FINISHED",
]
