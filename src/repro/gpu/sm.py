"""Streaming Multiprocessor with Virtual-Thread-style block slots.

An SM hosts up to ``active_limit`` *active* thread blocks (the scheduling
limit from the occupancy calculation) plus any number of *inactive* blocks
dispatched under Thread Oversubscription.  A fully-stalled active block is
context-switched with a ready inactive block, paying the
:class:`~repro.gpu.context.ContextCostModel` cost (save to global memory +
restore).  Blocks that have never run need no restore.

The SM does not execute instructions itself — the simulator drives warp
ops and calls back into the SM on stall/finish events.  The SM owns slot
management, switching, and ETC throttling.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SimulationError
from repro.gpu.context import ContextCostModel
from repro.gpu.occupancy import KernelResources
from repro.gpu.thread_block import BlockState, ThreadBlock
from repro.gpu.warp import Warp, WarpState
from repro.sim.engine import Engine


def _always_allowed() -> bool:
    """Default ``switch_allowed`` hook (module-level: checkpoints pickle
    the SM, so defaults cannot be lambdas)."""
    return True


class _FinishSwitchEvent:
    """Interned swap-in completion event (was a per-switch closure).

    ``kind`` keeps the pre-refactor closure qualname so full-mode obs
    event labels are unchanged.
    """

    __slots__ = ("_sm", "_block")
    kind = "StreamingMultiprocessor.try_context_switch.<locals>.finish_switch"

    def __init__(self, sm: "StreamingMultiprocessor", block: ThreadBlock) -> None:
        self._sm = sm
        self._block = block

    def __call__(self) -> None:
        self._sm._finish_switch(self._block)


class _FillSlotEvent:
    """Interned slot-fill completion event (was a per-fill closure)."""

    __slots__ = ("_sm", "_block")
    kind = "StreamingMultiprocessor.on_block_ready.<locals>.fill_slot"

    def __init__(self, sm: "StreamingMultiprocessor", block: ThreadBlock) -> None:
        self._sm = sm
        self._block = block

    def __call__(self) -> None:
        self._sm._fill_slot(self._block)


class StreamingMultiprocessor:
    """Block-slot management for one SM."""

    def __init__(
        self,
        sm_id: int,
        engine: Engine,
        active_limit: int,
        context_cost: ContextCostModel,
        kernel_resources: KernelResources,
        schedule_warp: Callable[[Warp, int], None],
        switch_allowed: Callable[[], bool] = _always_allowed,
        forced_oversubscription: bool = False,
    ) -> None:
        self.sm_id = sm_id
        self.engine = engine
        self.active_limit = active_limit
        self.context_cost = context_cost
        self.kernel_resources = kernel_resources
        self._schedule_warp = schedule_warp
        self._switch_allowed = switch_allowed
        self.forced_oversubscription = forced_oversubscription

        self.active_blocks: list[ThreadBlock] = []
        self.inactive_blocks: list[ThreadBlock] = []
        self.throttled = False
        self.parked_warps: list[Warp] = []
        self.context_switches = 0
        self.switch_cycles_spent = 0
        self._switching = 0  # blocks currently in a switch transition
        #: While a context switch drains/refills the register file, the SM
        #: cannot issue: co-resident warps' ops are pushed past this time.
        #: This is what makes forced oversubscription on a traditional GPU
        #: expensive (Figure 5) while being nearly free under demand
        #: paging, where the other blocks are fault-stalled anyway.
        self.switch_busy_until = 0
        #: Optional :class:`repro.obs.observer.SimObserver` told of each
        #: context switch; None costs one pointer test per switch.
        self.observer = None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, block: ThreadBlock, active: bool) -> None:
        """Place a newly dispatched block on this SM."""
        if block.state is not BlockState.PENDING:
            raise SimulationError(f"{block} dispatched twice")
        block.sm = self
        if active:
            if len(self.active_blocks) >= self.active_limit:
                raise SimulationError(f"SM{self.sm_id} active slots full")
            self._activate(block, charge_restore=False)
        else:
            block.state = BlockState.INACTIVE
            for warp in block.warps:
                if warp.state is WarpState.READY:
                    warp.state = WarpState.SUSPENDED
            self.inactive_blocks.append(block)

    def _activate(self, block: ThreadBlock, charge_restore: bool) -> None:
        """Move a block into an active slot and start its runnable warps."""
        restore = (
            self.context_cost.restore_cycles(self.kernel_resources)
            if charge_restore and block.ever_active
            else 0
        )
        block.state = BlockState.ACTIVE
        block.ever_active = True
        self.active_blocks.append(block)
        for warp in block.resume_suspended_warps():
            self._schedule_warp(warp, restore)
        for warp in block.warps:
            if warp.state is WarpState.READY:
                self._schedule_warp(warp, restore)

    # ------------------------------------------------------------------
    # Context switching (TO and forced oversubscription)
    # ------------------------------------------------------------------
    def _pop_ready_inactive(self) -> ThreadBlock | None:
        for i, block in enumerate(self.inactive_blocks):
            if block.ready_to_run():
                return self.inactive_blocks.pop(i)
        return None

    def try_context_switch(self, block: ThreadBlock) -> bool:
        """Swap a fully-stalled active ``block`` with a ready inactive one."""
        if block.state is not BlockState.ACTIVE:
            return False
        if not self._switch_allowed():
            return False
        incoming = self._pop_ready_inactive()
        if incoming is None:
            return False

        # Swap out: the stalled block's context is saved to global memory.
        self.active_blocks.remove(block)
        block.suspend_runnable_warps()
        block.state = BlockState.INACTIVE
        block.context_switches += 1
        self.inactive_blocks.append(block)

        # Swap in after the save+restore delay.
        cost = self.context_cost.switch_cycles(self.kernel_resources)
        self.context_switches += 1
        self.switch_cycles_spent += cost
        self.switch_busy_until = max(
            self.switch_busy_until, self.engine.now + cost
        )
        incoming.state = BlockState.SWITCHING
        incoming.context_switches += 1
        self._switching += 1
        if self.observer is not None:
            self.observer.context_switch(
                self.sm_id, block.block_id, incoming.block_id, cost,
                self.engine.now,
            )

        self.engine.schedule(cost, _FinishSwitchEvent(self, incoming))
        return True

    def _finish_switch(self, incoming: ThreadBlock) -> None:
        """Swap-in completion: activate (cost already paid)."""
        self._switching -= 1
        self._activate(incoming, charge_restore=False)

    def on_warp_stalled(self, warp: Warp) -> None:
        """A warp stalled on page faults; switch its block if fully stalled."""
        block = warp.block
        if block.state is BlockState.ACTIVE and block.fully_stalled():
            self.try_context_switch(block)

    def on_warp_mem_wait(self, warp: Warp) -> None:
        """Forced-oversubscription trigger: all warps waiting on DRAM."""
        if not self.forced_oversubscription:
            return
        block = warp.block
        if block.state is BlockState.ACTIVE and block.fully_mem_stalled():
            self.try_context_switch(block)

    def on_block_ready(self, block: ThreadBlock) -> None:
        """An inactive block became runnable (its faulted pages arrived)."""
        if block.state is not BlockState.INACTIVE:
            return
        # Fill an empty active slot right away, or preempt a fully-stalled
        # active block.
        if len(self.active_blocks) + self._switching < self.active_limit:
            self.inactive_blocks.remove(block)
            block.state = BlockState.SWITCHING
            self._switching += 1
            cost = (
                self.context_cost.restore_cycles(self.kernel_resources)
                if block.ever_active
                else 0
            )

            self.engine.schedule(cost, _FillSlotEvent(self, block))
            return
        for active in self.active_blocks:
            if active.fully_stalled():
                self.try_context_switch(active)
                return

    def _fill_slot(self, block: ThreadBlock) -> None:
        """Slot-fill completion: activate (restore cost already paid)."""
        self._switching -= 1
        self._activate(block, charge_restore=False)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def retire_block(self, block: ThreadBlock) -> None:
        if block.state is BlockState.ACTIVE:
            self.active_blocks.remove(block)
        elif block.state is BlockState.INACTIVE:
            # A switched-out block can retire if its last warps finished
            # while it was inactive (they were stalled, pages arrived, and
            # the replay finished before reactivation).
            self.inactive_blocks.remove(block)
        else:
            raise SimulationError(f"cannot retire {block}")
        block.state = BlockState.FINISHED

    @property
    def free_active_slots(self) -> int:
        return self.active_limit - len(self.active_blocks) - self._switching

    @property
    def resident_blocks(self) -> int:
        return len(self.active_blocks) + len(self.inactive_blocks) + self._switching

    # ------------------------------------------------------------------
    # ETC memory-aware throttling
    # ------------------------------------------------------------------
    def set_throttled(self, throttled: bool) -> None:
        if self.throttled == throttled:
            return
        self.throttled = throttled
        if not throttled:
            parked, self.parked_warps = self.parked_warps, []
            for warp in parked:
                self._schedule_warp(warp, 0)

    def park(self, warp: Warp) -> None:
        self.parked_warps.append(warp)
