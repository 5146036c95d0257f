"""Shared machinery for the GraphBIG-style graph workloads.

Every graph workload lays out the same core arrays in unified memory:

* ``offsets`` — CSR row offsets, 8 B per vertex (+1);
* ``edges`` — CSR adjacency, 8 B per edge (the dominant footprint);
* ``vprop`` — per-vertex property struct, 64 B per vertex, standing in for
  GraphBIG's property objects (level/color/rank/degree live here).  The
  scattered destination-property accesses into this array are what makes
  these workloads *irregular*;

plus per-algorithm extras (frontier queues, edge weights).

Trace generators run the actual algorithm on the host and emit, per warp,
the coalesced accesses the SIMT execution would issue.  Two execution
styles recur across GraphBIG implementations:

* *thread-centric* (TC): thread ``t`` owns vertex ``t``; a warp's threads
  expand their adjacency lists in lockstep, so step ``j`` of the warp
  gathers edge ``j`` of every active lane — divergent lanes idle.
* *warp-centric* (WC): a warp processes its vertices one at a time; the 32
  lanes read 32 *consecutive* edges per step, so edge traffic coalesces
  but destination-property traffic stays scattered.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.gpu.config import WARP_SIZE
from repro.gpu.occupancy import KernelResources
from repro.gpu.warp import WarpOp
from repro.vm.address_space import AddressSpace, Segment
from repro.workloads.graph import CsrGraph
from repro.workloads.trace import (
    BlockTrace,
    KernelTrace,
    WarpOpsBuilder,
    Workload,
    group_warps_into_blocks,
)

#: Bytes per vertex-property record (GraphBIG property structs).
VPROP_BYTES = 64
#: Default CUDA block size used by GraphBIG kernels.
THREADS_PER_BLOCK = 256


class GraphWorkloadBuilder:
    """Base class: array layout + warp/block plumbing for one graph."""

    def __init__(
        self,
        graph: CsrGraph,
        page_size: int = 64 * 1024,
        threads_per_block: int = THREADS_PER_BLOCK,
        registers_per_thread: int = 56,
    ) -> None:
        if threads_per_block % WARP_SIZE:
            raise WorkloadError("threads_per_block must be a multiple of 32")
        self.graph = graph
        # Python-list views of the CSR arrays: the trace expansions index
        # them per edge, and list indexing is far cheaper than reading
        # numpy scalars (and yields exact ``int`` addresses directly).
        self._offsets = graph.offsets.tolist()
        self._edges = graph.edges.tolist()
        self.vas = AddressSpace(page_size)
        self.threads_per_block = threads_per_block
        self.warps_per_block = threads_per_block // WARP_SIZE
        self.resources = KernelResources(
            threads_per_block=threads_per_block,
            registers_per_thread=registers_per_thread,
        )
        self.offsets = self.vas.allocate("offsets", graph.num_vertices + 1, 8)
        self.edges = self.vas.allocate("edges", max(1, graph.num_edges), 8)
        self.vprop = self.vas.allocate("vprop", graph.num_vertices, VPROP_BYTES)
        # Compact per-vertex status word (level/colour/flag) checked by the
        # all-vertex scans of topological kernels; the fat property record
        # is only touched for *active* vertices.  Keeping these separate is
        # what GraphBIG's kernels do, and it is what gives the workloads a
        # skewed page-popularity profile instead of a uniform whole-
        # footprint rescan per kernel.
        self.status = self.vas.allocate("status", graph.num_vertices, 8)

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def vprop_addrs(self, vertices: Iterable[int]) -> list[int]:
        addr = self.vprop.addr_unchecked
        return [addr(int(v)) for v in vertices]

    def offsets_addrs(self, vertices: Iterable[int]) -> list[int]:
        addr = self.offsets.addr_unchecked
        out = []
        for v in vertices:
            out.append(addr(int(v)))
            out.append(addr(int(v) + 1))
        return out

    def edge_addrs(self, indices: Iterable[int]) -> list[int]:
        addr = self.edges.addr_unchecked
        return [addr(int(i)) for i in indices]

    # ------------------------------------------------------------------
    # Warp-level emitters
    # ------------------------------------------------------------------
    def emit_status_check(self, ops: WarpOpsBuilder, vertices: Sequence[int]) -> None:
        """Every lane reads its vertex's compact status word (coalesced)."""
        addr = self.status.addr_unchecked
        ops.access([addr(int(v)) for v in vertices])

    def emit_active_properties(
        self, ops: WarpOpsBuilder, active: Sequence[int], is_store: bool = False
    ) -> None:
        """Active lanes read (or update) their full property records."""
        ops.access(self.vprop_addrs(active), is_store=is_store)

    def emit_tc_expansion(
        self,
        ops: WarpOpsBuilder,
        active: Sequence[int],
        touch_dst: bool = True,
        dst_store: bool = False,
        extra_dst_addrs=None,
    ) -> None:
        """Thread-centric lockstep expansion of ``active`` lanes.

        Step ``j`` gathers edge ``j`` of every active lane that still has
        neighbours, plus the destination property records.
        """
        if not len(active):
            return
        offsets, edges = self._offsets, self._edges
        edge_addr = self.edges.addr_unchecked
        vprop_addr = self.vprop.addr_unchecked
        ops.access(self.offsets_addrs(active))
        slices = [(offsets[v], offsets[v + 1]) for v in map(int, active)]
        max_degree = max(end - start for start, end in slices)
        for j in range(max_degree):
            addrs: list[int] = []
            stores: list[int] = []
            dependent: list[int] = []
            for start, end in slices:
                if start + j < end:
                    edge_index = start + j
                    addrs.append(edge_addr(edge_index))
                    if touch_dst:
                        dst = edges[edge_index]
                        dst_addr = vprop_addr(dst)
                        addrs.append(dst_addr)
                        dependent.append(dst_addr)
                        if dst_store:
                            stores.append(dst_addr)
                        if extra_dst_addrs is not None:
                            extra = extra_dst_addrs(edge_index, dst)
                            addrs.extend(extra)
                            dependent.extend(extra)
            ops.access(
                addrs,
                store_addresses=stores if dst_store else None,
                dependent_addresses=dependent or None,
            )

    def emit_wc_expansion(
        self,
        ops: WarpOpsBuilder,
        active: Sequence[int],
        touch_dst: bool = True,
        dst_store: bool = False,
        extra_dst_addrs=None,
    ) -> None:
        """Warp-centric expansion: 32 consecutive edges per step."""
        offsets, edges = self._offsets, self._edges
        vprop_addr = self.vprop.addr_unchecked
        for v in map(int, active):
            start, end = offsets[v], offsets[v + 1]
            ops.access(self.offsets_addrs([v]))
            for chunk_start in range(start, end, WARP_SIZE):
                chunk_end = min(chunk_start + WARP_SIZE, end)
                addrs = self.edge_addrs(range(chunk_start, chunk_end))
                stores: list[int] = []
                dependent: list[int] = []
                if touch_dst:
                    for edge_index in range(chunk_start, chunk_end):
                        dst = edges[edge_index]
                        dst_addr = vprop_addr(dst)
                        addrs.append(dst_addr)
                        dependent.append(dst_addr)
                        if dst_store:
                            stores.append(dst_addr)
                        if extra_dst_addrs is not None:
                            extra = extra_dst_addrs(edge_index, dst)
                            addrs.extend(extra)
                            dependent.extend(extra)
                ops.access(
                    addrs,
                    store_addresses=stores if dst_store else None,
                    dependent_addresses=dependent or None,
                )

    # ------------------------------------------------------------------
    # Kernel assembly
    # ------------------------------------------------------------------
    def topological_kernel(
        self, name: str, per_warp_emit
    ) -> KernelTrace:
        """One kernel scanning all vertices thread-centrically.

        ``per_warp_emit(ops, vertices)`` fills one warp's op list; warps
        cover 32 consecutive vertices each.
        """
        warp_ops: list[list[WarpOp]] = []
        n = self.graph.num_vertices
        for start in range(0, n, WARP_SIZE):
            vertices = range(start, min(start + WARP_SIZE, n))
            ops = WarpOpsBuilder()
            per_warp_emit(ops, list(vertices))
            warp_ops.append(ops.build())
        return self._kernel(name, warp_ops)

    def data_driven_kernel(
        self, name: str, work_items: Sequence[int], per_warp_emit
    ) -> KernelTrace:
        """One kernel over an explicit work queue (frontier)."""
        warp_ops: list[list[WarpOp]] = []
        for start in range(0, len(work_items), WARP_SIZE):
            chunk = [int(v) for v in work_items[start : start + WARP_SIZE]]
            ops = WarpOpsBuilder()
            per_warp_emit(ops, chunk, start)
            warp_ops.append(ops.build())
        if not warp_ops:
            warp_ops.append([])
        return self._kernel(name, warp_ops)

    def _kernel(self, name: str, warp_ops: list[list[WarpOp]]) -> KernelTrace:
        blocks = group_warps_into_blocks(warp_ops, self.warps_per_block)
        return KernelTrace(name, blocks, self.resources)

    def workload(self, name: str, kernels: list[KernelTrace]) -> Workload:
        kernels = [k for k in kernels if k.num_ops > 0]
        if not kernels:
            raise WorkloadError(f"workload {name!r} generated no work")
        return Workload(name, self.vas, kernels, irregular=True)
