"""Golden lock on the workload traces themselves.

Every Figure 1 workload (the 6 regular and the 11 irregular ones) at the
``tiny`` scale, seed 0, must keep producing exactly the recorded trace: one
sha256 per workload over the kernel/block/warp structure and every op's
``(compute_cycles, addresses, is_store, store_addresses,
dependent_addresses)``.  Trace builders may get faster; they may not emit a
different trace.  Every address must also be an exact ``int`` (never a
numpy scalar): addresses feed shifts, hashes and pickles throughout the
simulator.

Regenerating (only when a change *deliberately* alters a trace)::

    PYTHONPATH=src python tests/test_trace_digests.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.experiments.common import FIG1_REGULAR, PAPER_WORKLOADS
from repro.workloads.registry import build_workload

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_digests.json"
WORKLOADS = FIG1_REGULAR + PAPER_WORKLOADS


def _ops(workload):
    for kernel in workload.kernels:
        for block in kernel.blocks:
            for ops in block.warp_ops:
                yield from ops


def trace_digest(workload) -> str:
    """sha256 over the trace's structure and every op's fields."""
    digest = hashlib.sha256()
    for kernel in workload.kernels:
        digest.update(f"kernel {kernel.name} {len(kernel.blocks)}\n".encode())
        for block in kernel.blocks:
            digest.update(f"block {len(block.warp_ops)}\n".encode())
            for ops in block.warp_ops:
                digest.update(f"warp {len(ops)}\n".encode())
                for op in ops:
                    fields = (
                        op.compute_cycles,
                        op.addresses,
                        op.is_store,
                        op.store_addresses,
                        op.dependent_addresses,
                    )
                    digest.update(repr(fields).encode())
    return digest.hexdigest()


def _digests() -> dict[str, str]:
    return {
        name: trace_digest(build_workload(name, scale="tiny", seed=0))
        for name in WORKLOADS
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    workload = build_workload(name, scale="tiny", seed=0)
    for op in _ops(workload):
        assert type(op.compute_cycles) is int
        for group in (op.addresses, op.store_addresses, op.dependent_addresses):
            assert type(group) is tuple
            assert all(type(a) is int for a in group), (name, group)
    assert trace_digest(workload) == golden[name]


def test_golden_covers_every_fig1_workload():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(WORKLOADS)


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        sys.exit("usage: test_trace_digests.py --regenerate")
    GOLDEN.write_text(json.dumps(_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
