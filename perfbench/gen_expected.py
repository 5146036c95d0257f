"""Regenerate the committed correctness references in ``expected/``.

For each graph seed it runs, through ``run_cells`` with the run cache
off, the Figure-11 grid that ``serve-mix`` requests (6 presets x 11
workloads at the scale's default ratio).  Each cell is stored as its
cycle count and the digest of its simulated statistics.

Run from the repository root after a change that is meant to alter
simulated results::

    python3 perfbench/gen_expected.py
"""

from __future__ import annotations

import json
import sys

import lib

sys.path.insert(0, str(lib.SRC))

from repro import systems  # noqa: E402
from repro.experiments import common  # noqa: E402


def fig11_specs(seed: int) -> list:
    return [
        common.RunSpec(workload=name, preset=preset, scale=lib.SCALE, seed=seed)
        for preset in systems.FIGURE11_SYSTEMS
        for name in common.PAPER_WORKLOADS
    ]


def reference(specs) -> dict:
    results = common.run_cells(specs, jobs=lib.nproc(), use_cache=False)
    return {
        lib.cell_key(spec.workload, spec.preset.name): {
            "exec_cycles": result.exec_cycles,
            "digest": lib.sim_digest(result),
        }
        for spec, result in zip(specs, results)
    }


def main() -> int:
    lib.EXPECTED_DIR.mkdir(exist_ok=True)
    for seed in range(lib.GRAPH_SEEDS):
        data = {
            "graph_seed": seed,
            "scale": lib.SCALE,
            "fig11": reference(fig11_specs(seed)),
        }
        path = lib.EXPECTED_DIR / f"seed{seed}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
