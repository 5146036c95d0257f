"""Golden lock on what a real simulation emits to its observers.

``obs_trace.json`` pins the exporter over a hand-built tracer; this file
pins the emission itself.  BFS-TTC at the ``tiny`` scale, seed 0, under
BASELINE and TO+UE, in ``light`` and ``full`` mode, must keep producing
exactly the recorded sim-scope trace events and metric snapshot; the
Figure-2 batch rendering of both presets and the flight-recorder events
of a ``fail-batch:batch=2`` chaos run are pinned the same way.  Each
golden entry is the sha256 of the canonical JSON of what it pins.

Regenerating (only when a change *deliberately* alters what is emitted)::

    PYTHONPATH=src python tests/test_obs_emission.py --regenerate
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import sys
import tempfile

import pytest

from repro import GpuUvmSimulator, build_workload, cli, obs, systems

GOLDEN = pathlib.Path(__file__).parent / "golden" / "obs_emission.json"
PRESETS = ("BASELINE", "TO+UE")
MODES = ("light", "full")
FLIGHT_ARGS = [
    "BFS-TTC", "--scale", "tiny", "--obs", "light",
    "--chaos", "fail-batch:batch=2",
]


def digest(value) -> str:
    """sha256 of ``value``'s canonical JSON."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def emission(preset: str, mode: str) -> dict:
    """The sim-scope trace events, metrics and batch rendering of one run."""
    workload = build_workload("BFS-TTC", scale="tiny", seed=0)
    config = systems.by_name(preset).configure(workload)
    session = obs.Observability(mode)
    sim = GpuUvmSimulator(workload, config, obs=session)
    sim.run()
    events = [
        [e.track, e.name, e.ph, e.ts, e.dur, e.args]
        for e in session.tracer.events
        if e.scope == sim._obs_scope
    ]
    return {
        "trace": events,
        "metrics": session.metrics.snapshot(),
        "render": obs.render_batches(session.tracer, sim._obs_scope),
    }


def flight_events(directory: pathlib.Path) -> list[dict]:
    """Flight-recorder events of the CLI's chaos-failed run."""
    path = directory / "flight.json"
    assert cli.main(FLIGHT_ARGS + ["--flight-out", str(path)]) == 1
    return json.loads(path.read_text())["events"]


def _digests(directory: pathlib.Path) -> dict[str, str]:
    out = {}
    for preset in PRESETS:
        for mode in MODES:
            run = emission(preset, mode)
            out[f"trace/{preset}/{mode}"] = digest(run["trace"])
            out[f"metrics/{preset}/{mode}"] = digest(run["metrics"])
        out[f"render/{preset}"] = digest(emission(preset, "full")["render"])
    out["flight/fail-batch:batch=2"] = digest(flight_events(directory))
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("preset", PRESETS)
def test_trace_events_match_golden(golden, preset, mode):
    assert digest(emission(preset, mode)["trace"]) == golden[
        f"trace/{preset}/{mode}"
    ]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("preset", PRESETS)
def test_metrics_match_golden(golden, preset, mode):
    assert digest(emission(preset, mode)["metrics"]) == golden[
        f"metrics/{preset}/{mode}"
    ]


@pytest.mark.parametrize("preset", PRESETS)
def test_batch_rendering_matches_golden(golden, preset):
    render = emission(preset, "full")["render"]
    assert render.startswith("batch timeline:")
    assert digest(render) == golden[f"render/{preset}"]


def test_flight_recorder_events_match_golden(golden, tmp_path, capsys):
    events = flight_events(tmp_path)
    capsys.readouterr()
    assert {"batch_begin", "batch_end"} <= {e["kind"] for e in events}
    assert digest(events) == golden["flight/fail-batch:batch=2"]


def test_golden_covers_every_case(golden):
    expected = {"flight/fail-batch:batch=2"}
    for preset in PRESETS:
        expected.add(f"render/{preset}")
        for mode in MODES:
            expected |= {f"trace/{preset}/{mode}", f"metrics/{preset}/{mode}"}
    assert set(golden) == expected


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        sys.exit("usage: test_obs_emission.py --regenerate")
    with tempfile.TemporaryDirectory() as tmp:
        digests = _digests(pathlib.Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
