"""``serve-mix``: ``repro-serve`` under a closed loop of two clients.

The server runs as a subprocess (``python -m repro.serve --jobs
$(nproc)``) with its supervised pool, on a fresh cache.  One load process
drives it with ``CLIENTS`` connections in a closed loop: each client
sends its next request only after the previous reply arrived, as
scripts do.  The request sequence comes from ``--seed``: every cell of
the Figure-11 grid (6 presets x 11 workloads, tiny, graph seed
``seed % 10``) once, plus ``ZIPF_DRAWS`` repeats split in Zipf
proportions over a fixed popularity ranking of the grid, shuffled by the
seed.  Every cell is therefore missed exactly once per fresh server,
whatever the seed, and the hits read the run cache from memory.  The
ranking is the same for every seed because a hit's cost grows with its
result's size: a seeded ranking made the mix of hot cells, and with it
``warm_s``, differ by up to a third between seeds.

``cold_s`` is the median, over ``COLD_PASSES`` fresh servers on fresh
caches, of the sequence's first pass; ``warm_s`` the median of replays
of the same sequence on the last of them once every cell is cached,
replayed until ``--seconds`` have passed since the first server start.
Each 200 reply is checked against the committed ``run_cells`` result
for its cell.

The traced run adds the server's own ``/v1/stats`` counters and replays
the grid in-process through ``run_cells``, profiled and plain, for the
simulator layers that the server's misses run in its workers.
"""

from __future__ import annotations

import json
import random
import socket
import subprocess
import sys
import threading
import time

import lib

CLIENTS = 2
ZIPF_DRAWS = 600
ZIPF_EXPONENT = 1.0
#: Seeds the fixed popularity ranking, not the run.
RANKING_SEED = 0
SETUPS = 9
#: Fresh servers whose first pass is timed as ``cold_s``; their median
#: is the metric.  The last one also serves the warm replays.
COLD_PASSES = 2
REQUEST_TIMEOUT = 60.0
READY_TIMEOUT = 60.0


def _grid(seed: int) -> list[dict]:
    from repro import systems
    from repro.experiments.common import PAPER_WORKLOADS

    return [
        {"workload": name, "preset": preset.name, "scale": lib.SCALE, "seed": seed}
        for preset in systems.FIGURE11_SYSTEMS
        for name in PAPER_WORKLOADS
    ]


def request_sequence(grid: list[dict], seed: int) -> list[int]:
    """Grid indices: each cell once plus Zipf-popular repeats, shuffled."""
    ranking = list(range(len(grid)))
    random.Random(RANKING_SEED).shuffle(ranking)
    weights = [1 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(grid))]
    # Cumulative rounding: the repeats sum to exactly ZIPF_DRAWS.
    sequence = list(range(len(grid)))
    share = 0.0
    for index, weight in zip(ranking, weights):
        before = round(ZIPF_DRAWS * share)
        share += weight / sum(weights)
        sequence += [index] * (round(ZIPF_DRAWS * share) - before)
    random.Random(seed).shuffle(sequence)
    return sequence


class Server:
    """One ``repro-serve`` subprocess, ready once every pool worker is up."""

    def __init__(self, cache) -> None:
        from repro.serve.client import ServeClient

        ready = lib.run_tmp() / f"ready-{time.monotonic_ns()}.json"
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m", "repro.serve",
                "--port", "0",
                "--ready-file", str(ready),
                "--jobs", str(lib.nproc()),
                "--cache-dir", str(cache),
                "--quiet",
            ],
            env=lib.child_env(),
        )
        try:
            while not ready.exists():
                self._wait_step(start)
            port = json.loads(ready.read_text())["port"]
            self.client = ServeClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
            while True:
                workers = self.client.healthz().get("workers") or {}
                if workers.get("workers_alive") == workers.get("workers_target"):
                    break
                self._wait_step(start)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_step(self, start: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"repro-serve exited with {self.proc.returncode}")
        if time.perf_counter() - start > READY_TIMEOUT:
            raise RuntimeError("repro-serve did not become ready")
        time.sleep(0.005)

    def stop(self) -> int:
        return lib.stop_process(self.proc)


class Load:
    """Closed-loop clients; collects (latency, kind) per request."""

    def __init__(self, grid, expected) -> None:
        self.client = None
        self.grid = grid
        self.expected = expected
        self.lock = threading.Lock()
        self.samples: list[tuple[float, str]] = []
        self.failures: dict[str, int] = {}
        self.mismatches: list[str] = []
        self.results: dict[int, dict] = {}
        self.unchecked: list[tuple[int, dict]] = []
        self.attempted = 0

    def play(self, client, sequence: list[int]) -> float:
        """Send ``sequence`` to ``client``'s server over ``CLIENTS``
        connections; returns wall time."""
        self.client = client
        pending = iter(sequence)

        def client_loop() -> None:
            while True:
                with self.lock:
                    index = next(pending, None)
                if index is None:
                    return
                self._one(index)

        threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        self._check()
        return elapsed

    def _one(self, index: int) -> None:
        fields = self.grid[index]
        start = time.perf_counter()
        try:
            response = self.client.run(**fields)
            envelope = response.json() if response.status == 200 else None
        except (OSError, ValueError) as exc:
            kind = "timeout" if isinstance(exc, socket.timeout) else type(exc).__name__
            self._record(None, kind)
            return
        latency = time.perf_counter() - start
        if envelope is None:
            kind = "rejected_429" if response.status == 429 else f"http_{response.status}"
            self._record(None, kind)
            return
        kind = "hit" if envelope["cached"] else "dedupe" if envelope["deduped"] else "miss"
        with self.lock:
            self.unchecked.append((index, envelope["result"]))
        self._record(latency, kind)

    def _check(self) -> None:
        """Compare the pass's replies with the committed results, once the
        pass's clock has stopped."""
        for index, result in self.unchecked:
            fields = self.grid[index]
            key = lib.cell_key(fields["workload"], fields["preset"])
            if lib.result_digest(result) != self.expected[key]["digest"]:
                self.mismatches.append(f"{key}: reply differs from run_cells result")
            self.results[index] = result
        self.unchecked.clear()

    def _record(self, latency: float | None, kind: str) -> None:
        with self.lock:
            self.attempted += 1
            if latency is None:
                self.failures[kind] = self.failures.get(kind, 0) + 1
            else:
                self.samples.append((latency, kind))

    def latencies(self, *kinds: str) -> list[float]:
        return [lat for lat, kind in self.samples if kind in kinds]


def run(seed: int, seconds: float, trace: bool) -> lib.Outcome:
    graph = lib.graph_seed(seed)
    grid = _grid(graph)
    expected = lib.load_expected(graph)
    sequence = request_sequence(grid, seed)
    load = Load(grid, expected)
    colds = 1 if trace else COLD_PASSES
    start = time.perf_counter()
    setups = []
    for _ in range(0 if trace else SETUPS - colds):
        server = Server(lib.scratch_dir("cache"))
        setups.append(server.setup_s)
        server.stop()
    cold = []
    pools = []
    warms = []
    for index in range(colds):
        server = Server(lib.scratch_dir("cache"))
        setups.append(server.setup_s)
        try:
            cold.append(load.play(server.client, sequence))
            if index == colds - 1:
                while len(warms) < 2 or time.perf_counter() - start < seconds:
                    warms.append(load.play(server.client, sequence))
            stats = server.client.stats()
            pools.append(stats["pool"])
        finally:
            code = server.stop()
        if code != 0:
            load.failures["server_exit_nonzero"] = (
                load.failures.get("server_exit_nonzero", 0) + 1
            )
    unanswered = len(grid) - len(load.results)
    if unanswered:
        load.mismatches.append(f"{unanswered} grid cells got no verified 200 reply")
    measured = sum(cold) + sum(warms)
    hits = load.latencies("hit")
    misses = load.latencies("miss", "dedupe")
    report = [
        f"serve-mix: {len(sequence)} requests per pass ({len(grid)} distinct "
        f"cells, graph seed {graph}), {CLIENTS} closed-loop clients, "
        f"--jobs {lib.nproc()}; {len(cold)} cold and {len(warms)} warm passes",
        f"  setup samples (s): {lib.fmt_seconds(setups)}",
        f"  cold passes (s): {lib.fmt_seconds(cold)}; "
        f"warm passes (s): {lib.fmt_seconds(warms)}",
        f"  req_per_s {len(load.samples) / measured:.2f} over {measured:.3f} s",
        _latency_line("hit", hits, 50, 99),
        _latency_line("miss", misses, 50, 90),
        f"  pool, over the servers that ran passes: completed "
        f"{sum(p['completed'] for p in pools)}, restarts "
        f"{sum(p['restarts'] for p in pools)}, crashes "
        f"{sum(p['crashes'] for p in pools)}",
    ]
    fidelity = _fidelity(grid, load.results)
    if not trace:
        metrics = {
            "setup_s": lib.median(setups),
            "cold_s": lib.median(cold),
            "warm_s": lib.median(warms),
            "peak_rss_mb": lib.children_peak_rss_mb(),
        }
        return lib.Outcome(
            metrics, load.attempted, load.failures, load.mismatches, report, fidelity
        )
    metrics = lib.idle_layers(("experiments.",))
    metrics.update(_server_layers(stats))
    replay, replay_report, serial_s = _replay(grid, expected, load.mismatches)
    metrics.update(replay)
    # Serial cell time over the pool's wall for the same cells (the cold
    # pass, where every cell is simulated once).
    metrics["pool.parallel_efficiency"] = serial_s / (lib.nproc() * cold[0])
    return lib.Outcome(
        metrics,
        load.attempted,
        load.failures,
        load.mismatches,
        report + replay_report,
        fidelity,
    )


def _latency_line(kind: str, samples: list[float], mid: int, tail: int) -> str:
    if not samples:
        return f"  {kind}: no samples"
    beyond = len(samples) * (100 - tail) / 100
    return (
        f"  {kind}_p{mid}_ms {lib.percentile(samples, mid) * 1e3:.3f}, "
        f"{kind}_p{tail}_ms {lib.percentile(samples, tail) * 1e3:.3f} "
        f"({len(samples)} samples, {beyond:.1f} beyond p{tail})"
    )


def _fidelity(grid: list[dict], results: dict[int, dict]) -> dict | None:
    """Figure 11's TO+UE average speed-up, from the replies themselves."""
    cycles = {}
    for index, result in results.items():
        fields = grid[index]
        cycles[(fields["workload"], fields["preset"])] = result["exec_cycles"]
    workloads = {w for w, _ in cycles}
    try:
        speedups = [
            cycles[(w, "BASELINE")] / cycles[(w, "TO+UE")] for w in sorted(workloads)
        ]
    except KeyError:
        return None
    return lib.fidelity(sum(speedups) / len(speedups))


def _server_layers(stats: dict) -> dict[str, float]:
    server = stats["server"]
    pool = stats["pool"]
    run_cache = stats["run_cache"]
    hits = run_cache["memory_hits"] + run_cache["disk_hits"]
    return {
        "serve.server_p50_ms": server["latency_ms"]["p50"],
        "serve.server_p99_ms": server["latency_ms"]["p99"],
        "serve.batches": server["batches"]["count"],
        "serve.mean_batch_size": server["batches"]["mean_size"],
        "serve.cache_hit_rate": server["cache"]["hit_rate"],
        "serve.dedupe_hits": server["dedupe_hits"],
        "serve.rejected": server["requests_finished"]["rejected"],
        "pool.completed": pool["completed"],
        "pool.restarts": pool["restarts"],
        "pool.crashes": pool["crashes"],
        "experiments.cells_run": run_cache["misses"],
        "experiments.cache_memory_hits": run_cache["memory_hits"],
        "experiments.cache_disk_hits": run_cache["disk_hits"],
        "experiments.cache_misses": run_cache["misses"],
        "experiments.cache_hit_ratio": hits / max(1, hits + run_cache["misses"]),
    }


def _replay(grid, expected, mismatches):
    """The grid through ``run_cells`` in-process: serial, profiled and plain.

    The server's misses simulate in pool workers, out of the profiler's
    reach; replaying the same cells here attributes their host time.
    """
    from repro import systems
    from repro.experiments import common

    specs = [
        common.RunSpec(
            workload=f["workload"],
            preset=systems.by_name(f["preset"]),
            scale=f["scale"],
            seed=f["seed"],
        )
        for f in grid
    ]
    workloads, build_s = lib.build_workloads(
        sorted({f["workload"] for f in grid}), grid[0]["seed"]
    )
    profile = lib.LayerProfile()
    common.set_cell_hook(profile.attach)
    try:
        start = time.perf_counter()
        results = common.run_cells(specs, jobs=1, use_cache=False)
        traced = time.perf_counter() - start
    finally:
        common.set_cell_hook(None)
    start = time.perf_counter()
    common.run_cells(specs, jobs=1, use_cache=False)
    plain = time.perf_counter() - start
    for fields, result in zip(grid, results):
        key = lib.cell_key(fields["workload"], fields["preset"])
        if lib.sim_digest(result) != expected[key]["digest"]:
            mismatches.append(f"replay {key}: differs from the committed result")
    metrics = profile.metrics()
    # The server pays the build once per worker, on its first miss.
    metrics.update(
        {
            "workloads.build_s": build_s,
            "workloads.builds": len(workloads),
            "experiments.run_cells_s": plain,
            "trace.overhead_s": traced - plain,
            "trace.overhead_share": (traced - plain) / plain,
        }
    )
    report = [
        f"  in-process replay of the {len(specs)} grid cells: "
        f"{traced:.3f} s profiled, {plain:.3f} s plain"
    ]
    return metrics, report, plain
