"""Shared experiment plumbing: runs, caching, parallel fan-out, result tables.

The experiment layer runs large matrices of independent simulation cells
(``(preset, workload, ratio, fault-handling-time, seed)``); simulations are
deterministic and share no state, so the cells can run concurrently and
their results can be reused forever.  Two mechanisms exploit that:

* **Persistent run cache** — every completed cell (and every Figure 1
  working-set curve, see :func:`cached`) is written to
  ``.repro-cache/`` (override with ``REPRO_CACHE_DIR`` or the CLI's
  ``--cache-dir``), keyed by a stable hash of the full run parameters plus
  a content fingerprint of the ``repro`` package source, so results
  survive across CLI invocations and benchmark sessions and are
  invalidated the moment the simulator changes.  Disable with
  ``REPRO_CACHE=0``, ``--no-cache``, or :func:`set_cache_enabled`.
* **Supervised parallel fan-out** — :func:`run_cells` (and
  :func:`run_matrix` on top of it) dispatches cache-missing cells to a
  crash-isolated :class:`repro.pool.SupervisedPool`: heartbeats, SIGTERM
  → SIGKILL escalation for hung workers, restart with backoff, and
  checkpoint-based handoff of interrupted cells (a crashed cell resumes
  from its last batch boundary in a fresh worker).  Results are merged
  back by cell index, so a parallel run is bit-identical to the serial
  one.  Select workers with ``--jobs``, ``REPRO_JOBS``, or
  :func:`set_default_jobs` (default: serial).

How cells execute is one frozen :class:`ExecutionPolicy`, applied in one
place, :meth:`RunSpec.resolved`.  :func:`run_cells` and :func:`probe_cache`
take an explicit ``policy`` (the serving layer's); without one they use
the process default, :func:`policy` / :func:`set_policy`.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
import sys
import threading
import time as _time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Sequence

from repro.chaos.config import ChaosConfig, split_process_chaos
from repro.errors import (
    CellFailure,
    PoolBrokenError,
    ReproError,
    SimulationStalledError,
)
from repro.gpu.config import SimConfig
from repro.obs import current as _obs_current
from repro.simulator import GpuUvmSimulator, SimulationResult
from repro.systems import SystemPreset
from repro.workloads.registry import SCALES, build_workload
from repro.workloads.trace import Workload

#: Event-cap safety net: experiments should never grind unbounded.
MAX_EVENTS = 60_000_000

#: The paper's 11 irregular workloads, Figure 11 bar order.
PAPER_WORKLOADS = (
    "BC",
    "BFS-DWC",
    "BFS-TA",
    "BFS-TF",
    "BFS-TTC",
    "BFS-TWC",
    "GC-DTC",
    "GC-TTC",
    "KCORE",
    "SSSP-TWC",
    "PR",
)

#: Figure 1's regular workloads.
FIG1_REGULAR = ("CFD", "DWT", "GM", "H3D", "HS", "LUD")

#: Leading tag of the run-cache keys holding Figure 1 working-set curves.
FIG1_KEY = "fig1"


@dataclass
class ExperimentResult:
    """A labelled table: rows of (label, {column: value})."""

    experiment: str
    title: str
    columns: list[str]
    rows: list[tuple[str, dict[str, float]]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, label: str, **values: float) -> None:
        self.rows.append((label, values))

    def value(self, label: str, column: str) -> float:
        for row_label, values in self.rows:
            if row_label == label:
                return values[column]
        raise KeyError(f"no row {label!r} in {self.experiment}")

    def column(self, column: str) -> list[float]:
        return [values[column] for _, values in self.rows if column in values]

    def geomean(self, column: str) -> float:
        vals = [v for v in self.column(column) if v > 0]
        if not vals:
            return 0.0
        product = 1.0
        for v in vals:
            product *= v
        return product ** (1.0 / len(vals))

    def mean(self, column: str) -> float:
        vals = self.column(column)
        return sum(vals) / len(vals) if vals else 0.0

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        label_width = max(
            [len("workload")] + [len(label) for label, _ in self.rows]
        )
        header = "  ".join(
            [f"{'workload':<{label_width}}"]
            + [f"{col:>12}" for col in self.columns]
        )
        lines = [self.title, "=" * len(header), header, "-" * len(header)]
        for label, values in self.rows:
            cells = []
            for col in self.columns:
                v = values.get(col)
                if v is None:
                    cells.append(f"{'-':>12}")
                elif isinstance(v, float) and not v.is_integer():
                    cells.append(f"{v:>12.3f}")
                else:
                    cells.append(f"{int(v):>12}")
            lines.append("  ".join([f"{label:<{label_width}}"] + cells))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def half_ratio(scale: str) -> float:
    """The scale's calibrated '50% oversubscription' memory ratio."""
    return SCALES[scale].half_memory_ratio


# ----------------------------------------------------------------------
# Execution policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionPolicy:
    """How cells execute (see docs/robustness.md): what
    :meth:`RunSpec.resolved` writes onto each spec, plus what
    :func:`run_cells` reads itself."""

    #: Worker processes for cache-missing cells (1: serial).
    jobs: int = 1
    #: Per-cell progress lines on stderr during fan-outs.
    progress: bool = False
    #: Chaos plan for every cell whose spec doesn't carry its own; may mix
    #: simulation-level and process-level (``worker-*``) kinds, which
    #: :meth:`RunSpec.resolved` splits into ``chaos`` and ``pool_chaos``.
    chaos: ChaosConfig | None = None
    #: Batch-boundary invariant checking in every cell.
    invariants: bool = False
    #: Per-cell wall-clock budget in seconds (None: unbounded).
    cell_timeout: float | None = None
    #: Checkpoint every cell into ``checkpoint_dir`` every
    #: ``checkpoint_every`` batches; with ``resume``, a cell continues
    #: from its existing checkpoint file.  ``None``: no checkpoints.
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    resume: bool = False
    #: How many times a cell is re-run after a *transient* failure, in
    #: the process that runs it.
    retries: int = 1
    #: What to do with a cell that keeps failing: "raise" aborts the
    #: sweep; "keep-going" records a CellFailure in its slot so the sweep
    #: completes with partial data.
    on_error: str = "raise"
    #: Hard wall deadline on a cell's whole attempt sequence (retries and
    #: their backoff included), enforced by an ephemeral pool's
    #: supervisor (None: rely on the in-simulation watchdog only).
    worker_deadline: float | None = None
    #: Crashes on one memo key before an ephemeral pool's circuit breaker
    #: quarantines it as a :class:`~repro.errors.PoisonCellError`.
    breaker_threshold: int = 5

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell timeout must be positive (or None)")
        if self.checkpoint_every <= 0:
            raise ValueError("checkpoint interval must be positive")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.on_error not in ("raise", "keep-going"):
            raise ValueError(f"unknown on-error policy {self.on_error!r}")
        if self.worker_deadline is not None and self.worker_deadline <= 0:
            raise ValueError("worker deadline must be positive (or None)")
        if self.breaker_threshold < 1:
            raise ValueError("breaker threshold must be at least 1")


def _env_jobs() -> int:
    """``REPRO_JOBS`` as a worker count (unset or empty: serial)."""
    value = os.environ.get("REPRO_JOBS") or "1"
    try:
        return max(1, int(value))
    except ValueError:
        raise ValueError(
            f"REPRO_JOBS must be an integer, got {value!r}"
        ) from None


_POLICY = ExecutionPolicy(jobs=_env_jobs())


def policy() -> ExecutionPolicy:
    """The process-wide default :class:`ExecutionPolicy`."""
    return _POLICY


def set_policy(new: ExecutionPolicy) -> None:
    """Replace the process-wide default :class:`ExecutionPolicy`."""
    global _POLICY
    _POLICY = new


# ----------------------------------------------------------------------
# Run specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One simulation cell: everything needed to (re)produce a run.

    ``preset`` executes ``preset.configure(workload, ...)``; an explicit
    ``config`` (ablations) bypasses the preset and runs the given
    :class:`SimConfig` directly.  Exactly one of the two must be set.
    """

    workload: str
    preset: SystemPreset | None = None
    config: SimConfig | None = None
    scale: str = "tiny"
    ratio: float | None = None
    fault_handling_cycles: int | None = None
    seed: int = 0
    max_events: int = MAX_EVENTS
    #: Fault-injection plan threaded into the configured system
    #: (:mod:`repro.chaos`); participates in the cache key.
    chaos: ChaosConfig | None = None
    #: Batch-boundary invariant checking (:mod:`repro.invariants`).
    check_invariants: bool = False
    #: Per-cell wall-clock budget; a run exceeding it raises
    #: :class:`~repro.errors.SimulationStalledError` from the engine
    #: watchdog.  Deliberately *not* part of the cache key: a timeout
    #: never produces a cacheable result.
    wall_budget_seconds: float | None = None
    #: Whole-simulation checkpointing (:mod:`repro.checkpoint`): write a
    #: resumable snapshot every ``checkpoint_every`` batches into
    #: ``checkpoint_dir``; with ``resume`` the cell first looks for its
    #: checkpoint file and continues from it.  None of these participate
    #: in the cache key — a resumed run is bit-identical to a fresh one,
    #: and checkpointing never changes *what* is computed, only whether a
    #: stalled cell's progress survives.
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    resume: bool = False
    #: Warp-model backend (``"soa"`` or ``"object"``); both are locked
    #: bit-identical by the equivalence suites, but the choice is part of
    #: *how* the cell is specified, so it participates in the cache key.
    backend: str = "soa"
    #: Process-level chaos for the supervised pool (``worker-kill`` /
    #: ``worker-hang`` / ``worker-slow``).  Deliberately *not* part of
    #: the cache key: process chaos perturbs where a cell computes,
    #: never what it computes — a chaotic sweep shares cache entries
    #: with (and stays bit-identical to) a chaos-free one.
    pool_chaos: ChaosConfig | None = None
    #: Transient-failure retry budget of :func:`execute_cell`, written by
    #: :meth:`resolved` from the policy so it reaches pool workers with
    #: the spec.  Not part of the cache key.
    retries: int = 1

    def resolved(self, policy: ExecutionPolicy | None = None) -> "RunSpec":
        """Canonicalise so equal runs always produce equal cache keys:
        upper-case the workload name (the registry is case-insensitive),
        fill the scale-calibrated default ratio, apply ``policy`` (default:
        the process policy) to every field the spec leaves unset, copy
        its retry budget, and split process-level chaos kinds out of
        ``chaos`` into ``pool_chaos`` so they can never contaminate
        ``SimConfig`` or a cache key."""
        policy = policy or _POLICY
        chaos, pool_chaos = split_process_chaos(
            self.chaos if self.chaos is not None else policy.chaos
        )
        spec = replace(
            self,
            workload=self.workload.upper(),
            ratio=(
                half_ratio(self.scale)
                if self.ratio is None and self.config is None
                else self.ratio
            ),
            chaos=chaos,
            pool_chaos=self.pool_chaos or pool_chaos,
            check_invariants=self.check_invariants or policy.invariants,
            wall_budget_seconds=(
                self.wall_budget_seconds
                if self.wall_budget_seconds is not None
                else policy.cell_timeout
            ),
            retries=policy.retries,
        )
        if spec.checkpoint_dir is None and policy.checkpoint_dir is not None:
            spec = replace(
                spec,
                checkpoint_dir=policy.checkpoint_dir,
                checkpoint_every=policy.checkpoint_every,
                resume=policy.resume,
            )
        return spec


def _memo_key(spec: RunSpec) -> tuple:
    """In-process cache key (matches the legacy ``_RUN_CACHE`` key plus
    ``max_events`` — a capped partial run must never satisfy a full one).
    Checkpoint fields, ``pool_chaos`` and ``retries`` are deliberately
    absent: resumed runs, retried runs and runs under process-level chaos
    produce results identical to uninterrupted, chaos-free ones, so they
    share a cache entry."""
    robustness = (spec.chaos, spec.check_invariants, spec.backend)
    if spec.config is not None:
        config_hash = hashlib.sha256(
            repr(spec.config).encode()
        ).hexdigest()
        return (
            "config",
            config_hash,
            spec.workload,
            spec.scale,
            spec.seed,
            spec.max_events,
        ) + robustness
    return (
        spec.preset.name,
        spec.workload,
        spec.scale,
        spec.ratio,
        spec.fault_handling_cycles,
        spec.seed,
        spec.max_events,
    ) + robustness


# ----------------------------------------------------------------------
# Persistent on-disk cache
# ----------------------------------------------------------------------
_CACHE_ENABLED = os.environ.get("REPRO_CACHE", "1") != "0"
_CACHE_DIR: pathlib.Path | None = None

#: Base of the exponential backoff between retries of a transient
#: failure, in seconds.
_RETRY_BACKOFF = 0.25

#: Errors worth retrying: infrastructure hiccups, not simulator states.
#: A deterministic simulation error would simply reproduce, so
#: :class:`~repro.errors.ReproError` is deliberately absent.  So is
#: ``MemoryError``: a cell that exhausts memory will exhaust it again —
#: it surfaces as a structured :class:`~repro.errors.CellFailure`
#: instead of burning the retry budget.  Pool-wide breakage
#: (:class:`~repro.errors.PoolBrokenError`) is likewise not retried per
#: cell: :func:`run_cells` rebuilds the pool once and resubmits only the
#: affected cells.
_TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (OSError,)

#: The error taxonomy of a cell: what becomes a structured
#: :class:`~repro.errors.CellFailure`.  Anything else is a bug and
#: propagates.
_CELL_ERRORS = (ReproError, MemoryError, *_TRANSIENT_ERRORS)

#: Worker-process-local hook called with each freshly built/restored
#: simulator (after checkpoints are enabled): the mount point for
#: process-level chaos (:mod:`repro.pool.worker`).  Never set in the
#: parent process.
_CELL_HOOK: Callable | None = None

#: Structured failures collected under the process policy's
#: ``keep-going`` (see :func:`drain_failures`).
FAILURES: list[CellFailure] = []

#: Per-process counters for observability (see :func:`cache_stats`).
CACHE_STATS = {"memory_hits": 0, "disk_hits": 0, "misses": 0, "evictions": 0}

# ---- Cache quota / LRU eviction (see docs/serving.md) ----------------


def quota_bytes(megabytes: float | str, name: str) -> int:
    """``megabytes`` in bytes; a ValueError naming ``name`` (the flag or
    environment variable) unless it is a number of at least one byte."""
    try:
        quota = int(float(megabytes) * 1024 * 1024)
    except (ValueError, OverflowError):
        quota = 0
    if quota <= 0:
        raise ValueError(
            f"{name} must be at least one byte, got {megabytes!r}"
        )
    return quota


#: Size budget for the persistent cache directory in bytes; ``None``
#: leaves the cache unbounded (the historical behaviour).
_CACHE_QUOTA_BYTES: int | None = None
_env_quota = os.environ.get("REPRO_CACHE_QUOTA_MB")
if _env_quota:
    _CACHE_QUOTA_BYTES = quota_bytes(_env_quota, "REPRO_CACHE_QUOTA_MB")
#: Cache files that must never be evicted while pinned (in-flight server
#: entries), as ``{file name: pin count}``; guarded by ``_PIN_LOCK``
#: because the serving layer pins from the event loop while eviction
#: runs on a worker thread.
_PINNED_PATHS: dict[str, int] = {}
_PIN_LOCK = threading.Lock()


def set_cache_enabled(enabled: bool) -> None:
    """Globally enable/disable the persistent on-disk run cache."""
    global _CACHE_ENABLED
    _CACHE_ENABLED = enabled


def set_cache_dir(path: str | pathlib.Path | None) -> None:
    """Override the cache directory (``None`` restores the default)."""
    global _CACHE_DIR
    _CACHE_DIR = pathlib.Path(path) if path is not None else None


def set_default_jobs(jobs: int) -> None:
    """Set the process policy's worker count for :func:`run_cells` /
    :func:`run_matrix`."""
    set_policy(replace(_POLICY, jobs=max(1, int(jobs))))


def set_cell_hook(hook: Callable | None) -> None:
    """Install the worker-process simulator hook (pool internals)."""
    global _CELL_HOOK
    _CELL_HOOK = hook


def is_failure(result) -> bool:
    """True when a result slot holds a :class:`CellFailure` record."""
    return isinstance(result, CellFailure)


def drain_failures() -> list[CellFailure]:
    """Return and clear the failures collected under ``keep-going``."""
    failures = list(FAILURES)
    FAILURES.clear()
    return failures


def set_cache_quota(max_bytes: int | None) -> None:
    """Bound the persistent cache directory to ``max_bytes`` of entries.

    When a store pushes the directory past the quota, the least recently
    *used* entries are evicted first (disk hits refresh an entry's mtime,
    so recency tracks reads, not just writes).  Pinned entries
    (:func:`pin_cache_entry` — the serving layer's in-flight results) are
    never evicted.  ``None`` restores the historical unbounded behaviour.
    """
    global _CACHE_QUOTA_BYTES
    if max_bytes is not None and max_bytes <= 0:
        raise ValueError("cache quota must be positive (or None)")
    _CACHE_QUOTA_BYTES = max_bytes


def cache_quota() -> int | None:
    """The active cache size budget in bytes (``None``: unbounded)."""
    return _CACHE_QUOTA_BYTES


def pin_cache_entry(key: tuple) -> None:
    """Protect ``key``'s cache file from quota eviction (refcounted)."""
    name = _cache_path(key).name
    with _PIN_LOCK:
        _PINNED_PATHS[name] = _PINNED_PATHS.get(name, 0) + 1


def unpin_cache_entry(key: tuple) -> None:
    """Drop one pin from ``key``'s cache file (missing pins are ignored)."""
    name = _cache_path(key).name
    with _PIN_LOCK:
        count = _PINNED_PATHS.get(name, 0) - 1
        if count > 0:
            _PINNED_PATHS[name] = count
        else:
            _PINNED_PATHS.pop(name, None)


def pinned_cache_entries() -> int:
    """Number of currently pinned cache files (for stats/tests)."""
    with _PIN_LOCK:
        return len(_PINNED_PATHS)


def enforce_cache_quota() -> int:
    """Evict least-recently-used ``*.pkl`` entries beyond the quota.

    Returns the number of files removed.  Runs automatically after every
    store; exposed for operators (and the serving layer) to trigger a
    sweep after lowering the quota.  Pinned entries are skipped even when
    that leaves the directory over budget.
    """
    if _CACHE_QUOTA_BYTES is None:
        return 0
    directory = cache_dir()
    if not directory.is_dir():
        return 0
    entries = []
    total = 0
    for path in directory.glob("*.pkl"):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime, stat.st_size, path))
        total += stat.st_size
    if total <= _CACHE_QUOTA_BYTES:
        return 0
    with _PIN_LOCK:
        pinned = set(_PINNED_PATHS)
    evicted = 0
    for _, size, path in sorted(entries, key=lambda e: (e[0], e[2].name)):
        if total <= _CACHE_QUOTA_BYTES:
            break
        if path.name in pinned:
            continue
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        evicted += 1
    if evicted:
        CACHE_STATS["evictions"] += evicted
        obs = _obs_current()
        if obs is not None:
            obs.metrics.counter(
                "experiments.cache", outcome="evictions"
            ).inc(evicted)
    return evicted


def cache_dir() -> pathlib.Path:
    """The active persistent-cache directory (not necessarily created)."""
    if _CACHE_DIR is not None:
        return _CACHE_DIR
    env = os.environ.get("REPRO_CACHE_DIR")
    return pathlib.Path(env) if env else pathlib.Path(".repro-cache")


def cache_stats() -> dict[str, int]:
    """Snapshot of this process's cache counters."""
    return dict(CACHE_STATS)


def reset_cache_stats() -> None:
    for key in CACHE_STATS:
        CACHE_STATS[key] = 0


@lru_cache(maxsize=1)
def _code_fingerprint() -> str:
    """Content hash of the ``repro`` package source.

    Any change to the simulator invalidates every cached result, so a
    stale cache can never masquerade as fresh output — even between
    version bumps of a development tree.
    """
    import repro

    root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_version() -> str:
    from repro import __version__

    return f"{__version__}/{_code_fingerprint()}"


def _cache_path(key: tuple) -> pathlib.Path:
    blob = repr((_cache_version(), key)).encode()
    return cache_dir() / f"{hashlib.sha256(blob).hexdigest()[:40]}.pkl"


def _quarantine(path: pathlib.Path) -> None:
    """Rename a corrupted cache entry aside and warn, naming the file.

    Quarantining (rather than deleting) keeps the bad bytes around for a
    post-mortem while guaranteeing the entry can never be loaded again.
    """
    corrupt = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, corrupt)
    except OSError:
        return  # raced with another process or read-only dir; best-effort
    warnings.warn(
        f"quarantined corrupted run-cache entry {path} -> {corrupt.name}",
        RuntimeWarning,
        stacklevel=3,
    )


def _entry_type(key: tuple) -> type:
    """The one type a cache entry under ``key`` may hold: the allow-list
    of the two stored kinds.  Figure 1 working-set curves (tuples of
    floats) live under ``FIG1_KEY`` keys, simulation results under every
    other key; nothing else is ever stored or returned."""
    return tuple if key[0] == FIG1_KEY else SimulationResult


def _disk_load(key: tuple):
    path = _cache_path(key)
    try:
        fh = open(path, "rb")
    except OSError:
        return None  # no entry (or unreadable dir): an ordinary miss
    try:
        with fh:
            stored_key, result = pickle.load(fh)
    except Exception:
        # Truncated or bit-rotted pickles can raise nearly anything while
        # unpickling; whatever it was, the entry is unusable.
        _quarantine(path)
        return None
    if stored_key != key or not isinstance(result, _entry_type(key)):
        return None
    try:
        os.utime(path)  # refresh LRU recency: reads count as use
    except OSError:
        pass
    return result


def _disk_store(key: tuple, result) -> None:
    path = _cache_path(key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            pickle.dump((key, result), fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)  # atomic: concurrent writers can't corrupt
    except OSError:
        return  # caching is best-effort; an unwritable dir must not fail runs
    enforce_cache_quota()


def clear_persistent_cache() -> int:
    """Delete every entry in the active cache directory; return the count."""
    removed = 0
    directory = cache_dir()
    if directory.is_dir():
        for pattern in ("*.pkl", "*.pkl.corrupt"):
            for path in directory.glob(pattern):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
    return removed


#: Completed runs (and Figure 1 curves) for this process, keyed by the
#: full run parameters.  Layered above the disk cache so repeated lookups
#: return the *same* object (and cost nothing) within a session.
_RUN_CACHE: dict[tuple, object] = {}


def clear_run_cache() -> None:
    """Drop the in-process memo (the persistent cache is untouched)."""
    _RUN_CACHE.clear()


def _count_cache(outcome: str) -> None:
    """Mirror one cache outcome into CACHE_STATS and the obs registry."""
    CACHE_STATS[outcome] += 1
    obs = _obs_current()
    if obs is not None:
        obs.metrics.counter("experiments.cache", outcome=outcome).inc()


def _cache_get(key: tuple, use_cache: bool):
    if not use_cache:
        return None
    if key in _RUN_CACHE:
        _count_cache("memory_hits")
        return _RUN_CACHE[key]
    if _CACHE_ENABLED:
        result = _disk_load(key)
        if result is not None:
            _count_cache("disk_hits")
            _RUN_CACHE[key] = result
            return result
    return None


def _cache_put(key: tuple, result, use_cache: bool) -> None:
    if not use_cache:
        return
    _RUN_CACHE[key] = result
    if _CACHE_ENABLED:
        _disk_store(key, result)


def cached(key: tuple, compute: Callable[[], object], use_cache: bool = True):
    """``key``'s entry from the memo or disk cache, else ``compute()``.

    A miss is counted, and the computed value is stored only when it is
    of the type the key's kind allows (a :class:`CellFailure` never is).
    """
    hit = _cache_get(key, use_cache)
    if hit is not None:
        return hit
    _count_cache("misses")
    value = compute()
    if isinstance(value, _entry_type(key)):
        _cache_put(key, value, use_cache)
    return value


def probe_cache(
    spec: RunSpec,
    use_cache: bool = True,
    policy: ExecutionPolicy | None = None,
) -> SimulationResult | None:
    """Look ``spec`` (resolved under ``policy``) up in the memo + disk
    cache without running anything.

    The serving layer's warm fast path: a hit is counted and returned
    immediately (no admission, no batching); a miss returns ``None`` and
    counts nothing — the eventual :func:`run_cells` dispatch records it.
    """
    return _cache_get(_memo_key(spec.resolved(policy)), use_cache)


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def _cell_label(spec: RunSpec) -> str:
    """Human-readable cell identity for harness spans."""
    system = spec.preset.name if spec.preset is not None else "config"
    return f"{spec.workload}/{system}@{spec.scale}"


def _spec_digest(spec: RunSpec) -> str:
    """Short stable digest of the memo key: names checkpoint files and
    identifies the cell in the pool's circuit breaker and chaos plans."""
    return hashlib.sha256(repr(_memo_key(spec)).encode()).hexdigest()[:24]


def _checkpoint_file(spec: RunSpec) -> pathlib.Path:
    """The cell's stable checkpoint path: keyed by the memo key (which
    excludes the checkpoint fields themselves), so the fresh run, the
    stall handler, the pool's crash handoff, and every resume attempt
    all agree on one file."""
    digest = _spec_digest(spec)
    return pathlib.Path(spec.checkpoint_dir) / f"{spec.workload}-{digest}.ckpt"


def _discard_checkpoint(path: pathlib.Path) -> None:
    """Remove a cell's checkpoint after it completes (best-effort): a
    finished cell must never be resumed from a stale mid-run snapshot."""
    try:
        path.unlink()
    except OSError:
        pass


def _simulate_spec(spec: RunSpec) -> SimulationResult:
    """Execute one attempt of a cell (see :func:`execute_cell`).

    The wall-clock budget rides inside the simulation (an engine
    watchdog), so per-cell timeouts work identically in the serial path
    and in forked workers — no executor-level cancellation needed.

    With a checkpoint directory set, the cell writes resumable snapshots
    at batch boundaries (and when the watchdog stalls it); with
    ``spec.resume``, an existing usable checkpoint short-circuits the
    fresh build and the run continues from its last batch boundary —
    bit-identical to the uninterrupted run.  Unusable checkpoints
    (truncated, version-skewed) degrade to a fresh run with a warning."""
    checkpoint_file: pathlib.Path | None = None
    checkpoint = None
    if spec.checkpoint_dir is not None:
        checkpoint_file = _checkpoint_file(spec)
        if spec.resume and checkpoint_file.exists():
            from repro.checkpoint import try_load

            checkpoint = try_load(checkpoint_file)
    if checkpoint is not None:
        sim = checkpoint.restore()
    else:
        workload = build_workload(
            spec.workload, scale=spec.scale, seed=spec.seed
        )
        if spec.config is not None:
            config = spec.config
            if spec.chaos is not None or spec.check_invariants:
                config = replace(
                    config,
                    chaos=spec.chaos or config.chaos,
                    check_invariants=spec.check_invariants
                    or config.check_invariants,
                )
        else:
            config = spec.preset.configure(
                workload,
                ratio=spec.ratio,
                fault_handling_cycles=spec.fault_handling_cycles,
                chaos=spec.chaos,
                check_invariants=spec.check_invariants,
            )
        sim = GpuUvmSimulator(workload, config, backend=spec.backend)
    if checkpoint_file is not None:
        sim.enable_checkpoints(
            spec.checkpoint_dir,
            every=spec.checkpoint_every,
            basename=checkpoint_file.stem,
        )
    if _CELL_HOOK is not None:
        _CELL_HOOK(sim)
    run = sim.run if checkpoint is None else sim.resume
    result = run(
        max_events=spec.max_events,
        wall_budget_seconds=spec.wall_budget_seconds,
    )
    if checkpoint_file is not None:
        _discard_checkpoint(checkpoint_file)
    return result


def _failure_record(
    spec: RunSpec, exc: BaseException, attempts: int
) -> CellFailure:
    """A structured record of a cell that failed for good with ``exc``,
    chained to it as its ``__cause__``."""
    failure = CellFailure(
        str(exc) or type(exc).__name__,
        workload=spec.workload,
        system=spec.preset.name if spec.preset is not None else "config",
        attempts=attempts,
        error_type=type(exc).__qualname__,
        scale=spec.scale,
        ratio=spec.ratio,
        fault_handling_cycles=spec.fault_handling_cycles,
        cell=_spec_digest(spec),
    )
    # The simulator attaches a flight-recorder dump (recent batches +
    # engine events) to the exception when analytics is on; carry it so
    # the runner's failure snapshot includes the forensics.  A stall that
    # managed to checkpoint also names the file, so the operator can
    # resume the cell by hand even after the retry budget ran out.
    failure.flight_recorder = getattr(exc, "flight_recorder", None)
    failure.checkpoint_path = getattr(exc, "checkpoint_path", None)
    failure.__cause__ = exc
    return failure


def _deliver_failure(
    failure: CellFailure, policy: ExecutionPolicy | None
) -> CellFailure:
    """Apply the on-error policy to a structured failure record.

    Under the default ``raise`` policy the record is *raised* so a sweep
    still aborts loudly; under ``keep-going`` it is returned to sit in
    the cell's result slot."""
    effective = policy or _POLICY
    if effective.on_error != "keep-going":
        raise failure
    if policy is None:
        # Only the process policy accumulates into FAILURES (drained by
        # the CLI's sweep report); callers passing their own policy (the
        # serving layer) receive failures in their result slots instead.
        FAILURES.append(failure)
    obs = _obs_current()
    if obs is not None:
        obs.metrics.counter(
            "experiments.cell_failures", error=failure.error_type
        ).inc()
    if effective.progress:
        sys.stderr.write(f"\n  [cell failed] {failure.summary()}\n")
        sys.stderr.flush()
    return failure


def _resumable_stall(exc: BaseException, spec: RunSpec) -> bool:
    """A watchdog stall that left a checkpoint behind is worth retrying:
    the retry resumes from the checkpoint instead of starting over, so
    each attempt makes forward progress even under a tight budget."""
    return (
        isinstance(exc, SimulationStalledError)
        and spec.checkpoint_dir is not None
        and getattr(exc, "checkpoint_path", None) is not None
    )


def execute_cell(spec: RunSpec) -> SimulationResult:
    """Run one resolved cell to completion: the only code that executes a
    cell, in pool workers and in :func:`run_cells`' in-process path alike.

    Transient infrastructure errors retry with exponential backoff, up to
    ``spec.retries`` times; so does a checkpointed stall, which *resumes*
    from its checkpoint.  Every other error of the taxonomy fails at once
    (re-running a deterministic failure would reproduce it), and so does
    ``MemoryError``: a cell that exhausts memory will exhaust it again.
    A cell that fails for good raises a :class:`CellFailure`; anything
    outside the taxonomy propagates — it is a bug, not a cell failure.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            return _simulate_spec(spec)
        except _CELL_ERRORS as exc:
            stalled = _resumable_stall(exc, spec)
            transient = stalled or isinstance(exc, _TRANSIENT_ERRORS)
            if not transient or attempts > spec.retries:
                raise _failure_record(spec, exc, attempts)
            if stalled:
                spec = replace(spec, resume=True)
            if _RETRY_BACKOFF:
                _time.sleep(_RETRY_BACKOFF * 2 ** (attempts - 1))


def run_cells(
    cells: Sequence[RunSpec],
    jobs: int | None = None,
    use_cache: bool = True,
    label: str = "cells",
    policy: ExecutionPolicy | None = None,
    pool=None,
) -> list[SimulationResult]:
    """Run every cell, in parallel for cache misses; results keep order.

    The fan-out is transparent: each missing cell runs exactly the
    simulation the serial path would (same parameters, same seeds, fresh
    deterministic engine, same :func:`execute_cell`), and results are
    merged back by index — so ``jobs=N`` output is bit-identical to
    ``jobs=1``.  Each distinct memo key runs once per call; repeated
    specs share its result (or its one failure record).

    Parallel cells execute in a crash-isolated
    :class:`repro.pool.SupervisedPool` (heartbeats, SIGTERM → SIGKILL
    escalation, restart with backoff, checkpoint-based handoff of
    interrupted cells, per-key circuit breaker).  Pass ``pool`` to run
    on a caller-owned long-lived pool (the serving layer); otherwise an
    ephemeral pool is built for the call whenever ``jobs > 1`` leaves
    more than one cache miss.  If the pool itself breaks
    (:class:`~repro.errors.PoolBrokenError`), it is rebuilt once and
    only the affected cells are resubmitted — surviving results are
    kept and no per-cell retry budget is burned.

    Every cell is resolved under ``policy`` (default: the process
    policy, :func:`policy`), and failing cells follow its retry and
    on-error settings: under ``keep-going`` a persistently failing
    cell's slot holds a :class:`~repro.errors.CellFailure` instead of a
    result, and the sweep completes with partial data.  An exception
    outside the error taxonomy propagates, wherever the cell ran.
    ``jobs`` overrides ``policy.jobs``; a caller-owned ``pool`` ignores
    the policy's worker deadline and breaker threshold.
    """
    effective = policy or _POLICY
    cells = [cell.resolved(effective) for cell in cells]
    keys = [_memo_key(cell) for cell in cells]
    results: list[SimulationResult | None] = [None] * len(cells)
    #: memo key of each cache miss -> every slot it fills.
    pending: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        if key in pending:
            pending[key].append(i)
            continue
        hit = _cache_get(key, use_cache)
        if hit is not None:
            results[i] = hit
        else:
            pending[key] = [i]
    todo = [slots[0] for slots in pending.values()]
    CACHE_STATS["misses"] += len(todo)
    obs = _obs_current()
    if obs is not None and todo:
        obs.metrics.counter("experiments.cache", outcome="misses").inc(
            len(todo)
        )

    jobs = effective.jobs if jobs is None else max(1, int(jobs))
    started = _time.monotonic()
    done = 0

    def report(final: bool = False) -> None:
        if not effective.progress:
            return
        elapsed = _time.monotonic() - started
        end = "\n" if final else "\r"
        sys.stderr.write(
            f"  [{label}] {len(cells) - len(todo) + done}/{len(cells)} "
            f"cells ({len(cells) - len(todo)} cached, "
            f"{done} run, {elapsed:.1f}s){end}"
        )
        sys.stderr.flush()

    def settle(i: int, outcome) -> None:
        """File the outcome of cell ``i`` into every slot of its key."""
        if isinstance(outcome, SimulationResult):
            _cache_put(keys[i], outcome, use_cache)
        else:
            if not isinstance(outcome, _CELL_ERRORS):
                raise outcome  # a bug in the cell, not a cell failure
            if not isinstance(outcome, CellFailure):
                # Raised by the pool, not the cell (a pool still broken
                # after its rebuild, an unpicklable outcome): no retries.
                outcome = _failure_record(cells[i], outcome, attempts=1)
            outcome = _deliver_failure(outcome, policy)
        for j in pending[keys[i]]:
            results[j] = outcome

    report()
    if pool is not None or (jobs > 1 and len(todo) > 1):
        # Worker processes have no obs session of their own: the fan-out
        # is summarised as one harness span (per-cell sim tracing needs
        # the serial path).
        if obs is not None:
            fan_out = obs.tracer.wall_span(
                "experiments", f"{label} fan-out", cells=len(todo), jobs=jobs
            )
        else:
            fan_out = nullcontext()
        own_pool = None
        active = pool
        if active is None:
            from repro.pool import PoolConfig, SupervisedPool

            own_pool = SupervisedPool(
                PoolConfig(
                    workers=min(jobs, len(todo)),
                    cell_deadline=effective.worker_deadline,
                    breaker_threshold=effective.breaker_threshold,
                )
            )
            active = own_pool

        def on_cell_done(index: int, outcome) -> None:
            nonlocal done
            done += 1
            report()

        try:
            with fan_out:
                specs = [cells[i] for i in todo]
                outcomes = active.run(specs, on_done=on_cell_done)
                broken = [
                    k for k, outcome in enumerate(outcomes)
                    if isinstance(outcome, PoolBrokenError)
                ]
                if broken:
                    # Pool-wide breakage is not the cells' fault: rebuild
                    # the fleet once and resubmit only the broken cells.
                    active.rebuild()
                    retried = active.run(
                        [specs[k] for k in broken], on_done=None
                    )
                    for k, outcome in zip(broken, retried):
                        outcomes[k] = outcome
                for i, outcome in zip(todo, outcomes):
                    settle(i, outcome)
        finally:
            if own_pool is not None:
                own_pool.close()
    else:
        for i in todo:
            span = (
                obs.tracer.wall_span(
                    "experiments", _cell_label(cells[i]), group=label
                )
                if obs is not None
                else nullcontext()
            )
            try:
                with span:
                    outcome = execute_cell(cells[i])
            except CellFailure as failure:
                outcome = failure
            settle(i, outcome)
            done += 1
            report()
    if cells:
        report(final=True)
    return results  # type: ignore[return-value]


def run_system(
    preset: SystemPreset,
    workload: Workload | str,
    scale: str = "tiny",
    ratio: float | None = None,
    fault_handling_cycles: int | None = None,
    max_events: int = MAX_EVENTS,
    seed: int = 0,
    use_cache: bool = True,
) -> SimulationResult:
    """Run ``workload`` under ``preset``: :func:`run_cells` of one cell."""
    name = workload if isinstance(workload, str) else workload.name
    spec = RunSpec(
        workload=name,
        preset=preset,
        scale=scale,
        ratio=ratio,
        fault_handling_cycles=fault_handling_cycles,
        seed=seed,
        max_events=max_events,
    )
    return run_cells([spec], use_cache=use_cache)[0]


def run_config(
    workload: Workload | str,
    config: SimConfig,
    scale: str = "tiny",
    seed: int = 0,
    max_events: int = MAX_EVENTS,
    use_cache: bool = True,
) -> SimulationResult:
    """Run an explicit :class:`SimConfig`: :func:`run_cells` of one cell.

    The cache key hashes the full config contents, so two distinct
    configs never collide even if they came from the same preset.
    """
    name = workload if isinstance(workload, str) else workload.name
    spec = RunSpec(
        workload=name,
        config=config,
        scale=scale,
        seed=seed,
        max_events=max_events,
    )
    return run_cells([spec], use_cache=use_cache)[0]


def run_matrix(
    presets: Sequence[SystemPreset],
    workloads: Sequence[str],
    scale: str,
    ratio: float | None = None,
    jobs: int | None = None,
    label: str | None = None,
    **kwargs,
) -> dict[tuple[str, str], SimulationResult]:
    """Run every (workload, preset) pair; keys are (workload, preset.name).

    Cells missing from the cache fan out across ``jobs`` worker processes
    (default: :func:`set_default_jobs` / ``REPRO_JOBS``, i.e. serial).
    """
    use_cache = kwargs.pop("use_cache", True)
    cells = [
        RunSpec(
            workload=name,
            preset=preset,
            scale=scale,
            ratio=ratio,
            **kwargs,
        )
        for name in workloads
        for preset in presets
    ]
    results = run_cells(
        cells,
        jobs=jobs,
        use_cache=use_cache,
        label=label or "matrix",
    )
    return {
        (cell.workload, cell.preset.name): result
        for cell, result in zip(cells, results)
    }
