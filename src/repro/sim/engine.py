"""Parallel, cached experiment engine.

Every simulated cell of the evaluation — one (workload, configuration,
seed) triple — is independent and fully deterministic, so the whole
19-benchmark × 4-configuration × 10-seed matrix (plus the per-
application retry-threshold sweep) is embarrassingly parallel and
perfectly memoizable. This module provides the fan-out-and-aggregate
machinery everything above it builds on:

- :class:`RunSpec` — one picklable, hashable cell description.
- :class:`DiskCache` — a content-addressed on-disk result store keyed
  by SHA-256 over (schema version, workload, ops_per_thread, seed,
  config fingerprint); re-runs and crashed sweeps resume for free.
  Atomic writes, corrupt-entry quarantine, and graceful degradation
  to cache-off on a full disk.
- Crash-safe sweeps — pass ``journal=`` (a
  :class:`~repro.sim.journal.SweepJournal` job folder) to the run
  entry points and the folder becomes the sweep's only store: every
  finished cell is written into it once, and a SIGKILL'd sweep resumed
  with the same folder serves completed cells and remembered
  quarantines from it with exactly-once execution semantics.
- :class:`ExperimentEngine` — expands specs, serves what it can from
  the cache, fans the misses out over a ``ProcessPoolExecutor``
  (``jobs=1`` degenerates to a strictly serial in-process loop so
  determinism tests can compare parallel vs. serial output
  bit-for-bit), and streams :class:`ProgressEvent` updates to a
  callback.

Results cross the process boundary (and the cache) as the
``RunResult.to_dict()`` JSON form; the engine reconstructs
:class:`~repro.sim.runner.RunResult` objects on the way out. The
inline ``jobs=1`` path round-trips through the same representation, so
serial, parallel, and cached runs are indistinguishable downstream.
"""

import collections
import concurrent.futures
import cProfile
import dataclasses
import errno
import functools
import hashlib
import json
import os
import time

from repro.common.diskio import DiskIO
from repro.common.errors import ExperimentCellError
from repro.common.retry import RetryPolicy
from repro.common.serialize import Serializable
from repro.obs.trace import EventTrace
from repro.sim.config import SimConfig
from repro.sim.runner import RunResult, _simulate_one
from repro.workloads import make_workload, workload_cache_token

#: Bump when the cached result format (or anything influencing a run's
#: output) changes; every key embeds it, so old entries simply miss.
#: v2: RunResult dicts grew a "trace" slot and MachineStats a "metrics"
#: registry section.
#: v3: SimConfig serializes the canonical ``design`` name instead of
#: the powertm/clear booleans (from_dict migrates v2 payloads).
#: v4: SimConfig.oracle is a checker-mode string ("off"/"shadow"/
#: "online"/"cross-check") instead of a boolean (from_dict migrates
#: v3 payloads).
#: v5: SimConfig lost its event-loop ``backend`` field and the legacy
#: conflict cross-check flag, so pre-v5 job folders are refused
#: instead of re-run.
#: v6: SimConfig lost ``oracle_validate_interval``, its oracle modes
#: collapsed to "off"/"online", and from_dict stopped migrating v2/v3
#: payloads (powertm/clear booleans, a boolean oracle); v5 cache
#: entries miss and v5 job folders are refused.
#: v7: SimConfig lost the four fields of the two post-paper designs
#: (limited read/write sets, Big Atomics) and MachineStats its design
#: annotations; v6 cache entries miss and v6 job folders are refused.
SCHEMA_VERSION = 7

DEFAULT_CACHE_DIR = ".exp_cache"


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One independent simulation cell: (workload, config, seed).

    ``ops_per_thread`` scales the named workload; ``None`` keeps the
    workload's own default. ``trace`` asks the worker to record the
    run's full event trace into the result (simulated behaviour is
    identical either way, but traced and untraced results are cached
    under different keys because their payloads differ). The spec is
    hashable and picklable, so it can cross process boundaries and key
    dictionaries.
    """

    workload: str
    config: SimConfig
    seed: int
    ops_per_thread: int = None
    trace: bool = False

    def cache_key(self):
        """Content address of this cell's result.

        SHA-256 over canonical JSON of every input that determines the
        output, including :data:`SCHEMA_VERSION` so format bumps
        invalidate the whole cache without touching files.
        """
        key_input = {
            "schema_version": SCHEMA_VERSION,
            "workload": self.workload,
            "ops_per_thread": self.ops_per_thread,
            "seed": self.seed,
            "config": self.config.fingerprint(),
            "trace": self.trace,
        }
        # A gen: workload contributes its spec fingerprint, which also
        # covers the defaults its name omits; built-in names add
        # nothing, keeping their keys byte-identical to every earlier
        # release.
        token = workload_cache_token(self.workload)
        if token is not None:
            key_input["workload_token"] = token
        payload = json.dumps(
            key_input,
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def execute_spec(spec):
    """Simulate one spec and return the result in dict (cache) form.

    Module-level so ``ProcessPoolExecutor`` can pickle it; also the
    ``jobs=1`` inline path, so every run takes the identical code path.
    """
    kwargs = {}
    if spec.ops_per_thread is not None:
        kwargs["ops_per_thread"] = spec.ops_per_thread
    result = _simulate_one(
        lambda: make_workload(spec.workload, **kwargs),
        spec.config,
        seed=spec.seed,
        trace=EventTrace() if spec.trace else None,
    )
    return result.to_dict()


def execute_spec_profiled(spec, profile_dir):
    """:func:`execute_spec` under cProfile, dumping a per-cell ``.prof``.

    The profile file name encodes the workload, config letter, seed,
    and a cache-key prefix, so a sweep's profiles are self-describing
    and collision-free. Module-level (wrapped by ``functools.partial``)
    so the parallel path can pickle it.
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = execute_spec(spec)
    finally:
        profile.disable()
    os.makedirs(profile_dir, exist_ok=True)
    name = "{}-{}-s{}-{}.prof".format(
        spec.workload, spec.config.config_letter, spec.seed,
        spec.cache_key()[:8],
    )
    profile.dump_stats(os.path.join(profile_dir, name))
    return result


@dataclasses.dataclass
class CacheStats:
    """What the cache did this process: served, stored, survived."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt_quarantined: int = 0
    enospc_degraded: bool = False

    def to_dict(self):
        return dataclasses.asdict(self)


class DiskCache:
    """Content-addressed JSON store under one root directory.

    Entries live at ``<root>/<key[:2]>/<key>.json`` (fan-out keeps any
    single directory small) as ``{"schema_version", "result"}``. Writes
    are atomic (temp file + fsync + rename, through the injectable
    :class:`~repro.common.diskio.DiskIO` seam), so a crashed run never
    leaves a truncated entry. An entry's bytes are a pure function of
    its key, so writers sharing one root need no lock: whichever rename
    lands last leaves the same file.

    - **Corruption accounting** — an unparseable entry is moved to
      ``<root>/quarantine/`` and counted (``stats.corrupt_quarantined``)
      instead of silently shadowing a bug; the key reads as a miss and
      the next store rewrites it.
    - **Graceful ENOSPC degradation** — a full disk flips the cache to
      disabled (every load a miss, every store a no-op) so the sweep
      finishes uncached instead of crashing.
    """

    QUARANTINE_DIR = "quarantine"

    def __init__(self, root, io=None):
        self.root = root
        self.io = io if io is not None else DiskIO()
        self.stats = CacheStats()
        self.disabled = False

    def _path(self, key):
        return os.path.join(self.root, key[:2], key + ".json")

    def load(self, key, config=None):
        """The stored dict for ``key``, or None on miss/corruption.

        A missing file or a stale ``schema_version`` is a plain miss.
        An *unparseable or malformed* entry is quarantined (moved to
        ``quarantine/``, counted) — the atomic write protocol means it
        cannot be a torn write of ours, so it is evidence worth keeping.
        Given ``config`` (the spec's ``SimConfig.to_dict()``), a result
        that stores any other config is malformed too.
        """
        if self.disabled:
            return None
        try:
            with open(self._path(key)) as handle:
                payload = json.load(handle)
        except OSError:
            self.stats.misses += 1
            return None
        except ValueError:
            self._quarantine(key)
            return None
        if not isinstance(payload, dict) or "result" not in payload:
            self._quarantine(key)
            return None
        if payload.get("schema_version") != SCHEMA_VERSION:
            self.stats.misses += 1
            return None
        result = payload["result"]
        if config is not None and (not isinstance(result, dict)
                                   or result.get("config") != config):
            self._quarantine(key)
            return None
        self.stats.hits += 1
        return result

    def _quarantine(self, key):
        """Preserve a corrupt entry out of band; the key reads as a miss."""
        self.stats.corrupt_quarantined += 1
        quarantine = os.path.join(self.root, self.QUARANTINE_DIR)
        try:
            os.makedirs(quarantine, exist_ok=True)
            os.replace(self._path(key),
                       os.path.join(quarantine, key + ".json"))
        except OSError:
            pass  # racing writer already replaced/removed it

    def store(self, key, result):
        """Atomically persist ``result`` (a RunResult dict) under ``key``.

        No-op once the cache has degraded to off (ENOSPC). A failed
        serialization or write never leaves a temp file behind (the
        DiskIO seam cleans up), so the cache directory cannot fill with
        ``*.tmp`` litter from crashed or erroring sweeps.
        """
        data = json.dumps({"schema_version": SCHEMA_VERSION, "result": result},
                          separators=(",", ":")).encode("utf-8")
        if self._write(self._path(key), data):
            self.stats.stores += 1

    def _write(self, path, data):
        """Atomically write ``data`` to ``path``; False once degraded."""
        if self.disabled:
            return False
        try:
            self.io.write_atomic(path, data)
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
            self.disabled = True
            self.stats.enospc_degraded = True
            return False
        return True


class _FailureLog(list):
    """A failure list that durably journals each quarantine as it lands.

    Quarantines are appended from several recovery paths (serial
    errors, timeouts, crash loops); hooking ``append`` records every
    one the moment it is decided, so a SIGKILL after a quarantine but
    before sweep end cannot forget it. Replayed failures bypass the
    hook (``list.append``) — they are already on disk.
    """

    def __init__(self, on_failure=None):
        super().__init__()
        self._on_failure = on_failure

    def append(self, failure):
        super().append(failure)
        if self._on_failure is not None:
            self._on_failure(failure)


@dataclasses.dataclass
class ProgressEvent:
    """One structured progress update, emitted after every finished cell."""

    done: int
    total: int
    cache_hits: int
    elapsed_seconds: float
    spec: RunSpec
    from_cache: bool

    @property
    def cells_per_second(self):
        """Completion throughput so far (cache hits included)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.done / self.elapsed_seconds

    @property
    def eta_seconds(self):
        """Naive remaining-time estimate from current throughput."""
        rate = self.cells_per_second
        if rate <= 0.0:
            return 0.0
        return (self.total - self.done) / rate


@dataclasses.dataclass
class CellFailure(Serializable):
    """One cell the engine gave up on, with why and after how many tries.

    ``kind`` is one of ``"timeout"`` (the cell exceeded ``cell_timeout``
    on every allowed attempt), ``"worker-crash"`` (its worker process
    died repeatedly), or ``"error"`` (the simulation raised — these are
    deterministic, so the cell is quarantined on the first attempt).
    ``exception`` carries the original error object for ``"error"``
    failures (not serialized); ``diagnostic`` the structured dump a
    stall error shipped with it — including the machine's trace tail
    when the cell ran with ``spec.trace`` — so a quarantined cell can be
    forensically examined from the failure report alone.
    """

    spec: RunSpec
    kind: str
    attempts: int
    message: str
    exception: Exception = None
    diagnostic: dict = None

    def to_dict(self):
        """JSON-serializable form (for failure reports in script output)."""
        return {
            "workload": self.spec.workload,
            "ops_per_thread": self.spec.ops_per_thread,
            "seed": self.spec.seed,
            "config": self.spec.config.fingerprint(),
            "spec_config": self.spec.config.to_dict(),
            "trace": self.spec.trace,
            "kind": self.kind,
            "attempts": self.attempts,
            "message": self.message,
            "diagnostic": self.diagnostic,
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a failure (minus the live exception object)."""
        spec = RunSpec(
            workload=data["workload"],
            config=SimConfig.from_dict(data["spec_config"]),
            seed=data["seed"],
            ops_per_thread=data["ops_per_thread"],
            trace=data.get("trace", False),
        )
        return cls(
            spec=spec,
            kind=data["kind"],
            attempts=data["attempts"],
            message=data["message"],
            diagnostic=data.get("diagnostic"),
        )


@dataclasses.dataclass
class SweepReport(Serializable):
    """Outcome of a fault-tolerant sweep: a possibly partial matrix.

    ``results`` aligns with the input specs; failed cells hold ``None``.
    ``journal`` (journaled sweeps only) carries the exactly-once proof:
    how many cells were replayed from the job folder versus freshly
    executed, how many remembered quarantines it served, and how many
    corrupt entries it quarantined.
    """

    results: list
    failures: list
    total: int
    completed: int
    cache_hits: int
    journal: dict = None

    @property
    def ok(self):
        """True when every cell completed."""
        return not self.failures

    def failure_report(self):
        """JSON-serializable digest of what failed and why."""
        return {
            "total": self.total,
            "completed": self.completed,
            "failed": len(self.failures),
            "failures": [failure.to_dict() for failure in self.failures],
        }

    def to_dict(self):
        """The whole (possibly partial) matrix as a JSON dict.

        The ``journal`` key only appears for journaled sweeps, so an
        unjournaled report serializes byte-identically to one from a
        build without the durability layer.
        """
        data = {
            "results": [
                result.to_dict() if result is not None else None
                for result in self.results
            ],
            "failures": [failure.to_dict() for failure in self.failures],
            "total": self.total,
            "completed": self.completed,
            "cache_hits": self.cache_hits,
        }
        if self.journal is not None:
            data["journal"] = self.journal
        return data

    @classmethod
    def from_dict(cls, data):
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            results=[
                RunResult.from_dict(result) if result is not None else None
                for result in data["results"]
            ],
            failures=[
                CellFailure.from_dict(failure) for failure in data["failures"]
            ],
            total=data["total"],
            completed=data["completed"],
            cache_hits=data["cache_hits"],
            journal=data.get("journal"),
        )


class ExperimentEngine:
    """Runs batches of :class:`RunSpec` cells, parallel and memoized.

    ``jobs``         — worker processes; ``None`` means
                       ``os.cpu_count()`` and ``1`` is a strictly serial
                       in-process loop.
    ``cache_dir``    — root of the on-disk cache; ``None`` disables
                       caching entirely.
    ``progress``     — optional callback receiving a
                       :class:`ProgressEvent` after every finished cell
                       (hit or simulated).
    ``cell_timeout`` — wall-clock seconds one cell may run before its
                       worker pool is killed and the cell retried
                       (parallel mode only; ``None`` disables).
    ``max_cell_retries`` — extra attempts a timed-out or
                       crash-victim cell gets before quarantine.
    ``retry_policy`` — a :class:`~repro.common.retry.RetryPolicy`
                       governing pool-restart backoff: jittered
                       exponential delays plus an optional total
                       retry-time budget; once the budget is exhausted
                       further retry candidates are quarantined so the
                       sweep always terminates. Default:
                       ``RetryPolicy()`` (0.5 s doubling to 10 s).
    ``execute``      — override the per-cell executor (module-level
                       picklable callable; the chaos harness's seam).

    ``cache_dir`` may also be a prebuilt :class:`DiskCache` (a custom
    IO seam).

    Durability: pass ``journal=`` (a job-folder path or
    :class:`~repro.sim.journal.SweepJournal`) to the run entry points
    and the job folder is that call's only store, in place of
    ``cache_dir``: every finished cell is written into it once, the
    moment it completes, and every quarantine is remembered in its
    manifest. A killed sweep resumed with the same folder serves
    completed cells and remembered quarantines from it instead of
    re-executing them, with or without a cache.

    Fault tolerance: a hung cell trips the per-cell deadline, the pool
    is torn down (``ProcessPoolExecutor`` cannot cancel a *running*
    task), innocent in-flight cells are requeued uncharged, and the
    offender is retried up to ``max_cell_retries`` times before being
    quarantined. A crashed worker (``BrokenProcessPool``) similarly
    charges every in-flight cell one attempt — the poisonous one keeps
    crashing until quarantined, the rest recover. Deterministic
    simulation errors quarantine immediately: a seeded sim raises
    identically on every retry. :meth:`run_specs` stays strict (any
    failure raises); :meth:`run_specs_report` degrades gracefully to a
    partial matrix plus a structured failure report.

    A ``KeyboardInterrupt`` mid-sweep cancels whatever has not started,
    persists every already-finished cell to the cache, and re-raises —
    an interrupted sweep resumes from where it stopped.
    """

    def __init__(self, jobs=None, cache_dir=DEFAULT_CACHE_DIR, progress=None,
                 cell_timeout=None, max_cell_retries=2, profile_dir=None,
                 retry_policy=None, execute=None):
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1, not {}".format(self.jobs))
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive or None")
        if max_cell_retries < 0:
            raise ValueError("max_cell_retries must be >= 0")
        if isinstance(cache_dir, DiskCache):
            self.cache = cache_dir
        else:
            self.cache = DiskCache(cache_dir) if cache_dir else None
        self.progress = progress
        self.cell_timeout = cell_timeout
        self.max_cell_retries = max_cell_retries
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())
        self.profile_dir = profile_dir
        # Cells served from cache are never profiled — only actual
        # simulation work produces a .prof file.
        if execute is not None:
            self._execute = execute
        elif profile_dir is None:
            self._execute = execute_spec
        else:
            self._execute = functools.partial(
                execute_spec_profiled, profile_dir=profile_dir
            )

    def run_specs(self, specs, *, journal=None):
        """Simulate (or recall) every spec; results in spec order.

        Strict mode: the first failed cell raises — the original
        simulation error when there is one, otherwise an
        :class:`~repro.common.errors.ExperimentCellError` (timeouts,
        repeated worker crashes, replayed quarantines).
        """
        report = self._run(list(specs), journal=journal)
        if report.failures:
            failure = report.failures[0]
            if failure.exception is not None:
                raise failure.exception
            raise ExperimentCellError(
                "cell {} ({}) failed after {} attempt(s): {}".format(
                    failure.spec.workload, failure.kind, failure.attempts,
                    failure.message,
                ),
                failure=failure,
            )
        return report.results

    def run_specs_report(self, specs, *, journal=None):
        """Fault-tolerant sweep: a :class:`SweepReport`, never raising
        for individual cell failures (results carry ``None`` holes).

        With ``journal`` (a job-folder path or
        :class:`~repro.sim.journal.SweepJournal`) the sweep is
        crash-safe: the folder is its only store, completed cells and
        quarantines land in it as they happen, and a resumed run
        serves them instead of re-executing (``report.journal``
        carries the proof counters).
        """
        return self._run(list(specs), journal=journal)

    def run_spec(self, spec):
        """Convenience single-cell entry point."""
        return self.run_specs([spec])[0]

    def map_cells(self, cells, execute):
        """Fan arbitrary picklable cells through the pool machinery.

        The generalized fan-out path (used by :mod:`repro.verify`
        schedule exploration): ``execute`` is a module-level function
        mapping one cell to a JSON-serializable dict, and ``cells`` are
        picklable objects exposing ``workload`` / ``config`` / ``seed``
        / ``ops_per_thread`` attributes (what progress events and
        failure reports read). Same timeout/crash/retry fault tolerance
        as :meth:`run_specs`, but no disk cache and no RunResult
        decoding — raw result dicts in cell order. Strict: the first
        failed cell raises.
        """
        report = self._run(
            list(cells), execute=execute, decode=False, use_cache=False
        )
        if report.failures:
            failure = report.failures[0]
            if failure.exception is not None:
                raise failure.exception
            raise ExperimentCellError(
                "cell {} ({}) failed after {} attempt(s): {}".format(
                    failure.spec.workload, failure.kind, failure.attempts,
                    failure.message,
                ),
                failure=failure,
            )
        return report.results

    # -- internals ----------------------------------------------------------

    def _run(self, specs, *, execute=None, decode=True, use_cache=True,
             journal=None):
        started = time.monotonic()
        total = len(specs)
        progress_state = {"done": 0, "cache_hits": 0, "replayed": 0,
                          "executed": 0}
        result_dicts = [None] * total
        if execute is None:
            execute = self._execute
        if isinstance(journal, (str, os.PathLike)):
            from repro.sim.journal import SweepJournal

            journal = SweepJournal(journal)
        # A job folder is its sweep's only store; without one, the cache.
        store = journal if journal is not None else (
            self.cache if use_cache else None)
        if store is not None:
            keys = [spec.cache_key() for spec in specs]
            # A stored result serves a spec only if it stores the spec's
            # config: one dict per config object, not one per cell.
            configs = {id(spec.config): spec.config for spec in specs}
            stored_configs = {ident: config.to_dict()
                              for ident, config in configs.items()}
        remembered = {}
        if journal is not None:
            remembered = journal.ensure(specs, SCHEMA_VERSION)["failures"]
            quarantined_before = journal.stats.corrupt_quarantined
        self.retry_policy.begin()

        def emit(index, from_cache):
            if self.progress is None:
                return
            self.progress(ProgressEvent(
                done=progress_state["done"],
                total=total,
                cache_hits=progress_state["cache_hits"],
                elapsed_seconds=time.monotonic() - started,
                spec=specs[index],
                from_cache=from_cache,
            ))

        def record(index, result, stored=False):
            result_dicts[index] = result
            progress_state["done"] += 1
            if stored:
                progress_state[
                    "cache_hits" if journal is None else "replayed"] += 1
            else:
                if store is not None:
                    store.store(keys[index], result)
                progress_state["executed"] += 1
            emit(index, stored)

        failures = _FailureLog(
            None if journal is None else journal.record_failure)
        misses = []
        for index in range(total):
            if store is not None:
                stored_config = stored_configs[id(specs[index].config)]
                cached = store.load(keys[index], stored_config)
                if cached is not None:
                    record(index, cached, stored=True)
                    continue
                failure = remembered.get(keys[index])
                if (failure is not None
                        and failure.get("spec_config") == stored_config):
                    # A remembered quarantine: deterministic retries
                    # already failed; re-append without re-recording.
                    list.append(failures, CellFailure.from_dict(failure))
                    continue
            misses.append(index)
        replayed_failures = len(failures)

        if misses:
            if self.jobs == 1:
                self._run_serial(specs, misses, record, execute, failures)
            else:
                self._run_parallel(specs, misses, record, execute, failures)

        if decode:
            results = [
                RunResult.from_dict(result, config=spec.config)
                if result is not None else None
                for spec, result in zip(specs, result_dicts)
            ]
        else:
            results = result_dicts
        journal_info = None
        if journal is not None:
            journal_info = {
                "job_dir": journal.path,
                "replayed": progress_state["replayed"],
                "replayed_failures": replayed_failures,
                "executed": progress_state["executed"],
                "corrupt_quarantined": (journal.stats.corrupt_quarantined
                                        - quarantined_before),
                "enospc_degraded": journal.stats.enospc_degraded,
            }
        return SweepReport(
            results=results,
            failures=list(failures),
            total=total,
            completed=progress_state["done"],
            cache_hits=progress_state["cache_hits"],
            journal=journal_info,
        )

    def _run_serial(self, specs, misses, record, execute, failures):
        """In-process loop (``jobs=1``): deterministic, no timeouts.

        Each finished cell is persisted before the next starts, so a
        ``KeyboardInterrupt`` (or SIGKILL, with a journal) loses at
        most the in-flight cell.
        """
        for index in misses:
            try:
                result = execute(specs[index])
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                failures.append(CellFailure(
                    spec=specs[index], kind="error", attempts=1,
                    message="{}: {}".format(type(exc).__name__, exc),
                    exception=exc,
                    diagnostic=getattr(exc, "diagnostic", None),
                ))
                continue
            record(index, result)
        return failures

    def _run_parallel(self, specs, misses, record, execute, failures):
        """Bounded-submission pool loop with deadlines and recovery.

        At most ``workers`` cells are in flight at once, so every
        submitted cell is actually *running* and its wall-clock deadline
        is meaningful (an unbounded submit queue would start the clock
        while cells sit unscheduled).
        """
        workers = min(self.jobs, len(misses))
        pending = collections.deque(misses)
        attempts = collections.Counter()
        pool = concurrent.futures.ProcessPoolExecutor(workers)
        inflight = {}  # future -> (spec index, deadline or None)
        pool_restarts = 0
        # Cells requeued after a worker crash. A crash poisons every
        # future sharing the pool, so the culprit is unknowable; retry
        # the involved cells one at a time so an innocent cell completes
        # instead of being quarantined as collateral damage.
        suspects = set()
        try:
            while pending or inflight:
                cap = 1 if suspects else workers
                while pending and len(inflight) < cap:
                    index = pending.popleft()
                    attempts[index] += 1
                    future = pool.submit(execute, specs[index])
                    deadline = None
                    if self.cell_timeout is not None:
                        deadline = time.monotonic() + self.cell_timeout
                    inflight[future] = (index, deadline)
                wait_timeout = None
                if self.cell_timeout is not None:
                    nearest = min(d for _, d in inflight.values())
                    wait_timeout = max(0.0, nearest - time.monotonic())
                done, _ = concurrent.futures.wait(
                    inflight, timeout=wait_timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                if not done:
                    # Deadline expired with nothing finished: at least
                    # one cell is hung. Kill the pool (a running task
                    # cannot be cancelled), quarantine or requeue the
                    # expired cells, requeue the innocent ones uncharged.
                    now = time.monotonic()
                    self._kill_pool(pool)
                    for future, (index, deadline) in inflight.items():
                        if deadline is not None and deadline <= now:
                            if not self._requeue_or_quarantine(
                                specs, index, attempts, pending, failures,
                                kind="timeout",
                                message="exceeded cell_timeout={}s".format(
                                    self.cell_timeout
                                ),
                            ):
                                suspects.discard(index)
                        else:
                            attempts[index] -= 1  # innocent victim
                            pending.appendleft(index)
                    inflight = {}
                    pool_restarts += 1
                    self._backoff(pool_restarts)
                    pool = concurrent.futures.ProcessPoolExecutor(workers)
                    continue
                broken = False
                for future in done:
                    index, _ = inflight.pop(future)
                    try:
                        result = future.result()
                    except concurrent.futures.process.BrokenProcessPool:
                        broken = True
                        if self._requeue_or_quarantine(
                            specs, index, attempts, pending, failures,
                            kind="worker-crash",
                            message="worker process died",
                        ):
                            suspects.add(index)
                        else:
                            suspects.discard(index)
                        continue
                    except Exception as exc:
                        # A real simulation error is deterministic for a
                        # seeded cell: retrying cannot help.
                        failures.append(CellFailure(
                            spec=specs[index], kind="error",
                            attempts=attempts[index],
                            message="{}: {}".format(type(exc).__name__, exc),
                            exception=exc,
                            diagnostic=getattr(exc, "diagnostic", None),
                        ))
                        continue
                    record(index, result)
                    suspects.discard(index)
                if broken:
                    # The whole pool is poisoned: every remaining
                    # in-flight future will raise BrokenProcessPool too.
                    for future, (index, _) in inflight.items():
                        if self._requeue_or_quarantine(
                            specs, index, attempts, pending, failures,
                            kind="worker-crash",
                            message="worker process died",
                        ):
                            suspects.add(index)
                        else:
                            suspects.discard(index)
                    inflight = {}
                    self._kill_pool(pool)
                    pool_restarts += 1
                    self._backoff(pool_restarts)
                    pool = concurrent.futures.ProcessPoolExecutor(workers)
            pool.shutdown(wait=True)
        except KeyboardInterrupt:
            # Persist whatever already finished, drop the rest, and let
            # the interrupt propagate: the next run resumes from cache.
            for future, (index, _) in inflight.items():
                if future.done() and not future.cancelled():
                    try:
                        record(index, future.result())
                    except Exception:
                        pass
            self._kill_pool(pool)
            raise
        except BaseException:
            self._kill_pool(pool)
            raise
        return failures

    def _requeue_or_quarantine(self, specs, index, attempts, pending,
                               failures, kind, message):
        """Requeue ``index`` for another attempt, or quarantine it.

        Returns True when the cell was requeued, False when it was
        quarantined into ``failures``. A cell is quarantined either
        when its per-cell attempts are spent or when the engine-wide
        retry budget (``retry_policy.budget_seconds``) has run out —
        the substrate's analogue of the paper's bounded speculation:
        retries are strictly bounded, then the fallback (a partial
        matrix plus a structured report) always completes.
        """
        if self.retry_policy.exhausted():
            failures.append(CellFailure(
                spec=specs[index], kind=kind, attempts=attempts[index],
                message=message + " (retry budget exhausted)",
            ))
            return False
        if attempts[index] > self.max_cell_retries:
            failures.append(CellFailure(
                spec=specs[index], kind=kind, attempts=attempts[index],
                message=message,
            ))
            return False
        pending.append(index)
        return True

    def _backoff(self, restarts):
        """Pause before the next pool restart, per the retry policy."""
        self.retry_policy.pause(restarts)

    @staticmethod
    def _kill_pool(pool):
        """Tear a pool down *now*, hung workers included.

        ``shutdown(cancel_futures=True)`` only cancels queued tasks; a
        wedged worker must be terminated directly or shutdown would
        block on it forever.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

