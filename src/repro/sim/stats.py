"""Measurement surface backing every figure of the evaluation.

The executor reports events here; the analysis layer derives the
paper's metrics:

- Fig. 8  — makespan plus cycles spent running aborted-in-discovery.
- Fig. 9  — aborts per committed transaction.
- Fig. 10 — energy inputs (per-level access counts, event counts).
- Fig. 11 — abort breakdown by category.
- Fig. 12 — commit breakdown by execution mode.
- Fig. 13 — commit breakdown by number of (counting) retries.
- Fig. 1  — footprint stability of first retries.

Scalar counters live in an always-on
:class:`~repro.obs.metrics.MetricRegistry` (``stats.metrics``) rather
than ad-hoc attributes; the legacy names (``compute_ops``,
``tx_begins``, ...) are properties over the registry, so every consumer
and the serialized form are unchanged. The registry also carries the
latency histograms (abort latency, retries per committed AR, cacheline
lock hold time, fallback hold time) — all pure functions of simulated
cycles, so they are identical with tracing on or off.

The serializability monitor (:mod:`repro.sim.monitor`) keeps its own
counters (commit records, reads checked) *outside* this surface on
purpose: a checked run must serialize, fingerprint, and golden-compare
exactly like an unchecked one.
"""

from collections import Counter

from repro.common.serialize import Serializable
from repro.core.modes import ExecMode
from repro.htm.abort import AbortCategory, AbortReason, categorize_abort
from repro.obs.metrics import MetricRegistry


def _region_key_to_list(region_id):
    """JSON-safe form of a region id (tuples become lists)."""
    if isinstance(region_id, tuple):
        return list(region_id)
    return region_id


def _region_key_from_list(region_id):
    """Inverse of :func:`_region_key_to_list`."""
    if isinstance(region_id, list):
        return tuple(region_id)
    return region_id


class CoreStats:
    """Per-core cycle accounting."""

    __slots__ = ("busy_cycles", "discovery_failed_cycles", "wait_cycles",
                 "lock_acquire_cycles", "commits", "aborts")

    def __init__(self):
        self.busy_cycles = 0
        self.discovery_failed_cycles = 0
        self.wait_cycles = 0
        self.lock_acquire_cycles = 0
        self.commits = 0
        self.aborts = 0

    def to_dict(self):
        """All counters as a JSON-serializable dict."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        """Rebuild per-core counters from :meth:`to_dict` output."""
        stats = cls.__new__(cls)
        for slot in cls.__slots__:
            setattr(stats, slot, data[slot])
        return stats


class MachineStats(Serializable):
    """Aggregated statistics for one simulation run."""

    def __init__(self, num_cores):
        self.num_cores = num_cores
        self.cores = [CoreStats() for _ in range(num_cores)]
        self.commits_by_mode = Counter()
        self.commits_by_retries = Counter()  # non-fallback commits only
        self.fallback_commit_retries = Counter()
        self.aborts_by_reason = Counter()
        self.per_region_commits = Counter()
        self.per_region_aborts = Counter()
        # Energy inputs.
        self.accesses_by_level = Counter()
        # Scalar counters and latency histograms live in the registry;
        # _bind_metrics exposes them as cheap bound objects.
        self.metrics = MetricRegistry()
        self._bind_metrics()
        # Run outcome.
        self.makespan_cycles = 0
        self.truncated = False
        # Design-specific counters (HtmDesign.stat_annotations); empty
        # for the four legacy designs, and serialized only when set so
        # legacy result payloads stay byte-identical.
        self.design_annotations = {}

    def _bind_metrics(self):
        """Bind the named registry metrics to attributes (idempotent)."""
        metrics = self.metrics
        self._compute_ops = metrics.counter("compute_ops")
        self._branch_ops = metrics.counter("branch_ops")
        self._tx_begins = metrics.counter("tx_begins")
        self._line_locks_acquired = metrics.counter("line_locks_acquired")
        self._first_retry_observations = metrics.counter(
            "first_retry_observations"
        )
        self._first_retry_immutable_small = metrics.counter(
            "first_retry_immutable_small"
        )
        self._abort_latency = metrics.histogram("abort_latency_cycles")
        self._retries_per_commit = metrics.histogram("retries_per_ar_commit")
        self._lock_hold = metrics.histogram("lock_hold_cycles")
        self._fallback_hold = metrics.histogram("fallback_hold_cycles")

    # -- registry-backed scalars ----------------------------------------------

    @property
    def compute_ops(self):
        """Non-memory ops executed (energy input)."""
        return self._compute_ops.value

    @property
    def branch_ops(self):
        """Branches retired inside ARs (energy input)."""
        return self._branch_ops.value

    @property
    def tx_begins(self):
        """Attempt begins across every mode (energy input)."""
        return self._tx_begins.value

    @property
    def line_locks_acquired(self):
        """Cacheline locks taken by CL-mode attempts (energy input)."""
        return self._line_locks_acquired.value

    @property
    def first_retry_observations(self):
        """Fig. 1: first retries observed."""
        return self._first_retry_observations.value

    @property
    def first_retry_immutable_small(self):
        """Fig. 1: first retries with a small, unchanged footprint."""
        return self._first_retry_immutable_small.value

    # -- event recording ------------------------------------------------------

    # The three busiest recorders below update their bound metrics with
    # inlined field bumps rather than Metric.inc()/Histogram.observe()
    # calls: they run once per attempt/commit/abort, and the call
    # overhead alone is measurable against the tracing-off perf gate.
    # The inlined bodies are exact copies of the method semantics.

    def record_begin(self, core):
        """A transaction (any mode) began an attempt."""
        self._tx_begins.value += 1

    def record_commit(self, core, mode, counting_retries, region_id):
        """An AR committed in ``mode`` after ``counting_retries`` counted retries."""
        self.cores[core].commits += 1
        self.commits_by_mode[mode] += 1
        self.per_region_commits[region_id] += 1
        histogram = self._retries_per_commit
        histogram.count += 1
        histogram.total += counting_retries
        if histogram.min is None or counting_retries < histogram.min:
            histogram.min = counting_retries
        if histogram.max is None or counting_retries > histogram.max:
            histogram.max = counting_retries
        bucket = counting_retries.bit_length()
        histogram.buckets[bucket] = histogram.buckets.get(bucket, 0) + 1
        if mode is ExecMode.FALLBACK:
            self.fallback_commit_retries[counting_retries] += 1
        else:
            self.commits_by_retries[counting_retries] += 1

    def record_abort(self, core, reason, region_id, latency=None):
        """An attempt aborted for ``reason`` (categorized per Fig. 11).

        ``latency`` is the attempt's begin-to-abort cycle count when the
        caller knows it (Explicit Fallback aborts happen *at* begin and
        pass None).
        """
        self.cores[core].aborts += 1
        self.aborts_by_reason[reason] += 1
        self.per_region_aborts[region_id] += 1
        if latency is not None:
            if latency < 0:
                latency = 0
            histogram = self._abort_latency
            histogram.count += 1
            histogram.total += latency
            if histogram.min is None or latency < histogram.min:
                histogram.min = latency
            if histogram.max is None or latency > histogram.max:
                histogram.max = latency
            bucket = latency.bit_length()
            histogram.buckets[bucket] = histogram.buckets.get(bucket, 0) + 1

    def record_access(self, level):
        """A memory access served at ``level`` (L1/L2/L3/MEM/C2C/UPG/LOCK)."""
        self.accesses_by_level[level] += 1

    def record_compute(self, ops=1):
        """Non-memory work (for the dynamic-energy model)."""
        self._compute_ops.value += ops

    def record_branch(self):
        """A branch retired inside an AR."""
        self._branch_ops.value += 1

    def record_lock_acquired(self, count=1):
        """Cacheline locks taken by a CL-mode attempt."""
        self._line_locks_acquired.value += count

    def record_lock_hold(self, cycles):
        """A CL-mode attempt released its locks ``cycles`` after the first."""
        self._lock_hold.observe(cycles)

    def record_fallback_hold(self, cycles):
        """A fallback execution held the global lock for ``cycles``."""
        self._fallback_hold.observe(cycles)

    def record_first_retry(self, immutable_and_small):
        """Fig. 1 observation for one first retry."""
        self._first_retry_observations.inc()
        if immutable_and_small:
            self._first_retry_immutable_small.inc()

    def add_busy(self, core, cycles, failed_discovery=False, lock_acquire=False):
        """Attribute executing cycles to a core (with phase tags)."""
        self.cores[core].busy_cycles += cycles
        if failed_discovery:
            self.cores[core].discovery_failed_cycles += cycles
        if lock_acquire:
            self.cores[core].lock_acquire_cycles += cycles

    def add_wait(self, core, cycles):
        """Attribute parked/blocked cycles to a core."""
        self.cores[core].wait_cycles += cycles

    # -- derived metrics --------------------------------------------------------

    @property
    def aborts_by_category(self):
        """Fig. 11 categories, derived on demand from the reason counts.

        ``categorize_abort`` is a pure function of the reason, so keeping
        a second enum-keyed counter updated per abort would be redundant
        work on the hot path; deriving at read time is lossless.
        """
        categories = Counter()
        for reason, count in self.aborts_by_reason.items():
            categories[categorize_abort(reason)] += count
        return categories

    @property
    def total_commits(self):
        """All commits across modes."""
        return sum(self.commits_by_mode.values())

    @property
    def total_aborts(self):
        """All aborts across reasons."""
        return sum(self.aborts_by_reason.values())

    def injected_abort_count(self):
        """Aborts recorded under the chaos layer's ``Injected`` category."""
        return self.aborts_by_category.get(AbortCategory.INJECTED, 0)

    def aborts_per_commit(self):
        """Fig. 9 metric."""
        commits = self.total_commits
        if commits == 0:
            return 0.0
        return self.total_aborts / commits

    def commit_mode_shares(self):
        """Fig. 12 metric: fraction of commits per execution mode."""
        commits = self.total_commits
        if commits == 0:
            return {}
        return {
            mode: count / commits for mode, count in self.commits_by_mode.items()
        }

    def abort_category_shares(self):
        """Fig. 11 metric: fraction of aborts per category."""
        aborts = self.total_aborts
        if aborts == 0:
            return {}
        return {
            category: count / aborts
            for category, count in self.aborts_by_category.items()
        }

    def retry_shares(self):
        """Fig. 13 metric over commits that needed at least one retry.

        Returns (first_retry_share, n_retry_share, fallback_share); all
        zero when nothing ever retried.
        """
        non_fallback_retried = sum(
            count for retries, count in self.commits_by_retries.items() if retries >= 1
        )
        fallback = sum(self.fallback_commit_retries.values())
        denominator = non_fallback_retried + fallback
        if denominator == 0:
            return (0.0, 0.0, 0.0)
        first = self.commits_by_retries.get(1, 0)
        n_retry = non_fallback_retried - first
        return (first / denominator, n_retry / denominator, fallback / denominator)

    def discovery_time_fraction(self):
        """Fig. 8 overlay: share of busy cycles spent in failed discovery."""
        busy = sum(core.busy_cycles for core in self.cores)
        if busy == 0:
            return 0.0
        failed = sum(core.discovery_failed_cycles for core in self.cores)
        return failed / busy

    def first_retry_immutable_ratio(self):
        """Fig. 1 metric."""
        if self.first_retry_observations == 0:
            return 0.0
        return self.first_retry_immutable_small / self.first_retry_observations

    # -- serialization ----------------------------------------------------------

    def to_dict(self):
        """The full measurement surface as a JSON-serializable dict.

        Enum-keyed counters are stored by enum ``value``; integer-keyed
        retry counters are stored with stringified keys (JSON objects
        only key on strings); tuple region ids become two-element lists.
        The registry rides along under ``"metrics"`` (scalar counters
        stay duplicated under their legacy keys so older readers keep
        working). :meth:`from_dict` inverts all of it losslessly.
        """
        data = {
            "num_cores": self.num_cores,
            "cores": [core.to_dict() for core in self.cores],
            "commits_by_mode": {
                mode.value: count for mode, count in self.commits_by_mode.items()
            },
            "commits_by_retries": {
                str(retries): count
                for retries, count in self.commits_by_retries.items()
            },
            "fallback_commit_retries": {
                str(retries): count
                for retries, count in self.fallback_commit_retries.items()
            },
            "aborts_by_reason": {
                reason.value: count
                for reason, count in self.aborts_by_reason.items()
            },
            "aborts_by_category": {
                category.value: count
                for category, count in self.aborts_by_category.items()
            },
            "per_region_commits": [
                [_region_key_to_list(region), count]
                for region, count in self.per_region_commits.items()
            ],
            "per_region_aborts": [
                [_region_key_to_list(region), count]
                for region, count in self.per_region_aborts.items()
            ],
            "accesses_by_level": dict(self.accesses_by_level),
            "compute_ops": self.compute_ops,
            "branch_ops": self.branch_ops,
            "tx_begins": self.tx_begins,
            "line_locks_acquired": self.line_locks_acquired,
            "first_retry_observations": self.first_retry_observations,
            "first_retry_immutable_small": self.first_retry_immutable_small,
            "metrics": self.metrics.to_dict(),
            "makespan_cycles": self.makespan_cycles,
            "truncated": self.truncated,
        }
        if self.design_annotations:
            data["design_annotations"] = dict(self.design_annotations)
        return data

    @classmethod
    def from_dict(cls, data):
        """Rebuild a :class:`MachineStats` from :meth:`to_dict` output.

        Sets every attribute ``__init__`` sets, without its defaults.
        """
        stats = cls.__new__(cls)
        stats.num_cores = data["num_cores"]
        stats.cores = [CoreStats.from_dict(core) for core in data["cores"]]
        stats.commits_by_mode = Counter(
            {ExecMode(mode): count
             for mode, count in data["commits_by_mode"].items()}
        )
        stats.commits_by_retries = Counter(
            {int(retries): count
             for retries, count in data["commits_by_retries"].items()}
        )
        stats.fallback_commit_retries = Counter(
            {int(retries): count
             for retries, count in data["fallback_commit_retries"].items()}
        )
        stats.aborts_by_reason = Counter(
            {AbortReason(reason): count
             for reason, count in data["aborts_by_reason"].items()}
        )
        # aborts_by_category is derived from aborts_by_reason (the stored
        # copy was generated by the same pure function, so dropping it is
        # lossless and keeps the roundtrip exact).
        stats.per_region_commits = Counter(
            {_region_key_from_list(region): count
             for region, count in data["per_region_commits"]}
        )
        stats.per_region_aborts = Counter(
            {_region_key_from_list(region): count
             for region, count in data["per_region_aborts"]}
        )
        stats.accesses_by_level = Counter(data["accesses_by_level"])
        stats.metrics = MetricRegistry.from_dict(data["metrics"])
        stats._bind_metrics()
        # The scalar keys duplicate registry counters; they are restored
        # last so the two always agree.
        stats._compute_ops.value = data["compute_ops"]
        stats._branch_ops.value = data["branch_ops"]
        stats._tx_begins.value = data["tx_begins"]
        stats._line_locks_acquired.value = data["line_locks_acquired"]
        stats._first_retry_observations.value = data["first_retry_observations"]
        stats._first_retry_immutable_small.value = (
            data["first_retry_immutable_small"]
        )
        stats.makespan_cycles = data["makespan_cycles"]
        stats.truncated = data["truncated"]
        stats.design_annotations = dict(data.get("design_annotations", {}))
        return stats

    def summary(self):
        """Human-readable one-line digest (used by examples)."""
        return (
            "cycles={} commits={} aborts={} aborts/commit={:.2f}".format(
                self.makespan_cycles,
                self.total_commits,
                self.total_aborts,
                self.aborts_per_commit(),
            )
        )
