"""Verification oracles checked on every explored schedule.

Three properties, matching the paper's claims:

1. **Serializability** — every run under exploration executes with the
   :class:`~repro.sim.monitor.OnlineMonitor` armed (incremental
   commit-order epoch checking, cheap enough for large exploration
   batches). It raises
   :class:`~repro.common.errors.OracleViolation`; the explorer converts
   that exception (and any stall) into a violation record; nothing here
   re-implements it.

2. **The single-retry bound** (this module) — CLEAR's headline claim:
   once a region's footprint is cacheline-locked non-speculatively
   (NS-CL), the retry succeeds, so no region pays more than one bounded
   speculative retry after locking. Checked from a
   :class:`RetryLedger`, an opt-in per-invocation recording of every
   attempt begin / abort / commit that the executors populate when a
   machine is built with one (zero cost otherwise).

3. **Cross-schedule state equivalence** (:func:`check_equivalence`) —
   per-core action streams are drawn from per-core child RNGs, so the
   *work* is schedule-independent; for workloads whose regions commute
   (declared in ``COMMUTATIVE_WORKLOADS``) the final shared-memory
   digest must therefore be identical across every explored schedule,
   and per-region commit counts must match across schedules for every
   workload.

A violation is a plain JSON-friendly dict (``kind`` / ``message`` /
``details``) so it can ride inside a
:class:`~repro.verify.schedule.ScheduleArtifact` unchanged.
"""

from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason, NON_MEMORY_REASONS
from repro.htm.design import DESIGN_REGISTRY

#: Abort reasons an NS-CL attempt may legitimately suffer. NS-CL holds
#: every learned line locked, so memory conflicts cannot reach it; what
#: remains is a wrong footprint prediction (deviation), failure to pin
#: the lock set, or a NACK from a power/CL holder met while *acquiring*
#: the locks. Fault injection never strikes NS-CL by design.
NS_CL_ALLOWED_REASONS = frozenset(
    {
        AbortReason.FOOTPRINT_DEVIATION,
        AbortReason.LOCK_SET_FAILURE,
        AbortReason.NACKED,
    }
)

#: Invocations with any abort in this set are excluded from the retry
#: bound, mirroring the paper's caveats: non-memory causes (capacity,
#: overflow, explicit xabort, injected faults, ...) void the locking
#: guarantee, a footprint deviation means the learned set was wrong (a
#: fresh discovery is legitimate), and NACK-park-retry cycles resolve by
#: waiting on a guaranteed-to-finish holder rather than by re-locking.
BOUND_EXEMPT_REASONS = frozenset(NON_MEMORY_REASONS) | {
    AbortReason.FOOTPRINT_DEVIATION,
    AbortReason.NACKED,
    AbortReason.EXPLICIT_FALLBACK,
    AbortReason.OTHER_FALLBACK,
}

#: Maximum speculative attempts that may begin after a region's first
#: NS-CL attempt (for non-exempt invocations). The paper bounds the
#: post-locking cost to a single retry.
MAX_SPECULATIVE_AFTER_NS_CL = 1


def violation(kind, message, **details):
    """One oracle violation as a JSON-friendly dict."""
    return {"kind": kind, "message": message, "details": details}


class InvocationRecord:
    """Attempt history of one atomic-region invocation."""

    __slots__ = ("core", "region", "begins", "aborts", "commit_mode",
                 "commit_retries", "via_abort")

    def __init__(self, core, region):
        self.core = core
        self.region = region
        self.begins = []   # ExecMode per attempt that actually began
        self.aborts = []   # (ExecMode-or-None, AbortReason) per abort
        self.commit_mode = None
        self.commit_retries = None
        self.via_abort = False

    def to_dict(self):
        return {
            "core": self.core,
            "region": list(self.region) if isinstance(self.region, tuple)
                      else self.region,
            "begins": [mode.value for mode in self.begins],
            "aborts": [
                [mode.value if mode is not None else None, reason.value]
                for mode, reason in self.aborts
            ],
            "commit_mode": (
                self.commit_mode.value if self.commit_mode is not None else None
            ),
            "commit_retries": self.commit_retries,
            "via_abort": self.via_abort,
        }


class RetryLedger:
    """Opt-in per-invocation attempt accounting for the bound oracle.

    Attach one via ``Machine(..., retry_ledger=RetryLedger())``; the
    executors call the ``note_*`` hooks next to their existing stats
    recording. ``completed`` holds every committed invocation in commit
    order; an in-flight invocation lives in ``open`` until its commit.
    """

    def __init__(self):
        self.completed = []
        self.open = {}  # core -> InvocationRecord

    def note_invoke(self, core, region):
        self.open[core] = InvocationRecord(core, region)

    def note_begin(self, core, mode):
        record = self.open.get(core)
        if record is not None:
            record.begins.append(mode)

    def note_abort(self, core, mode, reason):
        record = self.open.get(core)
        if record is not None:
            record.aborts.append((mode, reason))

    def note_commit(self, core, mode, counting_retries, via_abort=False):
        record = self.open.pop(core, None)
        if record is not None:
            record.commit_mode = mode
            record.commit_retries = counting_retries
            record.via_abort = via_abort
            self.completed.append(record)


def check_retry_bound(ledger, config):
    """Check the single-retry bound over a completed run's ledger.

    Returns a list of violation dicts (empty = bound holds). Three
    sub-checks per invocation:

    - **ns-cl-abort-reason**: NS-CL attempts only ever abort for
      reasons in :data:`NS_CL_ALLOWED_REASONS` (locking makes memory
      conflicts unreachable).
    - **retry-bound**: for invocations free of
      :data:`BOUND_EXEMPT_REASONS` aborts, at most
      :data:`MAX_SPECULATIVE_AFTER_NS_CL` speculative attempts begin
      after the first NS-CL attempt.
    - **fallback-threshold**: a non-fallback commit spent fewer counting
      retries than ``retry_threshold``; a fallback commit spent at least
      that many (the budget is neither overshot nor undershot). The
      design's ``early_fallback_reasons`` exempt an invocation from the
      undershoot half: such aborts legitimately skip the budget.
    """
    violations = []
    threshold = config.retry_threshold
    for record in ledger.completed:
        context = {"core": record.core, "record": record.to_dict()}
        for mode, reason in record.aborts:
            if mode is ExecMode.NS_CL and reason not in NS_CL_ALLOWED_REASONS:
                violations.append(violation(
                    "ns-cl-abort-reason",
                    "NS-CL attempt aborted with {} (locking should make "
                    "this unreachable)".format(reason.value),
                    reason=reason.value, **context,
                ))
        exempt = any(reason in BOUND_EXEMPT_REASONS
                     for _, reason in record.aborts)
        if not exempt:
            begins = record.begins
            first_ns_cl = next(
                (index for index, mode in enumerate(begins)
                 if mode is ExecMode.NS_CL),
                None,
            )
            if first_ns_cl is not None:
                speculative_after = sum(
                    1 for mode in begins[first_ns_cl + 1:]
                    if mode is ExecMode.SPECULATIVE
                )
                if speculative_after > MAX_SPECULATIVE_AFTER_NS_CL:
                    violations.append(violation(
                        "retry-bound",
                        "{} speculative attempts began after the first "
                        "NS-CL attempt (bound is {})".format(
                            speculative_after, MAX_SPECULATIVE_AFTER_NS_CL
                        ),
                        speculative_after=speculative_after, **context,
                    ))
        if record.commit_mode is ExecMode.FALLBACK:
            # Designs may legitimately route certain aborts straight to
            # the fallback path before the budget is spent (e.g. lrw on
            # a bounded-tracking overflow); such invocations are exempt
            # from the undershoot check.
            early = DESIGN_REGISTRY[config.design].early_fallback_reasons
            early_fallback = early and any(
                reason in early for _, reason in record.aborts
            )
            if record.commit_retries < threshold and not early_fallback:
                violations.append(violation(
                    "fallback-threshold",
                    "fallback commit after only {} counting retries "
                    "(threshold {})".format(record.commit_retries, threshold),
                    **context,
                ))
        elif record.commit_retries is not None and record.commit_retries >= threshold:
            violations.append(violation(
                "fallback-threshold",
                "non-fallback commit with {} counting retries reached the "
                "fallback threshold {}".format(record.commit_retries, threshold),
                **context,
            ))
    return violations


#: Workloads whose atomic regions commute, making the final
#: shared-memory state schedule-invariant (per-core action streams are
#: already schedule-independent by construction). Structural workloads
#: (queues, trees, ...) reach different — individually serializable —
#: final shapes depending on commit interleaving, so only commit-count
#: invariance applies to them.
COMMUTATIVE_WORKLOADS = frozenset({"mwobject"})


def is_commutative_workload(name):
    """Whether ``name``'s final memory state is schedule-invariant.

    Beyond the built-in :data:`COMMUTATIVE_WORKLOADS`, every ``gen:``
    workload qualifies by construction: the generator emits only
    commutative increments over thread-deterministic address streams
    (see :class:`repro.workloads.gen.GeneratedWorkload`).
    """
    if not isinstance(name, str):
        return False
    return name in COMMUTATIVE_WORKLOADS or name.startswith("gen:")


def check_equivalence(outcomes, *, expect_state_equal):
    """Differential check across the outcomes of every explored schedule.

    ``outcomes`` is a non-empty list of ScheduleOutcomes; the first is
    the reference (the default schedule). Per-region commit counts must
    agree everywhere; with ``expect_state_equal`` the final-memory
    digest must as well. Returns (violations, per-outcome index) where
    each violation dict names the diverging schedule by its position.
    """
    violations = []
    reference = outcomes[0]
    for index, outcome in enumerate(outcomes[1:], start=1):
        if outcome.commit_counts != reference.commit_counts:
            violations.append(violation(
                "commit-count-divergence",
                "schedule {} committed a different per-region profile "
                "than the default schedule".format(index),
                schedule=index,
                expected=reference.commit_counts,
                actual=outcome.commit_counts,
            ))
        elif expect_state_equal and outcome.state_sha256 != reference.state_sha256:
            violations.append(violation(
                "state-divergence",
                "schedule {} reached a different final shared-memory "
                "state than the default schedule".format(index),
                schedule=index,
                expected=reference.state_sha256,
                actual=outcome.state_sha256,
            ))
    return violations
