"""Verification oracles checked on every explored schedule.

Three properties, matching the paper's claims. The
:class:`~repro.sim.monitor.OnlineMonitor`, armed on every run under
exploration, checks the first two while the run executes and raises
:class:`~repro.common.errors.OracleViolation` carrying the violation's
``kind``; the explorer converts that exception (and any stall) into a
violation record, and nothing here re-implements them:

1. **Serializability** — commit order, by incremental epoch tracking.

2. **The single-retry bound** — CLEAR's headline claim: once a region's
   footprint is cacheline-locked non-speculatively (NS-CL), the retry
   succeeds without speculating again.

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


def violation(kind, message, **details):
    """One oracle violation as a JSON-friendly dict."""
    return {"kind": kind, "message": message, "details": details}


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
