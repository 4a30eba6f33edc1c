"""Post-hoc single-retry bound: the reference for the online monitor.

The simulator checks the paper's single-retry bound while a run
executes (:mod:`repro.sim.monitor`: ``note_abort`` judges each abort,
``record_commit`` each commit, and one flag per core is all it keeps).
This fixture keeps the slower check that came before it, so a test can
compare both on one run: it records every invocation's whole attempt
history and judges each committed invocation after the run with three
rules, including the ``retry-bound`` count the monitor retired as
subsumed (DESIGN.md §11.3):

- **ns-cl-abort-reason**: NS-CL attempts abort only for reasons in
  ``NS_CL_ALLOWED_REASONS``;
- **retry-bound**: for invocations free of :data:`BOUND_EXEMPT_REASONS`
  aborts, at most :data:`MAX_SPECULATIVE_AFTER_NS_CL` speculative
  attempts begin after the first NS-CL attempt;
- **fallback-threshold**: a fallback commit spent at least
  ``retry_threshold`` counting retries and any other commit fewer,
  unless the invocation aborted for one of the design's
  ``early_fallback_reasons``.

It attaches to any machine by wrapping three methods of the machine's
:class:`~repro.sim.stats.MachineStats`, which the executor calls at
every begin, abort and commit, and reads the attempt's mode from
``executors[core].mode``: every begin path sets the mode before
``record_begin``, every abort is recorded before the mode is cleared,
and the explicit-fallback abort at begin has no mode (None). A core's
invocation opens at its first begin or abort after a commit.

The planted breakers at the end of this module break the bound one
kind at a time; pass one as a ``machine_hook``.
"""

from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason, NON_MEMORY_REASONS
from repro.sim.monitor import NS_CL_ALLOWED_REASONS

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
#: NS-CL attempt (for non-exempt invocations).
MAX_SPECULATIVE_AFTER_NS_CL = 1


class InvocationRecord:
    """Attempt history of one atomic-region invocation."""

    __slots__ = ("core", "region", "begins", "aborts", "commit_mode",
                 "commit_retries")

    def __init__(self, core, region):
        self.core = core
        self.region = region
        self.begins = []   # ExecMode per attempt that actually began
        self.aborts = []   # (ExecMode-or-None, AbortReason) per abort
        self.commit_mode = None
        self.commit_retries = None


class RetryReference:
    """Every invocation of one machine run, judged after the run."""

    def __init__(self, machine):
        self.machine = machine
        #: Committed invocations, in commit order.
        self.completed = []
        #: core -> the invocation it has open.
        self.open = {}
        stats = machine.stats
        executors = machine.executors
        begin = stats.record_begin
        abort = stats.record_abort
        commit = stats.record_commit

        def record_begin(core):
            self._record(core).begins.append(executors[core].mode)
            begin(core)

        def record_abort(core, reason, region_id, latency=None):
            self._record(core).aborts.append((executors[core].mode, reason))
            abort(core, reason, region_id, latency)

        def record_commit(core, mode, counting_retries, region_id):
            record = self._record(core)
            del self.open[core]
            record.commit_mode = mode
            record.commit_retries = counting_retries
            self.completed.append(record)
            commit(core, mode, counting_retries, region_id)

        stats.record_begin = record_begin
        stats.record_abort = record_abort
        stats.record_commit = record_commit

    def _record(self, core):
        record = self.open.get(core)
        if record is None:
            region = self.machine.executors[core].invocation.region_id
            record = self.open[core] = InvocationRecord(core, region)
        return record

    def violations(self):
        """``(kind, record)`` per violated rule, in commit order."""
        found = []
        threshold = self.machine.config.retry_threshold
        early = self.machine.design.early_fallback_reasons
        for record in self.completed:
            for mode, reason in record.aborts:
                if (mode is ExecMode.NS_CL
                        and reason not in NS_CL_ALLOWED_REASONS):
                    found.append(("ns-cl-abort-reason", record))
            exempt = any(reason in BOUND_EXEMPT_REASONS
                         for _, reason in record.aborts)
            if not exempt and ExecMode.NS_CL in record.begins:
                first = record.begins.index(ExecMode.NS_CL)
                speculative_after = record.begins[first + 1:].count(
                    ExecMode.SPECULATIVE
                )
                if speculative_after > MAX_SPECULATIVE_AFTER_NS_CL:
                    found.append(("retry-bound", record))
            retries = record.commit_retries
            if record.commit_mode is ExecMode.FALLBACK:
                early_fallback = any(reason in early
                                     for _, reason in record.aborts)
                if retries < threshold and not early_fallback:
                    found.append(("fallback-threshold", record))
            elif retries >= threshold:
                found.append(("fallback-threshold", record))
        return found


# -- planted breakers ---------------------------------------------------------


def abort_ns_cl_requesters(machine):
    """An arbiter that dooms NS-CL requesters with MEMORY_CONFLICT.

    Models an arbiter that treats a cacheline-locked attempt like a
    speculative one: every lock an NS-CL attempt acquires leaves it a
    pending memory conflict, so its first body step aborts it for a
    reason locking makes unreachable (``ns-cl-abort-reason``).
    """
    real = machine.resolve_conflict
    executors = machine.executors

    def buggy(core, line, is_write, requester_failed=False,
              requester_unstoppable=False):
        executor = executors[core]
        if executor.mode is ExecMode.NS_CL:
            executor.pending_abort = AbortReason.MEMORY_CONFLICT
        return real(core, line, is_write, requester_failed,
                    requester_unstoppable)

    machine.resolve_conflict = buggy


def fall_back_one_retry_early(machine):
    """A retry policy that takes the fallback path one retry early.

    Breaks ``fallback-threshold`` at the first invocation that falls
    back (with ``retry_threshold=1`` every abort does).
    """
    design = machine.design
    threshold = machine.config.retry_threshold
    real = design.select_retry_mode

    def select_retry_mode(*, executor, reason, proposed):
        if executor.counting_retries >= threshold - 1:
            return ExecMode.FALLBACK
        return real(executor=executor, reason=reason, proposed=proposed)

    design.select_retry_mode = select_retry_mode


def never_fall_back(machine):
    """A retry policy that ignores the retry budget altogether.

    Breaks ``fallback-threshold`` at the first invocation that commits
    after ``retry_threshold`` counting retries without falling back.
    """
    def select_retry_mode(*, executor, reason, proposed):
        return proposed

    machine.design.select_retry_mode = select_retry_mode
