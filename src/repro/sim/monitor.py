"""Online correctness monitor (``oracle="online"``, the default).

The paper's guarantees are *robustness* claims — committed schedules
stay serializable, NS-CL always completes, locks and the power token
never leak, and a region retries speculatively at most once after its
footprint is learned. This module checks them while a run executes, so
a chaos run under :mod:`repro.sim.faults` is a proof, not a hope. Re-executing
every committed AR against a shadow memory would prove commit-order
serializability too, but far too slowly to leave on under the bench
grid or a large ``repro.verify`` fuzzing campaign. The monitor gives the same guarantee at production rate, in the style
of RegionTrack (arXiv 2008.04479) and fast online atomicity monitors:
it tracks *commit epochs* per cacheline and checks, at each commit,
that the transactional happens-before graph the commit would close
stays acyclic.

Algorithm
---------
The monitor keeps one global commit clock (incremented once per
committed AR) and a ``line_epochs`` map from cacheline to the clock
value of the last committed write to it (lines never written stay at
epoch 0). Every conflict-detecting attempt records, on the *first*
read of each line, the line's epoch at that instant into a per-attempt
``monitor_reads`` summary carried on its
:class:`~repro.htm.rwset.ReadWriteSets` (an O(1) dict store on the
already-slow first-access miss path, skipped when no monitor is armed).

At commit the monitor checks every recorded read epoch against the
line's *current* epoch. A mismatch means some other AR committed a
write to the line after this AR read it: the committing AR reads
before, but commits after, its writer — a cycle in the commit-order
happens-before graph, i.e. the committed schedule is not serializable
in commit order. The check is

- **sound**: every violation it raises is a real stale read committed
  by the machine (the epoch can only have moved if a conflicting write
  committed in between), and
- **complete** for read-write conflicts: a committed write between
  first read and commit *always* moves the epoch (version-based, not
  value-based, so silent ABA rewrites cannot slip through).
  Write-write ordering needs no per-access check at all — speculative
  stores are buffered and drained in commit order, which is exactly
  the serial order being proved — and the final word-for-word diff
  below catches any divergence a lost buffered write could cause.

The monitor also maintains a word-value map (seeded from the
post-setup snapshot, updated from each committed write buffer, poke
mirror, and fallback store) so the end of the run can diff it against
architectural memory, catching out-of-band tampering with no
committed-AR fingerprint. After the last thread finishes the cacheline
lock table must be empty and the fallback lock and power token free
(:func:`check_leaks`).

Non-speculative paths:

- **NS-CL** attempts detect no conflicts, but hold cacheline locks on
  their whole footprint, so their recorded epochs cannot move; their
  reads are checked like everyone else's.
- **Fallback** runs under global mutual exclusion with direct
  (unbuffered) stores, so its loads are checked eagerly against the
  value map and its stores are applied to it as they are issued; the
  lines touched get their epoch bump when the region ends — also when
  it ends in an abort, whose direct stores persist.

Single-retry bound
------------------
CLEAR's headline claim — once a region's footprint is learned, its
retry runs cacheline-locked (NS-CL) and does not speculate again — is
checked at the two events that can break it:

- **ns-cl-abort-reason**, at the abort (:meth:`OnlineMonitor.note_abort`):
  NS-CL holds every line it touches locked, so memory conflicts cannot
  reach it; it may abort only for a reason in
  :data:`NS_CL_ALLOWED_REASONS`.
- **fallback-threshold**, at the commit: a fallback commit spent at
  least ``retry_threshold`` counting retries and any other commit
  fewer, on every design and whatever the invocation aborted for. The
  check reads only the commit's own arguments, so the monitor keeps no
  bound state between an invocation's aborts and its commit.

A count of speculative attempts after the first NS-CL attempt would
add nothing: a later attempt means the NS-CL attempt aborted, and that
abort was either judged illegal by the first check or had a reason that
voids the bound (DESIGN.md §11.3).

Fast path: the monitor deliberately has *no per-op hook* on
speculative accesses — commit hooks, first-read recording, and the
end-of-run sweep only — and the executor's one body step inlines the
first-read epoch store. Fallback accesses are the exception: that step
calls :meth:`OnlineMonitor.note_fallback_store` and
:meth:`OnlineMonitor.note_fallback_load` for each one, which costs
fallback ops nothing else. ``validate_machine`` runs once, at the end
of the run, so checking with the monitor costs only what its hooks do.

Violations raise :class:`repro.common.errors.OracleViolation` carrying
its ``kind`` and a structured ``details`` dict, whose ``commits`` list
is the monitor's ring of the last :data:`COMMIT_TAIL` regions that
advanced the clock. The ring is all the history the monitor keeps, so
its memory stays flat however long the run: a stale read names the
writer of the line's current epoch while that writer is still in the
ring. The monitor costs zero simulated cycles; it is pure host-side
measurement machinery.
"""

from collections import deque

from repro.common.constants import WORDS_PER_LINE
from repro.common.errors import OracleViolation
from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason
from repro.sim.validate import validate_machine

#: How many records of regions that advanced the clock the monitor
#: keeps, newest last; every violation report carries them.
COMMIT_TAIL = 32

#: How many diverging addresses a serializability violation reports.
MAX_DIFF_REPORT = 16

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


def check_leaks(machine):
    """End-of-run leak checks.

    After the last thread finishes, the cacheline lock table must be
    empty and the fallback lock and power token free; anything held is
    a protocol leak and raises :class:`OracleViolation` of kind
    ``"leak"``.
    """
    locks = machine.memsys.locks
    if locks.locked_line_count():
        raise OracleViolation(
            "lock-table leak: {} cacheline lock(s) survived the run".format(
                locks.locked_line_count()
            ),
            details={"held": locks.snapshot()},
            kind="leak",
        )
    fallback = machine.fallback
    if fallback.is_write_held() or fallback.readers:
        raise OracleViolation(
            "fallback-lock leak after run completion",
            details={
                "writer": fallback.writer,
                "readers": sorted(fallback.readers),
            },
            kind="leak",
        )
    if machine.power.holder is not None:
        raise OracleViolation(
            "power-token leak: core {} still holds the token".format(
                machine.power.holder
            ),
            details={"holder": machine.power.holder},
            kind="leak",
        )


class CommitRecord:
    """One region that advanced the commit clock, for violation reports.

    Every committed AR gets one. A fallback region that aborted after
    storing gets one too (``aborted``), because its direct stores
    persist and move epochs like a commit. ``epoch`` is the clock value
    the region wrote.
    """

    __slots__ = ("epoch", "core", "region_id", "mode", "via_abort", "aborted")

    def __init__(self, epoch, core, region_id, mode, via_abort,
                 aborted=False):
        self.epoch = epoch
        self.core = core
        self.region_id = region_id
        self.mode = mode
        self.via_abort = via_abort
        self.aborted = aborted

    def to_dict(self):
        """JSON-serializable form (used in violation details)."""
        return {
            "epoch": self.epoch,
            "core": self.core,
            "region": list(self.region_id)
            if isinstance(self.region_id, tuple) else self.region_id,
            "mode": self.mode.value,
            "via_abort": self.via_abort,
            "aborted": self.aborted,
        }


class OnlineMonitor:
    """Incremental serializability and retry-bound checker for one run.

    Construct *after* workload setup (the value map seeds from the
    post-setup architectural state). Executors call :meth:`note_abort`
    on every abort, :meth:`record_commit` on every commit and the
    fallback hooks on direct memory traffic; the machine calls
    :meth:`finalize` once the run completes cleanly.
    """

    def __init__(self, machine):
        self.machine = machine
        #: Global commit clock, advanced once per commit and once per
        #: aborted fallback region that stored.
        self.clock = 0
        #: line -> commit epoch of the last committed write (0 = never
        #: written by a committed AR). Read by the rwsets first-read
        #: hook and by its inlined copy in the executor's body step.
        self.line_epochs = {}
        #: word -> value as of the committed prefix (plus pokes and
        #: fallback stores); diffed against memory at finalize.
        self._values = dict(machine.memory.snapshot())
        #: Lines stored to by the current fallback region, per core.
        self._fallback_lines = [set() for _ in range(machine.config.num_cores)]
        #: The last COMMIT_TAIL regions that advanced the clock, one
        #: CommitRecord each, oldest first: the newest wrote ``clock``.
        self.tail = deque(maxlen=COMMIT_TAIL)
        self.reads_checked = 0
        self._retry_threshold = machine.config.retry_threshold
        # Mirror out-of-AR pokes (workload node refills etc.) into the
        # value map.
        machine.memory.poke_mirror = self._note_poke

    # -- abort and commit hooks ----------------------------------------------

    def note_abort(self, core, mode, reason):
        """Check one abort of ``core``'s open invocation.

        ``mode`` is the aborted attempt's mode, or None for the
        explicit-fallback abort at begin, which began no attempt.
        Raises ``ns-cl-abort-reason`` when an NS-CL attempt aborts for
        a reason outside :data:`NS_CL_ALLOWED_REASONS`.
        """
        if mode is ExecMode.NS_CL and reason not in NS_CL_ALLOWED_REASONS:
            self._bound_violation(
                "ns-cl-abort-reason",
                "NS-CL attempt on core {} aborted with {} (locking should "
                "make this unreachable)".format(core, reason.value),
                core, self.machine.executors[core].invocation.region_id,
                mode=mode.value, reason=reason.value,
            )

    def record_commit(self, core, invocation, mode, rwsets, counting_retries,
                      via_abort=False):
        """Check and fold in one committed AR.

        Called from ``CoreExecutor._commit`` *before* the write buffer
        drains (the monitor needs it intact). ``rwsets`` is None for
        fallback regions, whose stores were already applied eagerly.
        Raises ``fallback-threshold`` when the invocation's
        ``counting_retries`` disagree with its commit mode.
        """
        clock = self.clock + 1
        self.clock = clock
        self.tail.append(
            CommitRecord(clock, core, invocation.region_id, mode, via_abort)
        )
        threshold = self._retry_threshold
        # Fall back exactly when the budget is spent.
        if (mode is ExecMode.FALLBACK) != (counting_retries >= threshold):
            self._bound_violation(
                "fallback-threshold",
                "{} commit after {} counting retries against a fallback "
                "threshold of {}".format(mode.value, counting_retries,
                                         threshold),
                core, invocation.region_id,
                retries=counting_retries, threshold=threshold,
            )
        epochs = self.line_epochs
        if rwsets is None:
            # Fallback: direct stores already landed in the value map;
            # stamp their lines with this region's commit epoch.
            lines = self._fallback_lines[core]
            for line in lines:
                epochs[line] = clock
            lines.clear()
            return
        reads = rwsets.monitor_reads
        if reads:
            self.reads_checked += len(reads)
            stale = []
            for line, seen in reads.items():
                current = epochs.get(line, 0)
                if current != seen:
                    stale.append(
                        {"line": line, "read_epoch": seen,
                         "current_epoch": current,
                         "intervening_commit": self._writer_of(current)}
                    )
            if stale:
                self._violation(
                    "stale read committed: core {} read {} line(s) that a "
                    "later-committing AR overwrote before this AR committed "
                    "— the committed schedule has a happens-before cycle "
                    "and is not serializable in commit order".format(
                        core, len(stale)
                    ),
                    details={
                        "stale_reads": stale[:MAX_DIFF_REPORT],
                        "commit": self.tail[-1].to_dict(),
                        "commits": self._tail_dicts(),
                    },
                )
        for line in rwsets.write_set:
            epochs[line] = clock
        values = self._values
        for word_addr, value in rwsets._write_buffer.items():
            values[word_addr] = value

    # -- fallback hooks ------------------------------------------------------

    def note_fallback_store(self, core, word_addr, value):
        """A fallback region stored directly to architectural memory."""
        self._values[word_addr] = value
        self._fallback_lines[core].add(word_addr // WORDS_PER_LINE)

    def note_fallback_load(self, core, word_addr, value):
        """Check a fallback load against the committed-prefix values.

        Fallback runs under mutual exclusion after every committed
        write has drained, so architectural memory must equal the
        value map word for word; a mismatch means some earlier commit
        was not serial (or memory was tampered with out of band).
        """
        expected = self._values.get(word_addr, 0)
        if value != expected:
            self._violation(
                "fallback read of word {} observed {} but the committed "
                "prefix wrote {}: an earlier commit was not serializable "
                "in commit order".format(word_addr, value, expected),
                details={
                    "addr": word_addr,
                    "actual": value,
                    "expected": expected,
                    "core": core,
                    "commits": self._tail_dicts(),
                },
            )

    def note_fallback_abort(self, core, invocation):
        """A fallback region aborted (MAX_OPS bound): stores persist.

        The fallback path is not a transaction — its direct stores are
        already architectural — so the lines it touched still get an
        epoch stamp, written by an ``aborted`` record that a later
        stale-read report can name, though no commit is recorded.
        """
        lines = self._fallback_lines[core]
        if lines:
            clock = self.clock + 1
            self.clock = clock
            self.tail.append(CommitRecord(
                clock, core, invocation.region_id, ExecMode.FALLBACK, False,
                aborted=True,
            ))
            epochs = self.line_epochs
            for line in lines:
                epochs[line] = clock
            lines.clear()

    def _note_poke(self, word_addr, value):
        # Out-of-AR initialization writes move no epochs: they are
        # thread-local by construction (they precede the AR publishing
        # them), so no live first-read snapshot can cover them.
        self._values[word_addr] = value

    # -- end of run ----------------------------------------------------------

    def finalize(self):
        """Leak checks + invariants + final value diff; raises on violation."""
        machine = self.machine
        check_leaks(machine)
        validate_machine(machine)
        self._check_final_state()
        machine.memory.poke_mirror = None

    def _check_final_state(self):
        memory_words = self.machine.memory.snapshot()
        monitor_words = self._values
        diffs = []
        for word_addr in sorted(set(memory_words) | set(monitor_words)):
            actual = memory_words.get(word_addr, 0)
            tracked = monitor_words.get(word_addr, 0)
            if actual != tracked:
                diffs.append(
                    {"addr": word_addr, "actual": actual, "tracked": tracked}
                )
                if len(diffs) > MAX_DIFF_REPORT:
                    break
        if diffs:
            self._violation(
                "online monitor value map diverges from architectural "
                "memory at {}{} address(es): some committed write was lost, "
                "reordered, or memory was modified outside any committed "
                "AR".format(
                    len(diffs), "+" if len(diffs) > MAX_DIFF_REPORT else ""
                ),
                details={
                    "diffs": diffs[:MAX_DIFF_REPORT],
                    "commits": self._tail_dicts(),
                },
            )

    # -- violation plumbing --------------------------------------------------

    def _tail_dicts(self):
        return [record.to_dict() for record in self.tail]

    def _writer_of(self, epoch):
        """The record that wrote ``epoch`` as a dict, or None.

        None for epoch 0 (never written) and for a writer that has left
        the ring. The ring's records wrote consecutive epochs ending at
        ``clock``.
        """
        index = epoch - self.clock + len(self.tail) - 1
        if epoch and index >= 0:
            return self.tail[index].to_dict()
        return None

    def _violation(self, message, details):
        raise OracleViolation(message, details=details)

    def _bound_violation(self, kind, message, core, region_id, **details):
        details["core"] = core
        details["region"] = (
            list(region_id) if isinstance(region_id, tuple) else region_id
        )
        details["commits"] = self._tail_dicts()
        raise OracleViolation(message, details=details, kind=kind)
