"""Per-core CLEAR controller (paper §5.1).

Owns the per-core tables (ERT, CRT) and glues them to the transaction
lifecycle:

- At ``XBegin``, the ERT decides whether this invocation runs discovery.
- During execution, the executor's body step records loads, stores
  and branches into the current
  :class:`repro.core.discovery.DiscoveryState` inline.
- On the first conflict, the attempt enters *failed mode* and keeps
  discovering; at region end the assessment and the decision tree pick
  the retry mode, and the ERT bits are updated.
- For an S-CL retry, ALT read entries present in the CRT are promoted to
  *Needs Locking* so a previously conflicting read cannot strike twice.
"""

from repro.core.crt import ConflictingReadsTable
from repro.core.decision import RetryDecision, decide_retry_mode
from repro.core.discovery import DiscoveryState
from repro.core.ert import ExploredRegionTable
from repro.core.modes import ExecMode


class ClearController:
    """CLEAR hardware state and policy for one core."""

    def __init__(self, core, directory_sets, can_coreside,
                 ert_entries=16, crt_entries=64, crt_assoc=8,
                 alt_entries=32, sq_capacity=72,
                 scl_lock_policy="writes", crt_enabled=True):
        self.core = core
        self._directory_sets = directory_sets
        self._can_coreside = can_coreside
        self.scl_lock_policy = scl_lock_policy
        self.crt_enabled = crt_enabled
        self.ert = ExploredRegionTable(ert_entries)
        self.crt = ConflictingReadsTable(crt_entries, crt_assoc)
        # Discovery's capacities: the body step binds both when it is
        # built and checks every discovering op against them.
        self.alt_entries = alt_entries
        self.sq_capacity = sq_capacity
        self.discoveries_started = 0
        self.discoveries_failed_mode = 0

    # -- XBegin ---------------------------------------------------------------

    def begin_invocation(self, region_id):
        """ERT lookup at XBegin: returns a DiscoveryState or None.

        Discovery is skipped when the region is known non-convertible or
        its SQ-Full counter saturated (§5, §5.1); the transaction then
        follows the baseline execution.
        """
        entry = self.ert.ensure(region_id)
        if not entry.discovery_allowed:
            return None
        self.discoveries_started += 1
        return DiscoveryState(
            region_id, self._directory_sets, self._can_coreside
        )

    # -- conflict while discovering --------------------------------------------

    def note_conflict(self, discovery):
        """First conflict: hold the abort and continue in failed mode."""
        if not discovery.failed:
            discovery.failed = True
            self.discoveries_failed_mode += 1

    # -- end of a discovery attempt ---------------------------------------------

    def conclude_failed_discovery(self, discovery):
        """Failed attempt reached XEnd (or exhausted resources): decide.

        Updates the ERT bits from the assessment and returns the
        :class:`repro.core.decision.RetryDecision` for the next attempt.
        """
        entry = self.ert.ensure(discovery.region_id)
        if discovery.sq_overflow:
            entry.note_sq_overflow()
        assessment = discovery.assess()
        entry.is_convertible = assessment.lockable
        entry.is_immutable = assessment.immutable
        if discovery.exhausted:
            # Assessment 1: hopeless to continue; abort immediately and
            # fall back to a plain speculative retry.
            return RetryDecision(ExecMode.SPECULATIVE, "discovery resources exhausted")
        has_writes = True in discovery.lines.values()
        return decide_retry_mode(assessment, has_writes=has_writes)

    def conclude_committed_discovery(self, discovery):
        """Committed attempt: discard the decision, keep the knowledge.

        A committed AR needs no retry decision (§4.3), but the observed
        footprint still updates the ERT bits so future invocations skip
        discovery for hopeless regions (this produces the paper's bst
        behaviour: eligible while the structure is small, permanently
        non-convertible once its footprint outgrows the tables).
        """
        entry = self.ert.ensure(discovery.region_id)
        entry.note_commit()
        # Only the assessment's first and last levels matter here, and
        # both are flags: no sort, no lockability test.
        if discovery.exhausted:
            entry.is_convertible = False
        entry.is_immutable = not discovery.indirection_seen

    # -- cacheline-locked retries -------------------------------------------------

    def prepare_lock_plan(self, discovery, mode):
        """Ordered lock groups for an NS-CL or S-CL retry.

        NS-CL locks every ALT entry; S-CL locks written lines plus reads
        found in the CRT (paper §4.4.2, §5.1). Each group is a list of
        line ids sharing one directory set (see
        :meth:`repro.core.discovery.DiscoveryState.locking_plan`).
        """
        if mode is ExecMode.NS_CL:
            return discovery.locking_plan(lock_all=True)
        if mode is not ExecMode.S_CL:
            raise ValueError("lock plan only exists for CL modes, not {}".format(mode))
        if self.scl_lock_policy == "all":
            # S-CL "-all-" variant (§4.4.2): lock reads too, trading
            # extra invalidation traffic for fewer S-CL aborts.
            return discovery.locking_plan(lock_all=True)
        if self.crt_enabled:
            # Lexicographical order: a CRT hit refreshes its LRU way,
            # so the lookup order decides later CRT evictions.
            lines = discovery.lines
            crt = self.crt
            for line in discovery.ordered_lines():
                if not lines[line] and line in crt:
                    lines[line] = True
        return discovery.locking_plan(lock_all=False)

    def note_scl_conflicting_read(self, line):
        """An S-CL non-locked read conflicted: remember it in the CRT."""
        if self.crt_enabled:
            self.crt.insert(line)

    def mark_non_discoverable(self, region_id):
        """Non-memory-conflict abort in S-CL: stop retrying CL (§4.4.2)."""
        entry = self.ert.ensure(region_id)
        entry.is_convertible = False

    # -- diagnostics -------------------------------------------------------------

    def diagnostic_state(self):
        """JSON-serializable ERT/CRT digest for stall diagnostic dumps."""
        return {
            "ert": self.ert.snapshot(),
            "crt_lines": len(self.crt),
            "discoveries_started": self.discoveries_started,
            "discoveries_failed_mode": self.discoveries_failed_mode,
        }
