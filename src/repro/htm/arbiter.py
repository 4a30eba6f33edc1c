"""Requester-wins conflict arbitration with PowerTM/CLEAR refinements.

Baseline rule (Intel TSX-like "requester wins"): the core issuing the
coherence request proceeds; any transaction whose read/write set the
request conflicts with is the *victim* and aborts.

Refinements modeled from the paper:

- **PowerTM**: a power-mode transaction never loses — a request that
  conflicts with it is NACKed and the *requester* aborts instead.
- **CLEAR failed-mode discovery**: requests issued by a failed-mode AR
  are flagged non-aborting; they never victimize peers (paper §4.1).
- **S-CL**: conflicts with an S-CL transaction's *locked* lines never
  reach the arbiter (the lock table NACKs them first); conflicts with
  its non-locked speculative accesses abort the S-CL victim, which the
  executor records in the CRT for the next attempt.
"""

from repro.htm.abort import AbortReason
from repro.memory.directory import cores_of


class Resolution:
    """Outcome of arbitrating one memory request."""

    __slots__ = ("victims", "requester_abort_reason", "nacking_core")

    def __init__(self, victims=(), requester_abort_reason=None, nacking_core=None):
        self.victims = list(victims)
        self.requester_abort_reason = requester_abort_reason
        self.nacking_core = nacking_core

    @property
    def requester_proceeds(self):
        """True when the request performs (no nack)."""
        return self.requester_abort_reason is None

    def __repr__(self):
        return "Resolution(victims={}, requester_abort_reason={})".format(
            self.victims, self.requester_abort_reason
        )


#: Shared "no conflict" outcome for the hot path: resolving against a
#: line nobody tracks must not allocate. Victims is rebound to an empty
#: tuple so accidental mutation of the shared instance fails loudly.
NO_CONFLICT = Resolution()
NO_CONFLICT.victims = ()


class ConflictArbiter:
    """Pure conflict-resolution policy (no machine state).

    When the power-token holder is among the conflicting peers,
    PowerTM's rule applies: the power transaction never loses, so it
    NACKs the requester, except an unstoppable one (an NS-CL lock
    acquisition, whose completion guarantee wins, §5.2). Designs B and
    C never take the token, so for them the rule never fires.

    Resolutions produced here are what the online serializability
    monitor (:mod:`repro.sim.monitor`) audits downstream: a resolution
    this arbiter wrongly drops lets two overlapping ARs commit, which
    the monitor flags as a stale read at the second commit.
    """

    def resolve_line(self, requester_core, line, is_write, requester_failed,
                     sharers, power_core=None, requester_unstoppable=False):
        """Arbitrate a request against a line's sharer vectors.

        O(sharers) arbitration: ``sharers`` is the
        ``(readers, writers)`` pair of core bit-vectors that
        :meth:`~repro.htm.sharer_index.SharerIndex.get` returns for
        ``line`` (or None when nobody tracks it), and ``power_core`` the
        single power-token holder (or None). A write conflicts with the
        union of both masks, a read with the writers alone, and the
        requester's own bit is cleared; victims come back in ascending
        core order. Equivalence with the full peer scan rests on the
        index invariant — it contains exactly the lines of
        conflict-visible attempts (doomed/failed/NS-CL cores are never
        registered), and at most one core holds the power token, so
        "first conflicting power peer in core order" and "power holder
        among the conflicting set" pick the same core.
        """
        if requester_failed or sharers is None:
            # Non-aborting request, or a line outside every live
            # footprint (the overwhelmingly common case).
            return NO_CONFLICT

        readers, writers = sharers
        conflicting = (readers | writers if is_write else writers) & ~(
            1 << requester_core
        )
        if not conflicting:
            return NO_CONFLICT

        if (power_core is not None and conflicting >> power_core & 1
                and not requester_unstoppable):
            return Resolution(
                requester_abort_reason=AbortReason.NACKED,
                nacking_core=power_core,
            )
        return Resolution(victims=cores_of(conflicting))
