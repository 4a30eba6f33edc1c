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


class TxPeerView:
    """What the arbiter needs to know about an in-flight transaction."""

    __slots__ = ("core", "rwsets", "is_power", "conflict_detection_active", "is_failed")

    def __init__(self, core, rwsets, is_power=False,
                 conflict_detection_active=True, is_failed=False):
        self.core = core
        self.rwsets = rwsets
        self.is_power = is_power
        self.conflict_detection_active = conflict_detection_active
        self.is_failed = is_failed


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

    ``design`` is the machine's :class:`~repro.htm.design.HtmDesign`
    instance; when present, its ``conflict_nacker`` hook decides whether
    the power-token holder NACKs the requester. Without a design (unit
    tests) the built-in PowerTM rule applies —
    which is exactly what every registered design currently implements,
    keeping the ``resolve``/``resolve_line`` cross-check valid.

    Resolutions produced here are what the online serializability
    monitor (:mod:`repro.sim.monitor`) audits downstream: a resolution
    this arbiter wrongly drops lets two overlapping ARs commit, which
    the monitor flags as a stale read at the second commit.
    """

    def __init__(self, design=None):
        self._design = design

    def resolve_line(self, requester_core, line, is_write, requester_failed,
                     sharers, power_core=None, requester_unstoppable=False):
        """Arbitrate a request against a line's sharer vector.

        O(sharers) drop-in for :meth:`resolve`: ``sharers`` is the
        :class:`~repro.htm.sharer_index.LineSharers` entry for ``line``
        (or None when nobody tracks it), and ``power_core`` the single
        power-token holder (or None). Equivalence with the full peer
        scan rests on the index invariant — it contains exactly the
        lines of conflict-visible attempts (doomed/failed/NS-CL cores
        are never registered), and at most one core holds the power
        token, so "first conflicting power peer in core order" and
        "power holder among the conflicting set" pick the same core.
        """
        if requester_failed or sharers is None:
            # Non-aborting request, or a line outside every live
            # footprint (the overwhelmingly common case).
            return NO_CONFLICT

        writers = sharers.writers
        if is_write:
            readers = sharers.readers
            if readers:
                conflicting = readers | writers if writers else set(readers)
            else:
                conflicting = set(writers)
        else:
            if not writers:
                return NO_CONFLICT
            conflicting = set(writers)
        conflicting.discard(requester_core)
        if not conflicting:
            return NO_CONFLICT

        if power_core is not None and power_core in conflicting:
            if self._design is not None:
                nacker = self._design.conflict_nacker(
                    power_core=power_core,
                    requester_unstoppable=requester_unstoppable,
                )
            else:
                nacker = None if requester_unstoppable else power_core
            if nacker is not None:
                return Resolution(
                    requester_abort_reason=AbortReason.NACKED,
                    nacking_core=nacker,
                )
        return Resolution(victims=sorted(conflicting))

    def resolve(self, requester_core, line, is_write, requester_failed, peers,
                requester_unstoppable=False):
        """Arbitrate a request against all in-flight peer transactions.

        Parameters
        ----------
        requester_core:
            Id of the requesting core.
        line:
            Cacheline the request targets.
        is_write:
            Whether the request needs exclusive permission.
        requester_failed:
            True when the requester runs failed-mode discovery; such
            requests are non-aborting and never victimize peers.
        peers:
            Iterable of :class:`TxPeerView` for every other in-flight
            transaction.
        requester_unstoppable:
            True for NS-CL lock acquisition: its completion guarantee
            means even power-mode peers lose (only S-CL and power nack
            each other per §5.2).
        """
        if requester_failed:
            # Non-aborting request: reads may still source data; stores
            # never leave the SQ so they issue no request at all.
            return NO_CONFLICT

        conflicting = []
        for peer in peers:
            if peer.core == requester_core:
                continue
            if not peer.conflict_detection_active:
                continue
            if peer.is_failed:
                # Already doomed; its speculative state will be thrown
                # away, so there is nothing to protect.
                continue
            if is_write:
                hit = peer.rwsets.conflicts_with_write(line)
            else:
                hit = peer.rwsets.conflicts_with_read(line)
            if hit:
                conflicting.append(peer)

        if not conflicting:
            return NO_CONFLICT

        for peer in conflicting:
            if peer.is_power and not requester_unstoppable:
                # Power transaction nacks; the requester aborts and no
                # victim is harmed (the request never performed).
                return Resolution(
                    requester_abort_reason=AbortReason.NACKED,
                    nacking_core=peer.core,
                )

        return Resolution(victims=[peer.core for peer in conflicting])
