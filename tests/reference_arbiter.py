"""The full peer scan: the reference ``ConflictArbiter.resolve_line`` is tested against.

:meth:`repro.htm.arbiter.ConflictArbiter.resolve_line` arbitrates a
request against one line's sharer bit-vectors in the machine-global
sharer index. This module keeps the arbitration it replaced:
:func:`resolve` scans one :class:`TxPeerView` per other in-flight
transaction and asks each one's read/write sets whether the request
conflicts. ``tests/unit/test_arbiter.py`` pins its rules and
``tests/unit/test_sharer_index.py`` compares the two on the same
machine snapshots, exhaustively on small ones. Nothing under ``src/``
refers to the module.
"""

from repro.htm.abort import AbortReason
from repro.htm.arbiter import NO_CONFLICT, Resolution


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


def resolve(requester_core, line, is_write, requester_failed, peers,
            requester_unstoppable=False):
    """Arbitrate a request against all in-flight peer transactions.

    ``requester_failed`` marks a failed-mode discovery request, which
    is non-aborting and never victimizes peers. ``peers`` holds a
    :class:`TxPeerView` for every other in-flight transaction.
    ``requester_unstoppable`` marks NS-CL lock acquisition: its
    completion guarantee means even power-mode peers lose (only S-CL
    and power nack each other, §5.2). The PowerTM rule is built in: the
    first conflicting power-mode peer NACKs the requester.
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
