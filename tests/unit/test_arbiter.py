"""Unit tests for requester-wins conflict arbitration, as the full peer scan.

``tests/reference_arbiter.py`` keeps the scan; ``test_sharer_index.py``
checks that ``ConflictArbiter.resolve_line`` over the sharer index
agrees with it.
"""

from repro.htm.abort import AbortReason
from repro.htm.rwset import ReadWriteSets
from tests.reference_arbiter import TxPeerView, resolve


def peer(core, reads=(), writes=(), is_power=False, is_failed=False, active=True):
    sets = ReadWriteSets(l1_sets=None, l2_sets=None)
    for line in reads:
        sets.record_read(line)
    for line in writes:
        sets.record_write(line)
    return TxPeerView(core, sets, is_power=is_power,
                      conflict_detection_active=active, is_failed=is_failed)


class TestRequesterWins:
    def test_no_peers_no_conflict(self):
        resolution = resolve(0, 5, True, False, [])
        assert resolution.requester_proceeds
        assert list(resolution.victims) == []

    def test_write_aborts_reader(self):
        resolution = resolve(0, 5, True, False, [peer(1, reads=[5])])
        assert resolution.victims == [1]
        assert resolution.requester_proceeds

    def test_write_aborts_writer(self):
        resolution = resolve(0, 5, True, False, [peer(1, writes=[5])])
        assert resolution.victims == [1]

    def test_read_does_not_abort_reader(self):
        resolution = resolve(0, 5, False, False, [peer(1, reads=[5])])
        assert list(resolution.victims) == []

    def test_read_aborts_writer(self):
        resolution = resolve(0, 5, False, False, [peer(1, writes=[5])])
        assert resolution.victims == [1]

    def test_multiple_victims(self):
        peers = [peer(1, reads=[5]), peer(2, writes=[5]), peer(3, reads=[6])]
        resolution = resolve(0, 5, True, False, peers)
        assert sorted(resolution.victims) == [1, 2]

    def test_requester_own_view_ignored(self):
        resolution = resolve(0, 5, True, False, [peer(0, writes=[5])])
        assert list(resolution.victims) == []


class TestFailedModeRequests:
    def test_failed_requester_harms_nobody(self):
        # Paper §4.1: failed-mode requests are flagged as non-aborting.
        resolution = resolve(
            0, 5, False, True, [peer(1, writes=[5])]
        )
        assert list(resolution.victims) == []
        assert resolution.requester_proceeds

    def test_failed_peer_is_skipped(self):
        resolution = resolve(
            0, 5, True, False, [peer(1, reads=[5], is_failed=True)]
        )
        assert list(resolution.victims) == []


class TestPowerMode:
    def test_power_peer_nacks_requester(self):
        resolution = resolve(
            0, 5, True, False, [peer(1, reads=[5], is_power=True)]
        )
        assert resolution.requester_abort_reason is AbortReason.NACKED
        assert resolution.nacking_core == 1
        assert list(resolution.victims) == []

    def test_power_nack_shields_other_victims(self):
        peers = [peer(1, reads=[5], is_power=True), peer(2, reads=[5])]
        resolution = resolve(0, 5, True, False, peers)
        assert list(resolution.victims) == []

    def test_power_peer_without_conflict_irrelevant(self):
        resolution = resolve(
            0, 5, True, False, [peer(1, reads=[6], is_power=True)]
        )
        assert resolution.requester_proceeds

    def test_unstoppable_requester_beats_power(self):
        # NS-CL lock acquisition cannot be nacked (completion guarantee).
        resolution = resolve(
            0, 5, True, False, [peer(1, reads=[5], is_power=True)],
            requester_unstoppable=True,
        )
        assert resolution.requester_proceeds
        assert resolution.victims == [1]


class TestInactivePeers:
    def test_inactive_peer_ignored(self):
        resolution = resolve(
            0, 5, True, False, [peer(1, reads=[5], active=False)]
        )
        assert list(resolution.victims) == []
