"""Unit tests for the reverse sharer index and O(sharers) arbitration.

Two halves: the :class:`SharerIndex` container itself (incremental
registration, cleanup on drop), and exhaustive equivalence of
``ConflictArbiter.resolve_line`` against the full peer scan
(``resolve`` in ``tests/reference_arbiter.py``) over the same machine
snapshots.
"""

import itertools

from repro.htm.abort import AbortReason
from repro.htm.arbiter import ConflictArbiter, NO_CONFLICT
from repro.htm.rwset import ReadWriteSets
from repro.htm.sharer_index import SharerIndex
from tests.reference_arbiter import TxPeerView, resolve


class TestSharerIndex:
    def test_empty_lookup(self):
        index = SharerIndex()
        assert index.get(5) is None
        assert len(index) == 0

    def test_reader_and_writer_registration(self):
        index = SharerIndex()
        index.add_reader(0, 5)
        index.add_writer(1, 5)
        assert index.get(5) == (0b01, 0b10)  # core bit-vectors
        readers, writers = index.snapshot()[5]
        assert readers == {0}
        assert writers == {1}

    def test_drop_core_removes_empty_entries(self):
        index = SharerIndex()
        index.add_reader(0, 5)
        index.add_writer(0, 6)
        index.drop_core(0, read_lines={5}, write_lines={6})
        assert index.get(5) is None
        assert index.get(6) is None
        assert len(index) == 0

    def test_drop_core_keeps_other_sharers(self):
        index = SharerIndex()
        index.add_reader(0, 5)
        index.add_reader(1, 5)
        index.drop_core(0, read_lines={5}, write_lines=set())
        assert index.snapshot()[5][0] == {1}

    def test_drop_core_line_in_both_sets(self):
        # A core that read and wrote the same line leaves no residue.
        index = SharerIndex()
        index.add_reader(0, 5)
        index.add_writer(0, 5)
        index.drop_core(0, read_lines={5}, write_lines={5})
        assert index.get(5) is None

    def test_drop_core_ignores_unregistered_lines(self):
        index = SharerIndex()
        index.add_reader(1, 5)
        index.drop_core(0, read_lines={5, 99}, write_lines={42})
        assert index.snapshot()[5][0] == {1}

    def test_snapshot_is_frozen_copy(self):
        index = SharerIndex()
        index.add_reader(0, 5)
        snap = index.snapshot()
        assert snap == {5: (frozenset({0}), frozenset())}
        index.add_writer(2, 5)
        assert snap == {5: (frozenset({0}), frozenset())}  # unchanged


def attempts_to_views_and_index(attempts):
    """Build the legacy peer-view list and the sharer index for one
    snapshot of in-flight attempts.

    ``attempts`` maps core -> (reads, writes, is_power, is_failed,
    active). Failed and inactive cores are given to the legacy scan as
    peer views (it skips them itself) but — matching the machine's
    lifecycle rules — are never registered in the index.
    """
    views = []
    index = SharerIndex()
    power_core = None
    for core, (reads, writes, is_power, is_failed, active) in attempts.items():
        sets = ReadWriteSets(l1_sets=None, l2_sets=None)
        for line in reads:
            sets.record_read(line)
        for line in writes:
            sets.record_write(line)
        views.append(TxPeerView(core, sets, is_power=is_power,
                                conflict_detection_active=active,
                                is_failed=is_failed))
        if is_power:
            power_core = core
        if active and not is_failed:
            for line in reads:
                index.add_reader(core, line)
            for line in writes:
                index.add_writer(core, line)
    return views, index, power_core


def assert_equivalent(attempts, requester, line, is_write,
                      requester_failed=False, unstoppable=False):
    views, index, power_core = attempts_to_views_and_index(attempts)
    arbiter = ConflictArbiter()
    peers = [view for view in views if view.core != requester]
    legacy = resolve(requester, line, is_write, requester_failed,
                     peers, requester_unstoppable=unstoppable)
    fast = arbiter.resolve_line(requester, line, is_write, requester_failed,
                                index.get(line), power_core=power_core,
                                requester_unstoppable=unstoppable)
    assert sorted(fast.victims) == sorted(legacy.victims)
    assert fast.requester_abort_reason == legacy.requester_abort_reason
    assert fast.nacking_core == legacy.nacking_core


class TestResolveLineEquivalence:
    def test_untracked_line_is_shared_no_conflict(self):
        resolution = ConflictArbiter().resolve_line(0, 5, True, False, None)
        assert resolution is NO_CONFLICT
        assert resolution.requester_proceeds
        assert resolution.victims == ()

    def test_failed_requester_never_victimizes(self):
        attempts = {1: ([5], [5], False, False, True)}
        assert_equivalent(attempts, requester=0, line=5, is_write=True,
                          requester_failed=True)

    def test_write_aborts_readers_and_writers(self):
        attempts = {
            1: ([5], [], False, False, True),
            2: ([], [5], False, False, True),
            3: ([6], [], False, False, True),
        }
        assert_equivalent(attempts, requester=0, line=5, is_write=True)

    def test_read_ignores_readers_aborts_writer(self):
        attempts = {
            1: ([5], [], False, False, True),
            2: ([], [5], False, False, True),
        }
        assert_equivalent(attempts, requester=0, line=5, is_write=False)

    def test_requester_own_footprint_excluded(self):
        attempts = {0: ([5], [5], False, False, True)}
        assert_equivalent(attempts, requester=0, line=5, is_write=True)

    def test_power_peer_nacks(self):
        attempts = {
            1: ([5], [], True, False, True),
            2: ([], [5], False, False, True),
        }
        assert_equivalent(attempts, requester=0, line=5, is_write=True)

    def test_unstoppable_requester_aborts_power_peer(self):
        attempts = {1: ([], [5], True, False, True)}
        assert_equivalent(attempts, requester=0, line=5, is_write=True,
                          unstoppable=True)

    def test_non_conflicting_power_peer_does_not_nack(self):
        attempts = {
            1: ([9], [], True, False, True),
            2: ([5], [], False, False, True),
        }
        assert_equivalent(attempts, requester=0, line=5, is_write=True)

    def test_failed_and_inactive_peers_invisible(self):
        attempts = {
            1: ([5], [5], False, True, True),    # failed discovery
            2: ([5], [5], False, False, False),  # NS-CL: detection off
            3: ([5], [], False, False, True),
        }
        assert_equivalent(attempts, requester=0, line=5, is_write=True)

    def test_exhaustive_small_snapshots(self):
        # Every footprint combination of three peers around line 5,
        # crossed with request kind and power placement.
        footprints = [(), (5,), (7,), (5, 7)]
        for reads1, writes1, reads2, writes2 in itertools.product(
                footprints, repeat=4):
            for power in (None, 1, 2):
                attempts = {
                    1: (reads1, writes1, power == 1, False, True),
                    2: (reads2, writes2, power == 2, False, True),
                }
                for is_write in (False, True):
                    assert_equivalent(attempts, requester=0, line=5,
                                      is_write=is_write)
                    assert_equivalent(attempts, requester=1, line=5,
                                      is_write=is_write)
