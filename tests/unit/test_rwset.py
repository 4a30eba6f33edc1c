"""Unit tests for transactional read/write sets."""

import pytest

from repro.htm.rwset import CapacityExceeded, ReadWriteSets
from repro.memory.shared import SharedMemory
from tests.reference_rwset import (
    conflicts_with_read,
    conflicts_with_write,
    counters_consistent,
    fits,
)


def unlimited():
    return ReadWriteSets(l1_sets=None, l2_sets=None)


class TestTracking:
    def test_reads_and_writes_recorded(self):
        sets = unlimited()
        sets.record_read(1)
        sets.record_write(2)
        assert sets.read_set == {1}
        assert sets.write_set == {2}

    def test_duplicate_entries_collapsed(self):
        sets = unlimited()
        sets.record_read(1)
        sets.record_read(1)
        assert len(sets.read_set) == 1

    def test_touched_lines_unions(self):
        sets = unlimited()
        sets.record_read(1)
        sets.record_write(2)
        assert sets.touched_lines() == {1, 2}


class TestConflicts:
    def test_remote_write_conflicts_with_read(self):
        sets = unlimited()
        sets.record_read(1)
        assert conflicts_with_write(sets, 1)
        assert not conflicts_with_read(sets, 1)

    def test_remote_anything_conflicts_with_write(self):
        sets = unlimited()
        sets.record_write(1)
        assert conflicts_with_write(sets, 1)
        assert conflicts_with_read(sets, 1)

    def test_untracked_line_no_conflict(self):
        sets = unlimited()
        assert not conflicts_with_write(sets, 9)
        assert not conflicts_with_read(sets, 9)


class TestCapacity:
    def test_write_set_limited_by_l1_geometry(self):
        sets = ReadWriteSets(l1_sets=2, l1_assoc=1, l2_sets=None, l2_assoc=None)
        sets.record_write(0)
        with pytest.raises(CapacityExceeded) as info:
            sets.record_write(2)  # same L1 set (mod 2), only 1 way
        assert info.value.which == "write"

    def test_read_set_limited_by_l2_geometry(self):
        sets = ReadWriteSets(l1_sets=None, l1_assoc=None, l2_sets=2, l2_assoc=1)
        sets.record_read(0)
        with pytest.raises(CapacityExceeded):
            sets.record_read(2)

    def test_write_lines_count_against_read_tracking(self):
        sets = ReadWriteSets(l1_sets=None, l1_assoc=None, l2_sets=2, l2_assoc=1)
        sets.record_write(0)
        with pytest.raises(CapacityExceeded):
            sets.record_read(2)

    def test_different_sets_do_not_interfere(self):
        sets = ReadWriteSets(l1_sets=2, l1_assoc=1, l2_sets=None, l2_assoc=None)
        sets.record_write(0)
        sets.record_write(1)  # other set: fine
        assert len(sets.write_set) == 2


class TestStoreBuffer:
    def test_forwarding(self):
        sets = unlimited()
        sets.buffer_store(100, 7)
        assert sets.forwarded_load(100) == 7
        assert sets.forwarded_load(101) is None

    def test_drain_applies_in_order(self):
        sets = unlimited()
        memory = SharedMemory()
        sets.buffer_store(100, 1)
        sets.buffer_store(100, 2)  # later store wins
        sets.buffer_store(101, 3)
        sets.drain_to(memory)
        assert memory.peek(100) == 2
        assert memory.peek(101) == 3
        assert sets.forwarded_load(100) is None

    def test_discard_clears_everything(self):
        sets = unlimited()
        sets.record_read(1)
        sets.record_write(2)
        sets.buffer_store(100, 5)
        sets.discard()
        assert not sets.read_set
        assert not sets.write_set
        assert sets.forwarded_load(100) is None


class TestCapacityCounters:
    """Pin the O(1) occupancy counters to the re-walk semantics."""

    def test_hot_set_overflows_before_total_capacity(self):
        # l1 of 4 sets x 2 ways holds 8 lines total, but three writes
        # mapping to the same set overflow after just two distinct sets
        # are touched — the per-set rule, not a total-size rule.
        sets = ReadWriteSets(l1_sets=4, l1_assoc=2, l2_sets=None, l2_assoc=None)
        sets.record_write(0)
        sets.record_write(4)
        sets.record_write(1)  # different set: fine
        with pytest.raises(CapacityExceeded) as info:
            sets.record_write(8)  # third line in set 0
        assert info.value.which == "write"
        assert info.value.line == 8

    def test_write_created_union_overflow_aborts_as_read(self):
        # Writes only check the write set against L1; a union overflow
        # they create must surface as a "read" abort on the next newly
        # read line, exactly like the legacy full re-walk did.
        sets = ReadWriteSets(l1_sets=None, l1_assoc=None, l2_sets=2, l2_assoc=1)
        sets.record_read(0)
        sets.record_write(2)  # union set 0 now over L2 assoc; no raise
        with pytest.raises(CapacityExceeded) as info:
            sets.record_read(5)  # unrelated set, still aborts
        assert info.value.which == "read"
        assert info.value.line == 5

    def test_read_then_write_same_line_counted_once(self):
        sets = ReadWriteSets(l1_sets=None, l1_assoc=None, l2_sets=2, l2_assoc=1)
        sets.record_read(0)
        sets.record_write(0)  # same line: union unchanged
        sets.record_read(5)   # other set, fine
        assert counters_consistent(sets)

    def test_write_then_read_same_line_counted_once(self):
        sets = ReadWriteSets(l1_sets=None, l1_assoc=None, l2_sets=2, l2_assoc=1)
        sets.record_write(0)
        sets.record_read(0)
        assert counters_consistent(sets)

    def test_duplicate_records_leave_counters_alone(self):
        sets = ReadWriteSets(l1_sets=4, l1_assoc=2, l2_sets=4, l2_assoc=2)
        for _ in range(3):
            sets.record_read(1)
            sets.record_write(2)
        assert counters_consistent(sets)

    def test_boundary_exactly_at_associativity_is_fine(self):
        sets = ReadWriteSets(l1_sets=2, l1_assoc=2, l2_sets=None, l2_assoc=None)
        sets.record_write(0)
        sets.record_write(2)  # exactly assoc ways in set 0
        assert counters_consistent(sets)
        with pytest.raises(CapacityExceeded):
            sets.record_write(4)

    def test_discard_resets_counters(self):
        sets = ReadWriteSets(l1_sets=2, l1_assoc=1, l2_sets=2, l2_assoc=1)
        sets.record_write(0)
        sets.discard()
        assert counters_consistent(sets)
        sets.record_write(0)  # would overflow if the old count survived
        sets.record_read(1)
        assert counters_consistent(sets)

    def test_counters_match_reference_fits(self):
        sets = ReadWriteSets(l1_sets=4, l1_assoc=2, l2_sets=4, l2_assoc=3)
        for line in (0, 1, 4, 5, 9):
            sets.record_read(line)
        for line in (0, 2, 6):
            sets.record_write(line)
        assert counters_consistent(sets)
        assert fits(sets.write_set, 4, 2)
        assert fits(sets.read_set | sets.write_set, 4, 3)
