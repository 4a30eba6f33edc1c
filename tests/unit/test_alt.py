"""Unit tests for the table-of-entries ALT, the int discovery state's reference.

``DiscoveryState`` keeps the ALT as a ``line -> needs_locking`` dict;
``test_prop_discovery.py`` compares it with this table.
"""

import pytest

from tests.reference_discovery import AddressToLockTable, AltOverflow


def dir_set(line, sets=4):
    return line % sets


def record(alt, line, written=False, sets=4):
    return alt.record_access(line, dir_set(line, sets), written)


class TestRecording:
    def test_tracks_lines(self):
        alt = AddressToLockTable(8)
        record(alt, 5)
        assert 5 in alt
        assert len(alt) == 1

    def test_written_sets_needs_locking(self):
        alt = AddressToLockTable(8)
        record(alt, 5, written=True)
        assert alt.entry(5).needs_locking

    def test_read_does_not_set_needs_locking(self):
        alt = AddressToLockTable(8)
        record(alt, 5, written=False)
        assert not alt.entry(5).needs_locking

    def test_rewrite_upgrades_read_entry(self):
        alt = AddressToLockTable(8)
        record(alt, 5, written=False)
        record(alt, 5, written=True)
        assert alt.entry(5).needs_locking
        assert len(alt) == 1

    def test_write_then_read_stays_locking(self):
        alt = AddressToLockTable(8)
        record(alt, 5, written=True)
        record(alt, 5, written=False)
        assert alt.entry(5).needs_locking

    def test_overflow_raises(self):
        alt = AddressToLockTable(2)
        record(alt, 0)
        record(alt, 1)
        with pytest.raises(AltOverflow):
            record(alt, 2)

    def test_mark_needs_locking(self):
        alt = AddressToLockTable(8)
        record(alt, 5)
        alt.mark_needs_locking(5)
        assert alt.entry(5).needs_locking

    def test_mark_untracked_raises(self):
        with pytest.raises(KeyError):
            AddressToLockTable(8).mark_needs_locking(5)


class TestLexicographicalOrder:
    def test_entries_sorted_by_set_then_line(self):
        alt = AddressToLockTable(8)
        for line in (6, 1, 4, 3):  # sets (mod 4): 2, 1, 0, 3
            record(alt, line)
        assert alt.all_lines() == [4, 1, 6, 3]
        alt.verify_sorted()

    def test_same_set_ordered_by_line(self):
        alt = AddressToLockTable(8)
        record(alt, 9)   # set 1
        record(alt, 1)   # set 1
        record(alt, 5)   # set 1
        assert alt.all_lines() == [1, 5, 9]

    def test_conflict_bits_delimit_groups(self):
        alt = AddressToLockTable(8)
        for line in (1, 5, 2):  # sets 1, 1, 2
            record(alt, line)
        alt.finalize_groups()
        entries = alt.entries()
        # Group {1, 5}: first carries the Conflict bit, last does not.
        assert entries[0].conflict
        assert not entries[1].conflict
        assert not entries[2].conflict


class TestLockingPlan:
    def test_plan_lock_all_includes_everything(self):
        alt = AddressToLockTable(8)
        record(alt, 1, written=False)
        record(alt, 2, written=True)
        plan = alt.locking_plan(lock_all=True)
        planned = [entry.line for group in plan for entry in group]
        assert planned == [1, 2]

    def test_plan_selective_skips_reads(self):
        alt = AddressToLockTable(8)
        record(alt, 1, written=False)
        record(alt, 2, written=True)
        plan = alt.locking_plan(lock_all=False)
        planned = [entry.line for group in plan for entry in group]
        assert planned == [2]

    def test_groups_share_directory_set(self):
        alt = AddressToLockTable(8)
        for line in (1, 5, 2, 6):  # sets 1, 1, 2, 2
            record(alt, line, written=True)
        plan = alt.locking_plan(lock_all=True)
        assert [len(group) for group in plan] == [2, 2]
        for group in plan:
            assert len({entry.dir_set for entry in group}) == 1

    def test_empty_plan(self):
        alt = AddressToLockTable(8)
        record(alt, 1, written=False)
        assert alt.locking_plan(lock_all=False) == []

    def test_plan_is_ordered(self):
        alt = AddressToLockTable(16)
        for line in (13, 2, 7, 11, 4):
            record(alt, line, written=True, sets=4)
        plan = alt.locking_plan(lock_all=True)
        keys = [
            (entry.dir_set, entry.line) for group in plan for entry in group
        ]
        assert keys == sorted(keys)
