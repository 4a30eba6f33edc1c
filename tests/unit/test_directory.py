"""Unit tests for the coherence directory."""

from repro.memory.directory import Directory


class TestReadTransitions:
    def test_first_read_registers_sharer(self):
        directory = Directory(16)
        assert directory.record_read(0, 5) is None
        assert directory.holders(5) == {0}

    def test_second_reader_added(self):
        directory = Directory(16)
        directory.record_read(0, 5)
        directory.record_read(1, 5)
        assert directory.holders(5) == {0, 1}

    def test_read_downgrades_remote_owner(self):
        directory = Directory(16)
        directory.record_write(0, 5)
        previous = directory.record_read(1, 5)
        assert previous == 0
        assert not directory.is_owner(0, 5)
        assert directory.holders(5) == {0, 1}

    def test_owner_rereading_keeps_ownership(self):
        directory = Directory(16)
        directory.record_write(0, 5)
        assert directory.record_read(0, 5) is None
        # Reading your own modified line must not demote you.
        assert directory.holders(5) == {0}


class TestWriteTransitions:
    def test_write_takes_ownership(self):
        directory = Directory(16)
        directory.record_write(2, 7)
        assert directory.is_owner(2, 7)

    def test_write_invalidates_sharers(self):
        directory = Directory(16)
        directory.record_read(0, 7)
        directory.record_read(1, 7)
        previous, invalidated = directory.record_write(2, 7)
        assert previous is None
        assert set(invalidated) == {0, 1}
        assert list(invalidated) == [0, 1]  # ascending core order
        assert directory.holders(7) == {2}

    def test_write_steals_from_remote_owner(self):
        directory = Directory(16)
        directory.record_write(0, 7)
        previous, invalidated = directory.record_write(1, 7)
        assert previous == 0
        assert set(invalidated) == {0}
        assert list(invalidated) == [0]
        assert directory.is_owner(1, 7)

    def test_own_upgrade_invalidates_nobody_self(self):
        directory = Directory(16)
        directory.record_read(0, 7)
        previous, invalidated = directory.record_write(0, 7)
        assert previous is None
        assert 0 not in invalidated


class TestDrop:
    def test_drop_removes_holder(self):
        directory = Directory(16)
        directory.record_read(0, 3)
        directory.drop(0, 3)
        assert directory.holders(3) == set()

    def test_drop_owner_clears_ownership(self):
        directory = Directory(16)
        directory.record_write(0, 3)
        directory.drop(0, 3)
        assert not directory.is_owner(0, 3)

    def test_drop_unknown_line_is_noop(self):
        Directory(16).drop(0, 99)

    def test_idle_entries_garbage_collected(self):
        directory = Directory(16)
        directory.record_read(0, 3)
        directory.drop(0, 3)
        assert 3 not in directory._entries


class TestSetLocks:
    def test_lock_then_conflict(self):
        directory = Directory(16)
        assert directory.lock_set(0, 4)
        assert not directory.lock_set(1, 4)
        assert directory.set_lock_holder(4) == 0

    def test_relock_by_holder_ok(self):
        directory = Directory(16)
        directory.lock_set(0, 4)
        assert directory.lock_set(0, 4)

    def test_unlock_frees(self):
        directory = Directory(16)
        directory.lock_set(0, 4)
        directory.unlock_set(0, 4)
        assert directory.set_lock_holder(4) is None
        assert directory.lock_set(1, 4)

    def test_unlock_by_non_holder_ignored(self):
        directory = Directory(16)
        directory.lock_set(0, 4)
        directory.unlock_set(1, 4)
        assert directory.set_lock_holder(4) == 0

    def test_set_of_uses_configured_sets(self):
        directory = Directory(8)
        assert directory.set_of(9) == 1
