"""Unit tests for the global fallback lock."""

import pytest

from repro.common.errors import ProtocolError
from repro.htm.fallback import FallbackLock


class TestWriter:
    def test_acquire_free_lock(self):
        lock = FallbackLock(line=5)
        assert lock.try_acquire_write(0)
        assert lock.writer == 0
        assert lock.is_write_held()

    def test_second_writer_rejected(self):
        lock = FallbackLock(5)
        lock.try_acquire_write(0)
        assert not lock.try_acquire_write(1)

    def test_writer_blocked_by_readers(self):
        lock = FallbackLock(5)
        lock.try_acquire_read(1)
        assert not lock.try_acquire_write(0)

    def test_release_write(self):
        lock = FallbackLock(5)
        lock.try_acquire_write(0)
        lock.release_write(0)
        assert not lock.is_write_held()
        assert lock.try_acquire_write(1)

    def test_release_foreign_write_raises(self):
        lock = FallbackLock(5)
        lock.try_acquire_write(0)
        with pytest.raises(ProtocolError):
            lock.release_write(1)

    def test_acquisition_counter(self):
        lock = FallbackLock(5)
        lock.try_acquire_write(0)
        lock.release_write(0)
        lock.try_acquire_write(1)
        assert lock.writer_acquisitions == 2


class TestReaders:
    def test_multiple_readers_allowed(self):
        lock = FallbackLock(5)
        assert lock.try_acquire_read(0)
        assert lock.try_acquire_read(1)
        assert lock.readers == {0, 1}

    def test_reader_blocked_by_writer(self):
        lock = FallbackLock(5)
        lock.try_acquire_write(0)
        assert not lock.try_acquire_read(1)

    def test_release_read(self):
        lock = FallbackLock(5)
        lock.try_acquire_read(0)
        lock.release_read(0)
        assert lock.readers == frozenset()
        assert lock.try_acquire_write(1)

    def test_release_unheld_read_raises(self):
        with pytest.raises(ProtocolError):
            FallbackLock(5).release_read(0)


class TestLine:
    def test_line_exposed(self):
        assert FallbackLock(42).line == 42
