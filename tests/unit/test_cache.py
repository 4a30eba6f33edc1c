"""Unit tests for the set-associative cache model."""

import tracemalloc

import pytest

from repro.common.errors import ConfigurationError
from repro.memory.cache import SetAssocCache
from repro.memory.system import MemorySystem


def tiny_cache(sets=2, assoc=2):
    """A cache with the requested geometry (line = 64 B)."""
    return SetAssocCache(size_bytes=sets * assoc * 64, assoc=assoc)


class TestGeometry:
    def test_set_count(self):
        cache = SetAssocCache(48 * 1024, 12)
        assert cache.num_sets == 64

    def test_rejects_indivisible_geometry(self):
        with pytest.raises(ConfigurationError):
            SetAssocCache(64 * 3, 2)

    def test_rejects_empty_cache(self):
        with pytest.raises(ConfigurationError):
            SetAssocCache(0, 1)

    def test_set_index_is_modulo(self):
        cache = tiny_cache(sets=2)
        assert cache.set_index(0) == 0
        assert cache.set_index(1) == 1
        assert cache.set_index(2) == 0


class TestInsertLookup:
    def test_miss_then_hit(self):
        cache = tiny_cache()
        assert not cache.contains(0)
        assert cache.install(0) is None
        assert cache.contains(0)
        assert cache.install(0) is None
        assert cache.resident_lines() == [0]

    def test_lru_eviction_order(self):
        cache = tiny_cache(sets=1, assoc=2)
        cache.install(0)
        cache.install(1)
        cache.install(0)  # resident: 0 becomes MRU, 1 becomes LRU
        assert cache.install(2) == 1
        assert cache.contains(0)

    def test_eviction_only_within_set(self):
        cache = tiny_cache(sets=2, assoc=1)
        cache.install(0)  # set 0
        assert cache.install(1) is None  # set 1, no eviction
        assert cache.contains(0)

    def test_probe_missing_leaves_cache_empty(self):
        cache = tiny_cache()
        assert not cache.contains(40)
        assert not cache.is_pinned(40)
        assert cache.resident_lines() == []

    def test_resident_lines_reports_all(self):
        cache = tiny_cache()
        cache.install(0)
        cache.install(1)
        assert sorted(cache.resident_lines()) == [0, 1]


class TestPinning:
    def test_pinned_line_never_evicted(self):
        cache = tiny_cache(sets=1, assoc=2)
        cache.install(0)
        cache.pin(0)
        cache.install(1)
        assert cache.install(2) == 1
        assert cache.contains(0)

    def test_full_pinned_set_overflows(self):
        cache = tiny_cache(sets=1, assoc=2)
        for line in (0, 1):
            cache.install(line)
            cache.pin(line)
        with pytest.raises(OverflowError):
            cache.install(2)

    def test_pin_missing_raises(self):
        cache = tiny_cache()
        with pytest.raises(KeyError):
            cache.pin(5)

    def test_unpin_allows_eviction_again(self):
        cache = tiny_cache(sets=1, assoc=1)
        cache.install(0)
        cache.pin(0)
        cache.unpin(0)
        assert cache.install(1) == 0

    def test_unpin_missing_is_noop(self):
        cache = tiny_cache()
        cache.unpin(99)  # does not raise

    def test_invalidate_pinned_raises(self):
        cache = tiny_cache()
        cache.install(0)
        cache.pin(0)
        with pytest.raises(OverflowError):
            cache.invalidate(0)

    def test_invalidate_removes_line(self):
        cache = tiny_cache()
        cache.install(0)
        cache.invalidate(0)
        assert not cache.contains(0)

    def test_pinned_count(self):
        cache = tiny_cache(sets=1, assoc=2)
        cache.install(0)
        cache.install(1)
        cache.pin(0)
        assert [cache.is_pinned(line) for line in (0, 1)] == [True, False]


class TestLazySets:
    def test_untouched_set_refuses_writes(self):
        cache = tiny_cache(sets=2)
        cache.install(0)  # fills set 0 only
        with pytest.raises(TypeError):
            cache._sets[1][1] = False
        assert cache.resident_lines() == [0]

    def test_machine_memory_allocates_only_touched_sets(self):
        # The Table 2 geometry at 32 cores has 38,912 sets; one
        # OrderedDict each would take about 5 MB.
        tracemalloc.start()
        try:
            MemorySystem(num_cores=32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024


class TestCanCoreside:
    def test_fits_within_associativity(self):
        cache = tiny_cache(sets=2, assoc=2)
        # lines 0, 2 -> set 0; 1 -> set 1.
        assert cache.can_coreside([0, 1, 2])

    def test_over_full_set_rejected(self):
        cache = tiny_cache(sets=2, assoc=2)
        # 0, 2, 4 all map to set 0 with only 2 ways.
        assert not cache.can_coreside([0, 2, 4])

    def test_duplicates_collapsed(self):
        cache = tiny_cache(sets=2, assoc=2)
        assert cache.can_coreside([0, 0, 0, 2])

    def test_empty_footprint_fits(self):
        assert tiny_cache().can_coreside([])
