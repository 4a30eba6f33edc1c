"""Property-based tests for the set-associative cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import SetAssocCache

lines = st.integers(min_value=0, max_value=255)


def build_cache(sets=4, assoc=2):
    return SetAssocCache(size_bytes=sets * assoc * 64, assoc=assoc)


class ReferenceCache:
    """The cache spelled out: per set, a list of ``[line, pinned]`` ways
    in LRU order (least recently used first)."""

    def __init__(self, sets, assoc):
        self.assoc = assoc
        self.sets = [[] for _ in range(sets)]

    def _find(self, line):
        ways = self.sets[line % len(self.sets)]
        for way in ways:
            if way[0] == line:
                return ways, way
        return ways, None

    def install(self, line):
        ways, way = self._find(line)
        if way is not None:
            ways.remove(way)
            ways.append(way)
            return None
        victim = None
        if len(ways) >= self.assoc:
            unpinned = [way for way in ways if not way[1]]
            if not unpinned:
                raise OverflowError(line)
            ways.remove(unpinned[0])
            victim = unpinned[0][0]
        ways.append([line, False])
        return victim

    def pin(self, line):
        way = self._find(line)[1]
        if way is None:
            raise KeyError(line)
        way[1] = True

    def unpin(self, line):
        way = self._find(line)[1]
        if way is not None:
            way[1] = False

    def invalidate(self, line):
        ways, way = self._find(line)
        if way is not None:
            if way[1]:
                raise OverflowError(line)
            ways.remove(way)

    def contains(self, line):
        return self._find(line)[1] is not None

    def is_pinned(self, line):
        way = self._find(line)[1]
        return way is not None and way[1]

    def resident_lines(self):
        return [way[0] for ways in self.sets for way in ways]


def outcome(method, line):
    """What one call returns, or which of the cache's errors it raises."""
    try:
        return "returned", method(line)
    except (OverflowError, KeyError) as error:
        return "raised", type(error)


#: A line space small enough that random operations keep hitting full
#: sets, pinned ways and resident lines.
MODEL_LINES = range(24)
cache_ops = st.lists(
    st.tuples(st.sampled_from(["install", "install", "pin", "unpin", "invalidate"]),
              st.sampled_from(MODEL_LINES)),
    max_size=120,
)


@pytest.mark.parametrize("sets, assoc", [(4, 2), (1, 3)])
@given(cache_ops)
@settings(max_examples=80, deadline=None)
def test_matches_reference_model(sets, assoc, ops):
    cache = build_cache(sets, assoc)
    model = ReferenceCache(sets, assoc)
    for name, line in ops:
        assert outcome(getattr(cache, name), line) == outcome(
            getattr(model, name), line), (name, line)
        for probe in MODEL_LINES:
            assert cache.contains(probe) == model.contains(probe)
            assert cache.is_pinned(probe) == model.is_pinned(probe)
        assert sorted(cache.resident_lines()) == sorted(model.resident_lines())


@given(st.lists(lines, max_size=200))
@settings(max_examples=60, deadline=None)
def test_occupancy_never_exceeds_geometry(sequence):
    cache = build_cache()
    for line in sequence:
        cache.install(line)
    per_set = {}
    for line in cache.resident_lines():
        per_set.setdefault(cache.set_index(line), []).append(line)
    for entries in per_set.values():
        assert len(entries) <= cache.assoc
        assert len(set(entries)) == len(entries)


@given(st.lists(lines, max_size=200))
@settings(max_examples=60, deadline=None)
def test_most_recent_insert_always_resident(sequence):
    cache = build_cache()
    for line in sequence:
        cache.install(line)
        assert cache.contains(line)


@given(st.lists(lines, min_size=1, max_size=100), st.data())
@settings(max_examples=60, deadline=None)
def test_pinned_lines_survive_any_traffic(pin_candidates, data):
    cache = build_cache()
    pinned = []
    for line in pin_candidates[:2]:
        if cache.set_index(line) not in [cache.set_index(p) for p in pinned]:
            cache.install(line)
            cache.pin(line)
            pinned.append(line)
    traffic = data.draw(st.lists(lines, max_size=150))
    for line in traffic:
        try:
            cache.install(line)
        except OverflowError:
            pass
    for line in pinned:
        assert cache.contains(line)
        assert cache.is_pinned(line)


@given(st.sets(lines, max_size=40))
@settings(max_examples=60, deadline=None)
def test_can_coreside_matches_insertion_feasibility(footprint):
    cache = build_cache()
    feasible = cache.can_coreside(footprint)
    per_set = {}
    for line in footprint:
        per_set[cache.set_index(line)] = per_set.get(cache.set_index(line), 0) + 1
    assert feasible == all(count <= cache.assoc for count in per_set.values())


@given(st.lists(lines, max_size=120))
@settings(max_examples=60, deadline=None)
def test_invalidate_then_absent(sequence):
    cache = build_cache()
    for line in sequence:
        cache.install(line)
        cache.invalidate(line)
        assert not cache.contains(line)
