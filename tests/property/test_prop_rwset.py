"""Property-based tests for read/write sets and the store buffer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm.rwset import CapacityExceeded, ReadWriteSets
from repro.memory.shared import SharedMemory
from tests.reference_rwset import conflicts_with_read, conflicts_with_write

addrs = st.integers(min_value=0, max_value=255)
values = st.integers(min_value=-1000, max_value=1000)


@given(st.lists(st.tuples(addrs, values), max_size=80))
@settings(max_examples=100, deadline=None)
def test_commit_equals_sequential_store_order(stores):
    sets = ReadWriteSets(l1_sets=None, l2_sets=None)
    reference = SharedMemory()
    memory = SharedMemory()
    for addr, value in stores:
        sets.buffer_store(addr, value)
        reference.store(addr, value)
    sets.drain_to(memory)
    assert memory.snapshot() == reference.snapshot()


@given(st.lists(st.tuples(addrs, values), max_size=80), addrs)
@settings(max_examples=100, deadline=None)
def test_forwarding_returns_last_buffered_value(stores, probe):
    sets = ReadWriteSets(l1_sets=None, l2_sets=None)
    last = None
    for addr, value in stores:
        sets.buffer_store(addr, value)
        if addr == probe:
            last = value
    assert sets.forwarded_load(probe) == last


@given(st.lists(st.tuples(st.booleans(), addrs), max_size=100))
@settings(max_examples=100, deadline=None)
def test_conflict_queries_match_set_membership(accesses):
    sets = ReadWriteSets(l1_sets=None, l2_sets=None)
    for is_write, line in accesses:
        if is_write:
            sets.record_write(line)
        else:
            sets.record_read(line)
    for line in range(0, 256, 17):
        assert conflicts_with_write(sets, line) == (
            line in sets.read_set or line in sets.write_set
        )
        assert conflicts_with_read(sets, line) == (line in sets.write_set)


@given(st.lists(addrs, min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_capacity_never_silently_exceeded(lines_to_write):
    sets = ReadWriteSets(l1_sets=4, l1_assoc=2, l2_sets=None, l2_assoc=None)
    try:
        for line in lines_to_write:
            sets.record_write(line)
    except CapacityExceeded:
        pass
    per_set = {}
    for line in sets.write_set:
        per_set[line % 4] = per_set.get(line % 4, 0) + 1
    # At most one set may be one over (the overflowing insert is recorded
    # before the check fires and the transaction aborts).
    overfull = [count for count in per_set.values() if count > 2]
    assert len(overfull) <= 1
    assert all(count <= 3 for count in per_set.values())


@given(st.lists(st.tuples(addrs, values), max_size=50))
@settings(max_examples=100, deadline=None)
def test_discard_leaves_memory_untouched(stores):
    sets = ReadWriteSets(l1_sets=None, l2_sets=None)
    memory = SharedMemory()
    for addr, value in stores:
        sets.buffer_store(addr, value)
    sets.discard()
    sets.drain_to(memory)
    assert memory.snapshot() == {}
