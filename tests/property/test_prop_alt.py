"""Property-based tests for the table-of-entries ALT reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference_discovery import AddressToLockTable, AltOverflow

NUM_SETS = 8

lines = st.integers(min_value=0, max_value=127)
accesses = st.lists(st.tuples(lines, st.booleans()), max_size=64)


def fill(alt, sequence):
    tracked = {}
    for line, written in sequence:
        try:
            alt.record_access(line, line % NUM_SETS, written)
        except AltOverflow:
            return tracked, True
        tracked[line] = tracked.get(line, False) or written
    return tracked, False


@given(accesses)
@settings(max_examples=80, deadline=None)
def test_entries_always_lexicographically_sorted(sequence):
    alt = AddressToLockTable(32)
    fill(alt, sequence)
    alt.verify_sorted()


@given(accesses)
@settings(max_examples=80, deadline=None)
def test_needs_locking_iff_ever_written(sequence):
    alt = AddressToLockTable(64)
    tracked, overflowed = fill(alt, sequence)
    if overflowed:
        return
    for line, written in tracked.items():
        assert alt.entry(line).needs_locking == written


@given(accesses)
@settings(max_examples=80, deadline=None)
def test_no_duplicate_lines(sequence):
    alt = AddressToLockTable(64)
    fill(alt, sequence)
    planned = alt.all_lines()
    assert len(planned) == len(set(planned))


@given(accesses)
@settings(max_examples=80, deadline=None)
def test_plan_covers_exactly_the_required_lines(sequence):
    alt = AddressToLockTable(64)
    tracked, overflowed = fill(alt, sequence)
    if overflowed:
        return
    full_plan = {
        entry.line for group in alt.locking_plan(lock_all=True) for entry in group
    }
    assert full_plan == set(tracked)
    selective = {
        entry.line for group in alt.locking_plan(lock_all=False) for entry in group
    }
    assert selective == {line for line, written in tracked.items() if written}


@given(accesses)
@settings(max_examples=80, deadline=None)
def test_groups_partition_by_directory_set(sequence):
    alt = AddressToLockTable(64)
    fill(alt, sequence)
    plan = alt.locking_plan(lock_all=True)
    seen_sets = []
    for group in plan:
        group_sets = {entry.dir_set for entry in group}
        assert len(group_sets) == 1
        seen_sets.append(group_sets.pop())
    # Groups appear in strictly increasing directory-set order.
    assert seen_sets == sorted(seen_sets)
    assert len(set(seen_sets)) == len(seen_sets)


@given(st.sets(lines, min_size=33, max_size=64))
@settings(max_examples=40, deadline=None)
def test_capacity_enforced(footprint):
    alt = AddressToLockTable(32)
    overflowed = False
    for line in footprint:
        try:
            alt.record_access(line, line % NUM_SETS, False)
        except AltOverflow:
            overflowed = True
            break
    assert overflowed
    assert len(alt) <= 32
