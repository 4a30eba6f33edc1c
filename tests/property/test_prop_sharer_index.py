"""Property-based tests for the machine-global sharer index.

Model: N cores each cycling through attempt lifecycles — begin, reads,
writes, then one of zombie (pending-abort detach), abort, or commit.
After any interleaving, the incrementally maintained index must equal a
from-scratch rebuild over the attempts that are still conflict-visible,
and every live attempt's capacity counters must match a re-walk.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm.rwset import CapacityExceeded, ReadWriteSets
from repro.htm.sharer_index import SharerIndex
from tests.reference_rwset import counters_consistent

NUM_CORES = 4

cores = st.integers(min_value=0, max_value=NUM_CORES - 1)
lines = st.integers(min_value=0, max_value=31)

# One step of the interleaving: (core, action[, line]).
steps = st.one_of(
    st.tuples(st.just("begin"), cores),
    st.tuples(st.just("read"), cores, lines),
    st.tuples(st.just("write"), cores, lines),
    st.tuples(st.just("zombie"), cores),
    st.tuples(st.just("abort"), cores),
    st.tuples(st.just("commit"), cores),
)


def rebuild(visible):
    """From-scratch index over the conflict-visible attempts."""
    expected = {}
    for core, rwsets in visible.items():
        for line in rwsets.read_set:
            expected.setdefault(line, (set(), set()))[0].add(core)
        for line in rwsets.write_set:
            expected.setdefault(line, (set(), set()))[1].add(core)
    return {
        line: (frozenset(readers), frozenset(writers))
        for line, (readers, writers) in expected.items()
    }


@given(st.lists(steps, max_size=120))
@settings(max_examples=150, deadline=None)
def test_index_equals_rebuild_after_any_interleaving(interleaving):
    index = SharerIndex()
    visible = {}   # core -> live, conflict-visible rwsets
    zombies = {}   # core -> detached-but-not-yet-aborted rwsets

    for step in interleaving:
        action, core = step[0], step[1]
        if action == "begin":
            if core in visible or core in zombies:
                continue  # already in flight
            visible[core] = ReadWriteSets(
                l1_sets=4, l1_assoc=3, l2_sets=8, l2_assoc=4,
                index=index, core=core,
            )
        elif action in ("read", "write"):
            rwsets = visible.get(core)
            if rwsets is None:
                continue
            try:
                if action == "read":
                    rwsets.record_read(step[2])
                else:
                    rwsets.record_write(step[2])
            except CapacityExceeded:
                # Capacity abort: the machine discards immediately.
                rwsets.discard()
                del visible[core]
        elif action == "zombie":
            # Remote conflict: pending_abort set, index detached now,
            # speculative state thrown away later at the abort step.
            rwsets = visible.pop(core, None)
            if rwsets is not None:
                rwsets.detach_index()
                zombies[core] = rwsets
        elif action == "abort":
            rwsets = visible.pop(core, None) or zombies.pop(core, None)
            if rwsets is not None:
                rwsets.discard()
        elif action == "commit":
            rwsets = visible.pop(core, None)
            if rwsets is not None:
                rwsets.detach_index()

        assert index.snapshot() == rebuild(visible)
        for rwsets in visible.values():
            assert counters_consistent(rwsets)

    # Drain everything; the index must come back to empty.
    for rwsets in list(visible.values()) + list(zombies.values()):
        rwsets.discard()
    assert len(index) == 0
    assert index.snapshot() == {}


@given(st.lists(st.tuples(cores, st.booleans(), lines), max_size=80))
@settings(max_examples=150, deadline=None)
def test_detach_is_idempotent_and_complete(accesses):
    index = SharerIndex()
    attempts = {
        core: ReadWriteSets(l1_sets=None, l2_sets=None, index=index, core=core)
        for core in range(NUM_CORES)
    }
    for core, is_write, line in accesses:
        if is_write:
            attempts[core].record_write(line)
        else:
            attempts[core].record_read(line)
    for core, rwsets in attempts.items():
        rwsets.detach_index()
        rwsets.detach_index()  # second detach must be a no-op
        remaining = {
            c: a for c, a in attempts.items() if c > core
        }
        assert index.snapshot() == rebuild(remaining)
    assert len(index) == 0
