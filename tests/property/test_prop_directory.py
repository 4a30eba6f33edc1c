"""Property-based tests for the coherence directory against a plain model.

The directory keeps each line's sharers and owner packed into one int
(:mod:`repro.memory.directory`). ``ReferenceDirectory`` keeps the
set-based entries that layout replaced, one sharer set and one owner per
line, and random read/write/drop scripts over machines of up to 70 cores
(wider than a machine word) must see the same answers from both.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.directory import Directory


class ReferenceEntry:
    """Coherence metadata for one cacheline, spelled out."""

    __slots__ = ("sharers", "owner")

    def __init__(self):
        self.sharers = set()
        self.owner = None


class ReferenceDirectory:
    """The directory as a map line -> :class:`ReferenceEntry`."""

    def __init__(self):
        self.entries = {}

    def record_read(self, core, line):
        entry = self.entries.setdefault(line, ReferenceEntry())
        previous_owner = entry.owner if entry.owner not in (None, core) else None
        if previous_owner is not None:
            entry.sharers.add(previous_owner)
            entry.owner = None
        entry.sharers.add(core)
        return previous_owner

    def record_write(self, core, line):
        entry = self.entries.setdefault(line, ReferenceEntry())
        previous_owner = entry.owner if entry.owner not in (None, core) else None
        invalidated = entry.sharers - {core}
        if previous_owner is not None:
            invalidated.add(previous_owner)
        entry.sharers.clear()
        entry.owner = core
        return previous_owner, invalidated

    def drop(self, core, line):
        entry = self.entries.get(line)
        if entry is None:
            return
        entry.sharers.discard(core)
        if entry.owner == core:
            entry.owner = None
        if not entry.sharers and entry.owner is None:
            del self.entries[line]

    def is_owner(self, core, line):
        entry = self.entries.get(line)
        return entry is not None and entry.owner == core

    def holders(self, line):
        entry = self.entries.get(line)
        if entry is None:
            return set()
        held = set(entry.sharers)
        if entry.owner is not None:
            held.add(entry.owner)
        return held

    def held_elsewhere(self, core, line):
        return bool(self.holders(line) - {core})


#: Few lines, so scripts keep returning to lines other cores hold.
MODEL_LINES = range(4)


@st.composite
def scripts(draw):
    """A machine width and read/write/drop steps over a few of its cores.

    Core ids come from both ends of the machine as well as anywhere in
    it: the top ids of a 70-core machine are where a too-narrow owner
    field or a 64-bit assumption would show.
    """
    num_cores = draw(st.just(70) | st.integers(min_value=1, max_value=70))
    top = num_cores - 1
    core_ids = (st.integers(min_value=max(0, top - 3), max_value=top)
                | st.integers(min_value=0, max_value=min(3, top))
                | st.integers(min_value=0, max_value=top))
    cores = draw(st.lists(core_ids, min_size=1, max_size=6, unique=True))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(["record_read", "record_write", "drop"]),
                  st.sampled_from(cores), st.sampled_from(MODEL_LINES)),
        max_size=60,
    ))
    return num_cores, steps


@given(scripts())
@settings(max_examples=100, deadline=None)
def test_matches_reference_model(script):
    num_cores, steps = script
    directory = Directory(16, num_cores)
    model = ReferenceDirectory()
    for name, core, line in steps:
        got = getattr(directory, name)(core, line)
        expected = getattr(model, name)(core, line)
        if name == "record_write":
            previous, invalidated = got
            expected_previous, expected_invalidated = expected
            assert previous == expected_previous, (name, core, line)
            assert set(invalidated) == expected_invalidated, (name, core, line)
            assert list(invalidated) == sorted(expected_invalidated)
        else:
            assert got == expected, (name, core, line)
        for probe in range(num_cores):
            assert directory.is_owner(probe, line) == model.is_owner(probe, line)
            assert directory.held_elsewhere(probe, line) == model.held_elsewhere(
                probe, line), (probe, line)
        for probe in MODEL_LINES:
            assert directory.holders(probe) == model.holders(probe)
        # Idle lines leave the map, as they left the old one.
        assert directory._entries.keys() == model.entries.keys()
