"""The capacity rule as a re-walk: the reference ``ReadWriteSets``' counters are tested against.

:class:`repro.htm.rwset.ReadWriteSets` checks associativity in O(1)
per access with per-cache-set occupancy counters and a count of sets
over their associativity. :func:`fits` is the rule they implement,
over a whole set of lines, and :func:`counters_consistent` re-walks an
instance's read and write sets and compares the result with its
counters. ``tests/unit/test_rwset.py``, ``tests/unit/test_design.py``
and ``tests/property/test_prop_sharer_index.py`` use them; nothing
under ``src/`` refers to the module.
"""


def fits(lines, num_sets, assoc):
    """True if no cache set receives more than ``assoc`` of ``lines``."""
    per_set = {}
    for line in lines:
        idx = line % num_sets
        per_set[idx] = per_set.get(idx, 0) + 1
        if per_set[idx] > assoc:
            return False
    return True


def counters_consistent(rwsets):
    """True iff ``rwsets``' incremental counters match a fresh re-walk."""
    union_ok = write_ok = True
    if rwsets._l2_sets is not None:
        expected = {}
        for line in rwsets.read_set | rwsets.write_set:
            idx = line % rwsets._l2_sets
            expected[idx] = expected.get(idx, 0) + 1
        over = sum(1 for c in expected.values() if c > rwsets._l2_assoc)
        union_ok = (expected == rwsets._union_counts
                    and over == rwsets._union_over)
    if rwsets._l1_sets is not None:
        expected = {}
        for line in rwsets.write_set:
            idx = line % rwsets._l1_sets
            expected[idx] = expected.get(idx, 0) + 1
        over = sum(1 for c in expected.values() if c > rwsets._l1_assoc)
        write_ok = (expected == rwsets._write_counts
                    and over == rwsets._write_over)
    return union_ok and write_ok
