"""Unit tests for the discovery phase's int state and its assessments.

The executor's body step updates a :class:`DiscoveryState` inline; the
tests drive it through the per-op hooks of ``tests/reference_discovery.py``,
which ``tests/reference_step.py`` uses in the step's place.
"""

from repro.core.controller import ClearController
from tests.reference_discovery import on_branch, on_load, on_store


def make_discovery(sq=4, alt=4, coreside=True):
    controller = ClearController(
        core=0,
        directory_sets=4,
        can_coreside=lambda lines: coreside,
        sq_capacity=sq,
        alt_entries=alt,
    )
    return controller, controller.begin_invocation("region")


class TestTracking:
    def test_loads_and_stores_counted(self):
        controller, discovery = make_discovery()
        on_load(discovery, controller, 1, False)
        on_store(discovery, controller, 2, False)
        assert discovery.store_count == 1
        assert len(discovery.lines) == 2

    def test_footprint_recorded_in_alt(self):
        controller, discovery = make_discovery()
        on_load(discovery, controller, 1, False)
        on_store(discovery, controller, 2, False)
        assert discovery.lines == {1: False, 2: True}


class TestIndirection:
    def test_tainted_load_address_poisons(self):
        controller, discovery = make_discovery()
        on_load(discovery, controller, 1, True)
        assert discovery.indirection_seen

    def test_tainted_store_address_poisons(self):
        controller, discovery = make_discovery()
        on_store(discovery, controller, 1, True)
        assert discovery.indirection_seen

    def test_tainted_branch_poisons(self):
        # §3: control dependencies are treated like data dependencies.
        _, discovery = make_discovery()
        on_branch(discovery, True)
        assert discovery.indirection_seen

    def test_clean_ops_do_not_poison(self):
        controller, discovery = make_discovery()
        on_load(discovery, controller, 1, False)
        on_branch(discovery, False)
        assert not discovery.indirection_seen


class TestResourceLimits:
    def test_sq_overflow_detected(self):
        controller, discovery = make_discovery(sq=2)
        for line in range(3):
            on_store(discovery, controller, line, False)
        assert discovery.sq_overflow
        assert discovery.exhausted

    def test_alt_overflow_detected(self):
        controller, discovery = make_discovery(alt=2)
        for line in range(3):
            on_load(discovery, controller, line, False)
        assert discovery.alt_overflow
        assert discovery.exhausted
        # The ALT keeps what it learned before it filled.
        assert sorted(discovery.lines) == [0, 1]

    def test_repeated_lines_do_not_overflow_alt(self):
        controller, discovery = make_discovery(alt=2)
        for _ in range(10):
            on_load(discovery, controller, 1, False)
        assert not discovery.alt_overflow

    def test_failed_mode_flag(self):
        controller, discovery = make_discovery()
        assert not discovery.failed
        controller.note_conflict(discovery)
        assert discovery.failed


class TestAssessment:
    def test_clean_small_region_is_nscl_material(self):
        controller, discovery = make_discovery()
        on_load(discovery, controller, 1, False)
        on_store(discovery, controller, 2, False)
        assessment = discovery.assess()
        assert assessment.fits_window
        assert assessment.lockable
        assert assessment.immutable
        assert assessment.footprint == [1, 2]

    def test_indirection_breaks_immutability_only(self):
        controller, discovery = make_discovery()
        on_load(discovery, controller, 1, True)
        assessment = discovery.assess()
        assert assessment.lockable
        assert not assessment.immutable

    def test_sq_overflow_breaks_window(self):
        controller, discovery = make_discovery(sq=1)
        on_store(discovery, controller, 1, False)
        on_store(discovery, controller, 2, False)
        assessment = discovery.assess()
        assert not assessment.fits_window
        assert not assessment.lockable

    def test_unlockable_cache_geometry(self):
        controller, discovery = make_discovery(coreside=False)
        on_load(discovery, controller, 1, False)
        assessment = discovery.assess()
        assert assessment.fits_window
        assert not assessment.lockable

    def test_footprint_in_lexicographical_order(self):
        controller, discovery = make_discovery(alt=8)
        for line in (6, 1, 4):
            on_load(discovery, controller, line, False)
        assessment = discovery.assess()
        assert assessment.footprint == [4, 1, 6]


class TestLockingPlan:
    def record(self, lines, written=True, sets_alt=16):
        controller, discovery = make_discovery(sq=16, alt=sets_alt)
        for line in lines:
            (on_store if written else on_load)(discovery, controller, line, False)
        return discovery

    def test_groups_are_line_ids_per_directory_set(self):
        # Sets (mod 4): 1, 1, 2, 2, 0.
        discovery = self.record((1, 5, 2, 6, 8))
        assert discovery.locking_plan(lock_all=True) == [[8], [1, 5], [2, 6]]

    def test_selective_plan_keeps_only_needs_locking(self):
        controller, discovery = make_discovery()
        on_load(discovery, controller, 1, False)
        on_store(discovery, controller, 5, False)
        on_load(discovery, controller, 2, False)
        assert discovery.locking_plan(lock_all=False) == [[5]]
        assert discovery.locking_plan(lock_all=True) == [[1, 5], [2]]

    def test_empty_plan(self):
        discovery = self.record((1,), written=False)
        assert discovery.locking_plan(lock_all=False) == []
