"""Unit tests for the per-core CLEAR controller.

Discovery is driven through the per-op hooks of
``tests/reference_discovery.py``, which stand in for the body step.
"""

from repro.core.controller import ClearController
from repro.core.ert import SQ_FULL_COUNTER_MAX
from repro.core.modes import ExecMode
from tests.reference_discovery import on_load, on_store


def make_controller(coreside=True, **kwargs):
    return ClearController(
        core=0,
        directory_sets=4,
        can_coreside=lambda lines: coreside,
        **kwargs
    )


class TestBeginInvocation:
    def test_discovery_by_default(self):
        controller = make_controller()
        assert controller.begin_invocation("r") is not None
        assert controller.discoveries_started == 1

    def test_non_convertible_skips_discovery(self):
        controller = make_controller()
        controller.ert.ensure("r").is_convertible = False
        assert controller.begin_invocation("r") is None

    def test_saturated_sq_counter_skips_discovery(self):
        controller = make_controller()
        entry = controller.ert.ensure("r")
        for _ in range(SQ_FULL_COUNTER_MAX):
            entry.note_sq_overflow()
        assert controller.begin_invocation("r") is None

    def test_regions_tracked_independently(self):
        controller = make_controller()
        controller.ert.ensure("a").is_convertible = False
        assert controller.begin_invocation("a") is None
        assert controller.begin_invocation("b") is not None


class TestConflictHandling:
    def test_note_conflict_enters_failed_mode_once(self):
        controller = make_controller()
        discovery = controller.begin_invocation("r")
        controller.note_conflict(discovery)
        controller.note_conflict(discovery)
        assert discovery.failed
        assert controller.discoveries_failed_mode == 1


class TestConcludeFailed:
    def test_immutable_small_region_decides_nscl(self):
        controller = make_controller()
        discovery = controller.begin_invocation("r")
        on_load(discovery, controller, 1, False)
        on_store(discovery, controller, 2, False)
        decision = controller.conclude_failed_discovery(discovery)
        assert decision.mode is ExecMode.NS_CL
        entry = controller.ert.ensure("r")
        assert entry.is_convertible
        assert entry.is_immutable

    def test_tainted_region_with_writes_decides_scl(self):
        controller = make_controller()
        discovery = controller.begin_invocation("r")
        on_load(discovery, controller, 1, True)
        on_store(discovery, controller, 2, False)
        decision = controller.conclude_failed_discovery(discovery)
        assert decision.mode is ExecMode.S_CL
        assert not controller.ert.ensure("r").is_immutable

    def test_tainted_read_only_region_retries_speculatively(self):
        # A read-only AR has nothing for cacheline locking to protect;
        # exclusively locking its conflicted reads would only serialize
        # every other reader.
        controller = make_controller()
        discovery = controller.begin_invocation("r")
        on_load(discovery, controller, 1, True)
        decision = controller.conclude_failed_discovery(discovery)
        assert decision.mode is ExecMode.SPECULATIVE
        assert "read-only" in decision.reason

    def test_immutable_read_only_region_still_converts_to_nscl(self):
        controller = make_controller()
        discovery = controller.begin_invocation("r")
        on_load(discovery, controller, 1, False)
        decision = controller.conclude_failed_discovery(discovery)
        assert decision.mode is ExecMode.NS_CL

    def test_sq_overflow_counts_and_decides_speculative(self):
        controller = make_controller()
        discovery = controller.begin_invocation("r")
        discovery.sq_overflow = True
        decision = controller.conclude_failed_discovery(discovery)
        assert decision.mode is ExecMode.SPECULATIVE
        assert controller.ert.ensure("r").sq_full_counter == 1

    def test_unlockable_region_marked_non_convertible(self):
        controller = make_controller(coreside=False)
        discovery = controller.begin_invocation("r")
        on_load(discovery, controller, 1, False)
        controller.conclude_failed_discovery(discovery)
        assert not controller.ert.ensure("r").is_convertible


class TestConcludeCommitted:
    def test_commit_decrements_counter(self):
        controller = make_controller()
        controller.ert.ensure("r").note_sq_overflow()
        discovery = controller.begin_invocation("r")
        on_load(discovery, controller, 1, False)
        controller.conclude_committed_discovery(discovery)
        assert controller.ert.ensure("r").sq_full_counter == 0

    def test_oversized_committed_region_disables_conversion(self):
        controller = make_controller(alt_entries=2)
        discovery = controller.begin_invocation("r")
        for line in range(4):
            on_load(discovery, controller, line, False)
        controller.conclude_committed_discovery(discovery)
        assert not controller.ert.ensure("r").is_convertible

    def test_committed_taint_updates_immutability(self):
        controller = make_controller()
        discovery = controller.begin_invocation("r")
        on_load(discovery, controller, 1, True)
        controller.conclude_committed_discovery(discovery)
        assert not controller.ert.ensure("r").is_immutable


class TestLockPlans:
    def test_nscl_plan_locks_everything(self):
        controller = make_controller()
        discovery = controller.begin_invocation("r")
        on_load(discovery, controller, 1, False)
        on_store(discovery, controller, 2, False)
        plan = controller.prepare_lock_plan(discovery, ExecMode.NS_CL)
        planned = {line for group in plan for line in group}
        assert planned == {1, 2}

    def test_scl_plan_locks_writes_only(self):
        controller = make_controller()
        discovery = controller.begin_invocation("r")
        on_load(discovery, controller, 1, False)
        on_store(discovery, controller, 2, False)
        plan = controller.prepare_lock_plan(discovery, ExecMode.S_CL)
        planned = {line for group in plan for line in group}
        assert planned == {2}

    def test_scl_plan_promotes_crt_reads(self):
        # §5.1: reads that conflicted in the past are locked too.
        controller = make_controller()
        controller.note_scl_conflicting_read(1)
        discovery = controller.begin_invocation("r")
        on_load(discovery, controller, 1, False)
        on_store(discovery, controller, 2, False)
        plan = controller.prepare_lock_plan(discovery, ExecMode.S_CL)
        planned = {line for group in plan for line in group}
        assert planned == {1, 2}

    def test_crt_lookups_run_in_lexicographical_order(self):
        # A CRT hit refreshes its LRU way, so the promotion must look
        # lines up in the ALT's order (directory set, then line), not
        # in the order discovery first saw them.
        controller = make_controller()
        controller.crt.insert(1)
        controller.crt.insert(9)  # same CRT set as 1; 1 is LRU
        discovery = controller.begin_invocation("r")
        on_load(discovery, controller, 9, False)
        on_load(discovery, controller, 1, False)
        plan = controller.prepare_lock_plan(discovery, ExecMode.S_CL)
        assert plan == [[1, 9]]
        assert controller.crt.lines() == [1, 9]

    def test_plan_rejects_non_cl_modes(self):
        controller = make_controller()
        discovery = controller.begin_invocation("r")
        try:
            controller.prepare_lock_plan(discovery, ExecMode.SPECULATIVE)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")


class TestNonDiscoverable:
    def test_mark_non_discoverable(self):
        controller = make_controller()
        controller.mark_non_discoverable("r")
        assert not controller.ert.ensure("r").is_convertible
        assert controller.begin_invocation("r") is None
