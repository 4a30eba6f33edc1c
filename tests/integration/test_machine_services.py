"""Tests for Machine's executor-facing services."""

import gc

import pytest

from repro.common.errors import SimulationError
from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason
from repro.htm.rwset import ReadWriteSets
from repro.htm.design import design_name
from repro.memory.cache import _EMPTY_SET
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.workloads import make_workload


def fresh_machine(letter="B", cores=3):
    workload = make_workload("mwobject", ops_per_thread=2)
    return Machine(SimConfig.for_design(design_name(letter), num_cores=cores), workload, seed=1)


def arm_speculative(executor, mode=ExecMode.SPECULATIVE, lines=(5,)):
    executor.phase = "body"
    executor.mode = mode
    executor.rwsets = ReadWriteSets(l1_sets=None, l2_sets=None)
    for line in lines:
        executor.rwsets.record_read(line)


class TestAbortAllSpeculative:
    def test_dooms_speculative_peers(self):
        machine = fresh_machine()
        arm_speculative(machine.executors[0])
        arm_speculative(machine.executors[1], mode=ExecMode.FAILED_DISCOVERY)
        machine.abort_all_speculative(AbortReason.OTHER_FALLBACK, exclude=2)
        assert machine.executors[0].pending_abort is AbortReason.OTHER_FALLBACK
        assert machine.executors[1].pending_abort is AbortReason.OTHER_FALLBACK

    def test_excluded_core_untouched(self):
        machine = fresh_machine()
        arm_speculative(machine.executors[0])
        machine.abort_all_speculative(AbortReason.OTHER_FALLBACK, exclude=0)
        assert machine.executors[0].pending_abort is None

    def test_running_scl_is_a_protocol_violation(self):
        # The fallback writer can only acquire once all CL readers left;
        # finding a live S-CL here means the guard was bypassed.
        machine = fresh_machine("C")
        arm_speculative(machine.executors[0], mode=ExecMode.S_CL)
        with pytest.raises(SimulationError):
            machine.abort_all_speculative(AbortReason.OTHER_FALLBACK, exclude=1)


class TestFallbackLinePlacement:
    def test_fallback_lock_line_disjoint_from_workload_data(self):
        machine = fresh_machine()
        # The lock line was allocated before workload setup; workload
        # structures must start at or after the next line.
        assert machine.fallback.line >= 1
        workload = machine.workload
        assert workload.object_base // 8 != machine.fallback.line


class TestUntrackedLineState:
    def test_per_line_state_stays_out_of_the_cyclic_collector(self):
        # Per-line coherence state is ints in dicts of ints, so the
        # collector tracks none of it however many lines a run touches
        # (DESIGN.md §9.2).
        machine = Machine(
            SimConfig.for_design("baseline", num_cores=32),
            make_workload("genome", ops_per_thread=4), seed=1,
        )
        machine.run()
        memsys = machine.memsys
        index = machine.sharer_index
        assert not gc.is_tracked(memsys.directory._entries)
        assert not gc.is_tracked(index._readers)
        assert not gc.is_tracked(index._writers)
        filled = [
            entries
            for cache in (*memsys.l1, *memsys.l2, memsys.l3)
            for entries in cache._sets
            if entries is not _EMPTY_SET
        ]
        assert filled
        assert sum(map(gc.is_tracked, filled)) == 0
