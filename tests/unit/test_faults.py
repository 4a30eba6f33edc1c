"""Unit tests for the chaos layer's FaultPlan and its config knobs."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.htm.abort import (
    INJECTED_REASONS,
    NON_COUNTING_REASONS,
    NON_MEMORY_REASONS,
    AbortCategory,
    AbortReason,
    categorize_abort,
)
from repro.sim.config import SimConfig
from repro.sim.faults import INJECT_WINDOW_OPS, FaultPlan


def chaos_config(**overrides):
    fields = dict(
        fault_spurious_rate=0.2,
        fault_capacity_rate=0.1,
        fault_jitter_cycles=6,
        fault_wakeup_delay_cycles=9,
    )
    fields.update(overrides)
    return SimConfig.for_design("baseline", num_cores=4, **fields)


class TestConfigKnobs:
    def test_defaults_disable_chaos(self):
        config = SimConfig.for_design("baseline", num_cores=4)
        assert not config.chaos_enabled
        assert FaultPlan.from_config(config, DeterministicRng(1), 4) is None

    def test_any_knob_enables_chaos(self):
        for field in ("fault_spurious_rate", "fault_capacity_rate"):
            assert SimConfig.for_design("baseline", num_cores=4, **{field: 0.1}
            ).chaos_enabled
        for field in ("fault_jitter_cycles", "fault_wakeup_delay_cycles"):
            assert SimConfig.for_design("baseline", num_cores=4, **{field: 3}
            ).chaos_enabled

    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            SimConfig.for_design("baseline", num_cores=4, fault_spurious_rate=-0.1)
        with pytest.raises(ConfigurationError):
            SimConfig.for_design("baseline", num_cores=4, fault_spurious_rate=1.5)
        with pytest.raises(ConfigurationError):
            SimConfig.for_design("baseline", num_cores=4,
                fault_spurious_rate=0.7, fault_capacity_rate=0.7,
            )
        with pytest.raises(ConfigurationError):
            SimConfig.for_design("baseline", num_cores=4, fault_jitter_cycles=-1)

    def test_chaos_knobs_change_fingerprint(self):
        base = SimConfig.for_design("baseline", num_cores=4)
        assert chaos_config().fingerprint() != base.fingerprint()

    def test_config_roundtrip_keeps_chaos_fields(self):
        config = chaos_config()
        assert SimConfig.from_dict(config.to_dict()) == config

    def test_old_config_dicts_default_to_no_chaos(self):
        # Cached results written before the chaos fields existed must
        # still deserialize (schema back-compat).
        data = SimConfig.for_design("baseline", num_cores=4).to_dict()
        for field in (
            "fault_spurious_rate", "fault_capacity_rate",
            "fault_jitter_cycles", "fault_wakeup_delay_cycles",
            "oracle", "watchdog_cycles",
        ):
            data.pop(field, None)
        assert not SimConfig.from_dict(data).chaos_enabled


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        config = chaos_config()
        plans = [
            FaultPlan(config, DeterministicRng(7), 4) for _ in range(2)
        ]
        for core in range(4):
            draws_a = [plans[0].plan_attempt(core) for _ in range(50)]
            draws_b = [plans[1].plan_attempt(core) for _ in range(50)]
            assert draws_a == draws_b
        assert [plans[0].jitter(1) for _ in range(50)] == [
            plans[1].jitter(1) for _ in range(50)
        ]
        assert [plans[0].wakeup_delay(0) for _ in range(50)] == [
            plans[1].wakeup_delay(0) for _ in range(50)
        ]

    def test_different_seeds_differ(self):
        config = chaos_config(fault_spurious_rate=0.5)
        plan_a = FaultPlan(config, DeterministicRng(1), 2)
        plan_b = FaultPlan(config, DeterministicRng(2), 2)
        draws_a = [plan_a.plan_attempt(0) for _ in range(100)]
        draws_b = [plan_b.plan_attempt(0) for _ in range(100)]
        assert draws_a != draws_b

    def test_plan_attempt_respects_rates(self):
        config = chaos_config(fault_spurious_rate=0.0, fault_capacity_rate=0.0)
        plan = FaultPlan(config, DeterministicRng(3), 1)
        assert all(plan.plan_attempt(0) is None for _ in range(200))

        config = chaos_config(fault_spurious_rate=1.0, fault_capacity_rate=0.0)
        plan = FaultPlan(config, DeterministicRng(3), 1)
        for _ in range(50):
            reason, op_index = plan.plan_attempt(0)
            assert reason is AbortReason.INJECTED_SPURIOUS
            assert 1 <= op_index <= INJECT_WINDOW_OPS

    def test_mixed_rates_produce_both_reasons(self):
        config = chaos_config(fault_spurious_rate=0.4, fault_capacity_rate=0.4)
        plan = FaultPlan(config, DeterministicRng(5), 1)
        reasons = set()
        for _ in range(300):
            planned = plan.plan_attempt(0)
            if planned is not None:
                reasons.add(planned[0])
        assert reasons == {
            AbortReason.INJECTED_SPURIOUS, AbortReason.INJECTED_CAPACITY,
        }

    def test_zero_cycle_knobs_draw_nothing(self):
        config = chaos_config(
            fault_jitter_cycles=0, fault_wakeup_delay_cycles=0
        )
        plan = FaultPlan(config, DeterministicRng(9), 2)
        assert all(plan.jitter(0) == 0 for _ in range(20))
        assert all(plan.wakeup_delay(1) == 0 for _ in range(20))
        assert plan.jitter_events == 0
        assert plan.wakeup_delays == 0

    def test_log_and_summary(self):
        config = chaos_config()
        plan = FaultPlan(config, DeterministicRng(11), 2)
        plan.note_injected(1, AbortReason.INJECTED_SPURIOUS, 3)
        assert plan.injected_abort_count() == 1
        assert plan.log == [("injected_spurious", 1, 3)]
        summary = plan.summary()
        assert summary["injected_aborts"] == [("injected_spurious", 1, 3)]


class TestAbortTaxonomy:
    def test_injected_reasons_categorize_as_injected(self):
        for reason in INJECTED_REASONS:
            assert categorize_abort(reason) is AbortCategory.INJECTED

    def test_injected_reasons_count_toward_retry_limit(self):
        # Otherwise chaos could starve the fallback completion guarantee.
        assert not (INJECTED_REASONS & NON_COUNTING_REASONS)

    def test_injected_reasons_are_non_memory(self):
        # S-CL treats them like interrupts: stop retrying CL (§4.4.2).
        assert INJECTED_REASONS <= NON_MEMORY_REASONS
