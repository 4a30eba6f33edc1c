"""Tests for the ablation knobs (S-CL policy, failed mode, CRT)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.controller import ClearController
from repro.core.modes import ExecMode
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.workloads import make_workload
from tests.integration.test_machine_basic import ScriptedWorkload, counter_invoke
from tests.reference_discovery import on_load, on_store


def make_controller(**kwargs):
    return ClearController(
        core=0,
        directory_sets=4,
        can_coreside=lambda lines: True,
        **kwargs
    )


class TestConfigValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(scl_lock_policy="everything")

    def test_defaults_match_paper(self):
        config = SimConfig()
        assert config.scl_lock_policy == "writes"
        assert config.failed_mode_discovery
        assert config.crt_enabled

    def test_replaced_carries_flags(self):
        config = SimConfig(scl_lock_policy="all", crt_enabled=False,
                           failed_mode_discovery=False)
        clone = config.replaced(num_cores=2)
        assert clone.scl_lock_policy == "all"
        assert not clone.crt_enabled
        assert not clone.failed_mode_discovery


class TestControllerPolicies:
    def _discovery_with_read_and_write(self, controller):
        discovery = controller.begin_invocation("r")
        on_load(discovery, controller, 1, False)
        on_store(discovery, controller, 2, False)
        return discovery

    def test_all_policy_locks_reads_in_scl(self):
        controller = make_controller(scl_lock_policy="all")
        discovery = self._discovery_with_read_and_write(controller)
        plan = controller.prepare_lock_plan(discovery, ExecMode.S_CL)
        planned = {line for group in plan for line in group}
        assert planned == {1, 2}

    def test_writes_policy_skips_reads(self):
        controller = make_controller(scl_lock_policy="writes")
        discovery = self._discovery_with_read_and_write(controller)
        plan = controller.prepare_lock_plan(discovery, ExecMode.S_CL)
        planned = {line for group in plan for line in group}
        assert planned == {2}

    def test_disabled_crt_records_nothing(self):
        controller = make_controller(crt_enabled=False)
        controller.note_scl_conflicting_read(1)
        assert 1 not in controller.crt

    def test_disabled_crt_skips_promotion(self):
        controller = make_controller(crt_enabled=False)
        controller.crt.insert(1)  # even if something got in somehow
        discovery = self._discovery_with_read_and_write(controller)
        plan = controller.prepare_lock_plan(discovery, ExecMode.S_CL)
        planned = {line for group in plan for line in group}
        assert planned == {2}


class TestFailedModeAblation:
    def run_contended(self, failed_mode):
        script = [counter_invoke() for _ in range(12)]
        config = SimConfig.for_design("clear", num_cores=2, failed_mode_discovery=failed_mode
        )
        workload = ScriptedWorkload({0: list(script), 1: list(script)})
        machine = Machine(config, workload, seed=1)
        stats = machine.run()
        return machine, workload, stats

    def test_without_failed_mode_still_correct(self):
        machine, workload, stats = self.run_contended(failed_mode=False)
        assert machine.memory.peek(workload.addr(0)) == 24
        assert stats.total_commits == 24

    def test_without_failed_mode_no_discovery_cycles(self):
        _, _, stats = self.run_contended(failed_mode=False)
        assert stats.discovery_time_fraction() == 0.0

    def test_with_failed_mode_spends_discovery_cycles(self):
        _, _, stats = self.run_contended(failed_mode=True)
        assert stats.discovery_time_fraction() > 0.0

    def test_immediate_decision_still_converts(self):
        # Even with partial information the contended counter region is
        # convertible (the conflicting line was already discovered).
        _, _, stats = self.run_contended(failed_mode=False)
        cl_commits = stats.commits_by_mode.get(ExecMode.NS_CL, 0) + \
            stats.commits_by_mode.get(ExecMode.S_CL, 0)
        assert cl_commits > 0


class TestWholeWorkloadWithAblations:
    @pytest.mark.parametrize("overrides", [
        dict(scl_lock_policy="all"),
        dict(crt_enabled=False),
        dict(failed_mode_discovery=False),
        dict(scl_lock_policy="all", crt_enabled=False,
             failed_mode_discovery=False),
    ])
    def test_bitcoin_conserves_under_every_ablation(self, micro_machine,
                                                    overrides):
        machine = micro_machine("bitcoin", "W", cores=4, seed=3,
                                ops_per_thread=10, **overrides)
        stats = machine.run()
        workload = machine.workload
        assert not stats.truncated
        assert workload.total_balance(machine.memory) == workload.num_wallets * 10_000
