"""Behavioral tests for the post-paper designs (``lrw``, ``bigatomics``).

The paper's four configurations are pinned byte-for-byte by the golden
micro matrix; the two new designs have no goldens to lean on, so these
tests pin their *semantics* instead:

- ``lrw`` bounds speculative R/W tracking. Overflow raises CAPACITY and
  routes the invocation straight to the fallback lock, which the retry
  oracle must accept as a legitimate budget undershoot.
- ``bigatomics`` commits small-footprint regions as a constant-time
  multiword operation, surfaces the count through
  ``stats.design_annotations``, and earns an energy discount.

A seeded schedule-exploration smoke per design plus a slow 19-workload
oracle matrix round out the acceptance gate.
"""

import pytest

from repro import api
from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.sim.stats import MachineStats
from repro.verify import verify
from repro.verify.oracles import RetryLedger, check_retry_bound
from repro.workloads import ALL_NAMES, make_workload

NEW_DESIGNS = ("lrw", "bigatomics")


def run_machine(config, workload="hashmap", seed=1, ops_per_thread=6,
                ledger=None):
    machine = Machine(
        config, make_workload(workload, ops_per_thread=ops_per_thread),
        seed=seed, retry_ledger=ledger,
    )
    return machine.run()


class TestLrwBehavior:
    def tiny_config(self, **overrides):
        overrides.setdefault("lrw_read_lines", 2)
        overrides.setdefault("lrw_write_lines", 1)
        return SimConfig.for_design("lrw", num_cores=4, oracle="online",
                                    **overrides)

    def test_tiny_budgets_overflow_to_fallback(self):
        stats = run_machine(self.tiny_config())
        assert stats.aborts_by_reason[AbortReason.CAPACITY] > 0
        assert stats.commits_by_mode[ExecMode.FALLBACK] > 0
        assert stats.total_commits > 0

    def test_overflow_satisfies_retry_oracle(self):
        """CAPACITY fallbacks undershoot the budget — by design, the
        oracle's early_fallback_reasons exemption must absorb that."""
        config = self.tiny_config()
        ledger = RetryLedger()
        stats = run_machine(config, ledger=ledger)
        assert stats.aborts_by_reason[AbortReason.CAPACITY] > 0
        assert check_retry_bound(ledger, config) == []

    def test_default_budgets_rarely_overflow(self):
        """At the default 64r/16w budget a micro run fits entirely."""
        config = SimConfig.for_design("lrw", num_cores=4, oracle="online")
        ledger = RetryLedger()
        stats = run_machine(config, ledger=ledger)
        assert stats.aborts_by_reason[AbortReason.CAPACITY] == 0
        assert check_retry_bound(ledger, config) == []

    def test_oracle_still_rejects_plain_undershoot(self):
        """The exemption is scoped to CAPACITY: an undershooting
        fallback commit with no capacity abort must still trip."""
        config = self.tiny_config(retry_threshold=4)
        ledger = RetryLedger()
        ledger.note_invoke(0, "r")
        ledger.note_begin(0, ExecMode.SPECULATIVE)
        ledger.note_abort(0, ExecMode.SPECULATIVE,
                          AbortReason.MEMORY_CONFLICT)
        ledger.note_begin(0, ExecMode.FALLBACK)
        ledger.note_commit(0, ExecMode.FALLBACK, counting_retries=1)
        violations = check_retry_bound(ledger, config)
        assert any(v["kind"] == "fallback-threshold" for v in violations)


class TestBigAtomicsBehavior:
    def test_multiword_commits_annotated(self):
        config = SimConfig.for_design("bigatomics", num_cores=4, oracle="online")
        stats = run_machine(config, workload="mwobject")
        assert stats.design_annotations.get("multiword_commits", 0) > 0
        assert stats.design_annotations["multiword_commits"] \
            <= stats.total_commits

    def test_annotations_survive_serialization(self):
        config = SimConfig.for_design("bigatomics", num_cores=4)
        stats = run_machine(config, workload="mwobject")
        data = stats.to_dict()
        assert data["design_annotations"] == stats.design_annotations
        rebuilt = MachineStats.from_dict(data)
        assert rebuilt.design_annotations == stats.design_annotations
        assert rebuilt.to_dict() == data

    def test_legacy_designs_emit_no_annotations(self):
        config = SimConfig.for_design("clear", num_cores=4)
        stats = run_machine(config, workload="mwobject")
        assert stats.design_annotations == {}
        assert "design_annotations" not in stats.to_dict()

    def test_multiword_commits_earn_energy_discount(self):
        from repro.energy.model import EnergyModel

        config = SimConfig.for_design("bigatomics", num_cores=4)
        stats = run_machine(config, workload="mwobject")
        multiword = stats.design_annotations["multiword_commits"]
        assert multiword > 0
        model = EnergyModel()
        discounted = model.evaluate(stats)
        stats.design_annotations = {}
        full = model.evaluate(stats)
        saving = (model.tx_commit - model.multiword_commit) * multiword
        assert full.dynamic - discounted.dynamic == pytest.approx(saving)
        assert full.static == discounted.static

    def test_big_footprints_fall_back_to_full_commit(self):
        config = SimConfig.for_design("bigatomics", num_cores=4,
                                      bigatomics_lines=1)
        stats = run_machine(config, workload="hashmap")
        assert stats.design_annotations.get("multiword_commits", 0) == 0
        assert stats.total_commits > 0

    def test_retry_bound_holds(self):
        config = SimConfig.for_design("bigatomics", num_cores=4, oracle="online")
        ledger = RetryLedger()
        run_machine(config, workload="hashmap", ledger=ledger)
        assert check_retry_bound(ledger, config) == []


class TestNewDesignVerifySmoke:
    """Seeded 4-core schedule-exploration fuzz per new design."""

    @pytest.mark.parametrize("design", NEW_DESIGNS)
    def test_fuzzing_passes_all_oracles(self, design):
        report = verify("mwobject", design, cores=4, ops_per_thread=4,
                        seed=1, explorer="random", schedules=8)
        assert report.ok, report.violations

    def test_lrw_overflow_schedules_stay_clean(self):
        config = SimConfig.for_design("lrw", num_cores=4, lrw_read_lines=2,
                                      lrw_write_lines=1, oracle="online")
        report = verify("hashmap", config, ops_per_thread=4, seed=1,
                        explorer="pct", schedules=8)
        assert report.ok, report.violations


class TestApiIntegration:
    @pytest.mark.parametrize("design", NEW_DESIGNS)
    def test_simulate_accepts_design_names(self, design):
        report = api.simulate("mwobject", design, seeds=1, ops_per_thread=4)
        assert report.config.design == design
        assert report.run.stats.total_commits > 0

    def test_report_roundtrip_keeps_annotations(self):
        report = api.simulate("mwobject", "bigatomics", seeds=1,
                              ops_per_thread=6)
        rebuilt = api.SimulationReport.from_dict(report.to_dict())
        assert rebuilt.run.stats.design_annotations \
            == report.run.stats.design_annotations
        assert rebuilt.to_dict() == report.to_dict()


@pytest.mark.slow
class TestFullOracleMatrix:
    """Both new designs pass the full oracle suite on all 19 workloads."""

    @pytest.mark.parametrize("design", NEW_DESIGNS)
    @pytest.mark.parametrize("workload", ALL_NAMES)
    def test_oracles_hold(self, workload, design):
        config = SimConfig.for_design(design, num_cores=4, oracle="online")
        ledger = RetryLedger()
        stats = run_machine(config, workload=workload, seed=1,
                            ops_per_thread=6, ledger=ledger)
        assert stats.total_commits > 0
        assert check_retry_bound(ledger, config) == []
