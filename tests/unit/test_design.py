"""Unit tests for the design table (repro.htm.design) and its rules.

Each design is a row of flags; the rule each flag gates lives at its
one call site (DESIGN.md §12). These tests pin each rule there.
"""

import pytest

from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason
from repro.htm.arbiter import ConflictArbiter
from repro.htm.design import DESIGN_REGISTRY, LEGACY_LETTER_DESIGNS, design_name


class TestRegistry:
    def test_the_papers_four_designs(self):
        assert set(DESIGN_REGISTRY) == {
            "baseline", "powertm", "clear", "clear+powertm",
        }

    def test_letters_map_to_registered_designs(self):
        assert LEGACY_LETTER_DESIGNS == {
            "B": "baseline", "P": "powertm", "C": "clear",
            "W": "clear+powertm",
        }
        for letter, name in LEGACY_LETTER_DESIGNS.items():
            assert DESIGN_REGISTRY[name].letter == letter

    def test_design_name_translates_letters_only(self):
        assert design_name("B") == "baseline"
        assert design_name("W") == "clear+powertm"
        assert design_name("clear") == "clear"
        assert design_name("nonesuch") == "nonesuch"

    def test_legacy_flags_match_registry(self):
        assert not DESIGN_REGISTRY["baseline"].powertm
        assert not DESIGN_REGISTRY["baseline"].clear
        assert DESIGN_REGISTRY["powertm"].powertm
        assert not DESIGN_REGISTRY["powertm"].clear
        assert DESIGN_REGISTRY["clear"].clear
        assert not DESIGN_REGISTRY["clear"].powertm
        cw = DESIGN_REGISTRY["clear+powertm"]
        assert cw.powertm and cw.clear


class TestExports:
    def test_exported_from_repro_and_htm(self):
        import repro
        import repro.htm

        assert repro.DESIGN_REGISTRY is DESIGN_REGISTRY
        assert repro.htm.DESIGN_REGISTRY is DESIGN_REGISTRY

    def test_deprecated_runner_trio_no_longer_reexported(self):
        import repro

        for stale in ("run_workload", "run_seeds", "sweep_retry_threshold",
                      "trimmed_mean"):
            assert stale not in repro.__all__
            assert not hasattr(repro, stale)


def power_requests(micro_machine, design):
    """Counting retries at each power-token request of one run.

    Injected spurious aborts make even W retry speculatively.
    """
    machine = micro_machine("sorted-list", design, cores=4,
                            ops_per_thread=6, fault_spurious_rate=0.3)
    requests = []
    try_acquire = machine.power.try_acquire

    def recording(core):
        requests.append(machine.executors[core].counting_retries)
        return try_acquire(core)

    machine.power.try_acquire = recording
    machine.run()
    assert machine.stats.total_aborts > 0
    return requests


class TestDefaultPolicy:
    def test_baseline_never_wants_power(self, micro_machine):
        # B and C never request the power token.
        for design in ("baseline", "clear"):
            assert power_requests(micro_machine, design) == []

    def test_powertm_wants_power_on_retry(self, micro_machine):
        # P and W request it on a retry, never on a first attempt.
        for design in ("powertm", "clear+powertm"):
            requests = power_requests(micro_machine, design)
            assert requests
            assert all(retries > 0 for retries in requests)

    def test_conflict_nacker_power_rule(self):
        # The power core NACKs only stoppable requesters.
        arbiter = ConflictArbiter()
        nacked = arbiter.resolve_line(
            0, 7, True, False, (0b1000, 0), power_core=3,
        )
        assert nacked.requester_abort_reason is AbortReason.NACKED
        assert nacked.nacking_core == 3
        assert not nacked.victims
        unstoppable = arbiter.resolve_line(
            0, 7, True, False, (0b1000, 0), power_core=3,
            requester_unstoppable=True,
        )
        assert unstoppable.requester_proceeds
        assert unstoppable.victims == [3]
        # A power core outside the conflict changes nothing.
        bystander = arbiter.resolve_line(
            0, 7, True, False, (0b0100, 0), power_core=3,
        )
        assert bystander.requester_proceeds
        assert bystander.victims == [2]

    def test_capacity_classification(self, micro_machine):
        # A 2-set 2-way L1 and a 4-set 2-way L2: genome's regions
        # overflow them, and the monitor accepts every commit.
        for design in ("baseline", "clear"):
            machine = micro_machine(
                "genome", design, l1_size=64 * 2 * 2, l1_assoc=2,
                l2_size=64 * 4 * 2, l2_assoc=2,
            )
            machine.run()
            assert machine.stats.aborts_by_reason[AbortReason.CAPACITY] > 0


class TestRetryModeSelection:
    def test_default_respects_threshold(self, micro_machine):
        machine = micro_machine(retry_threshold=3)
        for proposed in (ExecMode.SPECULATIVE, ExecMode.NS_CL):
            assert machine.select_retry_mode(2, proposed) is proposed
            assert machine.select_retry_mode(3, proposed) is ExecMode.FALLBACK
            assert machine.select_retry_mode(4, proposed) is ExecMode.FALLBACK

    def test_rule_is_replaceable_on_the_instance(self, micro_machine):
        # The planted rule falls back early, which the monitor flags.
        machine = micro_machine(retry_threshold=3, oracle="off")
        asked = []

        def select_retry_mode(counting_retries, proposed):
            asked.append(counting_retries)
            return ExecMode.FALLBACK

        machine.select_retry_mode = select_retry_mode
        machine.run()
        assert asked
        assert machine.stats.commits_by_mode[ExecMode.FALLBACK] > 0


class TestControllers:
    @pytest.mark.parametrize("design", sorted(DESIGN_REGISTRY))
    def test_only_clear_family_builds_controllers(self, micro_machine,
                                                  design):
        machine = micro_machine(design=design, cores=4)
        built = [executor.controller is not None
                 for executor in machine.executors]
        assert built == [DESIGN_REGISTRY[design].clear] * 4
