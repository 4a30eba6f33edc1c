"""Unit tests for the pluggable HTM design protocol (repro.htm.design)."""

import inspect

import pytest

from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason
from repro.htm.design import (
    DESIGN_REGISTRY,
    LEGACY_LETTER_DESIGNS,
    BigAtomicsDesign,
    HtmDesign,
    LrwDesign,
    design_name,
    register_design,
)
from repro.htm.rwset import CapacityExceeded, LimitedReadWriteSets
from repro.sim.config import SimConfig
from tests.reference_rwset import counters_consistent

#: Hooks of the design protocol; every argument after self must be
#: keyword-only so subclasses can override a subset without positional
#: drift.
PROTOCOL_HOOKS = (
    "build_fallback_lock",
    "make_controller",
    "build_rwsets",
    "wants_power_token",
    "select_retry_mode",
    "classify_capacity_abort",
    "conflict_nacker",
    "commit_cycles",
    "stat_annotations",
)


class TestRegistry:
    def test_all_six_designs_registered(self):
        assert set(DESIGN_REGISTRY) == {
            "baseline", "powertm", "clear", "clear+powertm",
            "lrw", "bigatomics",
        }

    def test_letters_map_to_registered_designs(self):
        for letter, name in LEGACY_LETTER_DESIGNS.items():
            assert DESIGN_REGISTRY[name].letter == letter

    def test_design_name_translates_letters_only(self):
        assert design_name("B") == "baseline"
        assert design_name("W") == "clear+powertm"
        assert design_name("lrw") == "lrw"
        assert design_name("nonesuch") == "nonesuch"

    def test_register_design_rejects_anonymous(self):
        class Nameless(HtmDesign):
            pass

        with pytest.raises(ValueError):
            register_design(Nameless)

    def test_register_design_adds_and_config_accepts(self):
        @register_design
        class Probe(HtmDesign):
            name = "probe-design"

        try:
            assert SimConfig(design="probe-design").design_class is Probe
        finally:
            del DESIGN_REGISTRY["probe-design"]

    def test_legacy_flags_match_registry(self):
        assert not DESIGN_REGISTRY["baseline"].powertm
        assert DESIGN_REGISTRY["powertm"].powertm
        assert DESIGN_REGISTRY["clear"].clear
        cw = DESIGN_REGISTRY["clear+powertm"]
        assert cw.powertm and cw.clear


class TestProtocolSignatures:
    @pytest.mark.parametrize("cls", sorted(
        DESIGN_REGISTRY.values(), key=lambda c: c.name
    ), ids=lambda c: c.name)
    @pytest.mark.parametrize("hook", PROTOCOL_HOOKS)
    def test_hook_arguments_keyword_only(self, cls, hook):
        signature = inspect.signature(getattr(cls, hook))
        parameters = list(signature.parameters.values())[1:]  # drop self
        for parameter in parameters:
            assert parameter.kind is inspect.Parameter.KEYWORD_ONLY, (
                "{}.{} parameter {!r} must be keyword-only".format(
                    cls.name, hook, parameter.name
                )
            )

    def test_exported_from_repro_and_htm(self):
        import repro
        import repro.htm

        assert repro.HtmDesign is HtmDesign
        assert repro.DESIGN_REGISTRY is DESIGN_REGISTRY
        assert repro.register_design is register_design
        assert repro.htm.HtmDesign is HtmDesign
        assert repro.htm.DESIGN_REGISTRY is DESIGN_REGISTRY

    def test_deprecated_runner_trio_no_longer_reexported(self):
        import repro

        for stale in ("run_workload", "run_seeds", "sweep_retry_threshold",
                      "trimmed_mean"):
            assert stale not in repro.__all__
            assert not hasattr(repro, stale)


class TestDefaultPolicy:
    def make(self, name="baseline", **overrides):
        config = SimConfig.for_design(name, num_cores=4, **overrides)
        return DESIGN_REGISTRY[name](config)

    def test_baseline_never_wants_power(self):
        design = self.make("baseline")
        assert not design.wants_power_token(counting_retries=0)
        assert not design.wants_power_token(counting_retries=5)

    def test_powertm_wants_power_on_retry(self):
        design = self.make("powertm")
        assert not design.wants_power_token(counting_retries=0)
        assert design.wants_power_token(counting_retries=1)

    def test_conflict_nacker_power_rule(self):
        design = self.make("powertm")
        assert design.conflict_nacker(
            power_core=3, requester_unstoppable=False
        ) == 3
        assert design.conflict_nacker(
            power_core=3, requester_unstoppable=True
        ) is None

    def test_capacity_classification(self):
        design = self.make("baseline")
        exc = CapacityExceeded("read", 7)
        assert design.classify_capacity_abort(
            executor=None, exc=exc
        ) is AbortReason.CAPACITY

    def test_early_fallback_reasons_default_empty(self):
        for name in ("baseline", "powertm", "clear", "clear+powertm",
                     "bigatomics"):
            assert not DESIGN_REGISTRY[name].early_fallback_reasons

    def test_lrw_early_fallback_is_capacity(self):
        assert LrwDesign.early_fallback_reasons == frozenset(
            {AbortReason.CAPACITY}
        )


class _FakeExecutor:
    def __init__(self, config, counting_retries=0, mode=None, rwsets=None):
        self.config = config
        self.counting_retries = counting_retries
        self.mode = mode
        self.rwsets = rwsets


class TestRetryModeSelection:
    def test_default_respects_threshold(self):
        config = SimConfig.for_design("baseline", num_cores=4,
                                      retry_threshold=3)
        design = DESIGN_REGISTRY["baseline"](config)
        below = _FakeExecutor(config, counting_retries=2)
        at = _FakeExecutor(config, counting_retries=3)
        assert design.select_retry_mode(
            executor=below, reason=AbortReason.MEMORY_CONFLICT,
            proposed=ExecMode.SPECULATIVE,
        ) is ExecMode.SPECULATIVE
        assert design.select_retry_mode(
            executor=at, reason=AbortReason.MEMORY_CONFLICT,
            proposed=ExecMode.SPECULATIVE,
        ) is ExecMode.FALLBACK

    def test_lrw_capacity_goes_straight_to_fallback(self):
        config = SimConfig.for_design("lrw", num_cores=4, retry_threshold=5)
        design = LrwDesign(config)
        fresh = _FakeExecutor(config, counting_retries=0)
        assert design.select_retry_mode(
            executor=fresh, reason=AbortReason.CAPACITY,
            proposed=ExecMode.SPECULATIVE,
        ) is ExecMode.FALLBACK
        assert design.select_retry_mode(
            executor=fresh, reason=AbortReason.MEMORY_CONFLICT,
            proposed=ExecMode.SPECULATIVE,
        ) is ExecMode.SPECULATIVE


class TestBigAtomicsCommit:
    def make(self, **overrides):
        config = SimConfig.for_design("bigatomics", num_cores=4, **overrides)
        return config, BigAtomicsDesign(config)

    class _Sets:
        def __init__(self, lines):
            self._lines = set(lines)

        def touched_lines(self):
            return set(self._lines)

    def test_small_speculative_footprint_commits_multiword(self):
        config, design = self.make(bigatomics_lines=4,
                                   bigatomics_commit_cycles=6)
        executor = _FakeExecutor(config, mode=ExecMode.SPECULATIVE,
                                 rwsets=self._Sets({1, 2, 3}))
        assert design.commit_cycles(executor=executor) == 6
        assert design.multiword_commits == 1
        assert design.stat_annotations(machine=None) == {
            "multiword_commits": 1
        }

    def test_large_footprint_pays_full_commit(self):
        config, design = self.make(bigatomics_lines=2)
        executor = _FakeExecutor(config, mode=ExecMode.SPECULATIVE,
                                 rwsets=self._Sets({1, 2, 3}))
        assert design.commit_cycles(executor=executor) \
            == config.tx_commit_cycles
        assert design.multiword_commits == 0
        assert design.stat_annotations(machine=None) == {}

    def test_non_speculative_modes_pay_full_commit(self):
        config, design = self.make(bigatomics_lines=8)
        for mode in (ExecMode.NS_CL, ExecMode.S_CL, ExecMode.FALLBACK):
            executor = _FakeExecutor(config, mode=mode,
                                     rwsets=self._Sets({1}))
            assert design.commit_cycles(executor=executor) \
                == config.tx_commit_cycles
        assert design.multiword_commits == 0


class TestLimitedReadWriteSets:
    def make(self, reads=2, writes=2):
        return LimitedReadWriteSets(
            max_read_lines=reads, max_write_lines=writes,
            l1_sets=None, l2_sets=None,
        )

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            self.make(reads=0)
        with pytest.raises(ValueError):
            self.make(writes=0)

    def test_read_budget_enforced(self):
        sets = self.make(reads=2)
        sets.record_read(1)
        sets.record_read(2)
        sets.record_read(1)  # already tracked: free
        with pytest.raises(CapacityExceeded) as excinfo:
            sets.record_read(3)
        assert excinfo.value.which == "read"
        assert excinfo.value.line == 3

    def test_write_budget_enforced(self):
        sets = self.make(writes=1)
        sets.record_write(1)
        sets.record_write(1)
        with pytest.raises(CapacityExceeded) as excinfo:
            sets.record_write(2)
        assert excinfo.value.which == "write"

    def test_rejected_line_never_tracked(self):
        sets = self.make(reads=1)
        sets.record_read(1)
        with pytest.raises(CapacityExceeded):
            sets.record_read(2)
        assert 2 not in sets.read_set
        assert counters_consistent(sets)

    def test_budgets_independent(self):
        sets = self.make(reads=1, writes=2)
        sets.record_read(1)
        sets.record_write(2)
        sets.record_write(3)
        with pytest.raises(CapacityExceeded):
            sets.record_read(4)
