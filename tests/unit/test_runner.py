"""Unit tests for run orchestration (trimmed mean, aggregation, sweep)."""

import pytest

from repro import api
from repro.htm.abort import AbortCategory, AbortReason
from repro.sim.config import SimConfig
from repro.sim.runner import AggregateResult, RunResult, trimmed_mean
from repro.sim.stats import MachineStats
from repro.workloads import make_workload


class TestTrimmedMean:
    def test_plain_mean_when_few_values_warns(self):
        # Too few values to trim: falls back to a plain mean, loudly.
        with pytest.warns(RuntimeWarning, match="un-trimmed"):
            assert trimmed_mean([2.0, 4.0], trim=3) == 3.0

    def test_removes_three_outliers(self):
        # 10 values as in the paper: drop 2 high + 1 low.
        values = [1000.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 900.0, 0.0]
        assert trimmed_mean(values, trim=3) == 5.0

    def test_paper_settings_pin_drop_2_high_1_low(self):
        # Regression pin at the paper's exact shape (10 seeds, trim=3):
        # sorted 0..9 must drop {8, 9} high and {0} low -> mean(1..7).
        values = [9.0, 0.0, 3.0, 7.0, 1.0, 5.0, 8.0, 2.0, 6.0, 4.0]
        assert trimmed_mean(values, trim=3) == 4.0

    def test_exact_ten_values_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trimmed_mean([float(v) for v in range(10)], trim=3)

    def test_boundary_equal_counts_warn(self):
        # len(values) == trim is the silent un-trim the paper settings
        # never hit; it must be flagged.
        with pytest.warns(RuntimeWarning, match="3 value"):
            assert trimmed_mean([1.0, 2.0, 3.0], trim=3) == 2.0

    def test_trim_zero_is_mean(self):
        assert trimmed_mean([1.0, 2.0, 3.0], trim=0) == 2.0

    def test_empty_is_zero(self):
        assert trimmed_mean([], trim=3) == 0.0

    def test_single_value(self):
        with pytest.warns(RuntimeWarning):
            assert trimmed_mean([7.0], trim=3) == 7.0

    @pytest.mark.parametrize("values", [
        [3], [3, 8], [8, 3], [7.25], [0.1, 0.2], [0.2, 0.1],
        [1e16, 1.0], [1.0, 1e16], [5, 0.5], [0.5, 5],
        [-0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, 2.5],
    ])
    def test_unsorted_short_path_is_bit_identical(self, values):
        # One or two values with nothing to trim skip the sort; a sum
        # of two IEEE terms commutes, so the result is the same bits.
        sorted_path = sum(sorted(values)) / len(values)
        result = trimmed_mean(values, trim=0)
        assert type(result) is type(sorted_path)
        assert repr(result) == repr(sorted_path)

    @pytest.mark.parametrize("values, trim", [
        ([4.0], 1), ([4.0], 3), ([4.0, 2.0], 2), ([4.0, 2.0], 3),
    ])
    def test_short_lists_still_warn_when_trimming(self, values, trim):
        with pytest.warns(RuntimeWarning, match="un-trimmed"):
            assert trimmed_mean(values, trim=trim) == sum(values) / len(values)


def quick_factory(name="mwobject", ops=6):
    return lambda: make_workload(name, ops_per_thread=ops)


def quick_config(**overrides):
    return SimConfig.for_design("baseline", num_cores=4, **overrides)


class TestRunWorkload:
    def test_returns_populated_result(self):
        result = api.simulate(quick_factory(), quick_config(), seeds=1).run
        assert result.cycles > 0
        assert result.stats.total_commits == 4 * 6
        assert result.energy.total > 0
        assert result.workload_name == "mwobject"

    def test_deterministic_for_same_seed(self):
        first = api.simulate(quick_factory(), quick_config(), seeds=5).run
        second = api.simulate(quick_factory(), quick_config(), seeds=5).run
        assert first.cycles == second.cycles
        assert first.stats.total_aborts == second.stats.total_aborts

    def test_different_seeds_differ(self):
        first = api.simulate(quick_factory(), quick_config(), seeds=1).run
        second = api.simulate(quick_factory(), quick_config(), seeds=2).run
        # Not guaranteed in principle, but overwhelmingly likely here.
        assert (first.cycles, first.stats.total_aborts) != (
            second.cycles,
            second.stats.total_aborts,
        )


class TestRunSeeds:
    def test_aggregates_over_seeds(self):
        aggregate = api.simulate(
            quick_factory(), quick_config(), seeds=(1, 2, 3), trim=0
        ).aggregate()
        assert len(aggregate.runs) == 3
        assert aggregate.cycles > 0
        individual = sorted(run.cycles for run in aggregate.runs)
        assert individual[0] <= aggregate.cycles <= individual[-1]

    def test_mode_shares_cover_all_modes(self):
        aggregate = api.simulate(
            quick_factory(), quick_config(), seeds=(1,), trim=0
        ).aggregate()
        shares = aggregate.commit_mode_shares()
        assert abs(sum(shares.values()) - 1.0) < 1e-9

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            AggregateResult("x", quick_config(), [])

    def test_abort_categories_keyed_in_first_seen_order(self):
        # Not the string-hash or address order of a set: the order the
        # categories first appear in, run by run.
        def run_with(*reasons):
            stats = MachineStats(num_cores=1)
            for reason in reasons:
                stats.record_abort(0, reason, "r")
            return RunResult("x", quick_config(), 1, stats, energy=None)

        runs = [
            run_with(AbortReason.CAPACITY, AbortReason.NACKED),
            run_with(),
            run_with(AbortReason.OTHER_FALLBACK, AbortReason.MEMORY_CONFLICT,
                     AbortReason.INJECTED_SPURIOUS),
            run_with(AbortReason.EXPLICIT_FALLBACK),
        ]
        shares = AggregateResult("x", quick_config(), runs,
                                 trim=0).abort_category_shares()
        assert list(shares) == [
            AbortCategory.OTHERS, AbortCategory.MEMORY_CONFLICT,
            AbortCategory.OTHER_FALLBACK, AbortCategory.INJECTED,
            AbortCategory.EXPLICIT_FALLBACK,
        ]
        assert shares[AbortCategory.OTHERS] == 0.5 / 4


class TestKeywordOnlyParams:
    def test_run_workload_rejects_positional_seed(self):
        with pytest.raises(TypeError):
            api.simulate(quick_factory(), quick_config(), 1)

    def test_run_seeds_rejects_positional_seeds(self):
        with pytest.raises(TypeError):
            api.simulate(quick_factory(), quick_config(), (1, 2))
