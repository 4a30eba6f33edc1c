"""Unit tests for run orchestration (trimmed mean, aggregation, sweep)."""

import pytest

from repro import api
from repro.sim.config import SimConfig
from repro.sim.runner import AggregateResult, trimmed_mean
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


class TestKeywordOnlyParams:
    def test_run_workload_rejects_positional_seed(self):
        with pytest.raises(TypeError):
            api.simulate(quick_factory(), quick_config(), 1)

    def test_run_seeds_rejects_positional_seeds(self):
        with pytest.raises(TypeError):
            api.simulate(quick_factory(), quick_config(), (1, 2))
