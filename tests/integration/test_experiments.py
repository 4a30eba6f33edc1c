"""Integration tests for the experiment harness (tiny scale)."""

from types import SimpleNamespace

import pytest

from repro.analysis.experiments import (
    CONFIG_LETTERS,
    ExperimentSettings,
    fig1_retry_immutability,
    fig8_execution_time,
    fig9_aborts_per_commit,
    fig10_energy,
    fig11_abort_breakdown,
    fig12_commit_modes,
    fig13_retry_bound,
    headline_summary,
    run_config_matrix,
    select_best_threshold,
)
from repro.core.modes import ExecMode


@pytest.fixture(scope="module")
def tiny_matrix():
    settings = ExperimentSettings(
        benchmarks=("mwobject", "arrayswap", "bitcoin"),
        num_cores=4,
        ops_per_thread=8,
        seeds=(1, 2),
        trim=0,
    )
    return run_config_matrix(settings)


class TestMatrix:
    def test_covers_all_cells(self, tiny_matrix):
        assert set(tiny_matrix) == {"mwobject", "arrayswap", "bitcoin"}
        for per_config in tiny_matrix.values():
            assert set(per_config) == set(CONFIG_LETTERS)

    def test_progress_callback_called(self):
        calls = []
        settings = ExperimentSettings(
            benchmarks=("mwobject",), num_cores=2, ops_per_thread=4, seeds=(1,)
        )
        run_config_matrix(settings, progress=lambda *args: calls.append(args))
        assert len(calls) == 4


class TestFigureProjections:
    def test_fig8_normalizes_to_baseline(self, tiny_matrix):
        times, discovery = fig8_execution_time(tiny_matrix)
        for name in tiny_matrix:
            assert times[name]["B"] == 1.0
        assert "geomean" in times
        assert all(0 <= v <= 1 for v in discovery["mwobject"].values())

    def test_fig9_has_average(self, tiny_matrix):
        rows = fig9_aborts_per_commit(tiny_matrix)
        assert "average" in rows
        assert rows["average"]["B"] >= 0

    def test_fig10_normalized_energy(self, tiny_matrix):
        rows = fig10_energy(tiny_matrix)
        for name in tiny_matrix:
            assert rows[name]["B"] == 1.0

    def test_fig11_shares_bounded(self, tiny_matrix):
        rows = fig11_abort_breakdown(tiny_matrix)
        for per_config in rows.values():
            for shares in per_config.values():
                total = sum(shares.values())
                assert total == pytest.approx(1.0, abs=1e-6) or total == 0.0

    def test_fig12_modes_sum_to_one(self, tiny_matrix):
        rows = fig12_commit_modes(tiny_matrix)
        for per_config in rows.values():
            for shares in per_config.values():
                assert sum(shares.values()) == pytest.approx(1.0, abs=1e-6)

    def test_fig12_clear_configs_use_cl_modes(self, tiny_matrix):
        rows = fig12_commit_modes(tiny_matrix)
        cl_share = sum(
            rows["mwobject"]["C"].get(mode, 0.0)
            for mode in (ExecMode.NS_CL, ExecMode.S_CL)
        )
        assert cl_share > 0.0
        baseline_cl = sum(
            rows["mwobject"]["B"].get(mode, 0.0)
            for mode in (ExecMode.NS_CL, ExecMode.S_CL)
        )
        assert baseline_cl == 0.0

    def test_fig13_shares_are_triples(self, tiny_matrix):
        rows = fig13_retry_bound(tiny_matrix)
        for per_config in rows.values():
            for triple in per_config.values():
                assert len(triple) == 3
                assert all(0 <= v <= 1 for v in triple)

    def test_fig1_ratios_bounded(self, tiny_matrix):
        ratios = fig1_retry_immutability(tiny_matrix)
        assert "average" in ratios
        assert all(0.0 <= v <= 1.0 for v in ratios.values())


class TestHeadline:
    def test_headline_keys_present(self, tiny_matrix):
        summary = headline_summary(tiny_matrix)
        for key in (
            "time_reduction_C_vs_B",
            "aborts_per_commit_B",
            "first_retry_share_C",
            "fallback_share_W",
        ):
            assert key in summary

    def test_clear_improves_contended_subset(self, tiny_matrix):
        summary = headline_summary(tiny_matrix)
        # On this contended subset CLEAR must win time and aborts.
        assert summary["time_reduction_C_vs_B"] > 0
        assert summary["aborts_per_commit_C"] < summary["aborts_per_commit_B"]
        assert summary["first_retry_share_C"] > summary["first_retry_share_B"]
        assert summary["fallback_share_C"] < summary["fallback_share_B"]


class TestSettings:
    def test_paper_settings_scale(self):
        settings = ExperimentSettings.paper()
        assert settings.num_cores == 32
        assert len(settings.seeds) == 10
        assert settings.trim == 3
        assert settings.retry_sweep

    def test_config_for_letter(self):
        settings = ExperimentSettings.quick()
        assert settings.config_for("W").design == "clear+powertm"


class TestSelectBestThreshold:
    def test_fewest_cycles_wins(self):
        slow, fast = SimpleNamespace(cycles=120.0), SimpleNamespace(cycles=90.0)
        assert select_best_threshold({1: slow, 4: fast}) == (fast, 4)

    def test_lowest_tied_threshold_wins(self):
        # run_config_matrix lists thresholds in ascending order.
        by_threshold = {1: SimpleNamespace(cycles=101.0)}
        by_threshold.update((threshold, SimpleNamespace(cycles=100.0))
                            for threshold in (2, 4, 8))
        assert select_best_threshold(by_threshold) == (by_threshold[2], 2)
