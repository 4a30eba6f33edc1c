"""Cache compatibility across result-schema bumps.

SCHEMA_VERSION participates in both the cache key and the stored
payload, so entries written by an older build must silently miss (never
deserialize into the new shape), while same-version entries round-trip
exactly — traces included. Result dicts must carry the ``metrics``
section; only the ``trace`` slot is optional.
"""

import json

import pytest

from repro.sim import engine as engine_mod
from repro.sim.config import SimConfig
from repro.sim.engine import SCHEMA_VERSION, ExperimentEngine, RunSpec
from repro.sim.runner import RunResult


def make_spec(trace=False):
    return RunSpec(
        workload="arrayswap",
        config=SimConfig.for_design("baseline", num_cores=4),
        seed=1, ops_per_thread=4, trace=trace,
    )


class TestCacheRoundTrip:
    def test_same_version_hits(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        first = engine.run_specs_report([make_spec()])
        assert first.cache_hits == 0
        second = engine.run_specs_report([make_spec()])
        assert second.cache_hits == 1
        assert second.results[0].to_dict() == first.results[0].to_dict()

    def test_trace_survives_the_cache(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        first = engine.run_specs([make_spec(trace=True)])[0]
        second_report = engine.run_specs_report([make_spec(trace=True)])
        second = second_report.results[0]
        assert second_report.cache_hits == 1
        assert second.trace is not None
        assert second.trace.to_dicts() == first.trace.to_dicts()

    def test_traced_and_untraced_key_separately(self, tmp_path):
        assert make_spec(trace=False).cache_key() \
            != make_spec(trace=True).cache_key()
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        engine.run_specs([make_spec(trace=False)])
        report = engine.run_specs_report([make_spec(trace=True)])
        assert report.cache_hits == 0  # the untraced entry must not serve
        assert report.results[0].trace is not None


class TestSchemaBump:
    def test_key_depends_on_schema_version(self, monkeypatch):
        key_now = make_spec().cache_key()
        monkeypatch.setattr(engine_mod, "SCHEMA_VERSION", SCHEMA_VERSION - 1)
        assert make_spec().cache_key() != key_now

    def test_old_schema_entries_miss(self, tmp_path, monkeypatch):
        # Populate the cache as the previous schema version would have.
        monkeypatch.setattr(engine_mod, "SCHEMA_VERSION", SCHEMA_VERSION - 1)
        old_engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        old_engine.run_specs([make_spec()])
        monkeypatch.undo()
        # A current-version engine must recompute, not deserialize v1.
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        report = engine.run_specs_report([make_spec()])
        assert report.cache_hits == 0
        assert report.results[0] is not None

    def test_stored_payload_stamped_with_version(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        engine.run_specs([make_spec()])
        entries = list(tmp_path.rglob("*.json"))
        assert entries
        payload = json.loads(entries[0].read_text())
        assert payload["schema_version"] == SCHEMA_VERSION


class TestLegacyResultDicts:
    """The trace slot may be absent; the metrics section may not."""

    def test_run_result_without_trace_slot(self):
        data = make_run_result_dict()
        data.pop("trace", None)
        result = RunResult.from_dict(data)
        assert result.trace is None
        assert result.workload_name == "arrayswap"

    def test_stats_without_metrics_rejected(self):
        data = make_run_result_dict()
        assert "metrics" in data["stats"]
        data["stats"].pop("metrics")
        with pytest.raises(KeyError):
            RunResult.from_dict(data)

    def test_current_dicts_carry_both_new_sections(self):
        data = make_run_result_dict(trace=True)
        assert data["trace"] is not None
        assert "metrics" in data["stats"]


def make_run_result_dict(trace=False):
    from repro.sim.runner import _simulate_one
    from repro.obs.trace import EventTrace
    from repro.workloads import make_workload

    result = _simulate_one(
        lambda: make_workload("arrayswap", ops_per_thread=4),
        SimConfig.for_design("baseline", num_cores=4), seed=1,
        trace=EventTrace() if trace else None,
    )
    return result.to_dict()
