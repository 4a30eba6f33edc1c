"""Cache compatibility across result-schema bumps.

SCHEMA_VERSION participates in both the cache key and the stored
payload, so entries written by an older build must silently miss (never
deserialize into the new shape), while same-version entries round-trip
exactly — traces included. A v8 entry names its config by fingerprint;
one that names another config is quarantined. Result dicts must carry
the ``metrics`` section; only the ``trace`` slot is optional.
"""

import json
import os

import pytest

from repro.common.errors import JournalSchemaError
from repro.sim import engine as engine_mod
from repro.sim.config import SimConfig
from repro.sim.engine import (
    SCHEMA_VERSION,
    DiskCache,
    ExperimentEngine,
    RunSpec,
    execute_spec,
)
from repro.sim.journal import MANIFEST_NAME, SweepJournal
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


def v7_key(spec, monkeypatch):
    """The cache key a v7 build gave ``spec``."""
    with monkeypatch.context() as patch:
        patch.setattr(engine_mod, "SCHEMA_VERSION", 7)
        return spec.cache_key()


class TestV8Entry:
    """The v8 entry names its config by fingerprint, and is checked."""

    def test_schema_version_is_8(self):
        assert SCHEMA_VERSION == 8

    def test_v7_cache_is_a_clean_miss(self, tmp_path, monkeypatch):
        # An entry exactly as a v7 build wrote it: the config dict
        # inside the result, no fingerprint beside it.
        spec = make_spec()
        key = v7_key(spec, monkeypatch)
        path = tmp_path / key[:2] / (key + ".json")
        path.parent.mkdir()
        path.write_text(json.dumps(
            {"schema_version": 7, "result": execute_spec(spec)},
            separators=(",", ":")))
        cache = DiskCache(str(tmp_path))
        report = ExperimentEngine(jobs=1, cache_dir=cache) \
            .run_specs_report([spec])
        assert report.ok and report.cache_hits == 0
        assert cache.stats.corrupt_quarantined == 0
        assert cache.stats.stores == 1
        assert path.exists()  # untouched, not quarantined
        assert report.results[0].to_dict() == execute_spec(spec)

    def test_v7_job_folder_is_refused(self, tmp_path, monkeypatch):
        spec = make_spec()
        job = tmp_path / "job"
        job.mkdir()
        (job / MANIFEST_NAME).write_text(json.dumps({
            "journal_version": 2, "schema_version": 7,
            "cells": {v7_key(spec, monkeypatch): {}}, "failures": {},
        }))
        with pytest.raises(JournalSchemaError, match="schema_version 7"):
            ExperimentEngine(jobs=1, cache_dir=None).run_specs_report(
                [spec], journal=str(job))

    @pytest.mark.parametrize("journaled", [False, True])
    def test_other_fingerprint_is_quarantined_and_resimulated(
            self, tmp_path, journaled):
        spec = make_spec()
        other = SimConfig.for_design("baseline", num_cores=4,
                                     retry_threshold=9)
        # This spec's own result, filed under another config's name.
        root = str(tmp_path / "store")
        store = SweepJournal(root) if journaled else DiskCache(root)
        if journaled:
            store.ensure([spec], SCHEMA_VERSION)
        store.store(spec.cache_key(), execute_spec(spec),
                    other.fingerprint())
        engine = ExperimentEngine(jobs=1,
                                  cache_dir=None if journaled else store)
        report = engine.run_specs_report(
            [spec], journal=root if journaled else None)
        assert report.ok and report.cache_hits == 0
        quarantined = os.path.join(root, DiskCache.QUARANTINE_DIR,
                                   spec.cache_key() + ".json")
        assert os.path.exists(quarantined)
        with open(quarantined) as handle:
            assert json.load(handle)["config"] == other.fingerprint()
        if journaled:
            assert report.journal["corrupt_quarantined"] == 1
            assert report.journal["executed"] == 1
        else:
            assert store.stats.corrupt_quarantined == 1
        assert report.results[0].to_dict() == execute_spec(spec)
        # The rewritten entry names the spec's own config and serves.
        again = ExperimentEngine(jobs=1, cache_dir=DiskCache(root)) \
            .run_specs_report([spec])
        assert again.cache_hits == 1


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
