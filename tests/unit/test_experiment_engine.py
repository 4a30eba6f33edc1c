"""Unit tests for the experiment engine's cache and spec machinery."""

import json
import os

import pytest

from repro.sim import engine as engine_module
from repro.sim.config import SimConfig
from repro.sim.engine import (
    CellFailure,
    DiskCache,
    ExperimentEngine,
    ProgressEvent,
    RunSpec,
    execute_spec,
)
from repro.sim.journal import SweepJournal


def tiny_spec(**overrides):
    fields = dict(
        workload="mwobject",
        config=SimConfig.for_design("baseline", num_cores=2),
        seed=1,
        ops_per_thread=3,
    )
    fields.update(overrides)
    return RunSpec(**fields)


class TestRunSpec:
    def test_hashable_and_picklable(self):
        import pickle

        spec = tiny_spec()
        assert hash(spec) == hash(tiny_spec())
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_cache_key_stable(self):
        assert tiny_spec().cache_key() == tiny_spec().cache_key()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(workload="bst"),
            dict(seed=2),
            dict(ops_per_thread=4),
            dict(ops_per_thread=None),
            dict(config=SimConfig.for_design("clear", num_cores=2)),
            dict(config=SimConfig.for_design("baseline", num_cores=4)),
        ],
    )
    def test_cache_key_covers_every_input(self, overrides):
        assert tiny_spec().cache_key() != tiny_spec(**overrides).cache_key()

    def test_schema_version_bump_invalidates(self, monkeypatch):
        before = tiny_spec().cache_key()
        monkeypatch.setattr(engine_module, "SCHEMA_VERSION",
                            engine_module.SCHEMA_VERSION + 1)
        assert tiny_spec().cache_key() != before


class TestDiskCache:
    def test_miss_on_empty(self, tmp_path):
        assert DiskCache(str(tmp_path)).load("0" * 64) is None

    def test_store_then_load(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        cache.store("ab" * 32, {"cycles": 7})
        assert cache.load("ab" * 32) == {"cycles": 7}

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = "cd" * 32
        cache.store(key, {"cycles": 7})
        with open(cache._path(key), "w") as handle:
            handle.write("{not json")
        assert cache.load(key) is None

    def test_entry_without_result_reads_as_miss(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = "ef" * 32
        cache.store(key, {"cycles": 7})
        with open(cache._path(key), "w") as handle:
            json.dump({"unrelated": True}, handle)
        assert cache.load(key) is None

    def test_fanout_layout(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = "12" * 32
        cache.store(key, {})
        assert cache._path(key).endswith("/12/" + key + ".json")


class TestEngineCaching:
    def test_miss_then_hit(self, tmp_path):
        events = []
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path),
                                  progress=events.append)
        spec = tiny_spec()
        first = engine.run_spec(spec)
        assert [event.from_cache for event in events] == [False]

        events.clear()
        second = ExperimentEngine(jobs=1, cache_dir=str(tmp_path),
                                  progress=events.append).run_spec(spec)
        assert [event.from_cache for event in events] == [True]
        assert events[0].cache_hits == 1
        assert first.to_dict() == second.to_dict()

    def test_corrupt_entry_triggers_resimulation(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        spec = tiny_spec()
        first = engine.run_spec(spec)
        with open(engine.cache._path(spec.cache_key()), "w") as handle:
            handle.write("garbage")
        events = []
        second = ExperimentEngine(jobs=1, cache_dir=str(tmp_path),
                                  progress=events.append).run_spec(spec)
        assert [event.from_cache for event in events] == [False]
        assert first.to_dict() == second.to_dict()
        # ... and the overwritten entry serves the next run.
        assert ExperimentEngine(
            jobs=1, cache_dir=str(tmp_path)
        ).cache.load(spec.cache_key()) is not None

    def test_schema_bump_invalidates_cache(self, tmp_path, monkeypatch):
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        spec = tiny_spec()
        engine.run_spec(spec)
        monkeypatch.setattr(engine_module, "SCHEMA_VERSION",
                            engine_module.SCHEMA_VERSION + 1)
        events = []
        ExperimentEngine(jobs=1, cache_dir=str(tmp_path),
                         progress=events.append).run_spec(spec)
        assert [event.from_cache for event in events] == [False]

    def test_cache_disabled_by_none_dir(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=None)
        assert engine.cache is None
        engine.run_spec(tiny_spec())
        assert not list(tmp_path.iterdir())


def other_configs_result():
    """A clear cell's result, to be stored under a baseline spec's key."""
    return execute_spec(
        tiny_spec(config=SimConfig.for_design("clear", num_cores=2)))


def unparseable_config_result():
    """A baseline result whose config carries a field no longer known."""
    result = execute_spec(tiny_spec())
    result["config"]["backend"] = "batch"
    return result


STORED_MISMATCHES = {
    "another-configs-result": other_configs_result,
    "unparseable-config": unparseable_config_result,
}


class TestStoredConfigCheck:
    """A stored result serves a spec only if it stores the spec's config.

    Anything else is corrupt: the cache quarantines it, the journal
    skips it, both count it, and the cell simulates again.
    """

    @pytest.mark.parametrize("stored", sorted(STORED_MISMATCHES))
    def test_cache_quarantines_and_resimulates(self, tmp_path, stored):
        spec = tiny_spec()
        cache = DiskCache(str(tmp_path))
        cache.store(spec.cache_key(), STORED_MISMATCHES[stored](), spec)
        report = ExperimentEngine(jobs=1, cache_dir=cache).run_specs_report(
            [spec])
        assert report.ok and report.cache_hits == 0
        assert cache.stats.corrupt_quarantined == 1
        assert os.path.exists(os.path.join(
            str(tmp_path), DiskCache.QUARANTINE_DIR,
            spec.cache_key() + ".json"))
        assert report.results[0].config == spec.config
        assert report.results[0].to_dict() == execute_spec(spec)
        # ... and the rewritten entry serves the next run.
        again = ExperimentEngine(jobs=1, cache_dir=str(tmp_path)) \
            .run_specs_report([spec])
        assert again.cache_hits == 1

    @pytest.mark.parametrize("stored", sorted(STORED_MISMATCHES))
    def test_journal_skips_and_resimulates(self, tmp_path, stored):
        spec = tiny_spec()
        job = str(tmp_path / "job")
        journal = SweepJournal(job)
        journal.ensure([spec], engine_module.SCHEMA_VERSION)
        journal.record_result(spec.cache_key(), STORED_MISMATCHES[stored]())
        report = ExperimentEngine(jobs=1, cache_dir=None).run_specs_report(
            [spec], journal=job)
        assert report.ok
        assert report.journal["skipped_corrupt"] == 1
        assert report.journal["replayed_results"] == 0
        assert (report.journal["replayed"], report.journal["executed"]) \
            == (0, 1)
        assert report.results[0].config == spec.config
        assert report.results[0].to_dict() == execute_spec(spec)
        # The fresh record supersedes the skipped one on the next resume.
        resumed = ExperimentEngine(jobs=1, cache_dir=None).run_specs_report(
            [spec], journal=job)
        assert (resumed.journal["replayed"], resumed.journal["executed"]) \
            == (1, 0)
        assert resumed.journal["skipped_corrupt"] == 0

    def test_journal_skips_a_quarantine_record_it_cannot_parse(
            self, tmp_path):
        spec = tiny_spec()
        job = str(tmp_path / "job")
        journal = SweepJournal(job)
        journal.ensure([spec], engine_module.SCHEMA_VERSION)
        failure = CellFailure(spec=spec, kind="error", attempts=1,
                              message="injected").to_dict()
        failure["spec_config"]["backend"] = "batch"
        journal.record_failure(spec.cache_key(), failure)
        report = ExperimentEngine(jobs=1, cache_dir=None).run_specs_report(
            [spec], journal=job)
        assert report.ok
        assert report.journal["skipped_corrupt"] == 1
        assert report.journal["replayed_failures"] == 0
        assert report.results[0].to_dict() == execute_spec(spec)


class TestEngineExecution:
    def test_results_in_spec_order(self, tmp_path):
        specs = [tiny_spec(seed=seed) for seed in (3, 1, 2)]
        results = ExperimentEngine(jobs=1, cache_dir=None).run_specs(specs)
        assert [result.seed for result in results] == [3, 1, 2]

    def test_matches_direct_execution(self):
        spec = tiny_spec()
        engine_result = ExperimentEngine(jobs=1, cache_dir=None).run_spec(spec)
        assert engine_result.to_dict() == execute_spec(spec)

    def test_default_jobs_is_cpu_count(self):
        import os

        assert ExperimentEngine(cache_dir=None).jobs == (os.cpu_count() or 1)

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=0, cache_dir=None)

    def test_empty_spec_list(self):
        assert ExperimentEngine(jobs=1, cache_dir=None).run_specs([]) == []


class TestProgressEvents:
    def test_monotone_done_counts(self, tmp_path):
        events = []
        specs = [tiny_spec(seed=seed) for seed in (1, 2, 3)]
        ExperimentEngine(jobs=1, cache_dir=str(tmp_path),
                         progress=events.append).run_specs(specs)
        assert [event.done for event in events] == [1, 2, 3]
        assert all(event.total == 3 for event in events)
        assert all(not event.from_cache for event in events)

    def test_throughput_and_eta(self):
        event = ProgressEvent(done=5, total=10, cache_hits=0,
                              elapsed_seconds=2.0, spec=None,
                              from_cache=False)
        assert event.cells_per_second == 2.5
        assert event.eta_seconds == 2.0

    def test_zero_elapsed_guard(self):
        event = ProgressEvent(done=0, total=4, cache_hits=0,
                              elapsed_seconds=0.0, spec=None,
                              from_cache=False)
        assert event.cells_per_second == 0.0
        assert event.eta_seconds == 0.0
