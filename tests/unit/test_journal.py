"""Unit tests for the crash-safe job folder (repro.sim.journal)."""

import collections
import json
import os

import pytest

from repro.common.diskio import DiskIO
from repro.common.errors import JournalError, JournalSchemaError
from repro.sim.config import SimConfig
from repro.sim.engine import (
    SCHEMA_VERSION,
    CellFailure,
    DiskCache,
    ExperimentEngine,
    RunSpec,
    execute_spec,
)
from repro.sim.enginefaults import EngineFaultPlan, FaultyIO
from repro.sim.journal import (
    JOURNAL_VERSION,
    MANIFEST_NAME,
    SweepJournal,
    spec_summary,
)
from tests.conftest import FINGERPRINT


def tiny_spec(**overrides):
    fields = dict(
        workload="mwobject",
        config=SimConfig.for_design("baseline", num_cores=2),
        seed=1,
        ops_per_thread=3,
    )
    fields.update(overrides)
    return RunSpec(**fields)


def make_specs(n=3):
    return [tiny_spec(seed=seed) for seed in range(1, n + 1)]


def fail_seed_two(spec):
    if spec.seed == 2:
        raise ValueError("injected deterministic failure")
    return execute_spec(spec)


def bomb(spec):
    raise AssertionError("cell executed although its result was stored")


class TestManifest:
    def test_ensure_creates_folder_and_manifest(self, tmp_path):
        specs = make_specs()
        journal = SweepJournal(tmp_path / "job")
        assert not journal.exists()
        journal.ensure(specs, SCHEMA_VERSION)
        assert journal.exists()
        with open(os.path.join(journal.path, MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert manifest["journal_version"] == JOURNAL_VERSION
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert set(manifest["cells"]) == {s.cache_key() for s in specs}
        assert manifest["failures"] == {}

    def test_spec_summary_is_human_readable(self):
        spec = tiny_spec()
        summary = spec_summary(spec)
        assert summary["workload"] == "mwobject"
        assert summary["seed"] == 1
        assert summary["config"] == spec.config.fingerprint()

    def test_reensure_same_specs_is_idempotent(self, tmp_path):
        specs = make_specs()
        journal = SweepJournal(tmp_path / "job")
        journal.ensure(specs, SCHEMA_VERSION)
        before = open(journal.manifest_path, "rb").read()
        SweepJournal(journal.path).ensure(specs, SCHEMA_VERSION)
        assert open(journal.manifest_path, "rb").read() == before

    def test_ensure_merges_new_cells(self, tmp_path):
        journal = SweepJournal(tmp_path / "job")
        journal.ensure(make_specs(2), SCHEMA_VERSION)
        extra = tiny_spec(seed=9)
        SweepJournal(journal.path).ensure([extra], SCHEMA_VERSION)
        with open(journal.manifest_path) as handle:
            cells = json.load(handle)["cells"]
        assert extra.cache_key() in cells
        assert len(cells) == 3

    def test_journal_version_mismatch_raises(self, tmp_path):
        journal = SweepJournal(tmp_path / "job")
        journal.ensure(make_specs(1), SCHEMA_VERSION)
        with open(journal.manifest_path) as handle:
            manifest = json.load(handle)
        manifest["journal_version"] = JOURNAL_VERSION + 1
        with open(journal.manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(JournalSchemaError):
            SweepJournal(journal.path).ensure(make_specs(1), SCHEMA_VERSION)

    def test_pre_change_folder_refused(self, tmp_path):
        """A folder from the JSONL-log format is refused, not half-read."""
        job = tmp_path / "job"
        job.mkdir()
        (job / MANIFEST_NAME).write_text(json.dumps({
            "journal_version": 1, "schema_version": SCHEMA_VERSION,
            "cells": {tiny_spec().cache_key(): {}},
        }))
        (job / "journal.jsonl").write_text(
            '{"key": "k", "status": "done", "result": {}}\n')
        with pytest.raises(JournalSchemaError, match="journal_version 1"):
            SweepJournal(job).ensure([tiny_spec()], SCHEMA_VERSION)
        with pytest.raises(JournalSchemaError):
            ExperimentEngine(jobs=1, cache_dir=None).run_specs_report(
                [tiny_spec()], journal=str(job))

    def test_schema_version_mismatch_raises(self, tmp_path):
        journal = SweepJournal(tmp_path / "job")
        journal.ensure(make_specs(1), SCHEMA_VERSION)
        with pytest.raises(JournalSchemaError):
            SweepJournal(journal.path).ensure(
                make_specs(1), SCHEMA_VERSION + 1
            )

    def test_corrupt_manifest_raises_journal_error(self, tmp_path):
        journal = SweepJournal(tmp_path / "job")
        journal.ensure(make_specs(1), SCHEMA_VERSION)
        with open(journal.manifest_path, "wb") as handle:
            handle.write(b"\x00not json")
        with pytest.raises(JournalError):
            SweepJournal(journal.path).ensure(make_specs(1), SCHEMA_VERSION)

    def test_non_object_manifest_raises(self, tmp_path):
        journal = SweepJournal(tmp_path / "job")
        journal.ensure(make_specs(1), SCHEMA_VERSION)
        with open(journal.manifest_path, "w") as handle:
            json.dump([1, 2, 3], handle)
        with pytest.raises(JournalError):
            SweepJournal(journal.path).ensure(make_specs(1), SCHEMA_VERSION)


class TestRecordReplay:
    """What a sweep records in its job folder, a fresh handle serves."""

    def test_roundtrip(self, tmp_path):
        specs = make_specs(2)
        job = tmp_path / "job"
        first = ExperimentEngine(
            jobs=1, cache_dir=None, execute=fail_seed_two,
        ).run_specs_report(specs, journal=SweepJournal(job))
        fresh = SweepJournal(job)
        manifest = fresh.ensure(specs, SCHEMA_VERSION)
        # The entry names its config by fingerprint instead of storing it.
        stored = first.results[0].to_dict()
        del stored["config"]
        assert fresh.load(specs[0].cache_key(),
                          specs[0].config.fingerprint()) == stored
        assert manifest["failures"] == {
            specs[1].cache_key(): first.failures[0].to_dict(),
        }

    def test_last_record_per_key_wins(self, tmp_path):
        journal = SweepJournal(tmp_path / "job")
        journal.store("k", {"v": 1}, FINGERPRINT)
        journal.store("k", {"v": 2}, FINGERPRINT)
        assert SweepJournal(journal.path).load("k") == {"v": 2}

    def test_finished_entry_beats_a_remembered_failure(self, tmp_path):
        spec = tiny_spec()
        journal = SweepJournal(tmp_path / "job")
        journal.ensure([spec], SCHEMA_VERSION)
        journal.record_failure(CellFailure(
            spec=spec, kind="timeout", attempts=3, message="slow host"))
        journal.store(spec.cache_key(), execute_spec(spec),
                      spec.config.fingerprint())
        report = ExperimentEngine(
            jobs=1, cache_dir=None, execute=bomb,
        ).run_specs_report([spec], journal=journal.path)
        assert report.ok
        assert report.journal["replayed"] == 1

    def test_records_visible_through_live_instance(self, tmp_path):
        spec = tiny_spec()
        journal = SweepJournal(tmp_path / "job")
        journal.ensure([spec], SCHEMA_VERSION)
        assert journal.load("k") is None
        journal.store("k", {"v": 1}, FINGERPRINT)
        assert journal.load("k") == {"v": 1}
        journal.record_failure(CellFailure(
            spec=spec, kind="error", attempts=1, message="boom"))
        assert journal.manifest["failures"][spec.cache_key()]["message"] \
            == "boom"
        assert journal.stats.stores == 1

    def test_interior_corruption_skipped(self, tmp_path):
        specs = make_specs(3)
        job = str(tmp_path / "job")
        first = ExperimentEngine(jobs=1, cache_dir=None).run_specs_report(
            specs, journal=job)
        key = specs[1].cache_key()
        with open(SweepJournal(job)._path(key), "wb") as handle:
            handle.write(b"\x00garbage not json")
        resumed = ExperimentEngine(jobs=1, cache_dir=None).run_specs_report(
            specs, journal=job)
        assert resumed.ok
        assert (resumed.journal["replayed"], resumed.journal["executed"],
                resumed.journal["corrupt_quarantined"]) == (2, 1, 1)
        assert os.path.exists(
            os.path.join(job, DiskCache.QUARANTINE_DIR, key + ".json"))
        assert ([r.to_dict() for r in resumed.results]
                == [r.to_dict() for r in first.results])

    @pytest.mark.parametrize(
        "data",
        [
            b'{"no": "key"}',
            b'{"key": 5, "status": "done", "result": {}}',
            b'{"key": "k", "status": "done"}',
            b'{"key": "k", "status": "failed"}',
            b'{"key": "k", "status": "unknown", "result": {}}',
            b'["not", "a", "dict"]',
        ],
    )
    def test_malformed_records_rejected(self, tmp_path, data):
        """An entry that holds no servable result is never served."""
        spec = tiny_spec()
        journal = SweepJournal(tmp_path / "job")
        journal.ensure([spec], SCHEMA_VERSION)
        path = journal._path(spec.cache_key())
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as handle:
            handle.write(data)
        report = ExperimentEngine(jobs=1, cache_dir=None).run_specs_report(
            [spec], journal=journal.path)
        assert report.ok
        assert (report.journal["replayed"], report.journal["executed"]) \
            == (0, 1)
        assert report.results[0].to_dict() == execute_spec(spec)

    def test_counters_dict(self, tmp_path):
        job = str(tmp_path / "job")
        report = ExperimentEngine(jobs=1, cache_dir=None).run_specs_report(
            make_specs(2), journal=job)
        assert report.journal == {
            "job_dir": job,
            "replayed": 0,
            "replayed_failures": 0,
            "executed": 2,
            "corrupt_quarantined": 0,
            "enospc_degraded": False,
        }


class CountingIO(DiskIO):
    """A real DiskIO that counts atomic writes per file name."""

    def __init__(self):
        self.writes = collections.Counter()

    def write_atomic(self, path, data):
        self.writes[os.path.basename(path)] += 1
        super().write_atomic(path, data)


class TestOneStore:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_write_per_finished_cell(self, tmp_path, jobs):
        specs = make_specs(3)
        io = CountingIO()
        cache_dir = tmp_path / "cache"
        journal = SweepJournal(tmp_path / "job", io=io)
        report = ExperimentEngine(
            jobs=jobs, cache_dir=str(cache_dir), execute=fail_seed_two,
        ).run_specs_report(specs, journal=journal)
        assert len(report.failures) == 1
        finished = [spec for spec in specs if spec.seed != 2]
        # One entry per finished cell; the manifest once at the start
        # and once for the quarantine.
        expected = {spec.cache_key() + ".json": 1 for spec in finished}
        expected[MANIFEST_NAME] = 2
        assert io.writes == expected
        assert not cache_dir.exists()  # the job folder replaced the cache

    def test_enospc_degrades_the_store_to_off(self, tmp_path):
        specs = make_specs(2)
        job = tmp_path / "job"
        SweepJournal(job).ensure(specs, SCHEMA_VERSION)
        full = SweepJournal(job, io=FaultyIO(
            EngineFaultPlan(seed=1, enospc_rate=1.0)))
        report = ExperimentEngine(
            jobs=1, cache_dir=None, execute=fail_seed_two,
        ).run_specs_report(specs, journal=full)
        assert len(report.failures) == 1 and report.completed == 1
        assert report.journal["enospc_degraded"]
        assert full.disabled
        # Nothing was stored, so a resume executes again.
        resumed = ExperimentEngine(jobs=1, cache_dir=None).run_specs_report(
            specs, journal=str(job))
        assert resumed.ok
        assert resumed.journal["replayed"] == 0

