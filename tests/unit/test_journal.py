"""Unit tests for the crash-safe sweep journal (repro.sim.journal)."""

import json
import os

import pytest

from repro.common.errors import JournalError, JournalSchemaError
from repro.sim.config import SimConfig
from repro.sim.engine import SCHEMA_VERSION, RunSpec
from repro.sim.journal import (
    JOURNAL_VERSION,
    MANIFEST_NAME,
    SweepJournal,
    spec_summary,
)


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
    def test_roundtrip(self, tmp_path):
        journal = SweepJournal(tmp_path / "job")
        journal.ensure(make_specs(2), SCHEMA_VERSION)
        journal.record_result("k1", {"cycles": 10})
        journal.record_failure("k2", {"error": "boom"})
        fresh = SweepJournal(journal.path)
        records = fresh.replay()
        assert records["k1"]["status"] == "done"
        assert records["k1"]["result"] == {"cycles": 10}
        assert records["k2"]["status"] == "failed"
        assert records["k2"]["failure"] == {"error": "boom"}
        assert fresh.replayed_results == 1
        assert fresh.replayed_failures == 1

    def test_replay_empty_log(self, tmp_path):
        journal = SweepJournal(tmp_path / "job")
        journal.ensure(make_specs(1), SCHEMA_VERSION)
        assert SweepJournal(journal.path).replay() == {}

    def test_last_record_per_key_wins(self, tmp_path):
        journal = SweepJournal(tmp_path / "job")
        journal.record_result("k", {"v": 1})
        journal.record_failure("k", {"error": "boom"})
        journal.record_result("k", {"v": 2})
        records = SweepJournal(journal.path).replay()
        assert records["k"]["status"] == "done"
        assert records["k"]["result"] == {"v": 2}

    def test_records_visible_through_live_instance(self, tmp_path):
        journal = SweepJournal(tmp_path / "job")
        assert journal.replay() == {}
        journal.record_result("k", {"v": 1})
        assert journal.replay()["k"]["result"] == {"v": 1}
        assert journal.recorded == 1

    def test_torn_tail_dropped_and_truncated(self, tmp_path):
        journal = SweepJournal(tmp_path / "job")
        journal.record_result("k1", {"v": 1})
        journal.record_result("k2", {"v": 2})
        with open(journal.log_path, "rb") as handle:
            intact = handle.read()
        boundary = intact.rindex(b"\n", 0, len(intact) - 1) + 1
        # Tear the final record mid-way: strict prefix, no newline.
        torn = intact[: boundary + (len(intact) - boundary) // 2]
        with open(journal.log_path, "wb") as handle:
            handle.write(torn)
        fresh = SweepJournal(journal.path)
        records = fresh.replay()
        assert set(records) == {"k1"}
        assert fresh.dropped_tail == 1
        # The repair truncated the torn bytes: appends start clean.
        assert open(journal.log_path, "rb").read() == intact[:boundary]
        fresh.record_result("k3", {"v": 3})
        again = SweepJournal(journal.path).replay()
        assert set(again) == {"k1", "k3"}

    def test_tail_missing_only_newline_is_kept(self, tmp_path):
        journal = SweepJournal(tmp_path / "job")
        journal.record_result("k1", {"v": 1})
        journal.record_result("k2", {"v": 2})
        with open(journal.log_path, "rb+") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.truncate()  # lose just the final newline
        fresh = SweepJournal(journal.path)
        records = fresh.replay()
        assert set(records) == {"k1", "k2"}
        assert fresh.dropped_tail == 0
        # The record was re-sealed with a newline.
        assert open(journal.log_path, "rb").read().endswith(b"}\n")

    def test_interior_corruption_skipped(self, tmp_path):
        journal = SweepJournal(tmp_path / "job")
        journal.record_result("k1", {"v": 1})
        with open(journal.log_path, "ab") as handle:
            handle.write(b"\x00garbage not json\n")
        journal.record_result("k2", {"v": 2})
        fresh = SweepJournal(journal.path)
        records = fresh.replay()
        assert set(records) == {"k1", "k2"}
        assert fresh.skipped_corrupt == 1

    @pytest.mark.parametrize(
        "line",
        [
            b'{"no": "key"}',
            b'{"key": 5, "status": "done", "result": {}}',
            b'{"key": "k", "status": "done"}',
            b'{"key": "k", "status": "failed"}',
            b'{"key": "k", "status": "unknown", "result": {}}',
            b'["not", "a", "dict"]',
        ],
    )
    def test_malformed_records_rejected(self, tmp_path, line):
        journal = SweepJournal(tmp_path / "job")
        os.makedirs(journal.path)
        with open(journal.log_path, "xb") as handle:
            handle.write(line + b"\n")
        fresh = SweepJournal(journal.path)
        assert fresh.replay() == {}
        assert fresh.skipped_corrupt == 1

    def test_counters_dict(self, tmp_path):
        journal = SweepJournal(tmp_path / "job")
        journal.record_result("k", {"v": 1})
        counters = journal.counters()
        assert counters == {
            "replayed_results": 0,
            "replayed_failures": 0,
            "recorded": 1,
            "dropped_tail": 0,
            "skipped_corrupt": 0,
        }
