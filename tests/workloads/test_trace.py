"""Recorded-trace round-trips: record, replay, and damage detection."""

import json
import os
import shutil

import pytest

from repro.common.errors import ConfigurationError, UnknownWorkloadError
from repro.sim.config import SimConfig
from repro.sim.machine import build_machine
from repro.workloads import (
    canonical_workload_name,
    make_workload,
    workload_cache_token,
)
from repro.workloads.trace import (
    MANIFEST_FILENAME,
    TraceFormatError,
    TraceIntegrityError,
    TraceWorkload,
    read_manifest,
    record_trace,
)

CONFIG = SimConfig(num_cores=4, design="clear")


def live_run(name, config=CONFIG, seed=3, ops=5):
    machine = build_machine(
        config, make_workload(name, ops_per_thread=ops), seed=seed
    )
    stats = machine.run()
    return stats, dict(machine.memory.snapshot())


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One arrayswap recording shared by the read-only tests."""
    folder = str(tmp_path_factory.mktemp("trace") / "arrayswap")
    manifest = record_trace(
        "arrayswap", folder, config=CONFIG, seed=3, ops_per_thread=5
    )
    return folder, manifest


class TestRoundTrip:
    def test_replay_matches_live_run(self, recorded):
        folder, manifest = recorded
        live_stats, live_memory = live_run("arrayswap")
        assert manifest["total_commits"] == live_stats.total_commits

        replay = TraceWorkload(folder)
        machine = build_machine(CONFIG, replay, seed=3)
        replay_stats = machine.run()
        assert replay_stats.total_commits == live_stats.total_commits
        assert dict(machine.memory.snapshot()) == live_memory

    def test_replay_through_registry_with_monitor(self, recorded):
        folder, _ = recorded
        _, live_memory = live_run("arrayswap")
        config = CONFIG.replaced(oracle="online")
        workload = make_workload("trace:" + folder, ops_per_thread=99)
        machine = build_machine(config, workload, seed=3)
        machine.run()
        assert dict(machine.memory.snapshot()) == live_memory

    def test_runtime_pokes_round_trip(self, tmp_path):
        # hashmap pokes memory between ARs (rehash initialization);
        # the trace must capture and replay those writes.
        folder = str(tmp_path / "hashmap")
        record_trace(
            "hashmap", folder, config=CONFIG, seed=2, ops_per_thread=4
        )
        live_stats, live_memory = live_run("hashmap", seed=2, ops=4)
        machine = build_machine(CONFIG, TraceWorkload(folder), seed=2)
        stats = machine.run()
        assert stats.total_commits == live_stats.total_commits
        assert dict(machine.memory.snapshot()) == live_memory

    def test_extra_threads_finish_immediately(self, recorded):
        folder, manifest = recorded
        config = CONFIG.replaced(num_cores=6)
        machine = build_machine(config, TraceWorkload(folder), seed=3)
        stats = machine.run()
        assert stats.total_commits == manifest["total_commits"]

    def test_undercut_threads_rejected(self, recorded):
        folder, _ = recorded
        config = CONFIG.replaced(num_cores=2)
        with pytest.raises(ConfigurationError):
            build_machine(config, TraceWorkload(folder), seed=3)

    def test_ops_per_thread_is_ignored(self, recorded):
        folder, manifest = recorded
        workload = TraceWorkload(folder, ops_per_thread=1)
        machine = build_machine(CONFIG, workload, seed=3)
        stats = machine.run()
        assert stats.total_commits == manifest["total_commits"]

    def test_online_monitor_stays_armed_for_recording(self, tmp_path):
        folder = str(tmp_path / "monitored")
        monitored = CONFIG.replaced(oracle="online")
        record_trace("arrayswap", folder, config=monitored, seed=3,
                     ops_per_thread=5)
        # No downgrade: the recorded fingerprint is the monitored config's.
        manifest = read_manifest(folder)
        assert manifest["config_fingerprint"] == monitored.fingerprint()


class TestNamespace:
    def test_canonical_name_is_absolute(self, recorded):
        folder, _ = recorded
        relative = os.path.relpath(folder)
        assert (canonical_workload_name("trace:" + relative)
                == "trace:" + os.path.abspath(folder))

    def test_cache_token_is_content_digest(self, recorded):
        folder, manifest = recorded
        assert (workload_cache_token("trace:" + folder)
                == manifest["content_digest"])

    def test_missing_folder_is_unknown_workload(self, tmp_path):
        with pytest.raises(UnknownWorkloadError):
            make_workload("trace:" + str(tmp_path / "absent"))


def _copy(recorded, tmp_path):
    folder, _ = recorded
    clone = str(tmp_path / "clone")
    shutil.copytree(folder, clone)
    return clone


class TestDamage:
    """Torn and corrupt folders must fail loudly, never replay wrong."""

    def test_torn_thread_file(self, recorded, tmp_path):
        # The journal suite's torn-tail trick: cut the file mid-record,
        # partway through its final line.
        clone = _copy(recorded, tmp_path)
        path = os.path.join(clone, "thread-00.jsonl")
        with open(path, "rb") as handle:
            intact = handle.read()
        boundary = intact.rindex(b"\n", 0, len(intact) - 1) + 1
        torn = intact[: boundary + (len(intact) - boundary) // 2]
        with open(path, "wb") as handle:
            handle.write(torn)
        with pytest.raises(TraceIntegrityError):
            TraceWorkload(clone)

    def test_flipped_byte_in_memory_image(self, recorded, tmp_path):
        clone = _copy(recorded, tmp_path)
        path = os.path.join(clone, "memory.json")
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(TraceIntegrityError):
            TraceWorkload(clone)

    def test_missing_thread_file(self, recorded, tmp_path):
        clone = _copy(recorded, tmp_path)
        os.unlink(os.path.join(clone, "thread-01.jsonl"))
        with pytest.raises(TraceIntegrityError):
            TraceWorkload(clone)

    def test_undercounted_actions(self, recorded, tmp_path):
        # Drop a whole record but keep the digest consistent by editing
        # the manifest too — the action count cross-check must fire.
        clone = _copy(recorded, tmp_path)
        path = os.path.join(clone, "thread-00.jsonl")
        with open(path, "rb") as handle:
            intact = handle.read()
        boundary = intact.rindex(b"\n", 0, len(intact) - 1) + 1
        with open(path, "wb") as handle:
            handle.write(intact[:boundary])
        manifest_path = os.path.join(clone, MANIFEST_FILENAME)
        manifest = json.loads(open(manifest_path).read())
        import hashlib

        manifest["threads"][0]["sha256"] = hashlib.sha256(
            intact[:boundary]
        ).hexdigest()
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(TraceIntegrityError):
            TraceWorkload(clone)

    def test_wrong_format_rejected(self, recorded, tmp_path):
        clone = _copy(recorded, tmp_path)
        manifest_path = os.path.join(clone, MANIFEST_FILENAME)
        manifest = json.loads(open(manifest_path).read())
        manifest["format"] = "not-a-trace"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(TraceFormatError):
            read_manifest(clone)

    def test_future_version_rejected(self, recorded, tmp_path):
        clone = _copy(recorded, tmp_path)
        manifest_path = os.path.join(clone, MANIFEST_FILENAME)
        manifest = json.loads(open(manifest_path).read())
        manifest["version"] = 99
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(TraceFormatError):
            read_manifest(clone)

    def test_garbage_manifest_rejected(self, recorded, tmp_path):
        clone = _copy(recorded, tmp_path)
        with open(os.path.join(clone, MANIFEST_FILENAME), "w") as handle:
            handle.write("{not json")
        with pytest.raises(TraceFormatError):
            read_manifest(clone)
