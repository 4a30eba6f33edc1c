"""Unit tests for the hardened DiskCache (quarantine, ENOSPC, sharing)."""

import json
import multiprocessing
import os

import pytest

from repro.sim.config import SimConfig
from repro.sim.engine import (
    SCHEMA_VERSION,
    DiskCache,
    ExperimentEngine,
    RunSpec,
)
from repro.sim.enginefaults import EngineFaultPlan, FaultyIO
from tests.conftest import FINGERPRINT


class TestTempFileHygiene:
    def test_failed_serialization_leaves_no_temp_litter(self, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        with pytest.raises(TypeError):
            # not serializable
            cache.store("badkey", {"payload": object()}, FINGERPRINT)
        litter = [
            name
            for _, _, names in os.walk(str(tmp_path / "cache"))
            for name in names
            if name.endswith(".tmp")
        ]
        assert litter == []

    def test_failed_store_then_good_store_works(self, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        with pytest.raises(TypeError):
            cache.store("key", {"payload": object()}, FINGERPRINT)
        cache.store("key", {"payload": 1}, FINGERPRINT)
        assert cache.load("key") == {"payload": 1}


class TestQuarantine:
    def test_corrupt_entry_moved_and_counted(self, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        cache.store("deadbeef", {"v": 1}, FINGERPRINT)
        with open(cache._path("deadbeef"), "wb") as handle:
            handle.write(b"\x00not json at all")
        assert cache.load("deadbeef") is None
        assert cache.stats.corrupt_quarantined == 1
        quarantined = os.path.join(
            cache.root, DiskCache.QUARANTINE_DIR, "deadbeef.json"
        )
        assert os.path.exists(quarantined)
        assert not os.path.exists(cache._path("deadbeef"))

    def test_malformed_object_quarantined(self, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        cache.store("deadbeef", {"v": 1}, FINGERPRINT)
        with open(cache._path("deadbeef"), "w") as handle:
            json.dump({"schema_version": SCHEMA_VERSION}, handle)  # no result
        assert cache.load("deadbeef") is None
        assert cache.stats.corrupt_quarantined == 1

    def test_stale_schema_is_plain_miss_not_quarantine(self, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        cache.store("deadbeef", {"v": 1}, FINGERPRINT)
        with open(cache._path("deadbeef"), "w") as handle:
            json.dump({"schema_version": SCHEMA_VERSION - 1, "result": {}},
                      handle)
        assert cache.load("deadbeef") is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt_quarantined == 0
        assert os.path.exists(cache._path("deadbeef"))

    def test_quarantined_key_rewritable(self, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        cache.store("deadbeef", {"v": 1}, FINGERPRINT)
        with open(cache._path("deadbeef"), "wb") as handle:
            handle.write(b"garbage")
        assert cache.load("deadbeef") is None
        cache.store("deadbeef", {"v": 2}, FINGERPRINT)
        assert cache.load("deadbeef") == {"v": 2}


class TestEnospcDegradation:
    def make_degraded(self, tmp_path):
        io = FaultyIO(EngineFaultPlan(seed=1, enospc_rate=1.0))
        cache = DiskCache(str(tmp_path / "cache"), io=io)
        cache.store("key", {"v": 1}, FINGERPRINT)
        return cache

    def test_enospc_disables_cache(self, tmp_path):
        cache = self.make_degraded(tmp_path)
        assert cache.disabled
        assert cache.stats.enospc_degraded

    def test_disabled_cache_is_inert(self, tmp_path):
        cache = self.make_degraded(tmp_path)
        cache.store("other", {"v": 2}, FINGERPRINT)  # must not raise
        assert cache.load("other") is None
        assert cache.load("key") is None

    def test_other_oserrors_propagate(self, tmp_path):
        class ExplodingIO(FaultyIO):
            def write_atomic(self, path, data):
                raise OSError("not enospc")

        cache = DiskCache(str(tmp_path / "cache"),
                          io=ExplodingIO(EngineFaultPlan()))
        with pytest.raises(OSError):
            cache.store("key", {"v": 1}, FINGERPRINT)
        assert not cache.disabled


def entry_value(key):
    return {"key": key, "pad": key * 4}


def store_keys(root, keys, barrier, rounds=3):
    """One writer process: store every key ``rounds`` times."""
    cache = DiskCache(root)
    barrier.wait(timeout=60)
    for _ in range(rounds):
        for key in keys:
            cache.store(key, entry_value(key), FINGERPRINT)


class TestSharedRoot:
    """Writers sharing one root need no lock.

    An entry's bytes are a pure function of its key and land by an
    atomic rename, so concurrent stores of one key leave the same file
    whichever rename lands last.
    """

    def test_two_handles_same_root_interleave(self, tmp_path):
        a = DiskCache(str(tmp_path / "cache"))
        b = DiskCache(str(tmp_path / "cache"))
        a.store("key-a", {"v": 1}, FINGERPRINT)
        b.store("key-b", {"v": 2}, FINGERPRINT)
        assert a.load("key-b") == {"v": 2}
        assert b.load("key-a") == {"v": 1}

    def test_two_processes_store_overlapping_keys(self, tmp_path):
        root = str(tmp_path / "cache")
        keys = ["%064x" % index for index in range(48)]
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        workers = [
            context.Process(target=store_keys, args=(root, part, barrier))
            for part in (keys[:32], keys[16:])  # 16 keys overlap
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert [worker.exitcode for worker in workers] == [0, 0]
        cache = DiskCache(root)
        for key in keys:
            assert cache.load(key) == entry_value(key)
        assert cache.stats.corrupt_quarantined == 0
        litter = [name for _, _, names in os.walk(root)
                  for name in names if name.endswith(".tmp")]
        assert litter == []


class TestEntryFormat:
    def test_entry_stores_the_config_once(self, tmp_path):
        spec = RunSpec(
            workload="mwobject",
            config=SimConfig.for_design("baseline", num_cores=2),
            seed=1,
            ops_per_thread=3,
        )
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
        engine.run_spec(spec)
        with open(engine.cache._path(spec.cache_key()), "rb") as handle:
            data = handle.read()
        # Once, as its fingerprint: the result dict holds no config.
        entry = json.loads(data)
        assert set(entry) == {"schema_version", "config", "result"}
        assert entry["config"] == spec.config.fingerprint()
        assert "config" not in entry["result"]
        assert data.count(spec.config.fingerprint().encode("utf-8")) == 1
        config = json.dumps(spec.config.to_dict(), separators=(",", ":"))
        assert config.encode("utf-8") not in data
