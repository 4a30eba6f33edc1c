"""The sweep read path: one config per configuration, one decode per cell.

A warm pass re-reads a matrix from a filled cache. These tests pin what
it does by counting, not timing:

- the full micro matrix runs cold once into a cache (its figure payload
  is the committed golden), and every cell's result dict decodes
  losslessly against its spec's config;
- a warm pass over that cache constructs and fingerprints each distinct
  :class:`SimConfig` once, however many cells share it, and reproduces
  the cold payload;
- the fingerprint memo never leaks into a config's copies, pickles,
  serialized form, equality or hash;
- a warm pass decodes and projects without a Python-level call per
  field: no ``Counter.__init__``, no ``Enum.__hash__`` (the enums hash
  by identity) and no ``EnumMeta.__call__`` (value maps instead).
"""

import collections
import enum
import hashlib
import json
import os
import pickle

import pytest

from repro.analysis.experiments import (
    CONFIG_LETTERS,
    ExperimentSettings,
    figure_payload,
    run_config_matrix,
)
from repro.sim import config as config_module
from repro.sim.config import SimConfig
from repro.sim.engine import ExperimentEngine, execute_spec
from repro.sim.runner import RunResult

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "goldens", "figures_micro.json"
)


@pytest.fixture(scope="module")
def cold_micro(tmp_path_factory):
    """The micro matrix run cold into a cache: (cache dir, payload, cells).

    ``cells`` pairs every spec with the result dict its worker returned.
    """
    cache_dir = str(tmp_path_factory.mktemp("micro-cache"))
    cells = []

    def recording_execute(spec):
        result = execute_spec(spec)
        cells.append((spec, result))
        return result

    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir,
                              execute=recording_execute)
    matrix = run_config_matrix(ExperimentSettings.micro(), engine=engine)
    return cache_dir, figure_payload(matrix), cells


@pytest.fixture
def counters(monkeypatch):
    """Count SimConfig constructions and fingerprint hashes."""
    counts = {"configs": 0, "hashes": 0}
    post_init = SimConfig.__post_init__

    def counting_post_init(self):
        counts["configs"] += 1
        post_init(self)

    class CountingHashlib:
        @staticmethod
        def sha256(data):
            counts["hashes"] += 1
            return hashlib.sha256(data)

    monkeypatch.setattr(SimConfig, "__post_init__", counting_post_init)
    monkeypatch.setattr(config_module, "hashlib", CountingHashlib)
    return counts


class TestColdMatrix:
    def test_payload_matches_golden(self, cold_micro):
        _, payload, _ = cold_micro
        with open(GOLDEN_PATH) as handle:
            golden = json.load(handle)
        assert json.loads(json.dumps(payload)) == golden

    def test_decode_against_spec_config_is_lossless(self, cold_micro):
        _, _, cells = cold_micro
        assert len(cells) == len(ExperimentSettings.micro().expand_specs())
        for spec, data in cells:
            shared = RunResult.from_dict(data, config=spec.config)
            plain = RunResult.from_dict(data)
            assert shared.config is spec.config
            assert shared.to_dict() == data
            assert plain.config == shared.config
            assert plain.to_dict() == shared.to_dict()


class TestOncePerConfiguration:
    def test_warm_pass_builds_and_hashes_each_config_once(
            self, cold_micro, counters):
        cache_dir, cold_payload, _ = cold_micro
        settings = ExperimentSettings.micro()
        engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
        matrix, report = run_config_matrix(settings, engine=engine,
                                           allow_partial=True)
        payload = figure_payload(matrix)
        assert report.cache_hits == report.total == 152
        assert payload == cold_payload
        distinct = len(CONFIG_LETTERS)
        assert counters == {"configs": distinct, "hashes": distinct}

    def test_threshold_sweep_specs_share_configs(self, counters):
        settings = ExperimentSettings(retry_sweep=True,
                                      sweep_thresholds=(1, 2, 4))
        specs = settings.expand_specs()
        distinct = len(CONFIG_LETTERS) * 3
        assert len({id(spec.config) for spec in specs}) == distinct
        assert len(specs) == distinct * len(settings.benchmarks) * 3
        assert counters["configs"] == distinct


@pytest.fixture
def per_field_calls(monkeypatch):
    """Count the Python-level calls a decode used to make per field."""
    counts = {"Counter.__init__": 0, "Enum.__hash__": 0,
              "EnumMeta.__call__": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(collections.Counter, "__init__", counting(
        "Counter.__init__", collections.Counter.__init__))
    monkeypatch.setattr(enum.Enum, "__hash__", counting(
        "Enum.__hash__", enum.Enum.__hash__))
    monkeypatch.setattr(enum.EnumMeta, "__call__", counting(
        "EnumMeta.__call__", enum.EnumMeta.__call__))
    return counts


class TestNoPerFieldCalls:
    def test_counting_sees_the_calls_it_counts(self, per_field_calls):
        collections.Counter({"a": 1})
        hash(enum.Enum("Probe", "A").A)
        assert per_field_calls == {"Counter.__init__": 1,
                                   "Enum.__hash__": 1,
                                   "EnumMeta.__call__": 1}

    def test_warm_pass_makes_no_per_field_calls(self, cold_micro,
                                                per_field_calls):
        cache_dir, cold_payload, _ = cold_micro
        engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
        matrix, report = run_config_matrix(ExperimentSettings.micro(),
                                           engine=engine, allow_partial=True)
        payload = figure_payload(matrix)
        assert report.cache_hits == report.total == 152
        assert payload == cold_payload
        assert per_field_calls == {"Counter.__init__": 0,
                                   "Enum.__hash__": 0,
                                   "EnumMeta.__call__": 0}


class TestFingerprintMemo:
    def test_replaced_config_gets_a_fresh_fingerprint(self):
        config = SimConfig.for_design("clear", num_cores=4)
        first = config.fingerprint()
        changed = config.replaced(retry_threshold=9)
        assert changed.fingerprint() != first
        assert changed.fingerprint() == SimConfig.for_design(
            "clear", num_cores=4, retry_threshold=9).fingerprint()
        assert config.replaced().fingerprint() == first

    @pytest.mark.parametrize("hashed_first", [True, False])
    def test_pickled_config_keeps_an_equal_fingerprint(self, hashed_first):
        config = SimConfig.for_design("baseline", num_cores=8)
        if hashed_first:
            config.fingerprint()
        copy = pickle.loads(pickle.dumps(config))
        assert copy == config
        assert copy.fingerprint() == SimConfig.for_design(
            "baseline", num_cores=8).fingerprint()

    def test_dict_equality_and_hash_ignore_the_memo(self):
        hashed, fresh = SimConfig(), SimConfig()
        hashed.fingerprint()
        assert hashed == fresh
        assert hash(hashed) == hash(fresh)
        assert hashed.to_dict() == fresh.to_dict()
        assert "_fingerprint" not in hashed.to_dict()
        assert SimConfig.from_dict(hashed.to_dict()) == fresh
