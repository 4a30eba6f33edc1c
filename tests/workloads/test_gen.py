"""The seeded workload generator: specs, namespaces, and behaviour."""

import json

import pytest

from repro.common.errors import ConfigurationError, UnknownWorkloadError
from repro.sim.config import SimConfig
from repro.sim.machine import build_machine
from repro.workloads import (
    Mutability,
    canonical_workload_name,
    make_workload,
    workload_cache_token,
)
from repro.workloads.gen import (
    GenSpec,
    GeneratedWorkload,
    load_corpus,
    parse_gen_spec,
    register_spec,
    save_gen_spec,
)


class TestGenSpec:
    def test_defaults_round_trip(self):
        spec = GenSpec()
        assert spec.canonical() == ""
        assert parse_gen_spec("") == spec
        assert GenSpec.from_dict(spec.to_dict()) == spec

    def test_canonical_omits_defaults_and_round_trips(self):
        spec = GenSpec(footprint=8, mutability="mutable", contention=0.9)
        text = spec.canonical()
        assert "footprint=8" in text and "regions" not in text
        assert parse_gen_spec(text) == spec

    def test_numeric_spellings_normalize(self):
        assert GenSpec(contention=1) == GenSpec(contention=1.0)
        assert (GenSpec(contention=1).fingerprint()
                == GenSpec(contention=1.0).fingerprint())

    def test_fingerprint_stable_and_distinct(self):
        assert GenSpec().fingerprint() == GenSpec().fingerprint()
        assert GenSpec().fingerprint() != GenSpec(footprint=8).fingerprint()

    @pytest.mark.parametrize("kwargs", [
        dict(regions=0),
        dict(footprint=0),
        dict(mutability="sometimes"),
        dict(contention=1.5),
        dict(read_fraction=-0.1),
        dict(nesting=0),
        dict(hot_lines=2, footprint=4),
        dict(private_lines=2, footprint=4),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GenSpec(**kwargs)

    def test_bad_spec_strings_rejected(self):
        with pytest.raises(UnknownWorkloadError):
            parse_gen_spec("footprint")
        with pytest.raises(UnknownWorkloadError):
            parse_gen_spec("warp=9")
        with pytest.raises(UnknownWorkloadError):
            parse_gen_spec("footprint=lots")


class TestNamespaces:
    def test_unknown_name_is_typed_and_lists_namespaces(self):
        # trace: is no namespace: its names are unknown like any other.
        for name in ("nope", "trace:corpus/kernel/trace"):
            with pytest.raises(UnknownWorkloadError) as excinfo:
                make_workload(name)
            listed = str(excinfo.value).split("; expected ", 1)[1]
            assert "gen:" in listed and "trace:" not in listed
            # Back-compat: the historical registry exception was KeyError.
            assert isinstance(excinfo.value, KeyError)

    def test_gen_name_resolves(self):
        workload = make_workload("gen:footprint=2", ops_per_thread=3)
        assert isinstance(workload, GeneratedWorkload)
        assert workload.name == "gen:footprint=2"
        assert workload.ops_per_thread == 3

    def test_canonical_name_for_builtin_and_gen(self):
        assert canonical_workload_name("hashmap") == "hashmap"
        assert (canonical_workload_name("gen:footprint=8,regions=2")
                == "gen:footprint=8")
        with pytest.raises(UnknownWorkloadError):
            canonical_workload_name("gen:warp=9")
        with pytest.raises(UnknownWorkloadError):
            canonical_workload_name("nope")

    def test_cache_token_only_for_namespaced(self):
        assert workload_cache_token("hashmap") is None
        assert (workload_cache_token("gen:footprint=8")
                == GenSpec(footprint=8).fingerprint())

    def test_fingerprint_resolution(self):
        spec = GenSpec(footprint=6, mutability="immutable")
        fingerprint = register_spec(spec)
        assert parse_gen_spec(fingerprint) == spec
        assert parse_gen_spec(fingerprint[:12]) == spec
        assert canonical_workload_name(
            "gen:" + fingerprint[:12]
        ) == "gen:" + spec.canonical()

    def test_unregistered_fingerprint_rejected(self):
        with pytest.raises(UnknownWorkloadError):
            parse_gen_spec("0" * 16)


class TestOnDiskSpecs:
    def test_save_load_round_trip(self, tmp_path):
        spec = GenSpec(footprint=8, contention=0.9)
        save_gen_spec(spec, str(tmp_path / "kernel"))
        assert parse_gen_spec(str(tmp_path / "kernel")) == spec
        loaded = make_workload(
            "gen:" + str(tmp_path / "kernel"), ops_per_thread=2
        )
        assert loaded.spec == spec

    def test_missing_folder_rejected(self, tmp_path):
        with pytest.raises(UnknownWorkloadError):
            parse_gen_spec(str(tmp_path / "absent"))

    def test_corrupt_spec_rejected(self, tmp_path):
        folder = tmp_path / "kernel"
        save_gen_spec(GenSpec(), str(folder))
        payload = json.loads((folder / "genspec.json").read_text())
        payload["spec"]["footprint"] = 7  # fingerprint now stale
        (folder / "genspec.json").write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError):
            parse_gen_spec(str(folder))

    def test_version_gate(self, tmp_path):
        folder = tmp_path / "kernel"
        save_gen_spec(GenSpec(), str(folder))
        payload = json.loads((folder / "genspec.json").read_text())
        payload["version"] = 99
        (folder / "genspec.json").write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError):
            parse_gen_spec(str(folder))

    def test_load_corpus_registers_fingerprints(self, tmp_path):
        specs = [GenSpec(footprint=2), GenSpec(footprint=4)]
        for index, spec in enumerate(specs):
            save_gen_spec(spec, str(tmp_path / "k{}".format(index)))
        loaded = load_corpus(str(tmp_path))
        assert set(loaded.values()) == set(specs)
        for fingerprint in loaded:
            assert parse_gen_spec(fingerprint[:12]) in specs


class TestGeneratedWorkload:
    def test_region_mutability_classes(self):
        mixed = make_workload("gen:regions=3")
        assert [spec.mutability for spec in mixed.region_specs()] == [
            Mutability.IMMUTABLE, Mutability.LIKELY_IMMUTABLE,
            Mutability.MUTABLE,
        ]
        pure = make_workload("gen:regions=2,mutability=mutable")
        assert {spec.mutability for spec in pure.region_specs()} == {
            Mutability.MUTABLE
        }

    @pytest.mark.parametrize(
        "mutability", ["immutable", "likely_immutable", "mutable"]
    )
    def test_runs_to_completion_with_online_monitor(self, mutability):
        config = SimConfig(num_cores=4, design="clear", oracle="online")
        workload = make_workload(
            "gen:regions=2,mutability={}".format(mutability),
            ops_per_thread=4,
        )
        machine = build_machine(config, workload, seed=3)
        stats = machine.run()
        assert stats.total_commits == 4 * 4

    def test_nesting_scales_footprint(self):
        config = SimConfig(num_cores=2, design="baseline")

        def stores(nesting):
            workload = make_workload(
                "gen:regions=1,mutability=immutable,read_fraction=0.0,"
                "nesting={}".format(nesting),
                ops_per_thread=2,
            )
            machine = build_machine(config, workload, seed=1)
            machine.run()
            return machine.memory.store_count

        assert stores(3) > stores(1)

    def test_zero_contention_keeps_threads_disjoint(self):
        config = SimConfig(num_cores=4, design="baseline")
        workload = make_workload(
            "gen:regions=1,mutability=immutable,contention=0.0,"
            "read_fraction=0.0",
            ops_per_thread=4,
        )
        machine = build_machine(config, workload, seed=2)
        stats = machine.run()
        assert stats.total_commits == 16
        assert stats.total_aborts == 0
