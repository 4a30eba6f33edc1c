"""The seeded workload generator: specs, namespaces, and behaviour."""

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
from repro.workloads.gen import GenSpec, GeneratedWorkload, parse_gen_spec


class TestGenSpec:
    def test_defaults_round_trip(self):
        spec = GenSpec()
        assert spec.canonical() == ""
        assert parse_gen_spec("") == spec

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

    def test_unregistered_fingerprint_rejected(self):
        # A fingerprint names no kernel, not even a known spec's.
        fingerprint = GenSpec(footprint=6).fingerprint()
        for text in ("0" * 16, fingerprint, fingerprint[:12]):
            with pytest.raises(UnknownWorkloadError, match="key=value"):
                parse_gen_spec(text)

    def test_folder_path_rejected(self, tmp_path):
        # A path is a malformed spec string: nothing on disk is read.
        (tmp_path / "kernel").mkdir()
        for path in (tmp_path / "absent", tmp_path / "kernel"):
            with pytest.raises(UnknownWorkloadError, match="key=value"):
                make_workload("gen:" + str(path))


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
