"""Property-based generator determinism: same spec + seed, same bytes.

Hypothesis drives random generator specs (footprint, mutability class,
contention, read mix, nesting) through the simulator and asserts the
promises the ``gen:`` namespace makes:

- re-running a (spec, seed) cell from a fresh workload instance yields
  byte-identical stats and final memory — the generator carries no
  hidden process state;
- the executor's one body step and the reference op path
  (``tests/reference_step.py``) are indistinguishable on generated
  kernels, exactly as they are on the built-ins;
- the canonical spec string and the registered fingerprint resolve to
  the same behaviour, so cache keys built from either are equivalent.

A non-hypothesis engine test pins jobs=1 vs jobs=2 fan-out equality:
worker processes re-resolve the canonical name from scratch, so the
whole namespace round-trips through process boundaries.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import SimConfig
from repro.sim.machine import build_machine
from repro.workloads import make_workload
from repro.workloads.gen import MUTABILITY_CLASSES, GenSpec, register_spec
from tests.conftest import general_path


def run_digest(config, workload_name, ops_per_thread, seed):
    machine = build_machine(
        config, make_workload(workload_name, ops_per_thread=ops_per_thread),
        seed=seed,
    )
    stats = machine.run()
    return {
        "stats": json.dumps(stats.to_dict(), sort_keys=True),
        "events": machine.event_count,
        "memory": sorted(machine.memory.snapshot().items()),
    }


gen_specs = st.builds(
    GenSpec,
    regions=st.integers(min_value=1, max_value=3),
    footprint=st.integers(min_value=1, max_value=6),
    mutability=st.sampled_from(MUTABILITY_CLASSES),
    contention=st.sampled_from([0.0, 0.25, 0.75, 1.0]),
    read_fraction=st.sampled_from([0.0, 0.25, 1.0]),
    nesting=st.integers(min_value=1, max_value=3),
    hot_lines=st.just(8),
    private_lines=st.just(16),
)


@given(
    spec=gen_specs,
    design=st.sampled_from(["baseline", "clear"]),
    seed=st.integers(min_value=1, max_value=10_000),
    num_cores=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_same_spec_and_seed_is_byte_identical(spec, design, seed, num_cores):
    name = "gen:" + spec.canonical()
    config = SimConfig.for_design(design, num_cores=num_cores)
    first = run_digest(config, name, 4, seed)
    second = run_digest(config, name, 4, seed)
    assert second == first


@given(
    spec=gen_specs,
    design=st.sampled_from(["baseline", "powertm", "clear", "lrw"]),
    seed=st.integers(min_value=1, max_value=10_000),
    num_cores=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=25, deadline=None)
def test_backends_indistinguishable_on_generated(spec, design, seed,
                                                 num_cores):
    name = "gen:" + spec.canonical()
    config = SimConfig.for_design(design, num_cores=num_cores)
    fast = run_digest(config, name, 4, seed)
    with general_path():
        general = run_digest(config, name, 4, seed)
    assert fast == general


@given(
    spec=gen_specs,
    seed=st.integers(min_value=1, max_value=10_000),
)
@settings(max_examples=10, deadline=None)
def test_fingerprint_and_spec_string_agree(spec, seed):
    fingerprint = register_spec(spec)
    config = SimConfig(num_cores=2, design="clear")
    by_spec = run_digest(config, "gen:" + spec.canonical(), 3, seed)
    by_fingerprint = run_digest(config, "gen:" + fingerprint[:12], 3, seed)
    assert by_fingerprint == by_spec


def test_engine_fanout_is_schedule_free(tmp_path):
    """jobs=1 and jobs=2 produce identical reports for gen: workloads."""
    from repro import api
    from repro.sim.engine import ExperimentEngine

    name = "gen:regions=2,footprint=3,mutability=mixed,contention=0.75"
    config = SimConfig(num_cores=4, design="clear")
    reports = {}
    for jobs in (1, 2):
        engine = ExperimentEngine(
            jobs=jobs, cache_dir=str(tmp_path / "cache{}".format(jobs))
        )
        report = api.simulate(
            name, config, seeds=(1, 2, 3), ops_per_thread=4, engine=engine,
        )
        reports[jobs] = json.dumps(
            [run.stats.to_dict() for run in report.runs], sort_keys=True
        )
    assert reports[2] == reports[1]
