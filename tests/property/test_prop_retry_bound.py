"""Property tests: the single-retry bound, online monitor vs reference.

Hypothesis draws generated kernels over the ``gen:`` axes where the
designs differ most — footprint x mutability x contention x nesting —
and runs each on every design with 2-4 cores, a random seed and
``retry_threshold`` in {1, 2, 5}. Every run must complete under the
default online monitor, and the post-hoc reference
(:mod:`tests.retry_reference`) must find nothing in the same run.

The planted breakers pin the other direction. On each, the monitor
raises the kind the reference reports first (the reference judging an
unmonitored run of the same cell, which is the monitored run's exact
prefix), and on the NS-CL breaker every invocation the reference
flags under the retired ``retry-bound`` count also has an illegal
NS-CL abort — the subsumption argument of DESIGN.md §11.3.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import OracleViolation
from repro.htm.design import DESIGN_REGISTRY
from repro.sim.config import SimConfig
from repro.sim.machine import build_machine
from repro.workloads import make_workload
from repro.workloads.gen import MUTABILITY_CLASSES, GenSpec
from tests.retry_reference import (
    RetryReference,
    abort_ns_cl_requesters,
    fall_back_one_retry_early,
    never_fall_back,
)

DESIGNS = sorted(DESIGN_REGISTRY)

gen_specs = st.builds(
    GenSpec,
    footprint=st.integers(min_value=1, max_value=6),
    mutability=st.sampled_from(MUTABILITY_CLASSES),
    contention=st.sampled_from([0.0, 0.25, 0.75, 1.0]),
    nesting=st.integers(min_value=1, max_value=3),
    hot_lines=st.just(8),
    private_lines=st.just(16),
)

cells = dict(
    spec=gen_specs,
    design=st.sampled_from(DESIGNS),
    cores=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=1, max_value=10_000),
    threshold=st.sampled_from([1, 2, 5]),
)


def run_cell(workload, design, cores, seed, threshold, plant=None,
             oracle="online"):
    """One run with the reference attached: (monitor's raise, reference)."""
    config = SimConfig.for_design(
        design, num_cores=cores, retry_threshold=threshold, oracle=oracle
    )
    machine = build_machine(
        config, make_workload(workload, ops_per_thread=4), seed=seed
    )
    reference = RetryReference(machine)
    if plant is not None:
        plant(machine)
    try:
        machine.run()
    except OracleViolation as exc:
        return exc, reference
    return None, reference


def check_bound_holds(spec, design, cores, seed, threshold):
    raised, reference = run_cell(
        "gen:" + spec.canonical(), design, cores, seed, threshold
    )
    assert raised is None, raised.details
    assert reference.completed
    assert reference.violations() == []


@given(**cells)
@settings(max_examples=12, deadline=None)
def test_bound_holds_across_gen_axes(spec, design, cores, seed, threshold):
    check_bound_holds(spec, design, cores, seed, threshold)


@pytest.mark.slow
@given(**cells)
@settings(max_examples=1000, deadline=None)
def test_bound_holds_across_gen_axes_at_scale(spec, design, cores, seed,
                                              threshold):
    check_bound_holds(spec, design, cores, seed, threshold)


def check_breaker_verdicts(plant, workload, design, cores, seed, threshold):
    """The monitor raises the kind the reference reports first."""
    raised, _ = run_cell(workload, design, cores, seed, threshold, plant)
    _, reference = run_cell(workload, design, cores, seed, threshold, plant,
                            oracle="off")
    found = reference.violations()
    assert (raised.kind if raised else None) == \
        (found[0][0] if found else None)
    kinds_by_record = {}
    for kind, record in found:
        kinds_by_record.setdefault(id(record), set()).add(kind)
    for kinds in kinds_by_record.values():
        if "retry-bound" in kinds:
            assert "ns-cl-abort-reason" in kinds
    return raised, kinds_by_record


class TestPlantedBreakers:
    def test_ns_cl_breaker_also_breaks_the_retired_count(self):
        raised, kinds_by_record = check_breaker_verdicts(
            abort_ns_cl_requesters, "mwobject", "clear", 4, 5, 5
        )
        assert raised.kind == "ns-cl-abort-reason"
        assert {"ns-cl-abort-reason", "retry-bound"} in \
            list(kinds_by_record.values())

    @pytest.mark.parametrize("plant", [fall_back_one_retry_early,
                                       never_fall_back])
    def test_retry_policy_breakers_trip_at_commit(self, plant):
        raised, _ = check_breaker_verdicts(
            plant, "mwobject", "baseline", 4, 1, 2
        )
        assert raised.kind == "fallback-threshold"


@pytest.mark.slow
@given(
    plant=st.sampled_from([abort_ns_cl_requesters, fall_back_one_retry_early,
                           never_fall_back]),
    workload=st.sampled_from(["mwobject", "hashmap", "queue", "bst"]),
    design=st.sampled_from(DESIGNS),
    cores=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=1, max_value=10_000),
    threshold=st.sampled_from([1, 2, 5]),
)
@settings(max_examples=400, deadline=None)
def test_breaker_verdicts_agree(plant, workload, design, cores, seed,
                                threshold):
    check_breaker_verdicts(plant, workload, design, cores, seed, threshold)
