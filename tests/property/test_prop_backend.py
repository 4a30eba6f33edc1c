"""Property-based body-step equivalence: random cells, identical results.

Hypothesis drives random (workload, design, seed, scale) cells through
the executor's fused body step and through the general ``_step_body``
path (forced with the test-only ``general_path()`` patch) and asserts
the two are indistinguishable: equal stats dicts, equal event-loop pop
counts, and equal final architectural memory. This catches equivalence
bugs the pinned matrices cannot — odd core counts, unusual retry
thresholds, and the SLE speculation substrate crossed with the
post-paper designs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm.design import DESIGN_REGISTRY
from repro.sim.config import SimConfig
from repro.sim.machine import build_machine
from repro.workloads import ALL_NAMES, make_workload
from tests.conftest import both_paths


@given(
    workload=st.sampled_from(ALL_NAMES),
    design=st.sampled_from(sorted(DESIGN_REGISTRY)),
    seed=st.integers(min_value=1, max_value=10_000),
    num_cores=st.integers(min_value=2, max_value=8),
    ops_per_thread=st.integers(min_value=2, max_value=8),
    retry_threshold=st.integers(min_value=1, max_value=6),
    speculation=st.sampled_from(["htm", "sle"]),
)
@settings(max_examples=30, deadline=None)
def test_backends_indistinguishable(workload, design, seed, num_cores,
                                    ops_per_thread, retry_threshold,
                                    speculation):
    config = SimConfig.for_design(
        design, num_cores=num_cores, retry_threshold=retry_threshold,
        speculation=speculation,
    )
    fast, general = both_paths(lambda: build_machine(
        config, make_workload(workload, ops_per_thread=ops_per_thread),
        seed=seed,
    ))
    assert fast == general
