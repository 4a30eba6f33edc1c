"""Property-based body-step equivalence: random cells, identical results.

Hypothesis drives random (workload, design, seed, scale) cells through
the executor's one body step and through the reference op path in
``tests/reference_step.py`` (installed with the test-only
``general_path()`` patch) and asserts the two are indistinguishable:
equal stats dicts, equal event-loop pop counts, and equal final
architectural memory. This catches equivalence bugs the pinned matrices
cannot — odd core counts, unusual retry thresholds, the SLE speculation
substrate, the online monitor, a fault plan, and CLEAR's ablations
(no failed mode, S-CL locking every line, no CRT) crossed with the
post-paper designs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm.design import DESIGN_REGISTRY
from repro.sim.config import SimConfig
from repro.sim.machine import build_machine
from repro.workloads import ALL_NAMES, make_workload
from tests.conftest import both_paths

#: A run with no fault plan half the time; otherwise each knob drawn.
FAULTS = st.one_of(
    st.just({}),
    st.fixed_dictionaries({
        "fault_spurious_rate": st.sampled_from([0.0, 0.05, 0.2]),
        "fault_capacity_rate": st.sampled_from([0.0, 0.05]),
        "fault_jitter_cycles": st.sampled_from([0, 3]),
        "fault_wakeup_delay_cycles": st.sampled_from([0, 5]),
    }),
)


@given(
    workload=st.sampled_from(ALL_NAMES),
    design=st.sampled_from(sorted(DESIGN_REGISTRY)),
    seed=st.integers(min_value=1, max_value=10_000),
    num_cores=st.integers(min_value=2, max_value=8),
    ops_per_thread=st.integers(min_value=2, max_value=8),
    retry_threshold=st.integers(min_value=1, max_value=6),
    speculation=st.sampled_from(["htm", "sle"]),
    oracle=st.sampled_from(["off", "online"]),
    faults=FAULTS,
    failed_mode_discovery=st.booleans(),
    scl_lock_policy=st.sampled_from(["writes", "all"]),
    crt_enabled=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_backends_indistinguishable(workload, design, seed, num_cores,
                                    ops_per_thread, retry_threshold,
                                    speculation, oracle, faults,
                                    failed_mode_discovery, scl_lock_policy,
                                    crt_enabled):
    config = SimConfig.for_design(
        design, num_cores=num_cores, retry_threshold=retry_threshold,
        speculation=speculation, oracle=oracle,
        failed_mode_discovery=failed_mode_discovery,
        scl_lock_policy=scl_lock_policy, crt_enabled=crt_enabled, **faults,
    )
    fast, general = both_paths(lambda: build_machine(
        config, make_workload(workload, ops_per_thread=ops_per_thread),
        seed=seed,
    ))
    assert fast == general
