"""Property tests: injected faults never break correctness.

For random fault rates, seeds, and configurations, a chaos run of the
pointer-chasing workloads must (a) pass the commit-order
serializability oracle and the leak checks, (b) keep every final
data-structure invariant, and (c) be bit-reproducible from its seed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm.design import design_name
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.workloads import make_workload

pytestmark = pytest.mark.slow


def build_machine(name, letter, seed, spurious, capacity, jitter):
    config = SimConfig.for_design(design_name(letter),
        num_cores=4,
        oracle="online",
        fault_spurious_rate=spurious,
        fault_capacity_rate=capacity,
        fault_jitter_cycles=jitter,
        fault_wakeup_delay_cycles=jitter,
    )
    return Machine(
        config, make_workload(name, ops_per_thread=4), seed=seed
    )


@given(
    letter=st.sampled_from(["B", "P", "C", "W"]),
    seed=st.integers(min_value=1, max_value=10_000),
    spurious=st.floats(min_value=0.0, max_value=0.3),
    capacity=st.floats(min_value=0.0, max_value=0.2),
    jitter=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=20, deadline=None)
def test_hashmap_survives_chaos_with_invariants(
    letter, seed, spurious, capacity, jitter
):
    machine = build_machine("hashmap", letter, seed, spurious, capacity, jitter)
    stats = machine.run()  # oracle verifies serializability + leaks
    assert stats.total_commits > 0
    workload = machine.workload
    seen = []
    for bucket in range(workload.num_buckets):
        keys = workload.chain_keys(machine.memory, bucket)  # no cycles,
        seen.extend(keys)  # every key in its home bucket
    assert len(seen) == len(set(seen)), "duplicate key across chains"


@given(
    letter=st.sampled_from(["B", "P", "C", "W"]),
    seed=st.integers(min_value=1, max_value=10_000),
    spurious=st.floats(min_value=0.0, max_value=0.3),
)
@settings(max_examples=10, deadline=None)
def test_labyrinth_survives_chaos(letter, seed, spurious):
    machine = build_machine("labyrinth", letter, seed, spurious, 0.05, 3)
    stats = machine.run()
    assert stats.total_commits > 0
    assert machine.memsys.locks.locked_line_count() == 0


@given(
    seed=st.integers(min_value=1, max_value=10_000),
    spurious=st.floats(min_value=0.01, max_value=0.3),
)
@settings(max_examples=10, deadline=None)
def test_chaos_runs_are_reproducible(seed, spurious):
    runs = []
    for _ in range(2):
        machine = build_machine("hashmap", "C", seed, spurious, 0.05, 4)
        stats = machine.run()
        runs.append((list(machine.faults.log), stats.to_dict()))
    assert runs[0] == runs[1]
