"""Property tests: online monitor verdicts == shadow replay verdicts.

For random workloads, designs, seeds, and core counts, one monitored
run with the shadow replay (:mod:`tests.shadow`) attached must reach
the same verdict from both checkers: both silent on correct machines
(with stats identical to an unchecked run), and both flagging the same
planted violations — out-of-band tampering and a conflict-dropping
arbiter.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm.arbiter import NO_CONFLICT
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.workloads import make_workload
from tests.shadow import run_with_shadow

pytestmark = pytest.mark.slow

WORKLOADS = ["hashmap", "bst", "mwobject", "genome", "labyrinth"]
DESIGNS = ["baseline", "powertm", "clear", "clear+powertm"]


def build(workload, design, seed, cores, oracle="online"):
    config = SimConfig.for_design(design, num_cores=cores, oracle=oracle)
    return Machine(
        config, make_workload(workload, ops_per_thread=4), seed=seed
    )


def verdicts(workload, design, seed, cores, plant=None):
    """One monitored run with the replay attached: (online, shadow, machine)."""
    machine = build(workload, design, seed, cores)
    online, shadow = run_with_shadow(machine, plant=plant)
    return online, shadow, machine


@given(
    workload=st.sampled_from(WORKLOADS),
    design=st.sampled_from(DESIGNS),
    seed=st.integers(min_value=1, max_value=10_000),
    cores=st.sampled_from([2, 4, 8]),
)
@settings(max_examples=25, deadline=None)
def test_verdicts_agree_on_correct_machines(workload, design, seed, cores):
    online, shadow, machine = verdicts(workload, design, seed, cores)
    assert online is None and shadow is None
    plain = build(workload, design, seed, cores, oracle="off").run()
    assert machine.stats.to_dict() == plain.to_dict()


@given(
    workload=st.sampled_from(WORKLOADS),
    design=st.sampled_from(DESIGNS),
    seed=st.integers(min_value=1, max_value=10_000),
)
@settings(max_examples=15, deadline=None)
def test_tampering_caught_by_both(workload, design, seed):
    def tamper(machine):
        machine.memory.store(10_000_000, 42)

    online, shadow, _ = verdicts(workload, design, seed, 4, plant=tamper)
    context = "{}/{}/seed={}".format(workload, design, seed)
    assert online is not None, "online checker missed tampering on " + context
    assert shadow is not None, "shadow replay missed tampering on " + context


@given(seed=st.integers(min_value=1, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_broken_arbiter_verdicts_agree(seed):
    """A conflict-dropping arbiter is judged identically by both.

    Not every seed manifests the bug (a lucky interleaving can stay
    serializable), so the property is verdict *agreement*, not
    unconditional detection.
    """
    def drop_conflicts(machine):
        machine.resolve_conflict = lambda *args, **kwargs: NO_CONFLICT

    online, shadow, _ = verdicts("mwobject", "baseline", seed, 8,
                                 plant=drop_conflicts)
    assert (online is None) == (shadow is None)
