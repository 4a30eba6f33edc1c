"""Property test: schedule artifacts replay bit-identically.

For any workload/seed/fuzzing-scheduler combination, recording an
explored schedule into a :class:`ScheduleArtifact`, pushing it through
its JSON serialization, and replaying the decision list must reproduce
the original run exactly — same stats, same final-memory digest, and
the same event trace, event for event. This is the contract the whole
shrink-and-replay pipeline stands on: if replay drifted even one cycle,
minimized artifacts would describe schedules nobody ever ran.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import EventTrace
from repro.sim.config import SimConfig
from repro.verify import (
    PCTScheduler,
    RandomScheduler,
    ScheduleArtifact,
    replay_artifact,
    run_schedule,
)
from repro.workloads import make_workload

WORKLOADS = ("mwobject", "hashmap", "queue")


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(WORKLOADS),
    seed=st.integers(min_value=1, max_value=50),
    explore_seed=st.integers(min_value=0, max_value=1000),
    cores=st.integers(min_value=2, max_value=4),
    pct=st.booleans(),
)
def test_record_serialize_replay_round_trips(name, seed, explore_seed,
                                             cores, pct):
    config = SimConfig.for_design("baseline", num_cores=cores, oracle="online")
    factory = lambda: make_workload(name, ops_per_thread=3)  # noqa: E731
    if pct:
        scheduler = PCTScheduler(explore_seed, num_cores=cores)
    else:
        scheduler = RandomScheduler(explore_seed)

    recorded = run_schedule(factory, config, seed, scheduler,
                            trace=EventTrace())
    assert recorded.ok, recorded.violations

    artifact = ScheduleArtifact(
        name, config, seed, recorded.decisions, ops_per_thread=3,
        stats_sha256=recorded.stats_sha256,
        state_sha256=recorded.state_sha256,
    )
    reloaded = ScheduleArtifact.from_json(artifact.to_json())

    replayed = replay_artifact(reloaded, trace=True)
    assert replayed.ok
    assert replayed.decisions == recorded.decisions
    assert replayed.stats_sha256 == recorded.stats_sha256
    assert replayed.state_sha256 == recorded.state_sha256
    assert replayed.stats.to_dict() == recorded.stats.to_dict()
    assert replayed.trace.to_dicts() == recorded.trace.to_dicts()
