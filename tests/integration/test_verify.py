"""Integration tests for the schedule-exploration subsystem.

Four layers, in increasing ambition:

1. The scheduler seam is invisible — a machine with no scheduler and a
   machine with the DefaultScheduler attached are bit-identical.
2. Fuzzing (random / PCT) over micro workloads passes every oracle.
3. Exhaustive DPOR-lite exploration of a 2-core micro workload
   completes, and all three oracles hold on every explored schedule
   (the CI acceptance gate).
4. A planted arbiter bug — a burst of silently dropped conflict
   resolutions — survives the default schedule but is caught by
   exploration, ddmin-shrunk to a replayable artifact, and reproduced
   from that artifact alone. Planted breakers of the single-retry
   bound and a planted leak are found the same way, each under its
   own violation kind.
"""

import pytest

from repro import api
from repro.htm.arbiter import NO_CONFLICT
from repro.memory.address import line_of_word
from repro.sim.config import SimConfig
from repro.verify import (
    DefaultScheduler,
    ScheduleArtifact,
    replay_artifact,
    verify,
)
from repro.workloads import make_workload
from tests.retry_reference import (
    abort_ns_cl_requesters,
    fall_back_one_retry_early,
)

MICRO = dict(cores=2, ops_per_thread=4)


def snapshot_of(machine):
    return sorted(machine.memory.snapshot().items())


class TestSchedulerSeamIdentity:
    """Attaching the default scheduler must change nothing at all."""

    @pytest.mark.parametrize("name", ("mwobject", "hashmap", "queue"))
    def test_default_scheduler_is_bit_identical(self, micro_machine, name):
        plain = micro_machine(name, "B", cores=4, seed=2)
        plain_stats = plain.run()
        scheduled = micro_machine(
            name, "B", cores=4, seed=2, scheduler=DefaultScheduler()
        )
        scheduled_stats = scheduled.run()
        assert scheduled_stats.to_dict() == plain_stats.to_dict()
        assert snapshot_of(scheduled) == snapshot_of(plain)

    def test_seam_sees_real_choice_points(self, micro_machine):
        from repro.verify import RecordingScheduler

        recording = RecordingScheduler(DefaultScheduler())
        machine = micro_machine("mwobject", "B", cores=4, seed=1,
                                scheduler=recording)
        machine.run()
        assert recording.decisions, "4-core run produced no tie-breaks"
        assert all(choice == 0 for choice in recording.decisions)
        assert all(arity >= 2 for arity in recording.arities)


class TestFuzzingExploration:
    @pytest.mark.parametrize("explorer", ("random", "pct"))
    def test_micro_fuzzing_passes_all_oracles(self, explorer):
        report = verify("mwobject", "baseline", seed=1, explorer=explorer,
                        schedules=10, **MICRO)
        assert report.ok, report.violations
        assert report.schedules_explored == 11  # default baseline + 10
        assert report.state_checked  # mwobject commutes
        assert report.distinct_states == 1

    def test_structural_workload_skips_state_equality(self):
        report = verify("queue", "baseline", seed=1, explorer="random",
                        schedules=8, **MICRO)
        assert report.ok, report.violations
        assert not report.state_checked

    def test_factory_workloads_explore_inline(self):
        factory = lambda: make_workload("mwobject", ops_per_thread=3)  # noqa: E731
        report = verify(factory, "baseline", cores=2, schedules=5)
        assert report.ok, report.violations
        assert report.workload_name is None

    def test_engine_fan_out_matches_inline(self):
        from repro.sim.engine import ExperimentEngine

        inline = verify("mwobject", "baseline", seed=1, explorer="random",
                        schedules=12, **MICRO)
        engine = ExperimentEngine(jobs=2, cache_dir=None)
        fanned = verify("mwobject", "baseline", seed=1, explorer="random",
                        schedules=12, engine=engine, **MICRO)
        assert fanned.ok and inline.ok
        assert [o.decisions for o in fanned.outcomes] == \
            [o.decisions for o in inline.outcomes]
        assert [o.state_sha256 for o in fanned.outcomes] == \
            [o.state_sha256 for o in inline.outcomes]

    def test_api_facade_delegates(self):
        report = api.verify("mwobject", "baseline", schedules=3, **MICRO)
        assert report.ok


class TestExhaustiveExploration:
    """The CI acceptance gate: full micro schedule spaces, all oracles."""

    def test_mwobject_2core_tree_is_verified_exhaustively(self):
        report = verify("mwobject", "baseline", cores=2, ops_per_thread=6, seed=1,
                        explorer="exhaustive", max_schedules=500)
        assert report.complete, "schedule tree was truncated"
        assert report.ok, report.violations
        assert report.schedules_explored > 10
        assert report.distinct_schedules == report.schedules_explored
        assert report.state_checked
        assert report.distinct_states == 1

    def test_hashmap_2core_tree_is_verified_exhaustively(self):
        report = verify("hashmap", "baseline", cores=2, ops_per_thread=4, seed=1,
                        explorer="exhaustive", max_schedules=500)
        assert report.complete and report.ok
        assert report.schedules_explored > 10

    def test_truncation_is_reported(self):
        report = verify("mwobject", "baseline", cores=4, ops_per_thread=4, seed=1,
                        explorer="exhaustive", max_schedules=5)
        assert not report.complete
        assert report.schedules_explored == 5


def plant_arbiter_bug(machine):
    """Test-only arbiter bug: resolutions 3-5 are silently dropped.

    Models an arbiter queue overflow that loses a burst of conflict-
    resolution requests: every check in the burst reports NO_CONFLICT,
    so two overlapping atomic regions can both commit. Which accesses
    fall inside the burst depends on the interleaving — the default
    schedule happens to survive it, so only exploration can find it.
    The count covers resolutions that can find a conflict: the fused
    body step never arbitrates a line no other core tracks.
    """
    real = machine.resolve_conflict
    state = {"calls": 0}

    def buggy(core, line, is_write, requester_failed=False,
              requester_unstoppable=False):
        state["calls"] += 1
        if 3 <= state["calls"] < 6:
            return NO_CONFLICT
        return real(core, line, is_write, requester_failed,
                    requester_unstoppable)

    machine.resolve_conflict = buggy


class TestPlantedArbiterBug:
    PLANT_ARGS = dict(workload="mwobject", config="baseline", cores=2,
                      ops_per_thread=6, seed=1)

    def test_default_schedule_misses_the_bug(self):
        report = verify(explorer="exhaustive", max_schedules=1,
                        machine_hook=plant_arbiter_bug, shrink=False,
                        **self.PLANT_ARGS)
        assert report.outcomes[0].ok, (
            "the planted bug must survive the default schedule — "
            "otherwise exploration proves nothing"
        )

    @pytest.mark.parametrize("explorer,budget", [
        ("exhaustive", dict(max_schedules=300)),
        ("random", dict(schedules=40)),
        ("pct", dict(schedules=40)),
    ])
    def test_exploration_catches_and_shrinks_the_bug(self, tmp_path,
                                                     explorer, budget):
        report = verify(explorer=explorer, machine_hook=plant_arbiter_bug,
                        **self.PLANT_ARGS, **budget)
        assert not report.ok, "exploration failed to catch the planted bug"
        assert report.outcomes[0].ok  # baseline still clean
        kinds = {entry["kind"] for entry in report.violations}
        assert "serializability" in kinds

        assert report.artifacts, "no shrunk artifact produced"
        artifact = report.artifacts[0]
        assert len(artifact.decisions) <= 20
        assert any(entry["kind"] == "serializability"
                   for entry in artifact.violations)

        # The artifact alone reproduces the failure...
        path = str(tmp_path / "failing_schedule.json")
        artifact.save(path)
        reloaded = ScheduleArtifact.load(path)
        outcome = replay_artifact(reloaded, machine_hook=plant_arbiter_bug)
        assert any(entry["kind"] == "serializability"
                   for entry in outcome.violations)
        # ...and the same schedule is clean without the plant.
        assert replay_artifact(reloaded).ok

    def test_shrunk_artifact_is_minimal(self):
        report = verify(explorer="exhaustive", max_schedules=300,
                        machine_hook=plant_arbiter_bug, **self.PLANT_ARGS)
        artifact = report.artifacts[0]
        assert artifact.decisions, (
            "this plant needs a non-default schedule; an empty decision "
            "list means the bug became schedule-independent"
        )
        # 1-minimality: flipping any kept non-default decision back to
        # the default must lose the failure.
        for index, choice in enumerate(artifact.decisions):
            if choice == 0:
                continue
            weakened = list(artifact.decisions)
            weakened[index] = 0
            probe = ScheduleArtifact(
                artifact.workload, artifact.config, artifact.seed, weakened,
                ops_per_thread=artifact.ops_per_thread,
            )
            outcome = replay_artifact(probe, machine_hook=plant_arbiter_bug)
            assert not any(entry["kind"] == "serializability"
                           for entry in outcome.violations)


def keep_power_token(machine):
    """Test-only leak: each core grabs the power token as it finishes.

    A finished core is never a conflicting peer, so the run is
    unchanged; only the end-of-run leak check can see the token held.
    """
    real = machine.next_action

    def next_action(core):
        action = real(core)
        if action is None:
            machine.power.try_acquire(core)
        return action

    machine.next_action = next_action


def keep_a_line_lock(machine):
    """Test-only leak: core 0 locks a line nobody uses as it finishes."""
    real = machine.next_action
    line = line_of_word(machine.allocator.alloc_lines(1))

    def next_action(core):
        action = real(core)
        if action is None and core == 0:
            machine.memsys.locks.try_lock(core, line)
        return action

    machine.next_action = next_action


class TestPlantedBreakers:
    """Bound breakers and leaks: found, shrunk and replayed by kind.

    Each plant breaks its guarantee on the default schedule already, so
    every explorer finds it; the shrunk artifact then reproduces the
    same kind from its JSON alone, and nothing else.
    """

    @pytest.mark.parametrize("explorer,budget", [
        ("exhaustive", dict(max_schedules=12)),
        ("random", dict(schedules=6)),
        ("pct", dict(schedules=6)),
    ])
    @pytest.mark.parametrize("hook,design,kind", [
        (abort_ns_cl_requesters, "clear", "ns-cl-abort-reason"),
        (fall_back_one_retry_early, "baseline", "fallback-threshold"),
        (keep_power_token, "baseline", "leak"),
        (keep_a_line_lock, "baseline", "leak"),
    ], ids=["ns-cl", "early-fallback", "power-leak", "lock-leak"])
    def test_found_shrunk_and_replayed(self, tmp_path, hook, design, kind,
                                       explorer, budget):
        config = SimConfig.for_design(design, num_cores=2, retry_threshold=2)
        report = verify("mwobject", config, ops_per_thread=6, seed=1,
                        explorer=explorer, machine_hook=hook, **budget)
        assert not report.outcomes[0].ok
        assert {entry["kind"] for entry in report.violations} == {kind}
        artifact = report.artifacts[0]
        assert {entry["kind"] for entry in artifact.violations} == {kind}

        path = str(tmp_path / "breaker.json")
        artifact.save(path)
        outcome = replay_artifact(ScheduleArtifact.load(path),
                                  machine_hook=hook)
        assert [entry["kind"] for entry in outcome.violations] == [kind]
        assert replay_artifact(ScheduleArtifact.load(path)).ok
