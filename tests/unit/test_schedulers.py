"""Unit tests for the schedule-exploration building blocks.

Covers the scheduler policies themselves (tie-break behaviour,
determinism, replay clamping), the ddmin shrinker, the online
monitor's retry-bound hooks, and the ScheduleArtifact JSON format —
all without running a machine; the integration suite does that.
"""

import pytest

from repro.common.errors import OracleViolation
from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason
from repro.htm.rwset import ReadWriteSets
from repro.sim.config import SimConfig
from repro.sim.program import Invoke
from repro.verify import (
    DefaultScheduler,
    PCTScheduler,
    RandomScheduler,
    RecordingScheduler,
    ReplayScheduler,
    ScheduleArtifact,
    check_equivalence,
    ddmin,
    shrink_decisions,
)
from repro.verify.schedule import ARTIFACT_SCHEMA_VERSION


class TestDefaultScheduler:
    def test_always_picks_first(self):
        scheduler = DefaultScheduler()
        for ready in ([0, 1], [2, 5, 7], list(range(16))):
            assert scheduler.pick(10, ready) == 0


class TestRandomScheduler:
    def test_deterministic_per_seed(self):
        a, b = RandomScheduler(7), RandomScheduler(7)
        ready = [0, 1, 2, 3]
        assert [a.pick(t, ready) for t in range(50)] == [
            b.pick(t, ready) for t in range(50)
        ]

    def test_reset_rewinds_the_stream(self):
        scheduler = RandomScheduler(3)
        ready = [0, 1, 2]
        first = [scheduler.pick(t, ready) for t in range(20)]
        scheduler.reset()
        assert [scheduler.pick(t, ready) for t in range(20)] == first

    def test_seeds_diverge(self):
        ready = [0, 1, 2, 3, 4, 5, 6, 7]
        streams = {
            tuple(RandomScheduler(seed).pick(t, ready) for t in range(30))
            for seed in range(8)
        }
        assert len(streams) > 1

    def test_picks_stay_in_range(self):
        scheduler = RandomScheduler(1)
        for arity in (2, 3, 5):
            ready = list(range(arity))
            for t in range(40):
                assert 0 <= scheduler.pick(t, ready) < arity


class TestPCTScheduler:
    def test_deterministic_per_seed(self):
        a = PCTScheduler(5, num_cores=4)
        b = PCTScheduler(5, num_cores=4)
        ready = [0, 1, 2, 3]
        assert [a.pick(t, ready) for t in range(60)] == [
            b.pick(t, ready) for t in range(60)
        ]

    def test_reset_restores_priorities(self):
        scheduler = PCTScheduler(9, num_cores=4)
        ready = [0, 1, 2, 3]
        first = [scheduler.pick(t, ready) for t in range(60)]
        scheduler.reset()
        assert [scheduler.pick(t, ready) for t in range(60)] == first

    def test_priority_order_is_stable_between_change_points(self):
        # With depth=1 there are no change points at all, so the same
        # ready set must always resolve to the same pick.
        scheduler = PCTScheduler(2, num_cores=3, depth=1)
        ready = [0, 1, 2]
        picks = {scheduler.pick(t, ready) for t in range(30)}
        assert len(picks) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PCTScheduler(num_cores=0)
        with pytest.raises(ValueError):
            PCTScheduler(depth=0)


class TestReplayScheduler:
    def test_replays_decisions_in_order(self):
        scheduler = ReplayScheduler([1, 0, 2])
        assert scheduler.pick(0, [0, 1]) == 1
        assert scheduler.pick(1, [0, 1]) == 0
        assert scheduler.pick(2, [0, 1, 2]) == 2

    def test_defaults_past_the_end(self):
        scheduler = ReplayScheduler([1])
        assert scheduler.pick(0, [0, 1]) == 1
        for t in range(5):
            assert scheduler.pick(t, [0, 1, 2]) == 0

    def test_clamps_out_of_range_entries(self):
        scheduler = ReplayScheduler([9, -3])
        assert scheduler.pick(0, [0, 1]) == 1   # clamped down to arity-1
        assert scheduler.pick(1, [0, 1]) == 0   # clamped up to 0

    def test_reset_rewinds(self):
        scheduler = ReplayScheduler([1, 1])
        assert scheduler.pick(0, [0, 1]) == 1
        scheduler.reset()
        assert scheduler.pick(0, [0, 1]) == 1


class TestRecordingScheduler:
    def test_records_arity_and_choice(self):
        recording = RecordingScheduler(ReplayScheduler([1, 0, 1]))
        recording.pick(0, [0, 1])
        recording.pick(1, [0, 1, 2])
        recording.pick(2, [0, 1])
        assert recording.decisions == [1, 0, 1]
        assert recording.arities == [2, 3, 2]

    def test_clamps_a_misbehaving_inner(self):
        class Wild(DefaultScheduler):
            def pick(self, now, ready):
                return 99

        recording = RecordingScheduler(Wild())
        assert recording.pick(0, [0, 1]) == 1
        assert recording.decisions == [1]

    def test_reset_clears_the_trace(self):
        recording = RecordingScheduler(DefaultScheduler())
        recording.pick(0, [0, 1])
        recording.reset()
        assert recording.decisions == []
        assert recording.arities == []


class TestDdmin:
    def test_minimizes_to_the_culprit_pair(self):
        # The failure needs 3 AND 7 together; ddmin must find exactly that.
        predicate = lambda subset: 3 in subset and 7 in subset  # noqa: E731
        assert sorted(ddmin(list(range(10)), predicate)) == [3, 7]

    def test_single_culprit(self):
        predicate = lambda subset: 5 in subset  # noqa: E731
        assert ddmin(list(range(20)), predicate) == [5]

    def test_result_is_one_minimal(self):
        predicate = lambda s: {2, 4, 6} <= set(s)  # noqa: E731
        minimal = ddmin(list(range(8)), predicate)
        assert predicate(minimal)
        for index in range(len(minimal)):
            assert not predicate(minimal[:index] + minimal[index + 1:])

    def test_irreducible_input_survives(self):
        items = [1, 2, 3]
        predicate = lambda subset: subset == items  # noqa: E731
        assert ddmin(items, predicate) == items


class TestShrinkDecisions:
    def test_shrinks_to_single_needed_decision(self):
        # Failure iff position 4 picks choice 2; everything else is noise.
        still_fails = lambda d: len(d) > 4 and d[4] == 2  # noqa: E731
        assert shrink_decisions([1, 0, 1, 1, 2, 1, 0, 1], still_fails) == \
            [0, 0, 0, 0, 2]

    def test_schedule_independent_failure_shrinks_to_empty(self):
        assert shrink_decisions([1, 1, 1], lambda d: True) == []

    def test_rejects_a_passing_original(self):
        with pytest.raises(ValueError):
            shrink_decisions([1, 0], lambda d: False)


class _Outcome:
    """Minimal stand-in for ScheduleOutcome in equivalence tests."""

    def __init__(self, commit_counts, state_sha256):
        self.commit_counts = commit_counts
        self.state_sha256 = state_sha256


class TestCheckEquivalence:
    def test_identical_outcomes_pass(self):
        outcomes = [_Outcome([("r", 4)], "aa")] * 3
        assert check_equivalence(outcomes, expect_state_equal=True) == []

    def test_commit_count_divergence_is_flagged(self):
        outcomes = [
            _Outcome([("r", 4)], "aa"),
            _Outcome([("r", 3)], "aa"),
        ]
        found = check_equivalence(outcomes, expect_state_equal=False)
        assert [v["kind"] for v in found] == ["commit-count-divergence"]
        assert found[0]["details"]["schedule"] == 1

    def test_state_divergence_only_when_expected(self):
        outcomes = [
            _Outcome([("r", 4)], "aa"),
            _Outcome([("r", 4)], "bb"),
        ]
        assert check_equivalence(outcomes, expect_state_equal=False) == []
        found = check_equivalence(outcomes, expect_state_equal=True)
        assert [v["kind"] for v in found] == ["state-divergence"]


class TestRetryBoundOracle:
    """The online monitor's single-retry-bound checks, hook by hook.

    Each case feeds one invocation's abort and commit sequence to an
    unrun micro machine's monitor, as the executor would.
    """

    REGION = ("w", "r")

    @pytest.fixture
    def monitor(self, micro_machine):
        def make(threshold=4, design="baseline"):
            machine = micro_machine(design=design, retry_threshold=threshold)
            for executor in machine.executors:
                executor.invocation = Invoke(self.REGION, lambda: iter(()))
            return machine.monitor
        return make

    def _commit(self, monitor, mode=ExecMode.SPECULATIVE, retries=0, core=0):
        rwsets = (
            None if mode is ExecMode.FALLBACK
            else ReadWriteSets(monitor_epochs=monitor.line_epochs)
        )
        monitor.record_commit(
            core, monitor.machine.executors[core].invocation, mode, rwsets,
            retries,
        )

    def _kind(self, call, *args, **kwargs):
        with pytest.raises(OracleViolation) as excinfo:
            call(*args, **kwargs)
        return excinfo.value.kind, excinfo.value.details

    def test_clean_invocation_passes(self, monitor):
        self._commit(monitor())

    def test_open_invocations_are_not_checked(self, monitor):
        checker = monitor(threshold=2)
        for _ in range(3):
            checker.note_abort(0, ExecMode.SPECULATIVE,
                               AbortReason.MEMORY_CONFLICT)

    def test_ns_cl_memory_conflict_is_flagged(self, monitor):
        kind, details = self._kind(
            monitor().note_abort, 0, ExecMode.NS_CL,
            AbortReason.MEMORY_CONFLICT,
        )
        assert kind == "ns-cl-abort-reason"
        assert details["core"] == 0
        assert details["region"] == list(self.REGION)
        assert details["mode"] == "ns_cl"
        assert details["reason"] == "memory_conflict"

    def test_ns_cl_footprint_deviation_is_allowed(self, monitor):
        checker = monitor()
        checker.note_abort(0, ExecMode.NS_CL, AbortReason.FOOTPRINT_DEVIATION)
        self._commit(checker, mode=ExecMode.SPECULATIVE, retries=1)

    def test_premature_fallback_is_flagged(self, monitor):
        kind, details = self._kind(
            self._commit, monitor(threshold=4), mode=ExecMode.FALLBACK,
            retries=1,
        )
        assert kind == "fallback-threshold"
        assert (details["retries"], details["threshold"]) == (1, 4)
        assert details["commits"][-1]["mode"] == "fallback"

    def test_overdue_non_fallback_commit_is_flagged(self, monitor):
        kind, _ = self._kind(
            self._commit, monitor(threshold=4), mode=ExecMode.SPECULATIVE,
            retries=4,
        )
        assert kind == "fallback-threshold"

    def test_early_fallback_flag_ends_at_commit(self, monitor):
        checker = monitor(threshold=4, design="lrw")
        checker.note_abort(0, ExecMode.SPECULATIVE, AbortReason.CAPACITY)
        self._commit(checker, mode=ExecMode.FALLBACK, retries=1)
        # The next invocation aborted for no early-fallback reason.
        kind, _ = self._kind(
            self._commit, checker, mode=ExecMode.FALLBACK, retries=1
        )
        assert kind == "fallback-threshold"


class TestScheduleArtifact:
    def _artifact(self):
        return ScheduleArtifact(
            "mwobject", SimConfig.for_design("baseline", num_cores=2), 1, [0, 1, 0, 2],
            ops_per_thread=4,
            violations=[{"kind": "serializability", "message": "m",
                         "details": {"x": 1}}],
            decision_points=7,
            stats_sha256="s" * 64, state_sha256="t" * 64,
            notes="unit test artifact",
        )

    def test_dict_round_trip(self):
        artifact = self._artifact()
        rebuilt = ScheduleArtifact.from_dict(artifact.to_dict())
        assert rebuilt.to_dict() == artifact.to_dict()

    def test_json_round_trip(self):
        artifact = self._artifact()
        rebuilt = ScheduleArtifact.from_json(artifact.to_json())
        assert rebuilt.to_dict() == artifact.to_dict()

    def test_save_and_load(self, tmp_path):
        artifact = self._artifact()
        path = str(tmp_path / "artifact.json")
        artifact.save(path)
        assert ScheduleArtifact.load(path).to_dict() == artifact.to_dict()

    def test_rejects_foreign_schema(self):
        data = self._artifact().to_dict()
        data["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            ScheduleArtifact.from_dict(data)

    def test_scheduler_is_a_fresh_replayer(self):
        artifact = self._artifact()
        scheduler = artifact.scheduler()
        assert isinstance(scheduler, ReplayScheduler)
        assert scheduler.pick(0, [0, 1]) == 0
        assert scheduler.pick(1, [0, 1]) == 1
