"""Integration tests for the online serializability monitor.

The monitor (``oracle="online"``) must stay silent on correct
executions, change no simulated results, leave the executor's fused
body step on (matching the general path exactly), and catch planted
violations — out-of-band tampering, leaks, and commit-time stale reads
from a broken arbiter, which it flags *at the violating commit* rather
than at end of run. The shadow replay in :mod:`tests.shadow` is the
reference it is cross-checked against, both verdicts on the same run.
"""

import pytest

from repro.common.errors import OracleViolation
from repro.core.modes import ExecMode
from repro.htm.arbiter import NO_CONFLICT
from repro.htm.design import DESIGN_REGISTRY
from repro.htm.rwset import ReadWriteSets
from repro.memory.address import line_of_word
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.sim.program import Invoke
from repro.workloads import ALL_NAMES, make_workload
from tests.conftest import general_path
from tests.shadow import ShadowReplay, run_with_shadow


def monitor_config(design="clear", **overrides):
    overrides.setdefault("oracle", "online")
    overrides.setdefault("num_cores", 4)
    return SimConfig.for_design(design, **overrides)


def drop_all_conflicts(machine):
    """Planted arbiter bug: every conflict resolution is silently lost.

    Overlapping ARs stop aborting each other, so stale reads commit;
    the monitor must flag the first such commit.
    """
    machine.resolve_conflict = lambda *args, **kwargs: NO_CONFLICT


class TestMonitorPasses:
    @pytest.mark.parametrize("workload", ["hashmap", "bst", "labyrinth", "mwobject"])
    @pytest.mark.parametrize("design", ["baseline", "clear"])
    def test_silent_on_correct_runs(self, workload, design):
        machine = Machine(
            monitor_config(design),
            make_workload(workload, ops_per_thread=6),
            seed=2,
        )
        stats = machine.run()  # finalize() runs inside; no raise = pass
        assert stats.total_commits > 0
        assert len(machine.monitor.commits) == stats.total_commits

    def test_commit_records_are_serializable(self):
        machine = Machine(
            monitor_config(), make_workload("hashmap", ops_per_thread=5), seed=4
        )
        machine.run()
        assert machine.monitor.commits
        for record in machine.monitor.commits:
            dumped = record.to_dict()
            assert dumped["order"] == record.order
            assert dumped["mode"] in {
                "speculative", "failed_discovery", "ns_cl", "s_cl", "fallback",
            }
            assert dumped["aborted"] is False

    def test_monitor_actually_checks_reads(self):
        machine = Machine(
            monitor_config(), make_workload("hashmap", ops_per_thread=6), seed=2
        )
        machine.run()
        assert machine.monitor.reads_checked > 0

    @pytest.mark.parametrize("design", sorted(DESIGN_REGISTRY))
    def test_silent_across_designs(self, design):
        machine = Machine(
            monitor_config(design),
            make_workload("mwobject", ops_per_thread=6),
            seed=1,
        )
        assert machine.run().total_commits > 0

    def test_monitored_run_matches_plain_run(self):
        plain = Machine(
            SimConfig.for_design("clear", num_cores=4),
            make_workload("hashmap", ops_per_thread=6), seed=5,
        ).run()
        watched = Machine(
            monitor_config(), make_workload("hashmap", ops_per_thread=6), seed=5
        ).run()
        assert plain.to_dict() == watched.to_dict()

    def test_fallback_heavy_run_checked(self):
        # retry_threshold=1 routes contended regions to the serial
        # fallback constantly, exercising the eager fallback hooks.
        machine = Machine(
            monitor_config(retry_threshold=1),
            make_workload("mwobject", ops_per_thread=8),
            seed=1,
        )
        stats = machine.run()
        assert stats.total_commits > 0


class TestFastPathComposition:
    """Online monitoring keeps the fused body step, bit-identically."""

    def monitored(self, workload, seed=1, ops_per_thread=8, **overrides):
        return Machine(
            monitor_config(num_cores=8, **overrides),
            make_workload(workload, ops_per_thread=ops_per_thread), seed,
        )

    def fast_and_general(self, workload, **overrides):
        fast = self.monitored(workload, **overrides)
        with general_path():
            general = self.monitored(workload, **overrides)
        return fast, general

    @pytest.mark.parametrize("checker", ["online", "shadow"])
    def test_checkers_keep_the_fused_step(self, checker):
        machine = self.monitored("genome")
        assert all(executor._body_step != executor._step_body
                   for executor in machine.executors)
        if checker == "shadow":
            # The replay rides on the monitor's hooks, so the runs the
            # agreement tests check are the production runs exactly.
            assert ShadowReplay(machine).run() == (None, None)
            plain = self.monitored("genome").run()
            assert machine.stats.to_dict() == plain.to_dict()

    @pytest.mark.parametrize("workload", ["hashmap", "genome", "mwobject"])
    def test_fast_monitored_stats_bit_identical(self, workload):
        fast, general = self.fast_and_general(workload)
        assert fast.run().to_dict() == general.run().to_dict()
        assert fast.monitor.reads_checked == general.monitor.reads_checked

    def test_fast_monitor_catches_tampering(self):
        machine = self.monitored("hashmap", seed=3, ops_per_thread=6)
        machine.memory.store(10_000_000, 42)
        with pytest.raises(OracleViolation):
            machine.run()

    def test_fast_fallback_heavy_run_checked(self):
        # Fused fallback ops are off while the monitor is armed (its
        # eager hooks live on the general op path); results must still
        # match the general path exactly.
        fast, general = self.fast_and_general("mwobject", retry_threshold=1)
        assert fast.run().to_dict() == general.run().to_dict()

    def test_fast_monitor_catches_dropped_conflicts(self):
        # The fused step arbitrates through the instance's
        # resolve_conflict, so a planted arbiter bug reaches it.
        machine = self.monitored("mwobject", design="baseline")
        drop_all_conflicts(machine)
        with pytest.raises(OracleViolation, match="stale read"):
            machine.run()


class TestMonitorCatches:
    def test_out_of_band_tampering(self):
        machine = Machine(
            monitor_config(), make_workload("hashmap", ops_per_thread=5), seed=3
        )
        machine.memory.store(10_000_000, 42)
        with pytest.raises(OracleViolation) as excinfo:
            machine.run()
        details = excinfo.value.details
        assert any(diff["addr"] == 10_000_000 for diff in details["diffs"])

    def test_leaked_cacheline_lock(self):
        machine = Machine(
            monitor_config(), make_workload("mwobject", ops_per_thread=3), seed=1
        )
        machine.memsys.locks.try_lock(99, 123_456)
        with pytest.raises(OracleViolation, match="lock-table leak"):
            machine.run()

    def test_leaked_power_token(self):
        machine = Machine(
            monitor_config(), make_workload("mwobject", ops_per_thread=3), seed=1
        )
        machine.power.try_acquire(99)
        with pytest.raises(OracleViolation, match="power-token leak"):
            machine.run()

    def test_leaked_fallback_reader(self):
        machine = Machine(
            monitor_config(), make_workload("mwobject", ops_per_thread=3), seed=1
        )
        machine.fallback.try_acquire_read(99)
        with pytest.raises(OracleViolation, match="fallback-lock leak"):
            machine.run()

    @pytest.mark.parametrize("workload,seed", [
        ("mwobject", 1), ("mwobject", 2), ("hashmap", 1),
    ])
    def test_stale_read_caught_at_commit(self, workload, seed):
        machine = Machine(
            monitor_config("baseline", num_cores=8),
            make_workload(workload, ops_per_thread=8), seed,
        )
        drop_all_conflicts(machine)
        with pytest.raises(OracleViolation, match="stale read") as excinfo:
            machine.run()
        stale = excinfo.value.details["stale_reads"]
        assert stale and all(
            entry["current_epoch"] != entry["read_epoch"] for entry in stale
        )


class TestFallbackAbortEpochs:
    """Epochs written by aborted fallback regions name their writer.

    A real run needs ``MAX_OPS_PER_ATTEMPT`` ops in one fallback region
    to abort it, so the monitor is driven directly here.
    """

    WORD = 4096

    def stale_read_after(self, aborts):
        machine = Machine(
            monitor_config("baseline", num_cores=2),
            make_workload("mwobject", ops_per_thread=1), seed=1,
        )
        monitor = machine.monitor
        line = line_of_word(self.WORD)
        fallback_region = Invoke(("fallback", 0), lambda: iter(()))
        for value in range(1, aborts + 1):
            monitor.note_fallback_store(0, self.WORD, value)
            monitor.note_fallback_abort(0, fallback_region)
        reader = ReadWriteSets(monitor_epochs={})
        reader.monitor_reads[line] = 0
        committing = Invoke(("reader", 1), lambda: iter(()))
        with pytest.raises(OracleViolation, match="stale read") as excinfo:
            monitor.record_commit(1, committing, ExecMode.SPECULATIVE, reader)
        return monitor, excinfo.value.details

    @pytest.mark.parametrize("aborts", [1, 2])
    def test_report_names_the_aborted_fallback_region(self, aborts):
        monitor, details = self.stale_read_after(aborts)
        (stale,) = details["stale_reads"]
        assert stale["read_epoch"] == 0
        assert stale["current_epoch"] == aborts
        writer = stale["intervening_commit"]
        assert writer["core"] == 0
        assert writer["region"] == ["fallback", 0]
        assert writer["mode"] == "fallback"
        assert writer["aborted"] is True
        assert details["commit"]["core"] == 1
        # Aborted regions are writers, not commits.
        assert len(monitor.commits) == 1
        assert monitor.clock == aborts + 1


class TestCrossCheck:
    """The monitor's verdict against the shadow replay's, on one run."""

    def test_silent_on_correct_runs(self):
        machine = Machine(
            monitor_config(), make_workload("genome", ops_per_thread=6), seed=1,
        )
        online, shadow = run_with_shadow(machine)
        assert online is None and shadow is None
        assert machine.stats.total_commits > 0

    def test_replay_counts_every_commit(self):
        machine = Machine(
            monitor_config(), make_workload("hashmap", ops_per_thread=6), seed=2,
        )
        replay = ShadowReplay(machine)
        assert replay.run() == (None, None)
        assert replay.commits == machine.stats.total_commits > 0

    def test_both_checkers_flag_planted_bug(self):
        machine = Machine(
            monitor_config("baseline", num_cores=8),
            make_workload("mwobject", ops_per_thread=8), seed=1,
        )
        online, shadow = run_with_shadow(machine, plant=drop_all_conflicts)
        assert "stale read" in str(online)
        assert shadow is not None and shadow.details["diffs"]

    def test_divergence_raised_when_one_checker_goes_blind(self):
        # Planted checker bug: the monitor swallows its verdicts. The
        # replay alone must still flag the conflict-dropping run, or
        # the agreement tests could pass vacuously.
        machine = Machine(
            monitor_config("baseline", num_cores=8),
            make_workload("mwobject", ops_per_thread=8), seed=1,
        )
        replay = ShadowReplay(machine)
        drop_all_conflicts(machine)
        machine.monitor._violation = lambda message, details: None
        online, shadow = replay.run()
        assert online is None
        assert shadow is not None

    def test_both_checkers_flag_tampering(self):
        machine = Machine(
            monitor_config(), make_workload("hashmap", ops_per_thread=5), seed=3
        )

        def tamper(machine):
            machine.memory.store(10_000_000, 42)

        online, shadow = run_with_shadow(machine, plant=tamper)
        assert any(diff["addr"] == 10_000_000
                   for diff in online.details["diffs"])
        assert any(diff["addr"] == 10_000_000
                   for diff in shadow.details["diffs"])


@pytest.mark.slow
class TestCrossCheckGrid:
    """Differential suite: the verdicts agree over the full matrix."""

    @pytest.mark.parametrize("workload", sorted(ALL_NAMES))
    @pytest.mark.parametrize("design", sorted(DESIGN_REGISTRY))
    def test_checkers_agree(self, workload, design):
        machine = Machine(
            SimConfig.for_design(design, num_cores=4, oracle="online"),
            make_workload(workload, ops_per_thread=6), seed=2,
        )
        online, shadow = run_with_shadow(machine)
        assert online is None and shadow is None, (
            "verdicts on {}/{}: online={} shadow={}".format(
                workload, design, online, shadow
            )
        )
        assert machine.stats.total_commits > 0
