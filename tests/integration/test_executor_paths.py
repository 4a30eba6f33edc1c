"""Focused tests for executor corner paths.

Each test drives a scripted scenario down one specific edge of the
state machine: fallback-lock abort types, NACKs on locked lines,
explicit aborts, CRT population, and zombie-transaction arbitration.
"""

from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason
from repro.htm.design import design_name
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.sim.program import AbortOp, Compute, Invoke, Load, Store
from tests.integration.test_machine_basic import ScriptedWorkload, counter_invoke


def run_scripted(scripts, letter="B", cores=2, shared_lines=8, seed=1, **overrides):
    config = SimConfig.for_design(design_name(letter), num_cores=cores, **overrides)
    workload = ScriptedWorkload(scripts, shared_lines=shared_lines)
    machine = Machine(config, workload, seed=seed)
    stats = machine.run()
    return machine, workload, stats


def slow_counter_invoke(compute=200):
    """A long AR so peers overlap with it reliably."""

    def build(workload):
        addr = workload.addr(0)

        def body():
            value = yield Load(addr)
            yield Compute(compute)
            yield Store(addr, value + 1)

        return Invoke(("scripted", "slow"), body)

    return build


def abort_op_invoke():
    def build(workload):
        addr = workload.addr(0)

        def body():
            yield Load(addr)
            yield AbortOp()
            yield Store(addr, 12345)  # must never execute

        return Invoke(("scripted", "aborter"), body)

    return build


class TestFallbackAbortTypes:
    def test_fallback_pressure_produces_fallback_abort_types(self):
        script = [slow_counter_invoke() for _ in range(12)]
        _, _, stats = run_scripted(
            {0: list(script), 1: list(script)},
            retry_threshold=1,
            backoff_base=0,
        )
        fallback_aborts = (
            stats.aborts_by_reason.get(AbortReason.EXPLICIT_FALLBACK, 0)
            + stats.aborts_by_reason.get(AbortReason.OTHER_FALLBACK, 0)
        )
        assert fallback_aborts > 0

    def test_fallback_aborts_do_not_count_toward_threshold(self):
        # With threshold 1 every counting abort goes straight to
        # fallback; the run must still complete every region.
        script = [slow_counter_invoke() for _ in range(12)]
        machine, workload, stats = run_scripted(
            {0: list(script), 1: list(script)},
            retry_threshold=1,
            backoff_base=0,
        )
        assert stats.total_commits == 24
        assert machine.memory.peek(workload.addr(0)) == 24


class TestExplicitAbort:
    def test_explicit_abort_reaches_fallback_and_completes(self):
        script = [abort_op_invoke()]
        machine, workload, stats = run_scripted(
            {0: script}, retry_threshold=2, backoff_base=0
        )
        assert stats.aborts_by_reason.get(AbortReason.EXPLICIT, 0) >= 2
        # The region ends via fallback (where XAbort just ends it).
        assert stats.commits_by_mode.get(ExecMode.FALLBACK, 0) == 1
        # The post-abort store never executed.
        assert machine.memory.peek(workload.addr(0)) == 0

    def test_explicit_abort_marks_region_non_discoverable_under_clear(self):
        script = [abort_op_invoke()]
        machine, _, _ = run_scripted(
            {0: script}, letter="C", retry_threshold=3, backoff_base=0
        )
        entry = machine.executors[0].controller.ert.lookup(("scripted", "aborter"))
        assert entry is not None


class TestNackOnLockedLines:
    def test_speculative_access_to_locked_line_nacks(self):
        # Core 0 converts a hot counter to NS-CL (CLEAR); core 1 keeps
        # accessing it speculatively and must take NACK aborts when the
        # line is held locked.
        script = [slow_counter_invoke() for _ in range(20)]
        _, _, stats = run_scripted(
            {0: list(script), 1: list(script)}, letter="C",
        )
        assert stats.commits_by_mode.get(ExecMode.NS_CL, 0) > 0
        assert stats.aborts_by_reason.get(AbortReason.NACKED, 0) > 0

    def test_nack_categorized_as_memory_conflict(self):
        from repro.htm.abort import AbortCategory, categorize_abort

        assert categorize_abort(AbortReason.NACKED) is AbortCategory.MEMORY_CONFLICT


class TestCrtPopulation:
    def test_conflicting_reads_recorded(self):
        # Readers of line 0 conflict with writers of line 0: the line is
        # read-only for the reader region, so the reader's CRT learns it.
        def reader(workload):
            addr = workload.addr(0)
            sink = workload.addr(1)

            def body():
                value = yield Load(addr)
                yield Compute(150)
                accum = yield Load(sink)
                yield Store(sink, accum + value)

            return Invoke(("scripted", "reader"), body)

        def writer(workload):
            addr = workload.addr(0)

            def body():
                value = yield Load(addr)
                yield Compute(150)
                yield Store(addr, value + 1)

            return Invoke(("scripted", "writer"), body)

        machine, _, _ = run_scripted(
            {0: [reader] * 15, 1: [writer] * 15}, letter="C", cores=2,
        )
        reader_crt = machine.executors[0].controller.crt
        assert len(reader_crt) > 0


class TestZombieArbitration:
    def test_peer_view_hides_doomed_transactions(self):
        # A doomed (zombie) transaction stops arbitrating the instant it
        # is doomed: the sharer index forgets it, so later requesters
        # no longer see it as a victim (or, in power mode, a nacker).
        script = [slow_counter_invoke() for _ in range(6)]
        machine, _, _ = run_scripted(
            {0: list(script), 1: list(script), 2: list(script)}, cores=3
        )
        index = machine.sharer_index
        for core in (0, 1):
            executor = machine.executors[core]
            executor.phase = "body"
            executor.mode = ExecMode.SPECULATIVE
            executor.rwsets = executor._new_rwsets()
            executor.rwsets.record_read(7)
        assert index.get(7).readers == {0, 1}
        assert machine.resolve_conflict(2, 7, True).victims == [0, 1]

        machine.executors[0].receive_remote_conflict(7, True, 2)
        assert machine.executors[0].pending_abort is AbortReason.MEMORY_CONFLICT
        assert index.get(7).readers == {1}
        machine.abort_all_speculative(AbortReason.OTHER_FALLBACK, exclude=2)
        assert index.get(7) is None
        assert not machine.resolve_conflict(2, 7, True).victims


class TestRetryModeTransitions:
    def test_scl_abort_falls_back_to_speculative_retry(self):
        # Pointer-chased, contended region: S-CL attempts will sometimes
        # abort; the next attempt must be a plain speculative retry, and
        # everything still completes.
        from tests.integration.test_modes import pointer_chase_invoke

        script = [pointer_chase_invoke() for _ in range(15)]
        _, _, stats = run_scripted(
            {0: list(script), 1: list(script)}, letter="C",
        )
        assert stats.total_commits == 30
