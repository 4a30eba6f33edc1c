"""Focused tests for executor corner paths.

Each test drives a scripted scenario down one specific edge of the
state machine: fallback-lock abort types, NACKs on locked lines, a
fallback op meeting a foreign line lock, NS-CL footprint deviation,
explicit aborts, CRT population, and zombie-transaction arbitration.
"""

import itertools

import pytest

from repro.common.errors import ProtocolError
from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason
from repro.htm.design import design_name
from repro.memory.address import line_of_word
from repro.sim.config import SimConfig
from repro.sim.executor import RETRY
from repro.sim.machine import Machine
from repro.sim.program import AbortOp, Compute, Invoke, Load, Store
from tests.conftest import both_paths, general_path
from tests.integration.test_machine_basic import ScriptedWorkload, counter_invoke


def run_scripted(scripts, letter="B", cores=2, shared_lines=8, seed=1, **overrides):
    config = SimConfig.for_design(design_name(letter), num_cores=cores, **overrides)
    workload = ScriptedWorkload(scripts, shared_lines=shared_lines)
    machine = Machine(config, workload, seed=seed)
    stats = machine.run()
    return machine, workload, stats


def build_on(reference, build):
    """The machine ``build()`` makes, on the reference step if asked."""
    if not reference:
        return build()
    with general_path():
        return build()


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


class TestFallbackMeetsForeignLock:
    """Fallback is never NACKed, so a foreign line lock is a protocol bug.

    CL attempts hold the fallback lock as readers and drop their line
    locks before releasing it, so no run can reach this; a planted lock
    must stop the run instead of dropping the op.
    """

    def begin_fallback(self, reference, oracle):
        def storer(workload):
            addr = workload.addr(0)

            def body():
                yield Store(addr, 7)

            return Invoke(("scripted", "storer"), body)

        config = SimConfig.for_design("clear", num_cores=2, oracle=oracle)
        workload = ScriptedWorkload({0: [storer]})
        machine = build_on(reference,
                           lambda: Machine(config, workload, seed=1))
        executor = machine.executors[0]
        executor.invocation = machine.next_action(0)
        executor.next_mode = ExecMode.FALLBACK
        executor.phase = RETRY
        executor.step(0)
        assert executor.mode is ExecMode.FALLBACK
        return machine, executor, line_of_word(workload.addr(0))

    @pytest.mark.parametrize("oracle", ["off", "online"])
    @pytest.mark.parametrize("reference", [False, True])
    def test_foreign_lock_raises(self, oracle, reference):
        machine, executor, line = self.begin_fallback(reference, oracle)
        machine.memsys.locks.try_lock(99, line)
        with pytest.raises(ProtocolError,
                           match="line {} locked by core 99".format(line)):
            executor.step(1)


class TestFootprintDeviation:
    def test_ns_cl_deviation_aborts_match_reference(self):
        # The second line comes from a host-side counter bumped for each
        # body instance. It is a plain int, so discovery sees no
        # indirection and picks NS-CL, whose retry then strays from the
        # footprint it locked.
        def build():
            counter = itertools.count(1)

            def deviating(workload):
                hot = workload.addr(0)

                def body():
                    second = workload.addr(next(counter))
                    value = yield Load(hot)
                    yield Compute(200)
                    yield Load(second)
                    yield Store(hot, value + 1)

                return Invoke(("scripted", "deviating"), body)

            script = [deviating] * 12
            config = SimConfig.for_design("clear", num_cores=2,
                                          backoff_base=0)
            workload = ScriptedWorkload(
                {0: list(script), 1: list(script)}, shared_lines=512
            )
            return Machine(config, workload, seed=1)

        machine = build()
        stats = machine.run()
        assert stats.aborts_by_reason[AbortReason.FOOTPRINT_DEVIATION] > 0
        assert stats.total_commits == 24
        assert machine.memory.peek(machine.workload.addr(0)) == 24
        fast, general = both_paths(build)
        assert fast == general


class TestUnknownOp:
    @pytest.mark.parametrize("reference", [False, True])
    def test_unknown_op_raises(self, reference):
        def invoke(workload):
            addr = workload.addr(0)

            def body():
                yield Load(addr)
                yield "not an op"

            return Invoke(("scripted", "unknown"), body)

        config = SimConfig.for_design("clear", num_cores=2)
        machine = build_on(reference, lambda: Machine(
            config, ScriptedWorkload({0: [invoke]}), seed=1
        ))
        with pytest.raises(TypeError, match="unknown op"):
            machine.run()


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
        assert index.snapshot()[7][0] == {0, 1}
        assert machine.resolve_conflict(2, 7, True).victims == [0, 1]

        machine.executors[0].receive_remote_conflict(7, True, 2)
        assert machine.executors[0].pending_abort is AbortReason.MEMORY_CONFLICT
        assert index.snapshot()[7][0] == {1}
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
