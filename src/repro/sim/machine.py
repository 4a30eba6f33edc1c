"""The assembled multicore machine and its discrete-event loop.

One :class:`Machine` is one simulation run: a configuration, a workload
instance, and a seed. Cores advance through a time-ordered event heap;
each pop performs one bounded executor action (one AR operation, one
lock-group acquisition, one retry decision, ...). Cores that must wait —
for a cacheline lock, a directory-set lock, or the fallback lock — are
parked and woken whenever any holder releases, then re-check their
condition (no lost wakeups, no directory transients held, matching the
paper's directory-retry rule).
"""

import heapq

from repro.common.errors import (
    CycleLimitExceeded,
    DeadlockError,
    LivelockError,
    SimulationError,
)
from repro.common.rng import DeterministicRng
from repro.core.modes import ExecMode
from repro.htm.arbiter import ConflictArbiter
from repro.htm.powertm import PowerToken
from repro.htm.sharer_index import SharerIndex
from repro.memory.address import line_of_word
from repro.memory.shared import Allocator, SharedMemory
from repro.memory.system import MemorySystem
from repro.obs.events import (
    FallbackAcquire,
    FallbackRelease,
    Park,
    PowerAcquire,
    PowerRelease,
    Wakeup,
)
from repro.sim.executor import (
    STEP_BLOCK,
    STEP_DELAY,
    STEP_DONE,
    CoreExecutor,
)
from repro.sim.faults import FaultPlan
from repro.sim.monitor import OnlineMonitor
from repro.sim.stats import MachineStats

# The watchdog check runs every this-many event-loop pops (power of two
# so the modulo is cheap).
WATCHDOG_CHECK_EVENTS = 1024

# How many trailing trace events a stall diagnostic ships.
DIAGNOSTIC_TRACE_TAIL = 64


def _waiting_on_label(payload):
    """Compact string for a STEP_BLOCK payload ("line:<id>", "fallback", ...)."""
    if isinstance(payload, tuple):
        return "{}:{}".format(payload[0], payload[1])
    return str(payload)


class Machine:
    """A configured multicore machine running one workload.

    ``trace`` is an optional :class:`~repro.obs.trace.TraceSink` (e.g.
    an :class:`~repro.obs.trace.EventTrace`): when attached, the machine
    and its executors emit the typed event stream of
    :mod:`repro.obs.events` into it. Tracing never changes simulated
    behaviour — every emission site is behind an ``if trace`` guard and
    observes state the simulation computes anyway.

    ``scheduler`` is an optional :class:`~repro.verify.Scheduler`: when
    attached, ties between cores runnable at the same cycle are broken
    by ``scheduler.pick`` instead of the built-in lowest-core-first
    order, which is the seam the schedule explorer drives. ``None``
    (the default) leaves the event loop untouched, and the explicit
    :class:`~repro.verify.DefaultScheduler` is bit-identical to it.
    """

    def __init__(self, config, workload, seed=1, trace=None, scheduler=None):
        self.config = config
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.scheduler = scheduler
        # Cycle of the event-loop pop currently executing; kept current
        # by run() so deep callees (stats histograms, trace emission)
        # can timestamp without threading `now` through every call.
        self.now = 0
        self.rng = DeterministicRng(seed)
        self.memory = SharedMemory()
        self.allocator = Allocator()
        self.memsys = MemorySystem(
            num_cores=config.num_cores,
            l1_size=config.l1_size,
            l1_assoc=config.l1_assoc,
            l2_size=config.l2_size,
            l2_assoc=config.l2_assoc,
            l3_size=config.l3_size,
            l3_assoc=config.l3_assoc,
            l1_latency=config.l1_latency,
            l2_latency=config.l2_latency,
            l3_latency=config.l3_latency,
            mem_latency=config.mem_latency,
            directory_sets=config.directory_sets,
        )
        # The HTM design backend: one instance per machine, shared by
        # all executors; every policy choice the booleans used to gate
        # dispatches through its hooks (see repro.htm.design).
        self.design = config.design_class(config)
        fallback_word = self.allocator.alloc_lines(1)
        self.fallback = self.design.build_fallback_lock(
            line=line_of_word(fallback_word)
        )
        self.power = PowerToken()
        self.arbiter = ConflictArbiter(design=self.design)
        # Reverse sharer index: line -> (readers, writers) over every
        # conflict-visible attempt, so conflict checks probe the actual
        # sharers instead of scanning all cores (see htm/sharer_index).
        self.sharer_index = SharerIndex()
        self._sharer_get = self.sharer_index.get
        self.stats = MachineStats(config.num_cores)
        # Event-loop pops in the last run() (host-side perf metric; not
        # part of MachineStats so result serialization is unchanged).
        self.event_count = 0
        workload.setup(
            self.memory,
            self.allocator,
            num_threads=config.num_cores,
            rng=self.rng.child("setup"),
        )
        # Chaos layer: None unless the config enables some fault class,
        # in which case every injection decision derives from dedicated
        # child streams of the run seed (reproducible, and invisible to
        # every other consumer of the rng).
        self.faults = FaultPlan.from_config(config, self.rng, config.num_cores)
        # Online monitor (oracle="online", the default): constructed
        # after workload setup so its value map seeds from the exact
        # post-setup architectural state.
        self.monitor = OnlineMonitor(self) if config.online_monitor else None
        self.executors = []
        for core in range(config.num_cores):
            controller = self.design.make_controller(core=core, machine=self)
            self.executors.append(CoreExecutor(core, self, controller))
        self._action_rngs = [
            self.rng.child(("actions", core)) for core in range(config.num_cores)
        ]
        self._release_pending = False
        if trace is not None:
            # Fallback / power-token transitions are traced via observer
            # hooks so every release site (commit, abort, fallback
            # takeover) is covered without touching the executors.
            self.fallback.observer = self._on_fallback_event
            self.power.observer = self._on_power_event

    # -- trace observer hooks -------------------------------------------------

    def _on_fallback_event(self, event, core, shared):
        if event == "acquire":
            self.trace.emit(FallbackAcquire(self.now, core, shared))
        else:
            self.trace.emit(FallbackRelease(self.now, core, shared))

    def _on_power_event(self, event, core):
        if event == "acquire":
            self.trace.emit(PowerAcquire(self.now, core))
        else:
            self.trace.emit(PowerRelease(self.now, core))

    # -- services used by executors -----------------------------------------

    def next_action(self, core):
        """Next thread-level action for a core (Invoke/Think/None)."""
        return self.workload.next_action(core, self._action_rngs[core])

    def resolve_conflict(self, core, line, is_write, requester_failed=False,
                         requester_unstoppable=False):
        """Arbitrate one memory request via the sharer index.

        O(sharers of ``line``). Every arbitration goes through this
        method on the instance — the executor's body step and CL lock
        acquisition — so replacing it on a machine (a planted arbiter
        bug) reaches every resolution that can find a conflict. The
        body step skips it only where it must return ``NO_CONFLICT``:
        lines no other core tracks (for a load, no other core writes),
        failed-mode stores (they never leave the store queue) and
        fallback ops (mutual exclusion).
        """
        return self.arbiter.resolve_line(
            core, line, is_write, requester_failed,
            self._sharer_get(line),
            power_core=self.power.holder,
            requester_unstoppable=requester_unstoppable,
        )

    def abort_all_speculative(self, reason, exclude):
        """Fallback acquisition: doom every in-flight speculative AR."""
        fallback_line = self.fallback.line
        for executor in self.executors:
            if executor.core == exclude:
                continue
            if not executor.in_flight_speculative:
                continue
            if executor.mode is ExecMode.S_CL:
                raise SimulationError(
                    "S-CL transaction running while fallback acquired: "
                    "the read lock should have prevented this"
                )
            executor.pending_abort = reason
            # Forensics: the "conflict" is the fallback lock line,
            # written (conceptually) by the core taking the lock.
            executor.pending_abort_detail = (fallback_line, exclude, True)
            # Doomed: invisible to conflict detection from this point.
            if executor.rwsets is not None:
                executor.rwsets.detach_index()

    def notify_release(self):
        """Some lock/guard was released: wake all parked cores."""
        self._release_pending = True

    # -- the event loop -------------------------------------------------------

    def run(self):
        """Run to completion; returns the populated MachineStats.

        This heap loop is the simulator's only event loop. Every
        BODY-phase pop runs the executor's one body step (built by
        ``CoreExecutor._fused_body_step``), whatever the design, mode
        or hooks, so every hook below sees the pops of one
        implementation.

        Raises a typed :class:`~repro.common.errors.SimulationStallError`
        subclass when the run cannot complete, each carrying a
        structured :meth:`diagnostic_dump` and the partial stats:

        - :class:`CycleLimitExceeded` — ``max_cycles`` elapsed with the
          workload unfinished (``stats.truncated`` is set).
        - :class:`DeadlockError` — every unfinished core is parked on a
          lock/guard and no release can ever wake them.
        - :class:`LivelockError` — cores keep executing but no AR has
          committed for ``watchdog_cycles`` cycles (opt-in, off by
          default).
        """
        config = self.config
        faults = self.faults
        trace = self.trace
        watchdog = config.watchdog_cycles
        # Hot loop: bind everything touched per pop to locals.
        executors = self.executors
        # One bound method per core, fetched by index: saves an
        # attribute lookup + method bind on every pop.
        step_for = [executor.step for executor in executors]
        stats = self.stats
        scheduler = self.scheduler
        max_cycles = config.max_cycles
        heappush = heapq.heappush
        heappop = heapq.heappop
        heap = []
        for core in range(config.num_cores):
            heappush(heap, (0, core))
        parked = {}
        now = 0
        events = 0
        watchdog_commits = 0
        watchdog_progress_cycle = 0
        self.event_count = 0
        while heap:
            now, core = heappop(heap)
            if scheduler is not None and heap and heap[0][0] == now:
                # Two or more cores are runnable this cycle: let the
                # scheduler break the tie. Stepping a core never makes
                # another core runnable at the *same* cycle (delays and
                # wakeups land at now+1 or later), so re-pushed peers
                # come back through this choice point with one fewer
                # candidate — every pick is a real scheduling decision.
                ready = [core]
                while heap and heap[0][0] == now:
                    ready.append(heappop(heap)[1])
                ready.sort()
                core = ready.pop(scheduler.pick(now, ready))
                for waiting in ready:
                    heappush(heap, (now, waiting))
            self.now = now
            if now > max_cycles:
                self.event_count = events
                stats.truncated = True
                stats.makespan_cycles = max(stats.makespan_cycles, now)
                raise CycleLimitExceeded(
                    "cycle limit {} exceeded with the workload unfinished "
                    "({} of {} cores done)".format(
                        max_cycles,
                        sum(1 for ex in executors if ex.finish_time is not None),
                        config.num_cores,
                    ),
                    diagnostic=self.diagnostic_dump(now, parked),
                    stats=stats,
                )
            events += 1
            if watchdog and events % WATCHDOG_CHECK_EVENTS == 0:
                commits = stats.total_commits
                if commits != watchdog_commits:
                    watchdog_commits = commits
                    watchdog_progress_cycle = now
                elif now - watchdog_progress_cycle > watchdog:
                    self.event_count = events
                    raise LivelockError(
                        "no AR committed in the last {} cycles (cycle {}, "
                        "{} commits so far) while cores keep executing".format(
                            now - watchdog_progress_cycle, now, commits
                        ),
                        diagnostic=self.diagnostic_dump(now, parked),
                        stats=stats,
                    )
            kind, payload = step_for[core](now)
            if kind == STEP_DELAY:
                heappush(heap, (now + (payload if payload > 1 else 1), core))
            elif kind == STEP_BLOCK:
                parked[core] = now
                if trace is not None:
                    trace.emit(Park(now, core, _waiting_on_label(payload)))
            elif kind != STEP_DONE:
                self.event_count = events
                raise SimulationError("unknown step result {!r}".format(kind))
            if self._release_pending:
                self._release_pending = False
                if faults is None and trace is None:
                    # Hook-free wakeup: the common case, with the
                    # None-checks hoisted out of the loop.
                    for parked_core, park_time in parked.items():
                        stats.add_wait(parked_core, max(0, now - park_time))
                        heappush(heap, (max(park_time, now) + 1, parked_core))
                else:
                    for parked_core, park_time in parked.items():
                        stats.add_wait(parked_core, max(0, now - park_time))
                        wake = max(park_time, now) + 1
                        if faults is not None:
                            wake += faults.wakeup_delay(parked_core)
                        if trace is not None:
                            trace.emit(Wakeup(
                                now, parked_core, max(0, now - park_time)
                            ))
                        heappush(heap, (wake, parked_core))
                parked.clear()
        self.event_count = events
        if parked:
            raise DeadlockError(
                "deadlock: cores {} parked with no runnable core to release "
                "what they wait on".format(sorted(parked)),
                diagnostic=self.diagnostic_dump(now, parked),
                stats=self.stats,
            )
        finish_times = [
            executor.finish_time
            for executor in self.executors
            if executor.finish_time is not None
        ]
        self.stats.makespan_cycles = max(finish_times) if finish_times else now
        annotations = self.design.stat_annotations(machine=self)
        if annotations:
            self.stats.design_annotations = dict(annotations)
        if self.monitor is not None:
            self.monitor.finalize()
        return self.stats

    # -- diagnostics ----------------------------------------------------------

    def diagnostic_dump(self, now, parked=None):
        """JSON-serializable snapshot of machine state for stall errors.

        Captures everything needed to diagnose *why* the machine stopped
        making progress: per-core execution phase/mode/retry state, the
        cacheline lock table, fallback and power-token holders, ERT/CRT
        contents, and headline commit/abort totals.
        """
        parked = parked or {}
        cores = []
        for executor in self.executors:
            region = None
            if executor.invocation is not None:
                region = executor.invocation.region_id
                if isinstance(region, tuple):
                    region = list(region)
            entry = {
                "core": executor.core,
                "phase": executor.phase,
                "mode": executor.mode.value if executor.mode is not None else None,
                "region": region,
                "counting_retries": executor.counting_retries,
                "attempt_index": executor.attempt_index,
                "attempt_ops": executor.attempt_ops,
                "pending_abort": (
                    executor.pending_abort.value
                    if executor.pending_abort is not None else None
                ),
                "locked_lines": sorted(executor.locked_lines),
                "fallback_read_held": executor.fallback_read_held,
                "fallback_write_held": executor.fallback_write_held,
                "parked_since": parked.get(executor.core),
                "finished": executor.finish_time is not None,
            }
            if executor.controller is not None:
                entry["controller"] = executor.controller.diagnostic_state()
            cores.append(entry)
        trace_tail = None
        if self.trace is not None:
            trace_tail = [
                event.to_dict()
                for event in self.trace.tail(DIAGNOSTIC_TRACE_TAIL)
            ]
        return {
            "cycle": now,
            "trace_tail": trace_tail,
            "cores": cores,
            "lock_table": self.memsys.locks.snapshot(),
            "fallback_writer": self.fallback.writer,
            "fallback_readers": sorted(self.fallback.readers),
            "power_holder": self.power.holder,
            "total_commits": self.stats.total_commits,
            "total_aborts": self.stats.total_aborts,
            "injected_aborts": (
                self.faults.injected_abort_count() if self.faults is not None else 0
            ),
        }


def build_machine(config, workload, seed=1, trace=None, scheduler=None):
    """Construct the :class:`Machine` for one run.

    The construction seam every entry point uses (``api.simulate``,
    engine workers, the scripts and the benchmark).
    """
    return Machine(config, workload, seed, trace=trace, scheduler=scheduler)
