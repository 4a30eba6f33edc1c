"""Per-core atomic-region execution state machine.

Drives one hardware thread through its workload actions. Each atomic
region invocation proceeds through attempts:

1. A **speculative** attempt (TSX-like), doubling as CLEAR's discovery
   phase when enabled. A conflict does not abort immediately — the
   attempt enters *failed mode* and keeps executing to finish learning
   its footprint (paper §4.1/§4.2).
2. The retry runs in the mode picked by the decision tree: **NS-CL**
   (ordered cacheline locking, non-speculative), **S-CL** (cacheline
   locking of the critical footprint plus conflict detection), or a
   plain **speculative retry**.
3. When the counting-retry budget is exhausted, the **fallback** path
   serializes the region under the global lock.

The executor is driven by :class:`repro.sim.machine.Machine` via
:meth:`step`, which performs one bounded action and reports either a
cycle cost or a blocking condition. The BODY phase has a fast path,
:meth:`CoreExecutor._fused_body_step`, for the plain speculative and
fallback operations that dominate every run.
"""

from repro.common.constants import WORDS_PER_LINE
from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason, counts_toward_retry_limit, NON_MEMORY_REASONS
from repro.htm.rwset import CapacityExceeded, ReadWriteSets
from repro.htm.sharer_index import LineSharers
from repro.memory.address import line_of_word
from repro.memory.directory import DirectoryEntry
from repro.memory.locking import LockDenied, NackError
from repro.obs.events import (
    ARAbort,
    ARBegin,
    ARCommit,
    FaultInjected,
    LockAcquire,
    LocksRelease,
)
from repro.sim.program import AbortOp, Branch, Compute, Invoke, Load, Store, Think
from repro.sim.replay import replay_body
from repro.core.indirection import TaintedValue

# Executor phases.
IDLE = "idle"
BODY = "body"
LOCK_ACQUIRE = "lock_acquire"
BEGIN_WAIT = "begin_wait"  # speculative begin blocked on fallback writer
GUARD_WAIT = "guard_wait"  # CL begin blocked on fallback writer
FALLBACK_WAIT = "fallback_wait"  # fallback begin blocked on lock holders
RETRY = "retry"  # abort processed; next step starts the next attempt
DONE = "done"

# Safety bound on operations per attempt (defends against pathological
# traversals of speculatively observed, inconsistent data structures).
MAX_OPS_PER_ATTEMPT = 200_000

# Step results.
STEP_DELAY = "delay"
STEP_BLOCK = "block"
STEP_DONE = "done"


class CoreExecutor:
    """One core's execution state."""

    __slots__ = (
        "core", "machine", "config", "design", "controller", "phase", "mode",
        "rng",
        "invocation", "counting_retries", "attempt_index", "next_mode",
        "saved_discovery", "invocation_aborts", "first_abort_footprint",
        "fig1_recorded", "discovery", "rwsets", "gen", "gen_send_value",
        "attempt_ops", "attempt_loads",
        "attempt_stores", "pending_abort", "pending_abort_detail",
        "_fault_abort_at",
        "_fault_abort_reason", "fallback_read_held", "fallback_write_held",
        "locked_lines", "_lock_groups", "_lock_group_idx", "_lock_set_held",
        "finish_time", "trace", "attempt_begin_cycle", "first_lock_cycle",
        "fallback_entry_cycle", "ledger", "monitor", "_body_step",
    )

    def __init__(self, core, machine, controller=None):
        self.core = core
        self.machine = machine
        self.config = machine.config
        # The machine's HtmDesign instance: every policy decision the
        # config booleans used to gate dispatches through its hooks.
        self.design = machine.design
        self.controller = controller
        self.trace = machine.trace
        # Opt-in per-invocation attempt accounting for the retry-bound
        # oracle (repro.verify); None on ordinary runs.
        self.ledger = machine.retry_ledger
        # Online serializability monitor (repro.sim.monitor); None
        # unless config.oracle is "online".
        self.monitor = machine.monitor
        self.phase = IDLE
        self.mode = None
        self.rng = machine.rng.child(("core", core))
        # Invocation state.
        self.invocation = None
        self.counting_retries = 0
        self.attempt_index = 0
        self.next_mode = ExecMode.SPECULATIVE
        self.saved_discovery = None
        self.invocation_aborts = 0
        self.first_abort_footprint = None
        self.fig1_recorded = False
        # Attempt state.
        self.discovery = None
        self.rwsets = None
        self.gen = None
        self.gen_send_value = None
        self.attempt_ops = 0
        self.attempt_loads = 0
        self.attempt_stores = 0
        self.pending_abort = None
        # Forensic detail of the pending conflict as one
        # (line, enemy core, enemy-was-write) tuple — a single store on
        # the per-attempt path. Survives the failed-mode hold so the
        # eventual abort names the original conflict.
        self.pending_abort_detail = None
        # Cycle timestamps feeding the latency histograms (always on)
        # and the trace. Stamped by every begin path before any abort
        # can fire, so aborts read them without a staleness check.
        self.attempt_begin_cycle = None
        self.first_lock_cycle = None
        self.fallback_entry_cycle = None
        # Chaos layer: op index at which this attempt's injected abort
        # fires (None = attempt spared or chaos disabled).
        self._fault_abort_at = None
        self._fault_abort_reason = None
        self.fallback_read_held = False
        self.fallback_write_held = False
        self.locked_lines = set()
        self._lock_groups = []
        self._lock_group_idx = 0
        self._lock_set_held = None
        self.finish_time = None
        # The BODY-phase step: the fused fast path when this run can
        # take it, else the general one.
        self._body_step = self._fused_body_step() or self._step_body

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------

    def step(self, now):
        """Perform one bounded action; returns (kind, payload)."""
        # Dispatch ordered by observed frequency (BODY dominates every
        # workload, then the idle fetch and abort-retry transitions);
        # the phases are mutually exclusive so order is free to choose.
        phase = self.phase
        if phase == BODY:
            return self._body_step()
        if phase == IDLE:
            return self._step_idle(now)
        if phase == RETRY:
            return self._start_attempt()
        if phase == LOCK_ACQUIRE:
            return self._step_lock_acquire()
        if phase == BEGIN_WAIT:
            return self._step_begin_wait()
        if phase == GUARD_WAIT:
            return self._step_guard_wait()
        if phase == FALLBACK_WAIT:
            return self._step_fallback_wait()
        if phase == DONE:
            return (STEP_DONE, None)
        raise AssertionError("unknown phase {!r}".format(phase))

    @property
    def in_flight_speculative(self):
        """True when this core has abortable speculative state."""
        return (
            self.phase == BODY
            and self.mode is not None
            and self.mode.is_speculative
        )

    # ------------------------------------------------------------------
    # Idle: fetch the next thread action
    # ------------------------------------------------------------------

    def _step_idle(self, now):
        action = self.machine.next_action(self.core)
        if action is None:
            self.phase = DONE
            self.finish_time = now
            return (STEP_DONE, None)
        if isinstance(action, Think):
            self.machine.stats.record_compute(max(1, action.cycles))
            return self._busy(max(1, action.cycles))
        if isinstance(action, Invoke):
            self.invocation = action
            self.counting_retries = 0
            self.attempt_index = 0
            self.next_mode = ExecMode.SPECULATIVE
            self.saved_discovery = None
            self.invocation_aborts = 0
            self.first_abort_footprint = None
            self.fig1_recorded = False
            if self.ledger is not None:
                self.ledger.note_invoke(self.core, action.region_id)
            return self._start_attempt()
        raise TypeError("unknown thread action {!r}".format(action))

    # ------------------------------------------------------------------
    # Attempt setup
    # ------------------------------------------------------------------

    def _start_attempt(self):
        self.attempt_index += 1
        self.attempt_ops = 0
        self.attempt_loads = 0
        self.attempt_stores = 0
        self.pending_abort = None
        self.pending_abort_detail = None
        self._note_fig1_retry_start()
        mode = self.next_mode
        if mode is ExecMode.FALLBACK:
            return self._try_begin_fallback()
        if mode in (ExecMode.NS_CL, ExecMode.S_CL):
            return self._try_begin_cacheline_locked(mode)
        return self._try_begin_speculative()

    def _try_begin_speculative(self):
        machine = self.machine
        fallback = machine.fallback
        if fallback.is_write_held():
            # Explicit Fallback abort: the lock is found taken at begin.
            machine.stats.record_abort(
                self.core, AbortReason.EXPLICIT_FALLBACK, self.invocation.region_id
            )
            if self.ledger is not None:
                # No attempt began: mode None marks the at-begin abort.
                self.ledger.note_abort(
                    self.core, None, AbortReason.EXPLICIT_FALLBACK
                )
            if self.trace is not None:
                # No attempt ever started, so there is no span to close:
                # mode None marks the at-begin abort, and the enemy is
                # the fallback writer holding the lock line.
                self.trace.emit(ARAbort(
                    machine.now, self.core, self.invocation.region_id,
                    None, self.attempt_index, AbortReason.EXPLICIT_FALLBACK,
                    line=fallback.line, enemy=fallback.writer,
                    enemy_write=True,
                ))
            self.phase = BEGIN_WAIT
            return (STEP_BLOCK, "fallback")
        self.mode = ExecMode.SPECULATIVE
        self.rwsets = self._new_rwsets()
        self.rwsets.record_read(fallback.line)
        self.discovery = None
        if self.controller is not None:
            self.discovery = self.controller.begin_invocation(self.invocation.region_id)
        if self.design.wants_power_token(counting_retries=self.counting_retries):
            machine.power.try_acquire(self.core)
        self._plan_fault_injection()
        self.gen = self.invocation.body_factory()
        self.gen_send_value = None
        self.phase = BODY
        machine.stats.record_begin(self.core)
        if self.ledger is not None:
            self.ledger.note_begin(self.core, ExecMode.SPECULATIVE)
        self.attempt_begin_cycle = machine.now
        if self.trace is not None:
            self.trace.emit(ARBegin(
                machine.now, self.core, self.invocation.region_id,
                ExecMode.SPECULATIVE, self.attempt_index,
            ))
        return self._busy(self.config.tx_begin_cycles)

    def _plan_fault_injection(self):
        """Draw this speculative attempt's injected-abort schedule.

        Spurious/capacity faults only strike attempts with speculative
        state to lose; NS-CL and fallback keep their completion
        guarantees (the paper's claim under test is precisely that the
        non-speculative modes finish regardless of HTM misbehaviour).
        """
        faults = self.machine.faults
        if faults is None or not self.mode.is_speculative:
            return
        planned = faults.plan_attempt(self.core)
        if planned is not None:
            self._fault_abort_reason, self._fault_abort_at = planned

    def _step_begin_wait(self):
        if self.machine.fallback.is_write_held():
            return (STEP_BLOCK, "fallback")
        return self._start_attempt_again()

    def _start_attempt_again(self):
        # Re-enter _start_attempt without consuming a new attempt index.
        self.attempt_index -= 1
        return self._start_attempt()

    def _new_rwsets(self):
        # Design-provided conflict-detecting tracking; the default is
        # cache-geometry ReadWriteSets with every tracked line
        # registered in the machine-global sharer index.
        return self.design.build_rwsets(executor=self)

    # ------------------------------------------------------------------
    # Cacheline-locked attempts (NS-CL / S-CL)
    # ------------------------------------------------------------------

    def _try_begin_cacheline_locked(self, mode):
        fallback = self.machine.fallback
        if not fallback.try_acquire_read(self.core):
            self.phase = GUARD_WAIT
            self.next_mode = mode
            return (STEP_BLOCK, "fallback")
        self.fallback_read_held = True
        self.mode = mode
        if mode is ExecMode.S_CL:
            self.rwsets = self._new_rwsets()
        else:
            # NS-CL needs no conflict detection, but stores are still
            # buffered until XEnd so the defensive footprint-deviation
            # abort can never leak a partial update (capacity checks are
            # off: discovery already proved the footprint fits). Its
            # reads are still epoch-checked by the monitor — every
            # accessed line is locked, so recorded epochs cannot move
            # on a correct machine.
            monitor = self.monitor
            self.rwsets = ReadWriteSets(
                l1_sets=None, l2_sets=None,
                monitor_epochs=(
                    monitor.line_epochs if monitor is not None else None
                ),
            )
        self.discovery = None
        self._plan_fault_injection()  # strikes S-CL only; NS-CL is immune
        self._lock_groups = self.controller.prepare_lock_plan(self.saved_discovery, mode)
        self._lock_group_idx = 0
        self._lock_set_held = None
        self.locked_lines = set()
        self.first_lock_cycle = None
        self.phase = LOCK_ACQUIRE
        self.machine.stats.record_begin(self.core)
        if self.ledger is not None:
            self.ledger.note_begin(self.core, mode)
        self.attempt_begin_cycle = self.machine.now
        if self.trace is not None:
            self.trace.emit(ARBegin(
                self.machine.now, self.core, self.invocation.region_id,
                mode, self.attempt_index,
            ))
        return self._busy(self.config.tx_begin_cycles)

    def _step_guard_wait(self):
        if self.machine.fallback.is_write_held():
            return (STEP_BLOCK, "fallback")
        return self._start_attempt_again()

    def _step_lock_acquire(self):
        memsys = self.machine.memsys
        if self._lock_group_idx >= len(self._lock_groups):
            # All locks held: start executing the body.
            self.gen = self.invocation.body_factory()
            self.gen_send_value = None
            self.phase = BODY
            return self._busy(1)
        group = self._lock_groups[self._lock_group_idx]
        dir_set = group[0].dir_set
        set_holder = memsys.directory.set_lock_holder(dir_set)
        if set_holder is not None and set_holder != self.core:
            return (STEP_BLOCK, ("dirset", dir_set))
        cycles = 0
        if len(group) > 1:
            # Lexicographical group: probe the private cache first.
            all_exclusive = all(
                memsys.probe_exclusive_hit(self.core, entry.line) for entry in group
            )
            for entry in group:
                entry.hit = memsys.probe_exclusive_hit(self.core, entry.line)
            if not all_exclusive and self._lock_set_held is None:
                memsys.directory.lock_set(self.core, dir_set)
                self._lock_set_held = dir_set
                cycles += self.config.l3_latency  # directory round to lock the set
        try:
            for entry in group:
                if entry.locked:
                    continue
                cycles += self._acquire_one_lock(entry)
        except LockDenied as denied:
            self._release_group_set_lock()
            if cycles:
                self.machine.stats.add_busy(self.core, cycles, lock_acquire=True)
            return (STEP_BLOCK, ("line", denied.line))
        except NackError as nacked:
            # A power-mode transaction holds the line in its sets and
            # nacks the lock request (paper §5.2): this CL attempt aborts.
            self._release_group_set_lock()
            return self._abort_attempt(
                AbortReason.NACKED, line=nacked.line, enemy=nacked.holder
            )
        except OverflowError:
            self._release_group_set_lock()
            return self._abort_attempt(AbortReason.LOCK_SET_FAILURE)
        self._release_group_set_lock()
        self._lock_group_idx += 1
        return self._busy(max(1, cycles), lock_acquire=True)

    def _acquire_one_lock(self, entry):
        machine = self.machine
        # Taking a line exclusively conflicts with every speculative peer
        # tracking it, exactly like a write request: requester wins,
        # unless a power-mode peer nacks us (§5.2).
        resolution = machine.resolve_conflict(
            self.core, entry.line, True,
            requester_unstoppable=self.mode is ExecMode.NS_CL,
        )
        if resolution.requester_abort_reason is not None:
            raise NackError(entry.line, resolution.nacking_core)
        for victim in resolution.victims:
            machine.executors[victim].receive_remote_conflict(
                entry.line, True, self.core
            )
        latency = machine.memsys.acquire_line_lock(self.core, entry.line)
        entry.locked = True
        self.locked_lines.add(entry.line)
        if self.first_lock_cycle is None:
            self.first_lock_cycle = machine.now
        machine.stats.record_lock_acquired()
        machine.stats.record_access("LOCK")
        if self.trace is not None:
            self.trace.emit(LockAcquire(machine.now, self.core, entry.line))
        return latency

    def _release_group_set_lock(self):
        if self._lock_set_held is not None:
            self.machine.memsys.directory.unlock_set(self.core, self._lock_set_held)
            self._lock_set_held = None
            self.machine.notify_release()

    # ------------------------------------------------------------------
    # Fallback attempts
    # ------------------------------------------------------------------

    def _try_begin_fallback(self):
        fallback = self.machine.fallback
        if not fallback.try_acquire_write(self.core):
            self.phase = FALLBACK_WAIT
            return (STEP_BLOCK, "fallback")
        self.fallback_write_held = True
        self.mode = ExecMode.FALLBACK
        self.rwsets = None
        self.discovery = None
        if self.machine.power.release(self.core):
            self.machine.notify_release()
        # Taking the lock aborts every in-flight speculative AR that has
        # the lock line in its read set.
        self.machine.abort_all_speculative(AbortReason.OTHER_FALLBACK, exclude=self.core)
        self.gen = self.invocation.body_factory()
        self.gen_send_value = None
        self.phase = BODY
        self.machine.stats.record_begin(self.core)
        if self.ledger is not None:
            self.ledger.note_begin(self.core, ExecMode.FALLBACK)
        self.attempt_begin_cycle = self.machine.now
        self.fallback_entry_cycle = self.machine.now
        if self.trace is not None:
            self.trace.emit(ARBegin(
                self.machine.now, self.core, self.invocation.region_id,
                ExecMode.FALLBACK, self.attempt_index,
            ))
        return self._busy(self.config.tx_begin_cycles)

    def _step_fallback_wait(self):
        fallback = self.machine.fallback
        if fallback.is_write_held() or fallback.readers:
            return (STEP_BLOCK, "fallback")
        return self._start_attempt_again()

    # ------------------------------------------------------------------
    # Body execution
    # ------------------------------------------------------------------

    def _step_body(self):
        if self.pending_abort is not None:
            reason = self.pending_abort
            self.pending_abort = None
            if (
                self.mode is ExecMode.SPECULATIVE
                and self.discovery is not None
                and reason is AbortReason.MEMORY_CONFLICT
                and not self.discovery.exhausted
                and self.config.failed_mode_discovery
            ):
                # Hold the abort: continue discovering in failed mode.
                self.controller.note_conflict(self.discovery)
                self.mode = ExecMode.FAILED_DISCOVERY
            elif (
                self.mode is ExecMode.SPECULATIVE
                and self.discovery is not None
                and reason is AbortReason.MEMORY_CONFLICT
                and not self.config.failed_mode_discovery
            ):
                # Ablation: no failed mode — decide from whatever the
                # partial discovery saw, then abort immediately.
                decision = self.controller.conclude_failed_discovery(self.discovery)
                self.saved_discovery = self.discovery
                return self._abort_attempt(reason, decided_mode=decision.mode)
            else:
                return self._abort_attempt(reason)
        self.attempt_ops += 1
        if self.attempt_ops > MAX_OPS_PER_ATTEMPT:
            return self._abort_attempt(AbortReason.OTHER)
        if self._fault_abort_at is not None and self.attempt_ops >= self._fault_abort_at:
            reason = self._fault_abort_reason
            self._fault_abort_at = None
            self._fault_abort_reason = None
            self.machine.faults.note_injected(self.core, reason, self.attempt_index)
            if self.trace is not None:
                self.trace.emit(FaultInjected(
                    self.machine.now, self.core, reason, self.attempt_index
                ))
            return self._abort_attempt(reason)
        if self.config.speculation == "sle" and self.mode.is_speculative:
            # In-core speculation (§4.1): the attempt lives inside the
            # ROB/LQ/SQ window; exhausting it forces an abort and marks
            # the region non-convertible.
            overflow = None
            if self.attempt_ops > self.config.rob_entries:
                overflow = AbortReason.ROB_OVERFLOW
            elif self.attempt_loads > self.config.lq_entries:
                overflow = AbortReason.ROB_OVERFLOW
            elif self.attempt_stores > self.config.sq_entries:
                overflow = AbortReason.SQ_OVERFLOW
            if overflow is not None:
                if self.controller is not None:
                    entry = self.controller.ert.ensure(self.invocation.region_id)
                    entry.is_convertible = False
                return self._abort_attempt(overflow)
        try:
            op = self.gen.send(self.gen_send_value)
        except StopIteration:
            return self._region_end()
        self.gen_send_value = None
        return self._exec_op(op)

    def _exec_op(self, op):
        """Execute one operation the body yielded (the general path)."""
        if isinstance(op, Load):
            return self._exec_memory_op(op, is_store=False)
        if isinstance(op, Store):
            return self._exec_memory_op(op, is_store=True)
        if isinstance(op, Compute):
            if self.discovery is not None:
                self.discovery.on_compute(op.ops)
            self.machine.stats.record_compute(op.ops)
            return self._busy(max(1, op.cycles))
        if isinstance(op, Branch):
            if self.discovery is not None:
                self.discovery.on_branch(op.condition_tainted)
            self.machine.stats.record_branch()
            return self._busy(1)
        if isinstance(op, AbortOp):
            if self.mode is ExecMode.FALLBACK:
                # The fallback path is not a transaction: an XAbort there
                # simply ends the region (its direct stores are already
                # architectural). This keeps always-aborting regions from
                # cycling forever between fallback and retry.
                return self._commit(via_abort=True)
            return self._abort_attempt(AbortReason.EXPLICIT)
        raise TypeError("AR body yielded unknown op {!r}".format(op))

    def _exec_memory_op(self, op, is_store):
        # Every memory op the fused body step does not cover. Everything
        # touched more than once is bound to a local up front.
        machine = self.machine
        memsys = machine.memsys
        mode = self.mode
        rwsets = self.rwsets
        discovery = self.discovery
        word_addr = op.word_addr
        line = line_of_word(word_addr)
        if is_store:
            self.attempt_stores += 1
        else:
            self.attempt_loads += 1

        # NS-CL guarantee: every access must be within the learned,
        # locked footprint. A deviation disproves immutability.
        if mode is ExecMode.NS_CL and line not in self.locked_lines:
            if self.controller is not None:
                entry = self.controller.ert.ensure(self.invocation.region_id)
                entry.is_immutable = False
            return self._abort_attempt(AbortReason.FOOTPRINT_DEVIATION)

        # Cacheline lock gate.
        if line not in self.locked_lines:
            try:
                memsys.locks.check_access(
                    self.core, line, nackable=mode is not ExecMode.FALLBACK
                )
            except NackError as nacked:
                return self._abort_attempt(
                    AbortReason.NACKED, line=nacked.line, enemy=nacked.holder
                )
            except LockDenied as denied:
                return (STEP_BLOCK, ("line", denied.line))

        # Failed-mode stores never leave the SQ: no coherence request.
        if mode is ExecMode.FAILED_DISCOVERY and is_store:
            discovery.on_store(line, op.addr_tainted)
            if rwsets is not None:
                try:
                    rwsets.record_write(line)
                except CapacityExceeded as exc:
                    return self._abort_attempt(
                        self.design.classify_capacity_abort(
                            executor=self, exc=exc
                        ),
                        line=exc.line,
                    )
                rwsets.buffer_store(word_addr, op.store_value)
            if discovery.exhausted:
                return self._conclude_exhausted_failed_discovery()
            return self._busy(1, failed_discovery=True)

        # Conflict arbitration (failed-mode loads are non-aborting):
        # probe the sharer index for this line instead of scanning every
        # core. Fallback runs under mutual exclusion: every speculative
        # AR was aborted when the lock was taken and none can begin
        # while it is held, so its direct (unrecoverable) stores never
        # arbitrate.
        if mode is not ExecMode.FALLBACK:
            resolution = machine.resolve_conflict(
                self.core, line, is_store,
                requester_failed=mode is ExecMode.FAILED_DISCOVERY,
            )
            if resolution.requester_abort_reason is not None:
                return self._abort_attempt(
                    resolution.requester_abort_reason,
                    line=line, enemy=resolution.nacking_core,
                )
            for victim in resolution.victims:
                machine.executors[victim].receive_remote_conflict(
                    line, is_store, self.core
                )

        result = memsys.access(self.core, line, is_store)
        machine.stats.record_access(result.level)
        latency = result.latency
        if machine.faults is not None:
            latency += machine.faults.jitter(self.core)

        # Speculative set tracking / capacity.
        if rwsets is not None:
            try:
                if is_store:
                    rwsets.record_write(line)
                else:
                    rwsets.record_read(line)
            except CapacityExceeded as exc:
                return self._capacity_abort(exc)

        # Discovery footprint and indirection tracking.
        failed = mode is ExecMode.FAILED_DISCOVERY
        if discovery is not None:
            if is_store:
                discovery.on_store(line, op.addr_tainted)
            else:
                discovery.on_load(line, op.addr_tainted)
            if failed and discovery.exhausted:
                return self._conclude_exhausted_failed_discovery()

        # Architectural data movement.
        if is_store:
            if rwsets is not None:
                rwsets.buffer_store(word_addr, op.store_value)
            else:
                # Fallback: direct store, applied to the monitor's
                # value map as it is issued (mutual exclusion means no
                # concurrent commit can interleave).
                value = op.store_value
                machine.memory.store(word_addr, value)
                if self.monitor is not None:
                    self.monitor.note_fallback_store(
                        self.core, word_addr, value
                    )
            return self._busy(latency, failed_discovery=failed)
        if rwsets is not None:
            forwarded = rwsets.forwarded_load(word_addr)
            value = forwarded if forwarded is not None else machine.memory.load(word_addr)
        else:
            value = machine.memory.load(word_addr)
            if self.monitor is not None:
                # Fallback loads are checked eagerly: under mutual
                # exclusion memory must match the committed prefix.
                self.monitor.note_fallback_load(self.core, word_addr, value)
        self.gen_send_value = TaintedValue(value, tainted=True)
        return self._busy(latency, failed_discovery=failed)

    def _capacity_abort(self, exc):
        """Abort on a tracking-set overflow; the region is not convertible."""
        if self.discovery is not None:
            entry = self.controller.ert.ensure(self.invocation.region_id)
            entry.is_convertible = False
        return self._abort_attempt(
            self.design.classify_capacity_abort(executor=self, exc=exc),
            line=exc.line,
        )

    # ------------------------------------------------------------------
    # Body execution: the fused fast path
    # ------------------------------------------------------------------

    def _fused_body_step(self):
        """This core's fused BODY step, or None if the run cannot take it.

        The fused step is :meth:`_step_body` plus :meth:`_exec_memory_op`
        written out for the dominant event: a Load/Store of a plain
        speculative HTM attempt (cache-geometry ``ReadWriteSets`` in the
        machine's sharer index, no locked lines) or of a plain fallback
        execution with no monitor armed, plus Compute and Branch ops.
        Lock gate, sharer-index arbitration, the private-hit memory
        path, rwset tracking and data movement run in one frame over
        per-core state bound here, instead of ~40 calls. Everything
        else — a pending abort, failed discovery, CL modes, bounded
        ``lrw`` sets, cache misses, rare op classes — calls the general
        methods, so the fused step only shortcuts the common case and
        never re-implements a slow one.

        It exists when the run has HTM speculation (SLE bounds every op
        by the ROB/LQ/SQ window) and no fault plan (injected aborts and
        latency jitter live on the general path). Trace, scheduler,
        retry ledger, watchdog and the checkers observe nothing inside
        a plain body op, so they leave it on; the online monitor's
        first-read epochs are recorded inline. Conflicts are arbitrated
        by ``machine.resolve_conflict``, looked up on every call so an
        override on the instance sees each resolution that can find a
        conflict; a line no other core tracks cannot conflict and is
        not arbitrated.
        """
        machine = self.machine
        if machine.faults is not None or self.config.speculation != "htm":
            return None
        core = self.core
        stats = machine.stats
        core_stats = stats.cores[core]
        accesses = stats.accesses_by_level
        compute_ops = stats._compute_ops
        branch_ops = stats._branch_ops
        sharer_index = machine.sharer_index
        sharer_lines = sharer_index._lines
        memsys = machine.memsys
        lock_holders = memsys.locks._holders
        directory_entries = memsys.directory._entries
        l1_sets, l1_nsets = memsys.l1[core]._sets, memsys.l1[core].num_sets
        l2 = memsys.l2[core]
        l2_sets, l2_nsets, l2_install = l2._sets, l2.num_sets, l2.install
        l3 = memsys.l3
        l3_sets, l3_nsets, l3_install = l3._sets, l3.num_sets, l3.install
        l1_latency = memsys.l1_latency
        mem_read = memsys._read
        mem_write = memsys._write
        drop_private = memsys._drop_private_line
        memory = machine.memory
        mem_words = memory._words
        monitor = self.monitor
        tv_new = TaintedValue.__new__
        speculative = ExecMode.SPECULATIVE
        fallback_mode = ExecMode.FALLBACK

        def fused_body_step():
            if self.pending_abort is not None:
                return self._step_body()
            attempt_ops = self.attempt_ops + 1
            self.attempt_ops = attempt_ops
            if attempt_ops > MAX_OPS_PER_ATTEMPT:
                return self._abort_attempt(AbortReason.OTHER)
            try:
                op = self.gen.send(self.gen_send_value)
            except StopIteration:
                return self._region_end()
            self.gen_send_value = None
            cls = op.__class__
            if cls is Load or cls is Store:
                is_store = cls is Store
                rwsets = self.rwsets
                mode = self.mode
                if (
                    mode is speculative
                    and rwsets.__class__ is ReadWriteSets
                    and rwsets._index is sharer_index
                    and not self.locked_lines
                ):
                    spec = True
                elif (
                    mode is fallback_mode
                    and rwsets is None
                    and self.discovery is None
                    and monitor is None
                    and not self.locked_lines
                    and not lock_holders
                ):
                    # Fallback runs under mutual exclusion with direct
                    # stores: no lock gate (the table is empty), no
                    # arbitration, no tracking sets. With a monitor
                    # armed its eager fallback hooks need the general
                    # path (fallback traffic is rare).
                    spec = False
                else:
                    return self._exec_memory_op(op, is_store)
                addr = op.addr
                addr_is_tv = addr.__class__ is TaintedValue
                word_addr = addr.value if addr_is_tv else int(addr)
                line = word_addr // WORDS_PER_LINE
                if is_store:
                    self.attempt_stores += 1
                else:
                    self.attempt_loads += 1

                if spec:
                    # Cacheline lock gate: speculative requesters are
                    # always nackable, and only designs with CL modes
                    # ever populate the table.
                    if lock_holders:
                        holder = lock_holders.get(line)
                        if holder is not None and holder != core:
                            return self._abort_attempt(
                                AbortReason.NACKED, line=line, enemy=holder
                            )
                    # Arbitrate only when some other core tracks the
                    # line; the self-only case is NO_CONFLICT by
                    # construction and by far the most common one.
                    sharers = sharer_lines.get(line)
                    if sharers is not None:
                        writers = sharers.writers
                        if is_store:
                            readers = sharers.readers
                            foreign = (
                                (writers and (len(writers) > 1
                                              or core not in writers))
                                or (readers and (len(readers) > 1
                                                 or core not in readers))
                            )
                        else:
                            foreign = writers and (len(writers) > 1
                                                   or core not in writers)
                        if foreign:
                            resolution = machine.resolve_conflict(
                                core, line, is_store
                            )
                            if resolution.requester_abort_reason is not None:
                                return self._abort_attempt(
                                    resolution.requester_abort_reason,
                                    line=line, enemy=resolution.nacking_core,
                                )
                            for victim in resolution.victims:
                                machine.executors[victim].receive_remote_conflict(
                                    line, is_store, core
                                )

                # Memory system: a private hit is classified, moves the
                # directory and refreshes LRU here; anything needing the
                # full model (misses, upgrades, invalidations, C2C)
                # runs MemorySystem._read/_write.
                l1_entries = l1_sets[line % l1_nsets]
                in_l1 = line in l1_entries
                dentry = directory_entries.get(line)
                fused_fill = False
                if is_store:
                    if in_l1 and dentry is not None:
                        owner = dentry.owner
                        dsharers = dentry.sharers
                        if (owner == core and not dsharers) or (
                            owner is None
                            and len(dsharers) == 1
                            and core in dsharers
                        ):
                            # Private re-write: the exclusive (or sole
                            # shared) copy is in our L1, so record_write
                            # invalidates nobody and C2C cannot apply.
                            if dsharers:
                                dsharers.clear()
                            dentry.owner = core
                            latency = l1_latency
                            accesses["L1"] += 1
                            fused_fill = True
                    if not fused_fill:
                        result = mem_write(core, line)
                        accesses[result.level] += 1
                        latency = result.latency
                elif in_l1:
                    # L1 read hit: the level is L1 whatever the directory
                    # says (C2C only upgrades L3/MEM), so only the
                    # record_read transition remains.
                    if dentry is None:
                        dentry = DirectoryEntry()
                        directory_entries[line] = dentry
                    else:
                        owner = dentry.owner
                        if owner is not None and owner != core:
                            dentry.sharers.add(owner)
                            dentry.owner = None
                    dentry.sharers.add(core)
                    latency = l1_latency
                    accesses["L1"] += 1
                    fused_fill = True
                else:
                    result = mem_read(core, line)
                    accesses[result.level] += 1
                    latency = result.latency
                if fused_fill:
                    # MemorySystem._fill with each install on its hit
                    # path; a level missing the line takes the real
                    # install/evict machinery.
                    entries = l3_sets[line % l3_nsets]
                    if line in entries:
                        entries.move_to_end(line)
                    else:
                        l3_install(line)
                    entries = l2_sets[line % l2_nsets]
                    if line in entries:
                        entries.move_to_end(line)
                    else:
                        l2_evicted = l2_install(line)
                        if l2_evicted is not None:
                            drop_private(core, l2_evicted)
                    l1_entries.move_to_end(line)

                if not spec:
                    # Fallback data movement: straight to memory.
                    if is_store:
                        value = op.value
                        memory.store_count += 1
                        mem_words[word_addr] = (
                            value.value if value.__class__ is TaintedValue
                            else int(value)
                        )
                    else:
                        memory.load_count += 1
                        loaded = tv_new(TaintedValue)
                        loaded.value = mem_words.get(word_addr, 0)
                        loaded.tainted = True
                        self.gen_send_value = loaded
                    core_stats.busy_cycles += latency
                    return (STEP_DELAY, latency)

                # Speculative tracking: ReadWriteSets.record_write/
                # record_read with the sharer-index registration inline.
                if is_store:
                    write_set = rwsets.write_set
                    if line not in write_set:
                        write_set.add(line)
                        entry = sharer_lines.get(line)
                        if entry is None:
                            entry = sharer_lines[line] = LineSharers()
                        entry.writers.add(core)
                        l2_geom = rwsets._l2_sets
                        if l2_geom is not None and line not in rwsets.read_set:
                            counts = rwsets._union_counts
                            idx = line % l2_geom
                            count = counts.get(idx, 0) + 1
                            counts[idx] = count
                            if count == rwsets._l2_assoc + 1:
                                rwsets._union_over += 1
                        l1_geom = rwsets._l1_sets
                        if l1_geom is not None:
                            counts = rwsets._write_counts
                            idx = line % l1_geom
                            count = counts.get(idx, 0) + 1
                            counts[idx] = count
                            if count == rwsets._l1_assoc + 1:
                                rwsets._write_over += 1
                            if rwsets._write_over:
                                return self._capacity_abort(
                                    CapacityExceeded("write", line)
                                )
                else:
                    read_set = rwsets.read_set
                    if line not in read_set:
                        read_set.add(line)
                        entry = sharer_lines.get(line)
                        if entry is None:
                            entry = sharer_lines[line] = LineSharers()
                        entry.readers.add(core)
                        epochs = rwsets._monitor_epochs
                        if epochs is not None:
                            rwsets.monitor_reads[line] = epochs.get(line, 0)
                        l2_geom = rwsets._l2_sets
                        if l2_geom is not None:
                            if line not in rwsets.write_set:
                                counts = rwsets._union_counts
                                idx = line % l2_geom
                                count = counts.get(idx, 0) + 1
                                counts[idx] = count
                                if count == rwsets._l2_assoc + 1:
                                    rwsets._union_over += 1
                            if rwsets._union_over:
                                return self._capacity_abort(
                                    CapacityExceeded("read", line)
                                )

                # Discovery footprint tracking (CLEAR designs). The mode
                # is SPECULATIVE, so failed discovery cannot exhaust.
                discovery = self.discovery
                if discovery is not None:
                    tainted = addr_is_tv and addr.tainted
                    if is_store:
                        discovery.on_store(line, tainted)
                    else:
                        discovery.on_load(line, tainted)

                if is_store:
                    value = op.value
                    rwsets._write_buffer[word_addr] = (
                        value.value if value.__class__ is TaintedValue
                        else int(value)
                    )
                else:
                    buffered = rwsets._write_buffer
                    value = buffered.get(word_addr) if buffered else None
                    if value is None:
                        memory.load_count += 1
                        value = mem_words.get(word_addr, 0)
                    # TaintedValue(value, tainted=True) without the
                    # constructor's coercions: buffered and
                    # architectural words are always plain ints.
                    loaded = tv_new(TaintedValue)
                    loaded.value = value
                    loaded.tainted = True
                    self.gen_send_value = loaded
                core_stats.busy_cycles += latency
                return (STEP_DELAY, latency)
            if cls is Compute:
                discovery = self.discovery
                if discovery is not None:
                    discovery.on_compute(op.ops)
                compute_ops.value += op.ops
                cycles = op.cycles
                if cycles < 1:
                    cycles = 1
                core_stats.busy_cycles += cycles
                return (STEP_DELAY, cycles)
            if cls is Branch:
                discovery = self.discovery
                if discovery is not None:
                    condition = op.condition
                    discovery.on_branch(
                        condition.__class__ is TaintedValue
                        and condition.tainted
                    )
                branch_ops.value += 1
                core_stats.busy_cycles += 1
                return (STEP_DELAY, 1)
            # Rare ops and op subclasses.
            return self._exec_op(op)

        return fused_body_step

    # ------------------------------------------------------------------
    # Region end (XEnd)
    # ------------------------------------------------------------------

    def _region_end(self):
        mode = self.mode
        if mode is ExecMode.FAILED_DISCOVERY:
            decision = self.controller.conclude_failed_discovery(self.discovery)
            self.saved_discovery = self.discovery
            self.next_mode = decision.mode
            return self._abort_attempt(
                AbortReason.MEMORY_CONFLICT, decided_mode=decision.mode
            )
        return self._commit()

    def _conclude_exhausted_failed_discovery(self):
        """Failed discovery ran out of resources: abort immediately (§4.1)."""
        decision = self.controller.conclude_failed_discovery(self.discovery)
        self.saved_discovery = None
        return self._abort_attempt(
            AbortReason.MEMORY_CONFLICT, decided_mode=decision.mode
        )

    def _commit(self, via_abort=False):
        machine = self.machine
        mode = self.mode
        # Ask the design for the commit cost while the attempt state
        # (mode, rwsets) is still live; _clear_attempt_state nulls both.
        commit_cycles = self.design.commit_cycles(executor=self)
        if self.monitor is not None:
            # Epoch staleness check + value-map fold; needs the write
            # buffer intact, so it runs before drain_to below.
            self.monitor.record_commit(
                self.core, self.invocation, mode, self.rwsets,
                via_abort=via_abort,
            )
        if self.rwsets is not None:
            self.rwsets.drain_to(machine.memory)
        if self.controller is not None:
            if self.discovery is not None and mode is ExecMode.SPECULATIVE:
                self.controller.conclude_committed_discovery(self.discovery)
            else:
                self.controller.ert.ensure(self.invocation.region_id).note_commit()
        self._release_all_holdings()
        if machine.power.release(self.core):
            machine.notify_release()
        machine.stats.record_commit(
            self.core, mode, self.counting_retries, self.invocation.region_id
        )
        if self.ledger is not None:
            self.ledger.note_commit(
                self.core, mode, self.counting_retries, via_abort=via_abort
            )
        if self.trace is not None:
            self.trace.emit(ARCommit(
                machine.now, self.core, self.invocation.region_id,
                mode, self.attempt_index, self.counting_retries,
            ))
        self._clear_attempt_state()
        self.invocation = None
        self.phase = IDLE
        return self._busy(commit_cycles)

    # ------------------------------------------------------------------
    # Aborts
    # ------------------------------------------------------------------

    def receive_remote_conflict(self, line, remote_is_write, from_core):
        """A remote request conflicted with our speculative state."""
        if not self.in_flight_speculative:
            return
        if self.mode is ExecMode.FAILED_DISCOVERY:
            return  # already doomed; nothing more can hurt it
        # Remember conflicting reads for a future S-CL attempt (CRT).
        if (
            self.controller is not None
            and remote_is_write
            and self.rwsets is not None
            and line in self.rwsets.read_set
            and line not in self.rwsets.write_set
        ):
            self.controller.note_scl_conflicting_read(line)
        if self.pending_abort is None:
            self.pending_abort = AbortReason.MEMORY_CONFLICT
            self.pending_abort_detail = (line, from_core, remote_is_write)
        # Zombie from here on: a doomed transaction must stop
        # arbitrating at once (a doomed power-mode holder must not NACK
        # a fallback execution whose direct stores cannot roll back),
        # so the index forgets it now rather than at the abort step.
        if self.rwsets is not None:
            self.rwsets.detach_index()

    def _abort_attempt(self, reason, decided_mode=None,
                       line=None, enemy=None, enemy_write=None):
        machine = self.machine
        mode = self.mode
        detail = self.pending_abort_detail
        if line is None and detail is not None and reason in (
            AbortReason.MEMORY_CONFLICT, AbortReason.OTHER_FALLBACK
        ):
            # The conflict that doomed us arrived asynchronously (and may
            # have been held through failed-mode discovery): recover its
            # forensic detail. Guarded by reason class so an injected or
            # capacity abort never inherits a stale conflict's detail.
            line, enemy, enemy_write = detail
        machine.stats.record_abort(
            self.core, reason, self.invocation.region_id,
            machine.now - self.attempt_begin_cycle,
        )
        if self.ledger is not None:
            self.ledger.note_abort(self.core, mode, reason)
        if self.trace is not None:
            self.trace.emit(ARAbort(
                machine.now, self.core, self.invocation.region_id,
                mode, self.attempt_index, reason,
                line=line, enemy=enemy, enemy_write=enemy_write,
            ))
        self.invocation_aborts += 1
        if self.invocation_aborts == 1:
            # Fig. 1 instrumentation: the complete footprint the AR
            # would access, as of the abort (replay; zero sim time).
            self.first_abort_footprint = replay_body(
                self.invocation.body_factory, machine.memory
            ).footprint
        if self.rwsets is not None:
            self.rwsets.discard()
        if mode is ExecMode.FALLBACK and self.monitor is not None:
            # A fallback abort (MAX_OPS bound) still persisted its
            # direct stores; the monitor stamps their lines now.
            self.monitor.note_fallback_abort(self.core, self.invocation)
        self._release_all_holdings()
        if counts_toward_retry_limit(reason):
            self.counting_retries += 1

        # Pick the next attempt's mode: the per-mode logic proposes
        # (CLEAR's decision tree via decided_mode, else a plain
        # speculative retry) and the design gets the final word — the
        # default applies the paper's counting-retry fallback budget.
        if decided_mode is not None:
            proposed = decided_mode
        else:
            if mode is ExecMode.S_CL and reason in NON_MEMORY_REASONS:
                self.controller.mark_non_discoverable(self.invocation.region_id)
            proposed = ExecMode.SPECULATIVE
        self.next_mode = self.design.select_retry_mode(
            executor=self, reason=reason, proposed=proposed
        )
        if self.next_mode is not ExecMode.SPECULATIVE:
            # Power priority only matters for speculative retries; keep
            # holding the token through a CL retry and it just starves
            # the other cores.
            if machine.power.release(self.core):
                machine.notify_release()

        self._clear_attempt_state()
        self.phase = RETRY
        if reason is AbortReason.NACKED:
            # A NACK means a cacheline-locked or power-mode holder is
            # finishing the contended line: park until some lock/guard
            # releases instead of burning abort-retry cycles against it.
            self.machine.stats.add_busy(self.core, self.config.tx_abort_cycles)
            return (STEP_BLOCK, "nack")
        backoff = 0
        if self.next_mode is ExecMode.SPECULATIVE and self.config.backoff_base:
            exponent = min(self.counting_retries, self.config.backoff_max_exponent)
            backoff = self.rng.randint(0, self.config.backoff_base * (2 ** exponent))
        self.machine.stats.add_busy(self.core, self.config.tx_abort_cycles + backoff)
        return (STEP_DELAY, self.config.tx_abort_cycles + backoff)

    def _clear_attempt_state(self):
        if self.rwsets is not None:
            # Commit reaches here without a discard(); abort and zombie
            # paths already detached (idempotent either way).
            self.rwsets.detach_index()
        self.gen = None
        self.gen_send_value = None
        self.discovery = None
        self.rwsets = None
        self.mode = None
        self._fault_abort_at = None
        self._fault_abort_reason = None
        # pending_abort_detail and attempt_begin_cycle are left stale
        # here on purpose: _start_attempt resets the former and every
        # begin path restamps the latter before anything reads them.
        self.locked_lines = set()
        self._lock_groups = []
        self._lock_group_idx = 0

    def _release_all_holdings(self):
        machine = self.machine
        anything_released = False
        released = machine.memsys.release_all_locks(self.core)
        if released:
            machine.stats.add_busy(self.core, self.config.lock_release_cycles)
            anything_released = True
            if self.first_lock_cycle is not None:
                machine.stats.record_lock_hold(
                    max(0, machine.now - self.first_lock_cycle)
                )
            if self.trace is not None:
                self.trace.emit(LocksRelease(
                    machine.now, self.core, tuple(sorted(released))
                ))
        self.first_lock_cycle = None
        if self.fallback_read_held:
            machine.fallback.release_read(self.core)
            self.fallback_read_held = False
            anything_released = True
        if self.fallback_write_held:
            machine.fallback.release_write(self.core)
            self.fallback_write_held = False
            anything_released = True
            if self.fallback_entry_cycle is not None:
                machine.stats.record_fallback_hold(
                    max(0, machine.now - self.fallback_entry_cycle)
                )
        self.fallback_entry_cycle = None
        if anything_released:
            machine.notify_release()

    # ------------------------------------------------------------------
    # Fig. 1 bookkeeping
    # ------------------------------------------------------------------

    def _note_fig1_retry_start(self):
        """Fig. 1 instrumentation, taken at the start of the first retry.

        An aborted attempt usually stopped partway through the region,
        so partial footprints cannot be compared. Instead — matching the
        paper's definition ("ARs that access a memory footprint lower
        than 32 cachelines and [it] remains immutable on the first
        retry") — the region body is *replayed* to completion against
        memory as of the abort and again as of the retry, and the two
        complete footprints are compared. The replay is measurement
        machinery only: zero simulated time, no architectural effects.
        """
        if self.fig1_recorded or self.first_abort_footprint is None:
            return
        if self.attempt_index != 2:
            return
        retry_footprint = replay_body(
            self.invocation.body_factory, self.machine.memory
        ).footprint
        first = self.first_abort_footprint
        same = first == retry_footprint
        small = len(first) <= self.config.alt_entries
        self.machine.stats.record_first_retry(same and small)
        self.fig1_recorded = True

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _busy(self, cycles, failed_discovery=False, lock_acquire=False):
        self.machine.stats.add_busy(
            self.core, cycles, failed_discovery=failed_discovery,
            lock_acquire=lock_acquire,
        )
        return (STEP_DELAY, cycles)
