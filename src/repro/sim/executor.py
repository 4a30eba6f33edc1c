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
cycle cost or a blocking condition. Every BODY-phase action runs one
closure, built per core by :meth:`CoreExecutor._fused_body_step`, that
executes each body operation of every mode in one frame.
"""

from repro.common.constants import WORDS_PER_LINE
from repro.common.errors import ProtocolError
from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason, counts_toward_retry_limit, NON_MEMORY_REASONS
from repro.htm.rwset import CapacityExceeded, ReadWriteSets
from repro.memory.cache import _EMPTY_SET
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
        "fallback_entry_cycle", "monitor", "_body_step",
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
        # Online monitor (repro.sim.monitor): serializability and the
        # single-retry bound; None when config.oracle is "off".
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
        # The BODY-phase step, built once over this core's hot state.
        self._body_step = self._fused_body_step()

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
            if self.monitor is not None:
                # No attempt began: mode None marks the at-begin abort.
                self.monitor.note_abort(
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
        # A group is the line ids of one directory set, in
        # lexicographical order (the ALT's Conflict bits delimit it).
        group = self._lock_groups[self._lock_group_idx]
        directory = memsys.directory
        dir_set = directory.set_of(group[0])
        set_holder = directory.set_lock_holder(dir_set)
        if set_holder is not None and set_holder != self.core:
            return (STEP_BLOCK, ("dirset", dir_set))
        cycles = 0
        if len(group) > 1 and self._lock_set_held is None:
            # Lexicographical group: probe the private cache first (the
            # ALT's Hit bits); lock silently only if every member hits
            # exclusively.
            if not all(
                memsys.probe_exclusive_hit(self.core, line) for line in group
            ):
                directory.lock_set(self.core, dir_set)
                self._lock_set_held = dir_set
                cycles += self.config.l3_latency  # directory round to lock the set
        locked_lines = self.locked_lines
        try:
            for line in group:
                if line in locked_lines:
                    # Taken before this group last blocked.
                    continue
                cycles += self._acquire_one_lock(line)
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

    def _acquire_one_lock(self, line):
        machine = self.machine
        # Taking a line exclusively conflicts with every speculative peer
        # tracking it, exactly like a write request: requester wins,
        # unless a power-mode peer nacks us (§5.2).
        resolution = machine.resolve_conflict(
            self.core, line, True,
            requester_unstoppable=self.mode is ExecMode.NS_CL,
        )
        if resolution.requester_abort_reason is not None:
            raise NackError(line, resolution.nacking_core)
        for victim in resolution.victims:
            machine.executors[victim].receive_remote_conflict(
                line, True, self.core
            )
        latency = machine.memsys.acquire_line_lock(self.core, line)
        self.locked_lines.add(line)
        if self.first_lock_cycle is None:
            self.first_lock_cycle = machine.now
        machine.stats.record_lock_acquired()
        machine.stats.record_access("LOCK")
        if self.trace is not None:
            self.trace.emit(LockAcquire(machine.now, self.core, line))
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

    def _capacity_abort(self, exc, sq_only=False):
        """Abort on a tracking-set overflow; the region is not convertible.

        A failed-mode store's overflow (``sq_only``) leaves the ERT
        alone: the store never left the store queue.
        """
        if self.discovery is not None and not sq_only:
            entry = self.controller.ert.ensure(self.invocation.region_id)
            entry.is_convertible = False
        return self._abort_attempt(
            self.design.classify_capacity_abort(executor=self, exc=exc),
            line=exc.line,
        )

    def _fire_injected_abort(self):
        """The fault plan's abort for this attempt fires now."""
        reason = self._fault_abort_reason
        self._fault_abort_at = None
        self._fault_abort_reason = None
        self.machine.faults.note_injected(self.core, reason, self.attempt_index)
        if self.trace is not None:
            self.trace.emit(FaultInjected(
                self.machine.now, self.core, reason, self.attempt_index
            ))
        return self._abort_attempt(reason)

    def _fused_body_step(self):
        """This core's BODY-phase step: one body operation per call.

        Built once per core for every configuration; it is the only
        BODY-phase implementation (DESIGN.md §14). The closure runs
        every op of every mode in one frame over per-core state bound
        here, and binds a fault plan and the SLE window as branches
        that only runs with them take. Discovery's bookkeeping and the
        memory model run inline, on the directory int the step loads
        once: hits, misses and upgrades with their classification, the
        invalidation of other cores' copies, and the three cache fills
        with their evictions. It calls out for the inclusion drop of a
        line the private L2 evicts (``MemorySystem._drop_private_line``)
        and of an L1 victim the L2 lacks (``Directory.drop``), for
        bounded ``lrw`` sets, for the monitor's fallback hooks, for the
        controller when a held conflict starts failed mode (or, without
        failed mode, decides at once), for a fault plan's latency
        jitter, and for every abort, commit and region end.

        Conflicts are arbitrated by ``machine.resolve_conflict``, looked
        up on every call so an override on the instance sees each
        resolution that can find a conflict. It is not asked about a
        line no other core tracks (for a load: no other core writes), a
        failed-mode store (it stays in the store queue) or a fallback op
        (mutual exclusion). Failed-mode loads still ask, flagged
        ``requester_failed``, so the paper's non-aborting rule stays in
        the arbiter.
        """
        machine = self.machine
        config = self.config
        core = self.core
        controller = self.controller
        faults = machine.faults
        sle = config.speculation == "sle"
        # Only a fault plan or SLE bounds an attempt by its op count.
        bounded = faults is not None or sle
        failed_mode_discovery = config.failed_mode_discovery
        stats = machine.stats
        core_stats = stats.cores[core]
        accesses = stats.accesses_by_level
        compute_ops = stats._compute_ops
        branch_ops = stats._branch_ops
        # This core's bit in the sharer index's and the directory's
        # bit-vectors; entries are ints (see their modules).
        core_bit = 1 << core
        other_cores = ~core_bit
        index_readers = machine.sharer_index._readers
        index_writers = machine.sharer_index._writers
        memsys = machine.memsys
        lock_holders = memsys.locks._holders
        directory = memsys.directory
        directory_entries = directory._entries
        owner_bits = directory.owner_bits
        owner_mask = directory._owner_mask
        # Directory entries meaning "this core owns the line, no
        # sharers" and "this core is the line's only sharer".
        dir_owned = core + 1
        dir_shared = core_bit << owner_bits
        l1 = memsys.l1[core]
        l1_sets, l1_nsets, l1_assoc = l1._sets, l1.num_sets, l1.assoc
        l2 = memsys.l2[core]
        l2_sets, l2_nsets, l2_assoc = l2._sets, l2.num_sets, l2.assoc
        l3 = memsys.l3
        l3_sets, l3_nsets, l3_assoc = l3._sets, l3.num_sets, l3.assoc
        # Every core's private sets, for invalidating remote copies
        # (all cores share one geometry).
        l1_sets_of = [cache._sets for cache in memsys.l1]
        l2_sets_of = [cache._sets for cache in memsys.l2]
        l1_latency = memsys.l1_latency
        l2_latency = memsys.l2_latency
        l3_latency = memsys.l3_latency
        mem_latency = memsys.mem_latency
        c2c_latency = memsys.c2c_latency
        drop_private = memsys._drop_private_line
        directory_drop = directory.drop
        # Discovery's capacities (CLEAR designs): the store queue and
        # the ALT, checked on every discovering op.
        sq_capacity = alt_entries = None
        if controller is not None:
            sq_capacity = controller.sq_capacity
            alt_entries = controller.alt_entries
        memory = machine.memory
        mem_words = memory._words
        monitor = self.monitor
        tv_new = TaintedValue.__new__
        speculative = ExecMode.SPECULATIVE
        failed_mode = ExecMode.FAILED_DISCOVERY
        ns_cl = ExecMode.NS_CL
        fallback_mode = ExecMode.FALLBACK
        memory_conflict = AbortReason.MEMORY_CONFLICT

        def fused_body_step():
            if self.pending_abort is not None:
                # A conflict doomed the attempt between steps. CLEAR's
                # discovery holds the abort and keeps executing in
                # failed mode to finish learning the footprint (§4.1).
                reason = self.pending_abort
                self.pending_abort = None
                discovery = self.discovery
                if (
                    reason is not memory_conflict
                    or discovery is None
                    or self.mode is not speculative
                ):
                    return self._abort_attempt(reason)
                if not failed_mode_discovery:
                    # Ablation: no failed mode — decide from whatever the
                    # partial discovery saw, then abort immediately.
                    decision = controller.conclude_failed_discovery(discovery)
                    self.saved_discovery = discovery
                    return self._abort_attempt(
                        reason, decided_mode=decision.mode
                    )
                if discovery.exhausted:
                    return self._abort_attempt(reason)
                controller.note_conflict(discovery)
                self.mode = failed_mode
            attempt_ops = self.attempt_ops + 1
            self.attempt_ops = attempt_ops
            if attempt_ops > MAX_OPS_PER_ATTEMPT:
                return self._abort_attempt(AbortReason.OTHER)
            if bounded:
                if (
                    faults is not None
                    and self._fault_abort_at is not None
                    and attempt_ops >= self._fault_abort_at
                ):
                    return self._fire_injected_abort()
                if sle and self.mode.is_speculative:
                    # In-core speculation (§4.1): the attempt lives inside
                    # the ROB/LQ/SQ window; exhausting it forces an abort
                    # and marks the region non-convertible.
                    overflow = None
                    if (
                        attempt_ops > config.rob_entries
                        or self.attempt_loads > config.lq_entries
                    ):
                        overflow = AbortReason.ROB_OVERFLOW
                    elif self.attempt_stores > config.sq_entries:
                        overflow = AbortReason.SQ_OVERFLOW
                    if overflow is not None:
                        if controller is not None:
                            entry = controller.ert.ensure(
                                self.invocation.region_id
                            )
                            entry.is_convertible = False
                        return self._abort_attempt(overflow)
            try:
                op = self.gen.send(self.gen_send_value)
            except StopIteration:
                return self._region_end()
            self.gen_send_value = None
            cls = op.__class__
            if cls is Load:
                is_store = False
            elif cls is Store:
                is_store = True
            else:
                # Ops dispatch on their exact class, as replay_body does.
                if cls is Compute:
                    compute_ops.value += op.ops
                    cycles = op.cycles
                    if cycles < 1:
                        cycles = 1
                    core_stats.busy_cycles += cycles
                    return (STEP_DELAY, cycles)
                if cls is Branch:
                    discovery = self.discovery
                    if discovery is not None:
                        # A branch on an AR-loaded value can steer the
                        # footprint: it poisons immutability like an
                        # address indirection (§3).
                        condition = op.condition
                        if (
                            condition.__class__ is TaintedValue
                            and condition.tainted
                        ):
                            discovery.indirection_seen = True
                    branch_ops.value += 1
                    core_stats.busy_cycles += 1
                    return (STEP_DELAY, 1)
                if cls is AbortOp:
                    if self.mode is fallback_mode:
                        # The fallback path is not a transaction: an XAbort
                        # there simply ends the region (its direct stores
                        # are already architectural). This keeps
                        # always-aborting regions from cycling forever
                        # between fallback and retry.
                        return self._commit(via_abort=True)
                    return self._abort_attempt(AbortReason.EXPLICIT)
                raise TypeError("AR body yielded unknown op {!r}".format(op))

            addr = op.addr
            addr_is_tv = addr.__class__ is TaintedValue
            word_addr = addr.value if addr_is_tv else int(addr)
            line = word_addr // WORDS_PER_LINE
            if is_store:
                self.attempt_stores += 1
            else:
                self.attempt_loads += 1
            mode = self.mode
            if mode is ns_cl and line not in self.locked_lines:
                # NS-CL guarantee: every access must be within the learned,
                # locked footprint. A deviation disproves immutability.
                entry = controller.ert.ensure(self.invocation.region_id)
                entry.is_immutable = False
                return self._abort_attempt(AbortReason.FOOTPRINT_DEVIATION)
            if lock_holders:
                # Cacheline lock gate: the core's own locked lines pass,
                # and a line another core holds NACKs the requester.
                # Fallback cannot meet one: CL attempts hold the fallback
                # lock as readers and drop their line locks first.
                holder = lock_holders.get(line)
                if holder is not None and holder != core:
                    if mode is fallback_mode:
                        raise ProtocolError(
                            "fallback access by core {} to line {} locked "
                            "by core {}".format(core, line, holder)
                        )
                    return self._abort_attempt(
                        AbortReason.NACKED, line=line, enemy=holder
                    )
            rwsets = self.rwsets
            failed = mode is failed_mode
            if failed and is_store:
                # Failed-mode stores never leave the SQ: no coherence
                # request, no memory-model access.
                latency = 1
            else:
                if mode is not fallback_mode:
                    # Arbitrate only when some other core tracks the line
                    # in a conflicting way; the self-only case is
                    # NO_CONFLICT by construction and by far the most
                    # common one.
                    sharers = index_writers.get(line, 0)
                    if is_store:
                        sharers |= index_readers.get(line, 0)
                    if sharers & other_cores:
                        resolution = machine.resolve_conflict(
                            core, line, is_store, requester_failed=failed
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

                # Memory system: MemorySystem._read/_write on the
                # line's directory int, loaded once. Classify the access,
                # move the directory (invalidating remote copies on a
                # write), then fill L3, L2 and L1: a level holding the
                # line refreshes its LRU order, one missing it installs.
                l1_entries = l1_sets[line % l1_nsets]
                in_l1 = line in l1_entries
                dentry = directory_entries.get(line, 0)
                if is_store:
                    if in_l1 and (dentry == dir_owned or dentry == dir_shared):
                        # Private re-write: the exclusive (or sole
                        # shared) copy is in our L1, so nobody is
                        # invalidated and C2C cannot apply.
                        latency = l1_latency
                        accesses["L1"] += 1
                    else:
                        owner = dentry & owner_mask
                        # Every other core's copy, the owner's included.
                        remote = dentry >> owner_bits & other_cores
                        remote_owner = owner and owner != dir_owned
                        if remote_owner:
                            remote |= 1 << (owner - 1)
                        if in_l1 or line in l2_sets[line % l2_nsets]:
                            if remote and owner != dir_owned:
                                # Upgrade: an invalidation round
                                # through the directory.
                                level, latency = "UPG", l3_latency
                            elif in_l1:
                                level, latency = "L1", l1_latency
                            else:
                                level, latency = "L2", l2_latency
                        elif remote_owner:
                            # The remote modified copy sources the data.
                            level, latency = "C2C", c2c_latency
                        elif line in l3_sets[line % l3_nsets]:
                            level, latency = "L3", l3_latency
                        else:
                            level, latency = "MEM", mem_latency
                        accesses[level] += 1
                        while remote:
                            # MemorySystem._invalidate_private, in
                            # ascending core order.
                            low = remote & -remote
                            remote ^= low
                            victim = low.bit_length() - 1
                            entries = l1_sets_of[victim][line % l1_nsets]
                            if line in entries:
                                if entries[line]:
                                    raise ProtocolError(
                                        "invalidating line {} locked by "
                                        "core {}".format(line, victim)
                                    )
                                del entries[line]
                            entries = l2_sets_of[victim][line % l2_nsets]
                            if line in entries:
                                if entries[line]:
                                    raise OverflowError(
                                        "cannot invalidate pinned (locked) line"
                                    )
                                del entries[line]
                    directory_entries[line] = dir_owned
                else:
                    owner = dentry & owner_mask
                    remote_owner = owner and owner != dir_owned
                    if remote_owner:
                        # The remote owner is downgraded to a sharer.
                        dentry = (
                            dentry >> owner_bits | 1 << (owner - 1)
                        ) << owner_bits
                    directory_entries[line] = dentry | dir_shared
                    if in_l1:
                        # The level is L1 whatever the directory says:
                        # C2C only upgrades L3 and MEM.
                        latency = l1_latency
                        accesses["L1"] += 1
                    else:
                        if line in l2_sets[line % l2_nsets]:
                            level, latency = "L2", l2_latency
                        elif remote_owner:
                            level, latency = "C2C", c2c_latency
                        elif line in l3_sets[line % l3_nsets]:
                            level, latency = "L3", l3_latency
                        else:
                            level, latency = "MEM", mem_latency
                        accesses[level] += 1
                # MemorySystem._fill. SetAssocCache.install per level:
                # a first fill replaces the set's empty stand-in, and a
                # full set evicts its least recently used unpinned line.
                index = line % l3_nsets
                entries = l3_sets[index]
                if line in entries:
                    entries[line] = entries.pop(line)
                elif entries is _EMPTY_SET:
                    l3_sets[index] = {line: False}
                else:
                    if len(entries) >= l3_assoc:
                        for evicted, pinned in entries.items():
                            if not pinned:
                                break
                        else:
                            raise OverflowError(
                                "cache set {} has all ways pinned".format(index)
                            )
                        del entries[evicted]
                    entries[line] = False
                index = line % l2_nsets
                entries = l2_sets[index]
                if line in entries:
                    entries[line] = entries.pop(line)
                elif entries is _EMPTY_SET:
                    l2_sets[index] = {line: False}
                else:
                    if len(entries) >= l2_assoc:
                        for evicted, pinned in entries.items():
                            if not pinned:
                                break
                        else:
                            raise OverflowError(
                                "cache set {} has all ways pinned".format(index)
                            )
                        del entries[evicted]
                        entries[line] = False
                        # Inclusion: the evicted line leaves this
                        # core's L1 and its directory entry.
                        drop_private(core, evicted)
                    else:
                        entries[line] = False
                if in_l1:
                    l1_entries[line] = l1_entries.pop(line)
                elif l1_entries is _EMPTY_SET:
                    l1_sets[line % l1_nsets] = {line: False}
                else:
                    if len(l1_entries) >= l1_assoc:
                        for evicted, pinned in l1_entries.items():
                            if not pinned:
                                break
                        else:
                            raise OverflowError(
                                "cache set {} has all ways pinned".format(
                                    line % l1_nsets
                                )
                            )
                        del l1_entries[evicted]
                        if evicted not in l2_sets[evicted % l2_nsets]:
                            directory_drop(core, evicted)
                    l1_entries[line] = False
                if faults is not None:
                    latency += faults.jitter(core)

                if rwsets is None:
                    # Fallback: direct stores and loads, applied to the
                    # monitor's value map as they are issued (mutual
                    # exclusion means no concurrent commit can
                    # interleave) and checked against it eagerly.
                    if is_store:
                        value = op.value
                        value = (
                            value.value if value.__class__ is TaintedValue
                            else int(value)
                        )
                        memory.store_count += 1
                        mem_words[word_addr] = value
                        if monitor is not None:
                            monitor.note_fallback_store(core, word_addr, value)
                    else:
                        memory.load_count += 1
                        value = mem_words.get(word_addr, 0)
                        if monitor is not None:
                            monitor.note_fallback_load(core, word_addr, value)
                        loaded = tv_new(TaintedValue)
                        loaded.value = value
                        loaded.tainted = True
                        self.gen_send_value = loaded
                    core_stats.busy_cycles += latency
                    return (STEP_DELAY, latency)

            # Speculative tracking: ReadWriteSets.record_write/record_read
            # inline, registering each new line in the machine's sharer
            # index unless the set is in none (failed mode, NS-CL).
            # Bounded sets check their budgets in their own methods.
            if rwsets.__class__ is not ReadWriteSets:
                try:
                    if is_store:
                        rwsets.record_write(line)
                    else:
                        rwsets.record_read(line)
                except CapacityExceeded as exc:
                    return self._capacity_abort(exc, sq_only=failed and is_store)
            elif is_store:
                write_set = rwsets.write_set
                if line not in write_set:
                    write_set.add(line)
                    if rwsets._index is not None:
                        index_writers[line] = (
                            index_writers.get(line, 0) | core_bit
                        )
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
                                CapacityExceeded("write", line), sq_only=failed
                            )
            else:
                read_set = rwsets.read_set
                if line not in read_set:
                    read_set.add(line)
                    if rwsets._index is not None:
                        index_readers[line] = (
                            index_readers.get(line, 0) | core_bit
                        )
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

            # Discovery (CLEAR designs): the indirection bit, the store
            # queue, and the ALT (line -> Needs Locking), which stops
            # learning once a new line finds it full.
            discovery = self.discovery
            if discovery is not None:
                if addr_is_tv and addr.tainted:
                    discovery.indirection_seen = True
                if is_store:
                    store_count = discovery.store_count + 1
                    discovery.store_count = store_count
                    if store_count > sq_capacity:
                        discovery.sq_overflow = True
                if not discovery.alt_overflow:
                    alt = discovery.lines
                    if line in alt:
                        if is_store:
                            alt[line] = True
                    elif len(alt) < alt_entries:
                        alt[line] = is_store
                    else:
                        discovery.alt_overflow = True
                if failed and (discovery.sq_overflow or discovery.alt_overflow):
                    # Failed discovery ran out of resources (§4.1).
                    return self._conclude_exhausted_failed_discovery()

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
                # constructor's coercions: buffered and architectural
                # words are always plain ints.
                loaded = tv_new(TaintedValue)
                loaded.value = value
                loaded.tainted = True
                self.gen_send_value = loaded
            core_stats.busy_cycles += latency
            if failed:
                core_stats.discovery_failed_cycles += latency
            return (STEP_DELAY, latency)

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
            # Retry-bound and epoch staleness checks + value-map fold;
            # needs the write buffer intact, so it runs before drain_to.
            self.monitor.record_commit(
                self.core, self.invocation, mode, self.rwsets,
                self.counting_retries, via_abort=via_abort,
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
        if self.monitor is not None:
            self.monitor.note_abort(self.core, mode, reason)
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
