"""The general body step: the reference the executor's one step is tested against.

:meth:`repro.sim.executor.CoreExecutor._fused_body_step` builds the
simulator's only BODY-phase implementation, a closure that runs every
operation of every mode in one frame. This module keeps the slow,
obviously layered version it replaced: one function per concern,
every memory op through ``LockManager.check_access``,
``Machine.resolve_conflict``, ``MemorySystem.access`` and the
``ReadWriteSets`` methods, and discovery through the per-op hooks of
``tests/reference_discovery.py``, so a test can run the same machine
both ways and compare everything observable.

:func:`tests.conftest.general_path` installs it: inside that block every
executor built gets :func:`install`'s step instead of the closure. The
functions call only executor methods that the product also uses
(aborts, commits, region end, ``_busy``), so the two steps differ in the
BODY-phase op logic alone.
"""

import functools

from repro.common.errors import ProtocolError
from repro.core.indirection import TaintedValue
from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason
from repro.htm.rwset import CapacityExceeded
from repro.memory.address import line_of_word
from repro.memory.locking import LockDenied, NackError
from repro.sim.executor import MAX_OPS_PER_ATTEMPT
from repro.sim.program import AbortOp, Branch, Compute, Load, Store
from tests import reference_discovery


def install(executor):
    """The reference BODY step for ``executor`` (patched in for the product's)."""
    return functools.partial(step_body, executor)


def is_reference(step):
    """True when ``step`` is a reference step that :func:`install` built."""
    return isinstance(step, functools.partial) and step.func is step_body


def step_body(self):
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
        return self._fire_injected_abort()
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
    return exec_op(self, op)


def exec_op(self, op):
    """Execute one operation the body yielded."""
    if isinstance(op, Load):
        return exec_memory_op(self, op, is_store=False)
    if isinstance(op, Store):
        return exec_memory_op(self, op, is_store=True)
    if isinstance(op, Compute):
        self.machine.stats.record_compute(op.ops)
        return self._busy(max(1, op.cycles))
    if isinstance(op, Branch):
        if self.discovery is not None:
            reference_discovery.on_branch(self.discovery, op.condition_tainted)
        self.machine.stats.record_branch()
        return self._busy(1)
    if isinstance(op, AbortOp):
        if self.mode is ExecMode.FALLBACK:
            # The fallback path is not a transaction: an XAbort there
            # simply ends the region.
            return self._commit(via_abort=True)
        return self._abort_attempt(AbortReason.EXPLICIT)
    raise TypeError("AR body yielded unknown op {!r}".format(op))


def exec_memory_op(self, op, is_store):
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
            # Only fallback is not nackable, and it runs with every
            # line lock released: meeting one is a protocol violation.
            raise ProtocolError(
                "fallback access by core {} to line {} locked by core "
                "{}".format(self.core, denied.line, denied.holder)
            ) from None

    # Failed-mode stores never leave the SQ: no coherence request.
    if mode is ExecMode.FAILED_DISCOVERY and is_store:
        reference_discovery.on_store(
            discovery, self.controller, line, op.addr_tainted
        )
        if rwsets is not None:
            try:
                rwsets.record_write(line)
            except CapacityExceeded as exc:
                return self._abort_attempt(AbortReason.CAPACITY, line=exc.line)
            rwsets.buffer_store(word_addr, op.store_value)
        if discovery.exhausted:
            return self._conclude_exhausted_failed_discovery()
        return self._busy(1, failed_discovery=True)

    # Conflict arbitration (failed-mode loads are non-aborting).
    # Fallback runs under mutual exclusion and never arbitrates.
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
            reference_discovery.on_store(
                discovery, self.controller, line, op.addr_tainted
            )
        else:
            reference_discovery.on_load(
                discovery, self.controller, line, op.addr_tainted
            )
        if failed and discovery.exhausted:
            return self._conclude_exhausted_failed_discovery()

    # Architectural data movement.
    if is_store:
        if rwsets is not None:
            rwsets.buffer_store(word_addr, op.store_value)
        else:
            # Fallback: direct store, applied to the monitor's value
            # map as it is issued.
            value = op.store_value
            machine.memory.store(word_addr, value)
            if self.monitor is not None:
                self.monitor.note_fallback_store(self.core, word_addr, value)
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
