"""Whole-machine consistency validation.

`validate_machine` cross-checks the state the subsystems keep about
each other and raises :class:`repro.common.errors.ProtocolError` on any
inconsistency. Tests (including the property suites) call it after —
and during — runs; it is also handy when extending the simulator.

Checked invariants:

1. every locked line is pinned in its holder's L1 and L2, and owned by
   the holder in the directory;
2. every pinned L1 line of a core is actually locked by that core;
3. fallback writer and readers never coexist;
4. a core holding cacheline locks is in a CL mode (or fallback never);
5. the power token holder, if any, is a valid core id;
6. L1 contents are included in L2 (private-cache inclusion);
7. the machine-global sharer index equals a from-scratch rebuild over
   the conflict-visible attempts (phase BODY, speculative non-failed
   mode, live rwsets, no pending abort).
"""

from repro.common.errors import ProtocolError
from repro.core.modes import ExecMode


def validate_machine(machine):
    """Raise ProtocolError if any cross-subsystem invariant is broken."""
    _validate_locks(machine)
    _validate_fallback(machine)
    _validate_power(machine)
    _validate_inclusion(machine)
    _validate_sharer_index(machine)
    return True


def _validate_locks(machine):
    memsys = machine.memsys
    for core in range(machine.config.num_cores):
        for line in memsys.locks.held_lines(core):
            if memsys.locks.holder(line) != core:
                raise ProtocolError(
                    "lock table disagrees on holder of line {}".format(line)
                )
            if not memsys.l1[core].is_pinned(line):
                raise ProtocolError(
                    "line {} locked by core {} but not pinned in its L1".format(
                        line, core
                    )
                )
            if not memsys.directory.is_owner(core, line):
                raise ProtocolError(
                    "line {} locked by core {} but not owned in the directory".format(
                        line, core
                    )
                )
        for line in memsys.l1[core].resident_lines():
            if memsys.l1[core].is_pinned(line) and memsys.locks.holder(line) != core:
                raise ProtocolError(
                    "core {} has line {} pinned without holding its lock".format(
                        core, line
                    )
                )


def _validate_fallback(machine):
    fallback = machine.fallback
    if fallback.is_write_held() and fallback.readers:
        raise ProtocolError(
            "fallback lock held by writer {} and readers {} at once".format(
                fallback.writer, sorted(fallback.readers)
            )
        )
    for reader in fallback.readers:
        if not 0 <= reader < machine.config.num_cores:
            raise ProtocolError("fallback reader {} is not a core".format(reader))


def _validate_power(machine):
    holder = machine.power.holder
    if holder is not None and not 0 <= holder < machine.config.num_cores:
        raise ProtocolError("power token held by non-core {}".format(holder))


def _validate_sharer_index(machine):
    expected = {}
    for executor in machine.executors:
        if not executor.in_flight_speculative:
            continue
        if executor.pending_abort is not None:
            continue
        if executor.mode is ExecMode.FAILED_DISCOVERY:
            continue
        rwsets = executor.rwsets
        if rwsets is None:
            continue
        core = executor.core
        for line in rwsets.read_set:
            expected.setdefault(line, (set(), set()))[0].add(core)
        for line in rwsets.write_set:
            expected.setdefault(line, (set(), set()))[1].add(core)
    actual = machine.sharer_index.snapshot()
    rebuilt = {
        line: (frozenset(readers), frozenset(writers))
        for line, (readers, writers) in expected.items()
    }
    if actual != rebuilt:
        stale = sorted(set(actual) ^ set(rebuilt))[:8]
        raise ProtocolError(
            "sharer index diverged from a from-scratch rebuild "
            "(first differing lines: {})".format(stale)
        )


def _validate_inclusion(machine):
    # Probe the L2 once per L1 line instead of listing it: listing
    # walks every L2 set, filled or not.
    memsys = machine.memsys
    for core in range(machine.config.num_cores):
        l2 = memsys.l2[core]
        for line in memsys.l1[core].resident_lines():
            if not l2.contains(line):
                raise ProtocolError(
                    "core {} L1 line {} missing from its inclusive L2".format(
                        core, line
                    )
                )
