"""Cacheline lock manager.

Implements the multi-address cacheline locking used by the NS-CL and
S-CL execution modes, including the two deadlock-avoidance rules from
paper §4.4.2:

- *NACK rule* (Fig. 5): a request from a non-locking load (an S-CL or
  plain-speculative access that does not itself intend to lock the line)
  that reaches a locked cacheline is NACKed; the requester must abort.
- *Directory-retry rule* (Fig. 6): requests to locked cachelines are
  retried rather than parked inside the directory, so the directory
  entry never blocks in a transient state; in this model the requester
  simply re-issues when the line unlocks, which is expressed as a
  :class:`LockDenied` with the current holder so the engine can park the
  *core* (not the directory) and wake it on release.

Locks are only acquired in lexicographical (directory-set) order by the
callers, which rules out cycles among lockers; NACKs rule out cycles
between lockers and non-locking accessors.
"""

from repro.common.errors import ProtocolError


class NackError(Exception):
    """A non-locking access reached a locked line and was NACKed.

    The requester must abort its atomic region (paper §4.4.2).
    """

    def __init__(self, line, holder):
        super().__init__("line {} locked by core {}".format(line, holder))
        self.line = line
        self.holder = holder


class LockDenied(Exception):
    """A lock or blocking access must wait for the current holder.

    Unlike :class:`NackError` this is not an abort: the engine parks the
    requesting core and retries when the holder releases (the
    directory-retry rule keeps the directory itself unblocked).
    """

    def __init__(self, line, holder):
        super().__init__("line {} held by core {}".format(line, holder))
        self.line = line
        self.holder = holder


class LockManager:
    """Tracks which core holds each cacheline locked."""

    def __init__(self):
        self._holders = {}
        self._held_by_core = {}

    def holder(self, line):
        """Core holding the line locked, or None."""
        return self._holders.get(line)

    def is_locked(self, line):
        """True if any core holds the line locked."""
        return line in self._holders

    def held_lines(self, core):
        """Frozen view of the lines a core currently holds locked."""
        return set(self._held_by_core.get(core, ()))

    def try_lock(self, core, line):
        """Attempt to lock a line for ``core``.

        Returns True on success (idempotent for re-locking an owned
        line); raises :class:`LockDenied` if another core holds it.
        """
        current = self._holders.get(line)
        if current is not None and current != core:
            raise LockDenied(line, current)
        self._holders[line] = core
        self._held_by_core.setdefault(core, set()).add(line)
        return True

    def check_access(self, core, line, nackable):
        """Gate a plain (non-locking) access against the lock table.

        Accesses by the lock holder pass. Other accesses raise
        :class:`NackError` when ``nackable`` (speculative and CL
        requesters, which abort) or :class:`LockDenied` otherwise. The
        only non-nackable requester is the fallback path, which runs
        after every line lock was dropped, so the executor treats a
        denial there as a protocol violation rather than a wait.
        """
        current = self._holders.get(line)
        if current is None or current == core:
            return
        if nackable:
            raise NackError(line, current)
        raise LockDenied(line, current)

    def unlock(self, core, line):
        """Release one line held by ``core``."""
        if self._holders.get(line) != core:
            raise ProtocolError(
                "core {} unlocking line {} it does not hold".format(core, line)
            )
        del self._holders[line]
        held = self._held_by_core.get(core)
        held.discard(line)
        if not held:
            del self._held_by_core[core]

    def unlock_all(self, core):
        """Bulk release (paper §5.1: "unlocked with a bulk operation").

        Returns the set of lines released.
        """
        held = self._held_by_core.pop(core, set())
        for line in held:
            if self._holders.get(line) != core:
                raise ProtocolError("lock table inconsistent for core {}".format(core))
            del self._holders[line]
        return held

    def locked_line_count(self):
        """Total number of locked lines (for invariant checks)."""
        return len(self._holders)

    def snapshot(self):
        """JSON-serializable ``{holder_core: sorted locked lines}`` map.

        Used by the end-of-run leak oracle and the stall diagnostic
        dump, where naming the exact leaked lines (not just a count)
        makes the failure actionable.
        """
        return {
            core: sorted(lines)
            for core, lines in sorted(self._held_by_core.items())
        }
