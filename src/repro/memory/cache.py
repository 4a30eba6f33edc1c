"""Set-associative cache model with LRU replacement and line pinning.

Caches track only cacheline ids (tags), not data — data lives in
:class:`repro.memory.shared.SharedMemory`. Pinning models cacheline
locking residency: a locked line may not be evicted, and a cache set
whose every way is pinned cannot accept a new line. The same mechanism
answers the discovery-phase assessment *"can we simultaneously lock the
cachelines accessed within the AR?"* (paper §4.1, item 2).

Sets are allocated on first fill: every set starts as one shared,
read-only empty mapping, and :meth:`SetAssocCache.install` — the only
method that adds a line — gives a set its own plain ``dict`` the first
time a line lands in it. Building a machine therefore costs only the
sets its run touches (DESIGN.md §9.2). A filled set maps line -> pinned
flag in LRU insertion order: a hit re-inserts its line
(``entries[line] = entries.pop(line)``), and a dict of ints and bools is
never tracked by the cyclic garbage collector.
"""

from types import MappingProxyType

from repro.common.errors import ConfigurationError

#: The stand-in for every set no line has been installed in yet. It
#: answers ``in``, ``len``, ``get`` and iteration like an empty set and
#: refuses writes, so a mutator that skips the residency check fails
#: loudly instead of writing into every untouched set at once.
_EMPTY_SET = MappingProxyType({})


class SetAssocCache:
    """An LRU set-associative cache over cacheline ids.

    Parameters
    ----------
    size_bytes:
        Total capacity in bytes.
    assoc:
        Number of ways per set.
    line_bytes:
        Cacheline size in bytes (64 in the modeled machine).
    """

    def __init__(self, size_bytes, assoc, line_bytes=64):
        num_lines = size_bytes // line_bytes
        if num_lines <= 0 or assoc <= 0:
            raise ConfigurationError("cache must hold at least one line")
        if num_lines % assoc != 0:
            raise ConfigurationError(
                "cache size {} with associativity {} does not divide evenly".format(
                    size_bytes, assoc
                )
            )
        self.assoc = assoc
        self.num_sets = num_lines // assoc
        # Each set is a dict line -> pinned flag once filled; insertion
        # order is LRU order (least recently used first).
        self._sets = [_EMPTY_SET] * self.num_sets

    def set_index(self, line):
        """Cache set an address maps to."""
        return line % self.num_sets

    def contains(self, line):
        """True if the line is currently resident."""
        return line in self._sets[line % self.num_sets]

    def install(self, line):
        """Fill a line, evicting the LRU unpinned victim if its set is full.

        A resident line only becomes most recently used. Returns the
        victim line id, or None when nothing was evicted. Raises
        :class:`OverflowError` if the set is full of pinned lines.
        """
        index = line % self.num_sets
        entries = self._sets[index]
        if line in entries:
            entries[line] = entries.pop(line)
            return None
        if entries is _EMPTY_SET:
            self._sets[index] = {line: False}
            return None
        if len(entries) >= self.assoc:
            victim = self._find_victim(entries)
            if victim is None:
                raise OverflowError(
                    "cache set {} has all ways pinned".format(index)
                )
            del entries[victim]
            entries[line] = False
            return victim
        entries[line] = False
        return None

    @staticmethod
    def _find_victim(entries):
        for candidate, pinned in entries.items():
            if not pinned:
                return candidate
        return None

    def pin(self, line):
        """Pin a resident line so it cannot be evicted (cacheline lock)."""
        entries = self._sets[self.set_index(line)]
        if line not in entries:
            raise KeyError("cannot pin non-resident line {}".format(line))
        entries[line] = True

    def unpin(self, line):
        """Release a pin. Missing lines are ignored (already evicted)."""
        entries = self._sets[self.set_index(line)]
        if line in entries:
            entries[line] = False

    def is_pinned(self, line):
        """True if the line is resident and pinned."""
        entries = self._sets[self.set_index(line)]
        return entries.get(line, False)

    def invalidate(self, line):
        """Drop a line (remote invalidation). Pinned lines cannot be dropped."""
        entries = self._sets[self.set_index(line)]
        if line in entries:
            if entries[line]:
                raise OverflowError("cannot invalidate pinned (locked) line")
            del entries[line]

    def can_coreside(self, lines):
        """True if all given lines could be resident simultaneously.

        This is the discovery lockability test: for every cache set, the
        number of distinct lines (from ``lines``) mapping to it must not
        exceed the associativity. Duplicate lines are collapsed.
        """
        per_set = {}
        for line in set(lines):
            idx = self.set_index(line)
            per_set[idx] = per_set.get(idx, 0) + 1
            if per_set[idx] > self.assoc:
                return False
        return True

    def resident_lines(self):
        """All resident line ids (for tests)."""
        lines = []
        for entries in self._sets:
            lines.extend(entries.keys())
        return lines
