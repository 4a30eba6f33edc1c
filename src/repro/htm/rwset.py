"""Transactional read/write sets and the speculative store buffer.

TSX-like HTMs track speculative accesses in the private caches: the
write set must fit in L1 (a written line may not be evicted without an
abort) and the read set in the larger private L2. We model both limits
by a per-set associativity check, which is how capacity aborts actually
arise in set-associative hardware (a hot set overflows long before the
total capacity does).

The associativity check is O(1) per access: per-cache-set occupancy
counters are bumped as lines are tracked, alongside a count of sets
currently over their associativity. The semantics match a full re-walk
of the sets exactly, including the asymmetry that a union overflow
*created* by a write (which only checks the write set against L1)
surfaces as a "read" capacity abort on the next newly-read line.
``tests/reference_rwset.py`` keeps the re-walk the counters replaced.

Speculative stores are buffered word-granular in the transaction; they
become architecturally visible only at commit. Loads snoop the buffer
first (store-to-load forwarding within the AR).

When constructed with ``index``/``core``, every newly tracked line is
also registered in the machine-global :class:`~repro.htm.sharer_index.
SharerIndex`, and ``detach_index`` (called on abort/commit/zombie)
withdraws all of them; see that module for the visibility invariant.
"""


class CapacityExceeded(Exception):
    """The read or write set no longer fits the tracking structure."""

    def __init__(self, which, line):
        super().__init__("{} set overflow on line {}".format(which, line))
        self.which = which
        self.line = line


class ReadWriteSets:
    """Per-transaction speculative access tracking.

    Parameters mirror the private caches used for tracking: the write
    set is checked against the L1 geometry and the read set against the
    L2 geometry. ``None`` disables a check (used by unit tests).
    """

    __slots__ = (
        "_l1_sets", "_l1_assoc", "_l2_sets", "_l2_assoc",
        "read_set", "write_set", "_write_buffer",
        "_index", "_core", "_monitor_epochs", "monitor_reads",
        "_union_counts", "_union_over", "_write_counts", "_write_over",
    )

    def __init__(self, l1_sets=64, l1_assoc=12, l2_sets=1024, l2_assoc=8,
                 index=None, core=None, monitor_epochs=None):
        self._l1_sets = l1_sets
        self._l1_assoc = l1_assoc
        self._l2_sets = l2_sets
        self._l2_assoc = l2_assoc
        self.read_set = set()
        self.write_set = set()
        self._write_buffer = {}
        self._index = index
        self._core = core
        # Online-monitor hook (repro.sim.monitor): when armed, the
        # first read of each line snapshots the line's current commit
        # epoch into monitor_reads for the commit-time staleness check.
        # One dict store on the first-access miss path; None otherwise.
        self._monitor_epochs = monitor_epochs
        self.monitor_reads = {} if monitor_epochs is not None else None
        # Occupancy per cache set: union (read|write) against L2
        # geometry, write set against L1 geometry, plus how many sets
        # currently exceed their associativity.
        self._union_counts = {}
        self._union_over = 0
        self._write_counts = {}
        self._write_over = 0

    def record_read(self, line):
        """Track a speculatively read line; raises on overflow."""
        if line in self.read_set:
            return
        self.read_set.add(line)
        index = self._index
        if index is not None:
            index.add_reader(self._core, line)
        epochs = self._monitor_epochs
        if epochs is not None:
            self.monitor_reads[line] = epochs.get(line, 0)
        if self._l2_sets is not None:
            if line not in self.write_set:
                counts = self._union_counts
                idx = line % self._l2_sets
                count = counts.get(idx, 0) + 1
                counts[idx] = count
                if count == self._l2_assoc + 1:
                    self._union_over += 1
            if self._union_over:
                raise CapacityExceeded("read", line)

    def record_write(self, line):
        """Track a speculatively written line; raises on overflow."""
        if line in self.write_set:
            return
        self.write_set.add(line)
        index = self._index
        if index is not None:
            index.add_writer(self._core, line)
        if self._l2_sets is not None and line not in self.read_set:
            counts = self._union_counts
            idx = line % self._l2_sets
            count = counts.get(idx, 0) + 1
            counts[idx] = count
            if count == self._l2_assoc + 1:
                self._union_over += 1
        if self._l1_sets is not None:
            counts = self._write_counts
            idx = line % self._l1_sets
            count = counts.get(idx, 0) + 1
            counts[idx] = count
            if count == self._l1_assoc + 1:
                self._write_over += 1
            if self._write_over:
                raise CapacityExceeded("write", line)

    # -- sharer index ------------------------------------------------------

    def detach_index(self):
        """Withdraw this attempt's lines from the machine sharer index.

        Idempotent; called when the core leaves conflict detection
        (abort, commit, or zombie via ``pending_abort``).
        """
        index = self._index
        if index is not None:
            index.drop_core(self._core, self.read_set, self.write_set)
            self._index = None

    # -- speculative store buffer ------------------------------------------

    def buffer_store(self, word_addr, value):
        """Hold a speculative store until commit."""
        self._write_buffer[word_addr] = value

    def forwarded_load(self, word_addr):
        """Value forwarded from the store buffer, or None if absent."""
        return self._write_buffer.get(word_addr)

    def drain_to(self, memory):
        """Commit: apply buffered stores to architectural memory in order."""
        for word_addr, value in self._write_buffer.items():
            memory.store(word_addr, value)
        self._write_buffer.clear()

    def discard(self):
        """Abort: throw away all speculative state."""
        self.detach_index()
        self.read_set.clear()
        self.write_set.clear()
        self._write_buffer.clear()
        if self.monitor_reads is not None:
            self.monitor_reads.clear()
        self._union_counts.clear()
        self._union_over = 0
        self._write_counts.clear()
        self._write_over = 0

