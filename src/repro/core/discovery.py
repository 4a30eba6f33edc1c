"""The discovery phase (paper §4.1, §4.2).

Every speculative invocation of a convertible region doubles as a
discovery phase: CLEAR tracks the cachelines accessed (into the ALT, up
to its capacity), watches for indirections via the register indirection
bits, and — crucially — on a conflict does *not* abort immediately but
continues in **failed mode** until the region ends or the speculative
resources run out, so that it can make an informed retry decision.

With HTM as the baseline (§4.2) speculation extends beyond the ROB and
the store queue becomes the limiting resource for failed-mode discovery;
stores are kept in the SQ and loads are flagged non-aborting.

The Addresses-to-Lock Table (ALT, Fig. 7 ③) is one dict,
``lines``: cacheline -> *Needs Locking* (written lines, plus reads
found in the CRT before an S-CL retry). Its lexicographical order (the
directory set index, then the line) matters only when the table is
read, so :meth:`DiscoveryState.assess` and
:meth:`DiscoveryState.locking_plan` sort its at most ``alt_entries``
keys once. The executor's body step updates the state inline for
every discovering op (DESIGN.md §9.2, §14.1): the SQ count against
``sq_capacity``, the ALT against ``alt_entries`` and the indirection
flag, with both capacities bound when the step is built.
"""

from repro.memory.address import directory_set_of_line, lexicographical_key


class DiscoveryAssessment:
    """The hierarchical assessment made at the end of discovery (§4.1).

    1. ``fits_window`` — the AR fit the speculative resources (SQ with
       HTM; plus the ALT tracking limit).
    2. ``lockable`` — the accessed cachelines can all be held locked in
       the private cache simultaneously (no over-full L1 set).
    3. ``immutable`` — no indirection and no branch dependent on values
       accessed inside the AR.
    """

    __slots__ = ("fits_window", "lockable", "immutable", "sq_overflow",
                 "alt_overflow", "footprint")

    def __init__(self, fits_window, lockable, immutable, sq_overflow,
                 alt_overflow, footprint):
        self.fits_window = fits_window
        self.lockable = lockable
        self.immutable = immutable
        self.sq_overflow = sq_overflow
        self.alt_overflow = alt_overflow
        self.footprint = footprint

    def __repr__(self):
        return (
            "DiscoveryAssessment(fits_window={}, lockable={}, immutable={})".format(
                self.fits_window, self.lockable, self.immutable
            )
        )


class DiscoveryState:
    """One discovering attempt's footprint, indirection and resource use.

    ``lines`` is the ALT (line -> Needs Locking); ``store_count`` is
    the store queue's occupancy. ``directory_sets`` is the directory's
    set count, the lexicographical order's key, and ``can_coreside``
    the L1's lockability test.
    """

    __slots__ = (
        "region_id", "lines", "store_count", "failed", "indirection_seen",
        "sq_overflow", "alt_overflow", "_directory_sets", "_can_coreside",
    )

    def __init__(self, region_id, directory_sets, can_coreside):
        self.region_id = region_id
        self.lines = {}
        self.store_count = 0
        self.failed = False
        self.indirection_seen = False
        self.sq_overflow = False
        self.alt_overflow = False
        self._directory_sets = directory_sets
        self._can_coreside = can_coreside

    @property
    def exhausted(self):
        """Discovery can learn nothing more; a failed AR aborts now."""
        return self.sq_overflow or self.alt_overflow

    def ordered_lines(self):
        """Every tracked line, in lexicographical order."""
        num_sets = self._directory_sets
        return sorted(
            self.lines, key=lambda line: lexicographical_key(line, num_sets)
        )

    def assess(self):
        """The informed decision input produced at region end (§4.1)."""
        fits_window = not self.exhausted
        footprint = self.ordered_lines()
        lockable = fits_window and self._can_coreside(footprint)
        return DiscoveryAssessment(
            fits_window=fits_window,
            lockable=lockable,
            immutable=not self.indirection_seen,
            sq_overflow=self.sq_overflow,
            alt_overflow=self.alt_overflow,
            footprint=footprint,
        )

    def locking_plan(self, lock_all):
        """The lines to lock, in lexicographical order, grouped by set.

        ``lock_all`` selects NS-CL behaviour (every line) versus S-CL
        (only *Needs Locking* lines). Returns a list of groups; each
        group lists the line ids sharing one directory set, in order.
        The ALT's Conflict bit is the boundary between two groups.
        """
        num_sets = self._directory_sets
        lines = self.lines
        plan = []
        group = None
        group_set = None
        for line in self.ordered_lines():
            if not lock_all and not lines[line]:
                continue
            dir_set = directory_set_of_line(line, num_sets)
            if dir_set != group_set:
                group = []
                plan.append(group)
                group_set = dir_set
            group.append(line)
        return plan
