"""CLEAR's discovery as a table of entries: the reference the int state is tested against.

:class:`repro.core.discovery.DiscoveryState` keeps the Addresses-to-Lock
Table (ALT) as one ``line -> needs_locking`` dict, sorted only when it
is read, and the executor's body step updates it inline. This module
keeps the layered version it replaced:

- :class:`AddressToLockTable`, kept sorted by ``(dir_set, line)`` on
  every insert, with one :class:`AltEntry` per line carrying the
  paper's *Needs Locking*, *Locked*, *Hit* and *Conflict* bits, and
  :class:`AltOverflow` raised when a new line does not fit;
- :class:`ReferenceDiscovery`, the per-op ``on_load`` / ``on_store`` /
  ``on_branch`` / ``on_compute`` hooks over that table, its counters and
  its assessment;
- :func:`reference_lock_plan`, the controller's lock plan read from the
  table (CRT promotion with ``mark_needs_locking``).

``test_prop_discovery.py`` drives random access scripts through both
and compares them. :func:`on_load`, :func:`on_store` and
:func:`on_branch` are the same per-op hooks written against the int
state: ``tests/reference_step.py`` calls them where the product step
updates the state inline, so comparing the two body steps compares the
inline updates with these. Nothing under ``src/`` refers to the module.
"""

from repro.common.errors import ProtocolError
from repro.core.discovery import DiscoveryAssessment
from repro.core.modes import ExecMode


class AltOverflow(Exception):
    """The discovered footprint exceeds the ALT capacity."""

    def __init__(self, line):
        super().__init__("ALT full; cannot track line {}".format(line))
        self.line = line


class AltEntry:
    """One tracked cacheline."""

    __slots__ = ("line", "dir_set", "needs_locking", "locked", "hit", "conflict")

    def __init__(self, line, dir_set, needs_locking=False):
        self.line = line
        self.dir_set = dir_set
        self.needs_locking = needs_locking
        self.locked = False
        self.hit = False
        self.conflict = False

    def __repr__(self):
        return "AltEntry(line={}, set={}, needs_locking={}, locked={})".format(
            self.line, self.dir_set, self.needs_locking, self.locked
        )


class AddressToLockTable:
    """Sorted-by-lexicographical-order table of discovered cachelines.

    The cache controller's table of cacheline addresses learned during
    discovery (Fig. 7 ③), kept sorted by lexicographical order
    (directory set index of the line). Addresses mapping to the same
    directory set form a lexicographical group; every member but the
    last carries the Conflict bit, delimiting the group (paper §5).
    """

    def __init__(self, num_entries=32):
        self.num_entries = num_entries
        self._entries = []  # kept sorted by (dir_set, line)
        self._by_line = {}

    def __len__(self):
        return len(self._entries)

    def __contains__(self, line):
        return line in self._by_line

    def entry(self, line):
        """The tracked entry for a line, or None."""
        return self._by_line.get(line)

    def record_access(self, line, dir_set, written):
        """Track an access discovered inside the AR.

        Written lines set *Needs Locking*; re-recording a line as
        written upgrades it. Raises :class:`AltOverflow` when a new line
        does not fit — the region is then not convertible.
        """
        existing = self._by_line.get(line)
        if existing is not None:
            if written:
                existing.needs_locking = True
            return existing
        if len(self._entries) >= self.num_entries:
            raise AltOverflow(line)
        entry = AltEntry(line, dir_set, needs_locking=written)
        self._insert_sorted(entry)
        self._by_line[line] = entry
        return entry

    def _insert_sorted(self, entry):
        key = (entry.dir_set, entry.line)
        low, high = 0, len(self._entries)
        while low < high:
            mid = (low + high) // 2
            mid_key = (self._entries[mid].dir_set, self._entries[mid].line)
            if mid_key < key:
                low = mid + 1
            else:
                high = mid
        self._entries.insert(low, entry)

    def mark_needs_locking(self, line):
        """Force a tracked line to be locked (CRT hit before S-CL)."""
        entry = self._by_line.get(line)
        if entry is None:
            raise KeyError("line {} not tracked by ALT".format(line))
        entry.needs_locking = True

    def finalize_groups(self):
        """Set the Conflict bits delimiting lexicographical groups.

        All entries of a group except the *last* carry the bit (paper
        §5), so a scan knows the group continues while the bit is set.
        """
        for index, entry in enumerate(self._entries):
            next_entry = self._entries[index + 1] if index + 1 < len(self._entries) else None
            entry.conflict = (
                next_entry is not None and next_entry.dir_set == entry.dir_set
            )

    def entries(self):
        """All entries in lexicographical order."""
        return list(self._entries)

    def all_lines(self):
        """Every tracked line, in lexicographical order."""
        return [entry.line for entry in self._entries]

    def locking_plan(self, lock_all):
        """Ordered groups of entries to lock.

        ``lock_all`` selects NS-CL behaviour (every entry) versus S-CL
        (only *Needs Locking* entries). Returns a list of groups; each
        group is a list of entries sharing a directory set, in order.
        """
        self.finalize_groups()
        plan = []
        current = []
        for entry in self._entries:
            if not lock_all and not entry.needs_locking:
                continue
            if current and current[-1].dir_set != entry.dir_set:
                plan.append(current)
                current = []
            current.append(entry)
        if current:
            plan.append(current)
        return plan

    def verify_sorted(self):
        """Invariant check used by tests and property-based suites."""
        keys = [(entry.dir_set, entry.line) for entry in self._entries]
        if keys != sorted(keys):
            raise ProtocolError("ALT lost lexicographical order")
        return True


class ReferenceDiscovery:
    """Per-attempt tracking of footprint, indirection, and resource use."""

    def __init__(self, region_id, dir_set_of, can_coreside,
                 sq_capacity=72, lq_capacity=128, alt_entries=32):
        self.region_id = region_id
        self._dir_set_of = dir_set_of
        self._can_coreside = can_coreside
        self.sq_capacity = sq_capacity
        self.lq_capacity = lq_capacity
        self.alt = AddressToLockTable(alt_entries)
        self.failed = False
        self.indirection_seen = False
        self.sq_overflow = False
        self.alt_overflow = False
        self.load_count = 0
        self.store_count = 0
        self.op_count = 0

    def enter_failed_mode(self):
        """A conflict arrived; keep executing to finish learning (§4.1)."""
        self.failed = True

    @property
    def exhausted(self):
        """Discovery can learn nothing more; a failed AR aborts now."""
        return self.sq_overflow or self.alt_overflow

    def on_load(self, line, address_tainted):
        """Track a load retiring inside the AR."""
        self.op_count += 1
        self.load_count += 1
        if address_tainted:
            self.indirection_seen = True
        self._track(line, written=False)

    def on_store(self, line, address_tainted):
        """Track a store entering the SQ inside the AR."""
        self.op_count += 1
        self.store_count += 1
        if address_tainted:
            self.indirection_seen = True
        if self.store_count > self.sq_capacity:
            self.sq_overflow = True
        self._track(line, written=True)

    def on_branch(self, condition_tainted):
        """Track a branch retiring inside the AR (§3: a tainted one poisons)."""
        self.op_count += 1
        if condition_tainted:
            self.indirection_seen = True

    def on_compute(self, op_count=1):
        """Track non-memory work (for window accounting only)."""
        self.op_count += op_count

    def _track(self, line, written):
        if self.alt_overflow:
            return
        try:
            self.alt.record_access(line, self._dir_set_of(line), written)
        except AltOverflow:
            self.alt_overflow = True

    def has_writes(self):
        """Whether any tracked line needs locking (the S-CL guard)."""
        return any(entry.needs_locking for entry in self.alt.entries())

    def assess(self):
        """The informed decision input produced at region end (§4.1)."""
        fits_window = not self.sq_overflow and not self.alt_overflow
        footprint = self.alt.all_lines()
        lockable = fits_window and self._can_coreside(footprint)
        immutable = not self.indirection_seen
        return DiscoveryAssessment(
            fits_window=fits_window,
            lockable=lockable,
            immutable=immutable,
            sq_overflow=self.sq_overflow,
            alt_overflow=self.alt_overflow,
            footprint=footprint,
        )


def reference_lock_plan(discovery, mode, crt, scl_lock_policy="writes",
                        crt_enabled=True):
    """The lock plan of :class:`ReferenceDiscovery`, as groups of entries.

    NS-CL locks every ALT entry; S-CL locks written lines plus reads
    found in ``crt`` (paper §4.4.2, §5.1), promoted in table order.
    """
    alt = discovery.alt
    if mode is ExecMode.NS_CL or scl_lock_policy == "all":
        return alt.locking_plan(lock_all=True)
    if crt_enabled:
        for entry in alt.entries():
            if not entry.needs_locking and entry.line in crt:
                alt.mark_needs_locking(entry.line)
    return alt.locking_plan(lock_all=False)


# -- the per-op hooks, over the int state --------------------------------


def _track(discovery, line, written, alt_entries):
    if discovery.alt_overflow:
        return
    lines = discovery.lines
    if line in lines:
        if written:
            lines[line] = True
    elif len(lines) >= alt_entries:
        discovery.alt_overflow = True
    else:
        lines[line] = written


def on_load(discovery, controller, line, address_tainted):
    """A load retiring inside the AR."""
    if address_tainted:
        discovery.indirection_seen = True
    _track(discovery, line, False, controller.alt_entries)


def on_store(discovery, controller, line, address_tainted):
    """A store entering the SQ inside the AR."""
    discovery.store_count += 1
    if address_tainted:
        discovery.indirection_seen = True
    if discovery.store_count > controller.sq_capacity:
        discovery.sq_overflow = True
    _track(discovery, line, True, controller.alt_entries)


def on_branch(discovery, condition_tainted):
    """A branch retiring inside the AR (§3: a tainted one poisons)."""
    if condition_tainted:
        discovery.indirection_seen = True
