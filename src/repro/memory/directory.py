"""Directory-based ownership tracking (MESI-like, message-free).

The directory records, per cacheline, the set of sharer cores and the
exclusive owner (if any). It is the ground truth used to classify access
latencies (local hit / cache-to-cache transfer / memory) and to find
coherence victims for eager conflict detection.

Each line's state is one int: the sharer bit-vector (bit ``c`` set when
core ``c`` holds a shared copy) shifted above an owner field that holds
``owner + 1``, or 0 when no core owns the line. The field is
``num_cores.bit_length()`` bits wide, so the layout holds for any
machine width. A dict of ints is never tracked by the cyclic garbage
collector, however many lines a run touches (DESIGN.md §9.2).
:func:`cores_of` turns a bit-vector back into core ids; the sharer
index and the arbiter decode theirs with it too.

The directory's set index also defines the lexicographical order for
deadlock-free cacheline locking (paper §5): the paper picks "the set
index of the smallest shared structure, in our case the directory
cache". Addresses sharing a set form a lexicographical *group* and are
locked with the group protocol (probe private cache; if all hit
exclusive, lock silently; otherwise lock the directory set).
"""

from repro.memory.address import directory_set_of_line

#: Shared empty result of :meth:`Directory.record_write`: a private
#: re-write invalidates nobody and allocates nothing.
_NO_CORES = ()


def cores_of(mask):
    """The core ids whose bits are set in ``mask``, ascending."""
    cores = []
    while mask:
        low = mask & -mask
        cores.append(low.bit_length() - 1)
        mask ^= low
    return cores


class Directory:
    """Tracks per-line sharers/owner and per-set lock state.

    ``num_sets`` controls the lexicographical group granularity. The
    modeled directory has 800% coverage (Table 2), so entries are never
    evicted; we keep them in a sparse dict. Core ids must be below
    ``num_cores``, which sizes the owner field.
    """

    def __init__(self, num_sets=4096, num_cores=64):
        self.num_sets = num_sets
        #: Width of the owner field; sharer bit ``c`` is bit
        #: ``c + owner_bits`` of a line's entry.
        self.owner_bits = num_cores.bit_length()
        self._owner_mask = (1 << self.owner_bits) - 1
        self._entries = {}
        # Directory-set locks used by the group locking protocol: set
        # index -> core id holding the whole set locked.
        self._set_locks = {}

    def set_of(self, line):
        """Directory set index for a line (the lexicographical key)."""
        return directory_set_of_line(line, self.num_sets)

    # -- coherence transitions -------------------------------------------

    def record_read(self, core, line):
        """Core obtains a shared copy.

        Returns the previous exclusive owner if the data had to be
        sourced from a remote modified copy, else None. The previous
        owner is downgraded to sharer.
        """
        shift = self.owner_bits
        entry = self._entries.get(line, 0)
        owner = (entry & self._owner_mask) - 1
        previous_owner = None
        if owner >= 0 and owner != core:
            previous_owner = owner
            entry = (entry >> shift | 1 << owner) << shift
        self._entries[line] = entry | 1 << (core + shift)
        return previous_owner

    def record_write(self, core, line):
        """Core obtains an exclusive copy.

        Returns (previous_owner, invalidated): the remote owner whose
        modified copy sourced the data (or None), and the remote cores
        whose copies were invalidated, in ascending order.
        """
        entry = self._entries.get(line, 0)
        owner = (entry & self._owner_mask) - 1
        remote = entry >> self.owner_bits & ~(1 << core)
        previous_owner = None
        if owner >= 0 and owner != core:
            previous_owner = owner
            remote |= 1 << owner
        self._entries[line] = core + 1
        return previous_owner, cores_of(remote) if remote else _NO_CORES

    def drop(self, core, line):
        """Core evicted its copy of the line."""
        entry = self._entries.get(line)
        if entry is None:
            return
        entry &= ~(1 << (core + self.owner_bits))
        if entry & self._owner_mask == core + 1:
            entry ^= core + 1
        if entry:
            self._entries[line] = entry
        else:
            del self._entries[line]

    def is_owner(self, core, line):
        """True if ``core`` holds the line exclusively."""
        return self._entries.get(line, 0) & self._owner_mask == core + 1

    def holders(self, line):
        """All cores with a copy (sharers plus owner)."""
        entry = self._entries.get(line, 0)
        held = entry >> self.owner_bits
        owner = entry & self._owner_mask
        if owner:
            held |= 1 << (owner - 1)
        return set(cores_of(held))

    def held_elsewhere(self, core, line):
        """True if any core other than ``core`` holds a copy.

        Allocation-free equivalent of ``holders(line) - {core}`` for the
        per-write upgrade classification.
        """
        entry = self._entries.get(line, 0)
        owner = entry & self._owner_mask
        if owner and owner != core + 1:
            return True
        return entry >> self.owner_bits & ~(1 << core) != 0

    # -- directory-set (group) locks --------------------------------------

    def lock_set(self, core, set_index):
        """Lock a whole directory set for the group protocol.

        Returns True on success, False if another core holds it.
        """
        holder = self._set_locks.get(set_index)
        if holder is not None and holder != core:
            return False
        self._set_locks[set_index] = core
        return True

    def unlock_set(self, core, set_index):
        """Release a directory-set lock held by ``core``."""
        if self._set_locks.get(set_index) == core:
            del self._set_locks[set_index]

    def set_lock_holder(self, set_index):
        """Core currently holding the directory-set lock, or None."""
        return self._set_locks.get(set_index)
