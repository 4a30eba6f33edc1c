"""Machine-global reverse sharer index for O(sharers) conflict probes.

Hardware HTMs do not interrogate every core on a conflict check: the
directory already knows, per line, which caches hold it, and only those
sharers see the coherence request. This module is the software analogue
— two maps, ``line -> reader bit-vector`` and ``line -> writer
bit-vector`` (bit ``c`` set for core ``c``), maintained incrementally at
the exact points transactional membership changes:

- ``ReadWriteSets.record_read``/``record_write`` set the owning core's
  bit in the line's reader/writer vector (the rwsets hold an index
  reference for the duration of the attempt);
- abort, commit, and the zombie transition (``pending_abort`` set by a
  remote conflict or a fallback sweep) clear the core's bit on every
  line it touched, via ``ReadWriteSets.detach_index``; a line whose
  vector empties leaves its map;
- cores that are invisible to conflict detection never register at all:
  NS-CL attempts (lock-protected, not speculative in the arbiter's
  sense) get unindexed rwsets, and a failed-discovery transition always
  passes through the zombie path first, so a doomed or failed core has
  no residue here.

Both maps hold only ints, so the cyclic garbage collector never tracks
them (DESIGN.md §9.2).

The invariant, checked by ``validate_machine`` against a from-scratch
rebuild: the index equals the union of read/write sets over exactly
the conflict-visible cores — phase BODY, speculative mode other than
failed discovery, live indexed rwsets, no pending abort.
``ConflictArbiter.resolve_line`` over this index is then equivalent
to a full scan of every such core's read and write sets, by
construction: ``tests/unit/test_sharer_index.py`` compares it with the
scan the index replaced, ``resolve`` over one ``TxPeerView`` per core,
which ``tests/reference_arbiter.py`` keeps.
"""

from repro.memory.directory import cores_of


class SharerIndex:
    """Reader and writer core bit-vectors per line, over all
    conflict-visible attempts."""

    __slots__ = ("_readers", "_writers")

    def __init__(self):
        self._readers = {}
        self._writers = {}

    def get(self, line):
        """``(readers, writers)`` bit-vectors for ``line``, or None if
        untracked."""
        readers = self._readers.get(line, 0)
        writers = self._writers.get(line, 0)
        if readers or writers:
            return readers, writers
        return None

    def add_reader(self, core, line):
        readers = self._readers
        readers[line] = readers.get(line, 0) | 1 << core

    def add_writer(self, core, line):
        writers = self._writers
        writers[line] = writers.get(line, 0) | 1 << core

    def drop_core(self, core, read_lines, write_lines):
        """Remove every registration ``core`` made for the given lines.

        Called with the attempt's read/write sets when the core leaves
        conflict detection (abort, commit, zombie). A vector left empty
        is deleted so the index never outgrows the union of live
        footprints.
        """
        keep = ~(1 << core)
        for vectors, lines in ((self._readers, read_lines),
                               (self._writers, write_lines)):
            for line in lines:
                mask = vectors.get(line)
                if mask is not None:
                    mask &= keep
                    if mask:
                        vectors[line] = mask
                    else:
                        del vectors[line]

    def snapshot(self):
        """``{line: (frozen readers, frozen writers)}`` for validation."""
        readers, writers = self._readers, self._writers
        return {
            line: (frozenset(cores_of(readers.get(line, 0))),
                   frozenset(cores_of(writers.get(line, 0))))
            for line in readers.keys() | writers.keys()
        }

    def __len__(self):
        return len(self._readers.keys() | self._writers.keys())

    def __repr__(self):
        return "SharerIndex({} lines)".format(len(self))
