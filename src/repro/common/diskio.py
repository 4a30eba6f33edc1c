"""Injectable filesystem seam for the durability layer.

Every durable side effect the experiment substrate performs — atomic
cache-entry and job-folder manifest writes — goes through a
:class:`DiskIO` instance instead of raw ``open`` calls. That single
seam is what makes the engine's crash-safety *testable*: the chaos
harness (:mod:`repro.sim.enginefaults`) subclasses it to inject
corrupted payloads and ``ENOSPC`` at seeded rates, so the recovery
paths in :class:`~repro.sim.engine.DiskCache` and
:class:`~repro.sim.journal.SweepJournal` are exercised by tests rather
than trusted.

Durability contract: :meth:`DiskIO.write_atomic` readers never observe
a partial file. The payload lands in a same-directory temp file, is
flushed and fsync'd, then renamed over the destination. The temp file
is removed on *any* failure (including a serialization error
mid-write).
"""

import os
import tempfile


class DiskIO:
    """Real filesystem operations (the production seam)."""

    def write_atomic(self, path, data):
        """Atomically replace ``path`` with ``data`` (bytes).

        fsyncs the temp file before the rename so a power loss cannot
        leave the destination pointing at unwritten blocks; cleans the
        temp file up on any failure so an aborted write leaves no
        ``*.tmp`` litter behind.
        """
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "wb", dir=directory, suffix=".tmp", delete=False
        )
        try:
            with handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def read_bytes(self, path):
        """The file's bytes, or ``b""`` when it does not exist."""
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return b""


__all__ = ["DiskIO"]
