"""The global fallback lock.

SLE/HTM fallback serializes conflicting ARs behind one lock. Speculative
ARs read the lock's cacheline at begin: if a writer holds it they must
wait (Explicit Fallback abort), and they keep the line in their read set
so a later writer aborts them (Other Fallback abort).

CLEAR's NS-CL and S-CL modes take the lock *as readers* (paper §4.3:
"Both NS-CL and S-CL, before proceeding to lock cachelines, ensure that
no other AR is in fallback mode by acquiring a read lock on the AR's
mutex lock"). Readers exclude the writer but not each other, so multiple
CL-mode ARs run concurrently while fallback is held off — which also
reproduces the labyrinth serialization effect the paper reports.
"""

from repro.common.errors import ProtocolError


class FallbackLock:
    """A reader/writer lock occupying one cacheline.

    ``line`` is the cacheline id the lock variable lives in, so that
    speculative transactions can track it in their read sets.
    """

    def __init__(self, line):
        self.line = line
        self._writer = None
        self._readers = set()
        self.writer_acquisitions = 0
        # Optional trace hook: called as observer(event, core, shared)
        # with event "acquire"/"release" and shared True for the CL read
        # guard. Wired by the machine only when a trace sink is
        # attached; None costs one skipped check per transition.
        self.observer = None

    @property
    def writer(self):
        """Core holding the lock in fallback (write) mode, or None."""
        return self._writer

    @property
    def readers(self):
        """Cores holding the lock in CL-guard (read) mode."""
        return frozenset(self._readers)

    def is_write_held(self):
        """True while a core runs the fallback path."""
        return self._writer is not None

    def try_acquire_write(self, core):
        """Fallback execution: exclusive acquire. True on success."""
        if self._writer is not None or self._readers:
            return False
        self._writer = core
        self.writer_acquisitions += 1
        if self.observer is not None:
            self.observer("acquire", core, False)
        return True

    def release_write(self, core):
        """Fallback execution finished."""
        if self._writer != core:
            raise ProtocolError(
                "core {} releasing fallback lock held by {}".format(core, self._writer)
            )
        self._writer = None
        if self.observer is not None:
            self.observer("release", core, False)

    def try_acquire_read(self, core):
        """CL-mode guard: shared acquire. True on success."""
        if self._writer is not None:
            return False
        self._readers.add(core)
        if self.observer is not None:
            self.observer("acquire", core, True)
        return True

    def release_read(self, core):
        """A CL-mode AR finished (or aborted)."""
        if core not in self._readers:
            raise ProtocolError(
                "core {} releasing read lock it does not hold".format(core)
            )
        self._readers.discard(core)
        if self.observer is not None:
            self.observer("release", core, True)
