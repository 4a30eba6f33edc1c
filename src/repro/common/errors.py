"""Exception hierarchy for the reproduction library."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An invalid machine or workload configuration was supplied."""


class UnknownWorkloadError(ConfigurationError, KeyError):
    """No workload matches the requested name in any registry namespace.

    Raised by :func:`repro.workloads.make_workload` (and the name
    canonicalization helpers) when a name is neither a built-in
    benchmark nor a ``gen:<spec|fingerprint|folder>`` generated
    workload. Subclasses ``KeyError`` for backward compatibility with
    callers that catch the registry's historical exception.
    """

    def __str__(self):
        # KeyError.__str__ wins the MRO and would repr-ize the message;
        # user-facing scripts print this, so keep it a plain sentence.
        return str(self.args[0]) if self.args else ""


class SimulationError(ReproError):
    """The simulation reached an inconsistent state (a bug, not user error)."""


class ProtocolError(SimulationError):
    """A coherence or locking protocol invariant was violated."""


class SimulationStallError(SimulationError):
    """The machine stopped making forward progress.

    Base class for the three distinguishable stall outcomes (deadlock,
    livelock, cycle-limit exhaustion). ``diagnostic`` is a structured,
    JSON-serializable dump taken at trip time — per-core phase/mode,
    held locks, retry counters, ALT/ERT state, fallback and power-token
    holders — and ``stats`` carries the partial
    :class:`repro.sim.stats.MachineStats` accumulated so far.
    """

    def __init__(self, message, diagnostic=None, stats=None):
        super().__init__(message)
        self.diagnostic = diagnostic if diagnostic is not None else {}
        self.stats = stats

    def __reduce__(self):
        # Default Exception pickling only carries ``args``, so a stall
        # raised inside a worker process would arrive at the engine with
        # its diagnostic and partial stats silently dropped.
        message = self.args[0] if self.args else ""
        return (self.__class__, (message, self.diagnostic, self.stats))


class DeadlockError(SimulationStallError):
    """Every unfinished core is parked and no event can wake one."""


class LivelockError(SimulationStallError):
    """Cores stay runnable but no AR committed within the watchdog window."""


class CycleLimitExceeded(SimulationStallError):
    """The run passed ``max_cycles`` without completing every thread."""


class OracleViolation(SimulationError):
    """A runtime correctness oracle detected a broken guarantee.

    ``kind`` names the guarantee: ``"serializability"`` (the default),
    ``"leak"`` (a lock, the fallback lock or the power token held after
    the run), or one of the single-retry bound's ``"ns-cl-abort-reason"``
    and ``"fallback-threshold"``. ``details`` is a structured
    description of the violation (e.g. the stale reads of a failed
    commit, or the leaked lock-table entries).
    """

    def __init__(self, message, details=None, kind="serializability"):
        super().__init__(message)
        self.details = details if details is not None else {}
        self.kind = kind

    def __reduce__(self):
        # Like SimulationStallError: keep details and kind when a
        # violation raised in a worker process is pickled back.
        message = self.args[0] if self.args else ""
        return (self.__class__, (message, self.details, self.kind))


class ExperimentCellError(ReproError):
    """An experiment cell failed permanently after bounded retries.

    Raised by the strict (non-report) engine entry points; carries the
    :class:`repro.sim.engine.CellFailure` describing what happened.
    """

    def __init__(self, message, failure=None):
        super().__init__(message)
        self.failure = failure


class JournalError(ReproError):
    """A sweep journal's job folder cannot be used for this sweep."""


class JournalSchemaError(JournalError):
    """The job folder was written by an incompatible schema version.

    Raised on resume when the manifest's journal or result schema
    version disagrees with the running code; the recorded results
    could silently mismean, so the engine refuses to replay them.
    Start a fresh job folder (or delete the stale one) to proceed.
    """
