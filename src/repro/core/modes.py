"""Execution modes of an atomic-region attempt."""

import enum


class ExecMode(enum.Enum):
    """How an AR attempt executes (paper §4.3).

    ``SPECULATIVE`` is the baseline HTM/SLE attempt (discovery may run on
    top of it); ``FAILED_DISCOVERY`` is a speculative attempt that has
    already conflicted but keeps executing to finish learning its
    footprint; ``S_CL``/``NS_CL`` are CLEAR's cacheline-locked retry
    modes; ``FALLBACK`` is serialized execution under the global lock.
    """

    SPECULATIVE = "speculative"
    FAILED_DISCOVERY = "failed_discovery"
    S_CL = "s_cl"
    NS_CL = "ns_cl"
    FALLBACK = "fallback"

    # Members are singletons compared by identity, so they hash by
    # identity: a C slot instead of ``Enum.__hash__`` hashing the name
    # in Python, on every mode-keyed counter update and lookup.
    __hash__ = object.__hash__

    @property
    def is_cacheline_locked(self):
        """True for the NS-CL and S-CL retry modes."""
        return self in (ExecMode.S_CL, ExecMode.NS_CL)

    @property
    def is_speculative(self):
        """Conflict detection active and state rollback possible."""
        return self in (ExecMode.SPECULATIVE, ExecMode.FAILED_DISCOVERY, ExecMode.S_CL)


#: Every mode in definition order, and the value <-> member maps that
#: the stats decode and the figure projections read instead of calling
#: ``ExecMode(value)``, iterating the class or reading ``.value``.
EXEC_MODES = tuple(ExecMode)
MODE_BY_VALUE = {mode.value: mode for mode in EXEC_MODES}
MODE_VALUE = {mode: mode.value for mode in EXEC_MODES}
