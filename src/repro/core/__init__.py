"""CLEAR: Cacheline-Locked Executed Atomic Regions (the paper's core).

Components map one-to-one onto Fig. 7 of the paper:

- :mod:`repro.core.indirection` — register-file indirection bits ①,
  realized as taint-propagating values.
- :mod:`repro.core.ert` — Explored Region Table ②.
- :mod:`repro.core.crt` — Conflicting Reads Table ④.
- :mod:`repro.core.discovery` — the discovery phase, including failed
  mode (§4.1, §4.2), its hierarchical assessments, and the
  Addresses-to-Lock Table ③ as one ``line -> needs_locking`` dict whose
  lexicographical groups are built when the lock plan is read.
- :mod:`repro.core.decision` — the decision tree of Fig. 2.
- :mod:`repro.core.controller` — the per-core controller gluing the
  tables to the transaction lifecycle (§5.1).
"""

from repro.core.modes import ExecMode
from repro.core.indirection import TaintedValue, taint_of, value_of
from repro.core.ert import ExploredRegionTable, ErtEntry
from repro.core.crt import ConflictingReadsTable
from repro.core.discovery import DiscoveryState, DiscoveryAssessment
from repro.core.decision import RetryDecision, decide_retry_mode
from repro.core.controller import ClearController

__all__ = [
    "ExecMode",
    "TaintedValue",
    "taint_of",
    "value_of",
    "ExploredRegionTable",
    "ErtEntry",
    "ConflictingReadsTable",
    "DiscoveryState",
    "DiscoveryAssessment",
    "RetryDecision",
    "decide_retry_mode",
    "ClearController",
]
