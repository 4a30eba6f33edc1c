"""HTM substrate: TSX-like best-effort transactions and PowerTM.

Provides the building blocks the execution engine composes into the
four evaluated configurations:

- :mod:`repro.htm.abort` — abort reason taxonomy (Fig. 11 categories).
- :mod:`repro.htm.rwset` — read/write set tracking with private-cache
  capacity limits and a speculative store buffer.
- :mod:`repro.htm.fallback` — the global fallback lock with writer
  (mutual exclusion) and reader (CL-mode guard) semantics.
- :mod:`repro.htm.powertm` — the single power-mode token of PowerTM.
- :mod:`repro.htm.arbiter` — requester-wins conflict arbitration with
  the PowerTM and CLEAR/S-CL NACK refinements.
- :mod:`repro.htm.design` — :data:`DESIGN_REGISTRY`, the paper's four
  designs as one table of letters and mechanism flags.
"""

from repro.htm.abort import AbortReason, AbortCategory, categorize_abort
from repro.htm.design import DESIGN_REGISTRY, LEGACY_LETTER_DESIGNS, design_name
from repro.htm.rwset import ReadWriteSets, CapacityExceeded
from repro.htm.fallback import FallbackLock
from repro.htm.powertm import PowerToken
from repro.htm.arbiter import ConflictArbiter, Resolution

__all__ = [
    "AbortReason",
    "AbortCategory",
    "categorize_abort",
    "DESIGN_REGISTRY",
    "LEGACY_LETTER_DESIGNS",
    "design_name",
    "ReadWriteSets",
    "CapacityExceeded",
    "FallbackLock",
    "PowerToken",
    "ConflictArbiter",
    "Resolution",
]
