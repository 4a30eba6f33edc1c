"""CLEAR: Bounding Speculative Execution of Atomic Regions to a Single Retry.

A from-scratch Python reproduction of Gómez-Hernández et al., ASPLOS
2024. The package provides:

- a cacheline-granular multicore simulator with a TSX-like HTM,
  PowerTM, and the CLEAR mechanism (ERT/ALT/CRT, discovery, NS-CL and
  S-CL retry modes);
- the paper's 19 benchmarks (9 concurrent data structures + the STAMP
  suite as synthetic kernels);
- the analysis that regenerates every table and figure of the
  evaluation, and the table of the paper's claims that checks them
  (``repro.analysis.claims``).

Quickstart::

    from repro import api

    report = api.simulate("mwobject", "clear+powertm", seeds=1)
    print(report.stats.summary())

:func:`repro.api.simulate` is the single supported entry point.
:data:`repro.DESIGN_REGISTRY` is the table of the paper's four designs
(see DESIGN.md §12).
"""

from repro.core.modes import ExecMode
from repro.htm.design import DESIGN_REGISTRY
from repro.sim.config import ORACLE_MODES, SimConfig
from repro.sim.engine import ExperimentEngine, RunSpec
from repro.sim.faults import FaultPlan
from repro.sim.machine import Machine
from repro.sim.monitor import OnlineMonitor
from repro.sim.runner import AggregateResult, RunResult
from repro.energy.model import EnergyModel
from repro.workloads import ALL_NAMES, make_workload
from repro import api, obs
from repro.api import SimulationReport, simulate
from repro.obs import EventTrace, MetricRegistry

__version__ = "1.2.0"

__all__ = [
    "api",
    "obs",
    "simulate",
    "SimulationReport",
    "EventTrace",
    "MetricRegistry",
    "ExecMode",
    "SimConfig",
    "DESIGN_REGISTRY",
    "Machine",
    "AggregateResult",
    "RunResult",
    "RunSpec",
    "ExperimentEngine",
    "FaultPlan",
    "ORACLE_MODES",
    "OnlineMonitor",
    "EnergyModel",
    "ALL_NAMES",
    "make_workload",
    "__version__",
]
