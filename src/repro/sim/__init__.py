"""Simulation engine: cores, programs, timing, statistics, wiring.

- :mod:`repro.sim.config` — the Table 2 machine configuration plus
  policy knobs selecting the evaluated configurations (B/P/C/W).
- :mod:`repro.sim.program` — the operation vocabulary atomic-region
  bodies are written in (Load/Store/Compute/Branch/AbortOp).
- :mod:`repro.sim.stats` — the measurement surface backing every
  figure of the evaluation.
- :mod:`repro.sim.executor` — the per-core AR execution state machine.
- :mod:`repro.sim.machine` — the assembled multicore machine and its
  event loop.
- :mod:`repro.sim.runner` — run results, the paper's trimmed mean, and
  the one-run simulation behind :mod:`repro.api`.
- :mod:`repro.sim.engine` — the parallel, cached experiment engine
  fanning independent (workload, config, seed) cells over worker
  processes with content-addressed on-disk memoization.
- :mod:`repro.sim.journal` — crash-safe sweeps: a job folder is the
  sweep's only result store (cache entries plus an atomic manifest
  remembering quarantines), so a SIGKILL'd sweep resumes with
  exactly-once cell execution.
- :mod:`repro.sim.faults` — deterministic seeded fault injection (the
  chaos layer, faults *inside* the simulated machine).
- :mod:`repro.sim.enginefaults` — seeded fault injection against the
  engine substrate itself (worker SIGKILLs, entry corruption,
  ENOSPC).
- :mod:`repro.sim.monitor` — the online monitor (``oracle="online"``,
  the default): commit-order serializability by incremental epoch
  checking and the single-retry bound, at production rate, plus
  end-of-run leak checks.
"""

from repro.common.retry import RetryPolicy
from repro.sim.config import SimConfig
from repro.sim.engine import (
    CellFailure,
    DiskCache,
    ExperimentEngine,
    ProgressEvent,
    RunSpec,
    SweepReport,
)
from repro.sim.enginefaults import EngineFaultPlan
from repro.sim.faults import FaultPlan
from repro.sim.journal import SweepJournal
from repro.sim.monitor import OnlineMonitor
from repro.sim.program import Load, Store, Compute, Branch, AbortOp, Invoke, Think
from repro.sim.stats import MachineStats, CoreStats
from repro.sim.machine import Machine
from repro.sim.runner import RunResult, AggregateResult

__all__ = [
    "SimConfig",
    "CellFailure",
    "DiskCache",
    "EngineFaultPlan",
    "ExperimentEngine",
    "RetryPolicy",
    "SweepJournal",
    "SweepReport",
    "FaultPlan",
    "ProgressEvent",
    "RunSpec",
    "OnlineMonitor",
    "Load",
    "Store",
    "Compute",
    "Branch",
    "AbortOp",
    "Invoke",
    "Think",
    "MachineStats",
    "CoreStats",
    "Machine",
    "RunResult",
    "AggregateResult",
]
