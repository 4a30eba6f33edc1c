"""Schedule exploration & differential verification (DESIGN.md §11).

The simulator's only nondeterminism-shaped degree of freedom is the
event loop's tie-break among same-cycle runnable cores. This package
makes that tie-break pluggable (:class:`Scheduler`), explores the
resulting schedule space (random / PCT fuzzing, DPOR-lite exhaustive
DFS), verifies every explored schedule against three oracles
(serializability, the single-retry bound, cross-schedule state
equivalence), and shrinks failures to minimal replayable
:class:`ScheduleArtifact` JSON files.

Entry points: :func:`verify` (also surfaced as ``repro.api.verify``)
and ``scripts/verify_schedules.py``.
"""

from repro.verify.explore import (
    ExplorationCell,
    ScheduleOutcome,
    VerificationReport,
    execute_exploration_cell,
    explore_exhaustive,
    explore_fuzzing,
    replay_artifact,
    run_schedule,
    verify,
)
from repro.verify.oracles import COMMUTATIVE_WORKLOADS, check_equivalence
from repro.verify.schedule import (
    DefaultScheduler,
    PCTScheduler,
    RandomScheduler,
    RecordingScheduler,
    ReplayScheduler,
    ScheduleArtifact,
    Scheduler,
)
from repro.verify.shrink import ddmin, shrink_decisions

__all__ = [
    "Scheduler",
    "DefaultScheduler",
    "RandomScheduler",
    "PCTScheduler",
    "ReplayScheduler",
    "RecordingScheduler",
    "ScheduleArtifact",
    "ScheduleOutcome",
    "VerificationReport",
    "ExplorationCell",
    "COMMUTATIVE_WORKLOADS",
    "check_equivalence",
    "run_schedule",
    "explore_fuzzing",
    "explore_exhaustive",
    "execute_exploration_cell",
    "replay_artifact",
    "verify",
    "ddmin",
    "shrink_decisions",
]
