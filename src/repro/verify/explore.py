"""Schedule exploration and differential verification.

:func:`verify` is the driver: it runs a workload under many schedules —
the default deterministic one, a seeded random/PCT fuzzing batch, or a
DPOR-lite exhaustive enumeration of the decision tree for micro
configurations — and checks every run against the three oracles
(serializability and the single-retry bound via the online monitor,
and cross-schedule state/commit equivalence). A failing schedule is ddmin-shrunk
(:mod:`repro.verify.shrink`) to a minimal replayable
:class:`~repro.verify.schedule.ScheduleArtifact`.

The exploration space is exactly the machine's same-cycle tie-breaks
(see :mod:`repro.verify.schedule`); everything else in a run is
deterministic, so a decision list *is* a schedule and replaying it
reproduces the run bit-for-bit.
"""

import dataclasses
import hashlib
import json

from repro.common.errors import (
    ConfigurationError,
    OracleViolation,
    SimulationError,
    SimulationStallError,
)
from repro.obs.trace import EventTrace
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.verify.oracles import (
    COMMUTATIVE_WORKLOADS,
    is_commutative_workload,
    check_equivalence,
    violation,
)
from repro.verify.schedule import (
    DefaultScheduler,
    PCTScheduler,
    RandomScheduler,
    RecordingScheduler,
    ReplayScheduler,
    ScheduleArtifact,
)
from repro.verify.shrink import shrink_decisions

#: Safety cap on DFS tree size when the caller does not set one: micro
#: configurations stay well under it; anything larger should be fuzzed,
#: not enumerated.
DEFAULT_MAX_SCHEDULES = 4096


def _sha256_of(obj):
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ScheduleOutcome:
    """Everything one explored schedule produced."""

    def __init__(self, decisions, arities, violations, *, stats=None,
                 state_sha256=None, stats_sha256=None, commit_counts=None,
                 error=None, trace=None):
        self.decisions = list(decisions)
        self.arities = list(arities)
        self.violations = list(violations)
        self.stats = stats
        self.state_sha256 = state_sha256
        self.stats_sha256 = stats_sha256
        self.commit_counts = commit_counts
        self.error = error
        self.trace = trace

    @property
    def ok(self):
        return not self.violations

    def to_dict(self):
        """JSON-friendly summary (what exploration cells send back)."""
        return {
            "decisions": list(self.decisions),
            "arities": list(self.arities),
            "violations": list(self.violations),
            "state_sha256": self.state_sha256,
            "stats_sha256": self.stats_sha256,
            "commit_counts": self.commit_counts,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["decisions"], data["arities"], data["violations"],
            state_sha256=data.get("state_sha256"),
            stats_sha256=data.get("stats_sha256"),
            commit_counts=data.get("commit_counts"),
            error=data.get("error"),
        )

    def __repr__(self):
        return "ScheduleOutcome(decisions={}, violations={})".format(
            len(self.decisions), len(self.violations)
        )


def run_schedule(factory, config, seed, scheduler, *, trace=None,
                 machine_hook=None):
    """Run one schedule under full instrumentation; never raises.

    The machine runs with the online monitor armed (``config`` must
    have ``oracle="online"``; :func:`verify` arms it when the caller
    turned it off) and the given scheduler wrapped in a recorder.
    Oracle violations (under the kind the monitor raised), stalls, and
    simulation errors are converted into violation records on the
    returned :class:`ScheduleOutcome` instead of propagating — an
    exploration sweep must survive its own findings.

    ``machine_hook`` (test seam) receives the built machine before the
    run — how the planted-bug tests wrap the arbiter.
    """
    scheduler.reset()
    recording = RecordingScheduler(scheduler)
    workload = factory()
    machine = Machine(config, workload, seed, trace=trace, scheduler=recording)
    if machine_hook is not None:
        machine_hook(machine)
    violations = []
    error = None
    completed = False
    try:
        machine.run()
        completed = True
    except OracleViolation as exc:
        error = "{}: {}".format(type(exc).__name__, exc)
        violations.append(violation(exc.kind, str(exc), **dict(exc.details)))
    except SimulationStallError as exc:
        error = "{}: {}".format(type(exc).__name__, exc)
        violations.append(violation(
            "stall", str(exc), stall_kind=type(exc).__name__,
        ))
    except SimulationError as exc:
        error = "{}: {}".format(type(exc).__name__, exc)
        violations.append(violation("simulation-error", str(exc)))
    if violations:
        # Canonicalize through JSON so tuples inside oracle details become
        # lists; artifact round-trips must be exact.
        violations = json.loads(json.dumps(violations))
    stats = machine.stats
    state_sha256 = None
    stats_sha256 = None
    commit_counts = None
    if completed:
        snapshot = machine.memory.snapshot()
        state_sha256 = _sha256_of(
            sorted((str(addr), value) for addr, value in snapshot.items())
        )
        stats_sha256 = _sha256_of(stats.to_dict())
        commit_counts = sorted(
            (str(region), count)
            for region, count in stats.per_region_commits.items()
        )
    return ScheduleOutcome(
        recording.decisions, recording.arities, violations,
        stats=stats, state_sha256=state_sha256, stats_sha256=stats_sha256,
        commit_counts=commit_counts, error=error, trace=trace,
    )


# -- explorers ---------------------------------------------------------------


def explore_fuzzing(run_one, *, schedules, explorer, explore_seed, num_cores):
    """Random or PCT fuzzing: one seeded scheduler per schedule."""
    outcomes = []
    for index in range(schedules):
        seed = explore_seed + index
        if explorer == "pct":
            scheduler = PCTScheduler(seed, num_cores=num_cores)
        else:
            scheduler = RandomScheduler(seed)
        outcomes.append(run_one(scheduler))
    return outcomes, True


def explore_exhaustive(run_one, *, max_schedules, max_depth=None):
    """DPOR-lite DFS over the decision tree.

    Runs the all-default schedule first, then for every choice point at
    or past each run's forced prefix pushes one branch per untaken
    alternative (depth-first). ``max_depth`` bounds which choice points
    may branch (the "lite" in DPOR-lite: a bounded frontier instead of
    persistent sets); ``max_schedules`` caps total runs. Returns
    ``(outcomes, complete)`` where ``complete`` means the tree was
    fully enumerated within both bounds.
    """
    outcomes = []
    complete = True
    seen = set()
    stack = [[]]
    while stack:
        if len(outcomes) >= max_schedules:
            complete = False
            break
        prefix = stack.pop()
        outcome = run_one(ReplayScheduler(prefix))
        full = tuple(outcome.decisions)
        if full in seen:
            continue
        seen.add(full)
        outcomes.append(outcome)
        decisions = outcome.decisions
        arities = outcome.arities
        # Reversed so lower alternatives pop first (stable DFS order);
        # branching below len(prefix) would re-enumerate the ancestors'
        # subtrees.
        for index in range(len(decisions) - 1, len(prefix) - 1, -1):
            if max_depth is not None and index >= max_depth:
                continue
            for alternative in range(arities[index]):
                if alternative != decisions[index]:
                    stack.append(decisions[:index] + [alternative])
    return outcomes, complete


# -- engine fan-out ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ExplorationCell:
    """One picklable chunk of a fuzzing sweep for the process pool.

    Field names mirror :class:`~repro.sim.engine.RunSpec` where the
    engine's progress/failure reporting reads them.
    """

    workload: str
    config: SimConfig
    seed: int
    explorer: str
    explore_seed: int
    schedules: int
    ops_per_thread: int = None
    trace: bool = False


def execute_exploration_cell(cell):
    """Run one cell's schedules; module-level so the pool can pickle it."""
    from repro.workloads import make_workload

    kwargs = {}
    if cell.ops_per_thread is not None:
        kwargs["ops_per_thread"] = cell.ops_per_thread
    factory = lambda: make_workload(cell.workload, **kwargs)  # noqa: E731

    def run_one(scheduler):
        return run_schedule(factory, cell.config, cell.seed, scheduler)

    outcomes, _ = explore_fuzzing(
        run_one, schedules=cell.schedules, explorer=cell.explorer,
        explore_seed=cell.explore_seed, num_cores=cell.config.num_cores,
    )
    return {"outcomes": [outcome.to_dict() for outcome in outcomes]}


# -- the driver --------------------------------------------------------------


class VerificationReport:
    """What :func:`verify` found across every explored schedule."""

    def __init__(self, *, workload_name, config, seed, explorer, outcomes,
                 complete, violations, artifacts, state_checked):
        self.workload_name = workload_name
        self.config = config
        self.seed = seed
        self.explorer = explorer
        self.outcomes = outcomes
        self.complete = complete
        self.violations = violations
        self.artifacts = artifacts
        self.state_checked = state_checked

    @property
    def ok(self):
        return not self.violations

    @property
    def schedules_explored(self):
        return len(self.outcomes)

    @property
    def distinct_schedules(self):
        return len({tuple(outcome.decisions) for outcome in self.outcomes})

    @property
    def distinct_states(self):
        return len({
            outcome.state_sha256 for outcome in self.outcomes
            if outcome.state_sha256 is not None
        })

    def summary(self):
        """One human-readable line per verification run."""
        status = "OK" if self.ok else "{} VIOLATION(S)".format(
            len(self.violations)
        )
        return (
            "{}: {} schedules ({} distinct, {} final states, "
            "explorer={}{}, state-equivalence {}) -> {}".format(
                self.workload_name or "<factory>",
                self.schedules_explored, self.distinct_schedules,
                self.distinct_states, self.explorer,
                "" if self.complete else ", truncated",
                "checked" if self.state_checked else "skipped",
                status,
            )
        )

    def to_dict(self):
        return {
            "workload": self.workload_name,
            "config": self.config.to_dict(),
            "seed": self.seed,
            "explorer": self.explorer,
            "complete": self.complete,
            "schedules_explored": self.schedules_explored,
            "distinct_schedules": self.distinct_schedules,
            "distinct_states": self.distinct_states,
            "state_checked": self.state_checked,
            "violations": list(self.violations),
            "artifacts": [artifact.to_dict() for artifact in self.artifacts],
        }


def verify(workload, config=None, *, cores=None, seed=1, schedules=20,
           explorer="random", explore_seed=0, ops_per_thread=None,
           max_schedules=None, max_depth=None, shrink=True,
           machine_hook=None, expect_state_equal=None, engine=None):
    """Explore a workload's schedule space and verify every schedule.

    Parameters
    ----------
    workload:
        A benchmark name from the registry or a zero-argument factory
        (factories cannot cross process boundaries or be recorded into
        artifacts by name, so prefer names).
    config:
        :class:`SimConfig`, design name, or None; a config with
        ``oracle="off"`` is switched back to the ``"online"`` monitor and
        ``cores`` (when given) overrides ``num_cores``.
    schedules:
        Fuzzing budget for ``explorer="random"``/``"pct"``.
    explorer:
        ``"random"``, ``"pct"``, or ``"exhaustive"`` (DPOR-lite DFS;
        ``schedules`` is ignored, ``max_schedules``/``max_depth`` bound
        the tree).
    shrink:
        ddmin-shrink the first violating schedule to a minimal
        replayable artifact.
    machine_hook:
        Optional callable receiving each built machine (test seam for
        planted bugs); forces inline execution.
    expect_state_equal:
        Require the final shared-memory digest to be identical across
        schedules. Default: only for workloads whose regions commute
        (:data:`~repro.verify.oracles.COMMUTATIVE_WORKLOADS`).
    engine:
        An :class:`~repro.sim.engine.ExperimentEngine` to fan fuzzing
        batches out across the process pool (named workloads, no
        machine_hook; exhaustive exploration is inherently sequential).
    """
    from repro.api import _resolve_config

    config = _resolve_config(config)
    if cores is not None and cores != config.num_cores:
        config = config.replaced(num_cores=cores)
    if not config.online_monitor:
        config = config.replaced(oracle="online")
    named = isinstance(workload, str)
    workload_name = workload if named else None
    if named:
        from repro.workloads import canonical_workload_name, make_workload

        # Self-contained spelling so engine fan-out workers (and saved
        # artifacts) can re-resolve gen: names from scratch.
        workload = workload_name = canonical_workload_name(workload)
        kwargs = {}
        if ops_per_thread is not None:
            kwargs["ops_per_thread"] = ops_per_thread
        factory = lambda: make_workload(workload, **kwargs)  # noqa: E731
    elif callable(workload):
        if ops_per_thread is not None:
            raise ValueError(
                "ops_per_thread only scales named workloads; bake it into "
                "the factory instead"
            )
        factory = workload
    else:
        raise TypeError(
            "workload must be a benchmark name or a zero-argument factory"
        )
    if explorer not in ("random", "pct", "exhaustive"):
        raise ConfigurationError(
            "explorer must be random, pct, or exhaustive, not "
            "{!r}".format(explorer)
        )
    if expect_state_equal is None:
        expect_state_equal = is_commutative_workload(workload_name)

    def run_one(scheduler):
        return run_schedule(
            factory, config, seed, scheduler, machine_hook=machine_hook
        )

    # Schedule 0 is always the default deterministic schedule: it is
    # the equivalence reference and pins the golden behaviour.
    baseline = run_one(DefaultScheduler())
    cap = max_schedules if max_schedules is not None else DEFAULT_MAX_SCHEDULES

    if explorer == "exhaustive":
        explored, complete = explore_exhaustive(
            run_one, max_schedules=cap, max_depth=max_depth
        )
        # The DFS root *is* the default schedule; drop the duplicate.
        outcomes = [baseline] + [
            outcome for outcome in explored
            if outcome.decisions != baseline.decisions
        ]
    elif engine is not None and named and machine_hook is None:
        outcomes = [baseline] + _fan_out(
            engine, workload_name, config, seed, explorer, explore_seed,
            schedules, ops_per_thread,
        )
        complete = True
    else:
        explored, complete = explore_fuzzing(
            run_one, schedules=schedules, explorer=explorer,
            explore_seed=explore_seed, num_cores=config.num_cores,
        )
        outcomes = [baseline] + explored

    violations = []
    for index, outcome in enumerate(outcomes):
        for entry in outcome.violations:
            violations.append(dict(entry, schedule=index))
    equivalence = check_equivalence(
        outcomes, expect_state_equal=expect_state_equal
    )
    for entry in equivalence:
        outcomes[entry["details"]["schedule"]].violations.append(entry)
        violations.append(dict(entry, schedule=entry["details"]["schedule"]))

    artifacts = []
    if violations and shrink:
        artifacts.append(_shrink_first_failure(
            outcomes, run_one, workload_name, config, seed, ops_per_thread,
            expect_state_equal,
        ))
    return VerificationReport(
        workload_name=workload_name, config=config, seed=seed,
        explorer=explorer, outcomes=outcomes, complete=complete,
        violations=violations, artifacts=artifacts,
        state_checked=expect_state_equal,
    )


def _fan_out(engine, workload_name, config, seed, explorer, explore_seed,
             schedules, ops_per_thread):
    """Split a fuzzing budget into per-worker cells and merge outcomes."""
    jobs = max(1, engine.jobs)
    chunk = max(1, -(-schedules // (jobs * 2)))  # ceil; ~2 cells per worker
    cells = []
    start = 0
    while start < schedules:
        count = min(chunk, schedules - start)
        cells.append(ExplorationCell(
            workload=workload_name, config=config, seed=seed,
            explorer=explorer, explore_seed=explore_seed + start,
            schedules=count, ops_per_thread=ops_per_thread,
        ))
        start += count
    outcomes = []
    for payload in engine.map_cells(cells, execute_exploration_cell):
        outcomes.extend(
            ScheduleOutcome.from_dict(entry) for entry in payload["outcomes"]
        )
    return outcomes


def _violation_kinds(outcome):
    return {entry["kind"] for entry in outcome.violations}


def _shrink_first_failure(outcomes, run_one, workload_name, config, seed,
                          ops_per_thread, expect_state_equal):
    """ddmin the first failing schedule into a replayable artifact."""
    failing = next(outcome for outcome in outcomes if outcome.violations)
    target_kinds = _violation_kinds(failing)
    reference = outcomes[0] if outcomes[0].ok else None

    def still_fails(decisions):
        outcome = run_one(ReplayScheduler(decisions))
        kinds = _violation_kinds(outcome)
        if reference is not None and expect_state_equal:
            if (outcome.state_sha256 is not None
                    and outcome.state_sha256 != reference.state_sha256):
                kinds.add("state-divergence")
            if (outcome.commit_counts is not None
                    and outcome.commit_counts != reference.commit_counts):
                kinds.add("commit-count-divergence")
        return bool(kinds & target_kinds)

    minimal = shrink_decisions(failing.decisions, still_fails)
    final = run_one(ReplayScheduler(minimal))
    return ScheduleArtifact(
        workload_name, config, seed, minimal,
        ops_per_thread=ops_per_thread,
        violations=failing.violations,
        decision_points=len(failing.decisions),
        stats_sha256=final.stats_sha256,
        state_sha256=final.state_sha256,
        notes="ddmin-shrunk from {} decisions; violation kinds: {}".format(
            len(failing.decisions), ", ".join(sorted(target_kinds))
        ),
    )


def replay_artifact(artifact, *, trace=False, machine_hook=None):
    """Re-execute an artifact's schedule; returns its ScheduleOutcome.

    ``trace=True`` captures the full event trace on the outcome for
    forensic reporting (:mod:`repro.obs`).
    """
    if artifact.workload is None:
        raise ValueError(
            "artifact has no workload name; factory-based runs cannot be "
            "replayed from JSON"
        )
    from repro.workloads import make_workload

    kwargs = {}
    if artifact.ops_per_thread is not None:
        kwargs["ops_per_thread"] = artifact.ops_per_thread
    factory = lambda: make_workload(artifact.workload, **kwargs)  # noqa: E731
    sink = EventTrace() if trace else None
    return run_schedule(
        factory, artifact.config, artifact.seed, artifact.scheduler(),
        trace=sink, machine_hook=machine_hook,
    )
