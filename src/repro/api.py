"""The unified simulation facade.

One entry point — :func:`simulate` — accepts a workload by name or
factory, a configuration by object or design name, any number of
seeds, and optional tracing/oracle/engine knobs, and returns a
:class:`SimulationReport` that carries every run, the trimmed-mean
aggregate, and any captured event traces.

Quickstart::

    from repro import api

    report = api.simulate("genome", "clear+powertm", seeds=(1, 2, 3), trace=True)
    print(report.stats.summary())
    report.write_chrome_trace("trace.json")      # load in Perfetto
    print(report.forensic_report())

A single run is ``simulate(f, cfg, seeds=3).run``, a multi-seed
aggregate is ``simulate(f, cfg, seeds=S).aggregate()``, and the
paper's retry-threshold sweep is :func:`sweep_retry_threshold`.
"""

import numbers

from repro.common.constants import PAPER_TRIM, SWEEP_TRIM
from repro.common.errors import ConfigurationError
from repro.common.serialize import Serializable
from repro.htm.design import DESIGN_REGISTRY
from repro.obs.chrome import write_chrome_trace
from repro.obs.report import forensic_report as _forensic_report
from repro.obs.report import write_forensic_report
from repro.obs.trace import EventTrace, TraceSink
from repro.sim.config import SimConfig
from repro.sim.runner import (
    AggregateResult,
    RunResult,
    _simulate_one,
    _sweep_retry_threshold,
)


def _resolve_config(config, oracle=None):
    """Accept a SimConfig, a design name (a ``DESIGN_REGISTRY`` key), or None.

    ``oracle`` is the facade-level checker-mode override: ``None``
    (the default) leaves the config's own mode untouched — an explicit
    config-level mode is never silently downgraded by the kwarg
    default — while a mode name from
    :data:`~repro.sim.config.ORACLE_MODES` replaces it.
    """
    if config is None:
        config = SimConfig()
    elif isinstance(config, str):
        if config not in DESIGN_REGISTRY:
            raise ConfigurationError(
                "config must name a registered design ({}), not "
                "{!r}".format(", ".join(sorted(DESIGN_REGISTRY)), config)
            )
        config = SimConfig.for_design(config)
    elif not isinstance(config, SimConfig):
        raise TypeError(
            "config must be a SimConfig, a design name, or None, not "
            "{!r}".format(type(config).__name__)
        )
    if oracle is not None and config.oracle != oracle:
        config = config.replaced(oracle=oracle)
    return config


def _resolve_seeds(seeds):
    """Accept one seed or an iterable of them; always returns a tuple."""
    if isinstance(seeds, numbers.Integral):
        return (int(seeds),)
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    return seeds


class SimulationReport(Serializable):
    """Everything :func:`simulate` learned, in one object.

    ``runs`` holds one :class:`~repro.sim.runner.RunResult` per seed (in
    seed order); single-seed conveniences (``run``, ``stats``,
    ``cycles``, ``trace``) refer to the first run. The report
    round-trips through :class:`~repro.common.serialize.Serializable`
    like every other result type, traces included.
    """

    def __init__(self, runs, trim=PAPER_TRIM):
        if not runs:
            raise ValueError("a SimulationReport needs at least one run")
        self.runs = list(runs)
        self.trim = trim

    # -- single-run conveniences --------------------------------------------

    @property
    def run(self):
        """The first (often only) run."""
        return self.runs[0]

    @property
    def workload_name(self):
        return self.run.workload_name

    @property
    def config(self):
        return self.run.config

    @property
    def stats(self):
        """The first run's :class:`~repro.sim.stats.MachineStats`."""
        return self.run.stats

    @property
    def cycles(self):
        """First run's makespan, or the trimmed mean over many seeds."""
        if len(self.runs) == 1:
            return self.run.cycles
        return self.aggregate().cycles

    @property
    def aborts_per_commit(self):
        if len(self.runs) == 1:
            return self.run.aborts_per_commit
        return self.aggregate().aborts_per_commit

    @property
    def energy(self):
        """First run's energy breakdown."""
        return self.run.energy

    @property
    def seeds(self):
        """The seeds simulated, in run order."""
        return tuple(run.seed for run in self.runs)

    def aggregate(self):
        """Trimmed-mean :class:`AggregateResult` over every run."""
        return AggregateResult(
            self.workload_name, self.config, self.runs, self.trim
        )

    # -- observability -------------------------------------------------------

    @property
    def trace(self):
        """The first run's :class:`~repro.obs.trace.EventTrace`, or None."""
        return self.run.trace

    @property
    def traces(self):
        """seed -> EventTrace for every traced run."""
        return {
            run.seed: run.trace for run in self.runs if run.trace is not None
        }

    def _require_trace(self):
        if self.run.trace is None:
            raise ValueError(
                "this report has no trace; pass trace=True to simulate()"
            )
        return self.run.trace

    def write_chrome_trace(self, path):
        """Export the first run's trace as Chrome/Perfetto trace JSON."""
        return write_chrome_trace(
            self._require_trace(), path, num_cores=self.config.num_cores
        )

    def forensic_report(self, max_regions=None):
        """Per-region forensic text report of the first run's trace."""
        return _forensic_report(self._require_trace(), max_regions=max_regions)

    def write_forensic_report(self, path, max_regions=None):
        """Write :meth:`forensic_report` to ``path``."""
        return write_forensic_report(
            self._require_trace(), path, max_regions=max_regions
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        """The report (every run, traces included) as a JSON dict."""
        return {
            "trim": self.trim,
            "runs": [run.to_dict() for run in self.runs],
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            runs=[RunResult.from_dict(run) for run in data["runs"]],
            trim=data["trim"],
        )

    def __repr__(self):
        return "SimulationReport({}, {}, seeds={}, runs={})".format(
            self.workload_name, self.config.config_letter, self.seeds,
            len(self.runs),
        )


def simulate(workload, config=None, *, seeds=1, trim=PAPER_TRIM, trace=False,
             oracle=None, engine=None, ops_per_thread=None,
             energy_model=None, journal=None):
    """Simulate a workload and return a :class:`SimulationReport`.

    Parameters
    ----------
    workload:
        A benchmark name from the registry (``repro.ALL_NAMES``), a
        namespaced name (``gen:<spec|fingerprint|folder>`` for a seeded
        generated workload, ``trace:<folder>`` for a recorded trace),
        or a zero-argument workload factory.
    config:
        A :class:`~repro.sim.config.SimConfig`, a registered design
        name (``"baseline"``/``"powertm"``/``"clear"``/
        ``"clear+powertm"``/``"lrw"``/``"bigatomics"``), or None for
        defaults.
    seeds:
        One seed (int) or an iterable of seeds; one run per seed.
    trim:
        Outliers removed by the report's trimmed-mean aggregate
        (defaults to the paper's 3).
    trace:
        ``True`` records a full :class:`~repro.obs.trace.EventTrace`
        per run (attached to each run and the report); a
        :class:`~repro.obs.trace.TraceSink` instance streams events to
        that sink instead (single-seed only). Simulated results are
        identical with tracing on or off.
    oracle:
        Checker mode for these runs: ``"online"`` (the monitor of
        serializability and the single-retry bound, cheap enough to
        leave on) or ``"off"``. ``None`` (the default) keeps the
        config's own mode, which is ``"online"`` unless set.
    engine:
        An :class:`~repro.sim.engine.ExperimentEngine` to fan the seeds
        out through (parallel and cached). Requires ``workload`` by
        name; inline single-process execution otherwise.
    ops_per_thread:
        Scales a named workload; None keeps its default. Rejected for
        factory workloads (bake it into the factory instead).
    energy_model:
        Override the default :class:`~repro.energy.model.EnergyModel`
        (inline execution only).
    journal:
        A crash-safe job folder (path or
        :class:`~repro.sim.journal.SweepJournal`) durably logging every
        finished cell; a killed run re-invoked with the same journal
        replays completed cells instead of re-executing them. Requires
        ``engine`` (durability is an engine-level property).
    """
    config = _resolve_config(config, oracle)
    seed_list = _resolve_seeds(seeds)
    named = isinstance(workload, str)
    if not named and not callable(workload):
        raise TypeError(
            "workload must be a benchmark name or a zero-argument factory"
        )
    custom_sink = isinstance(trace, TraceSink) or (
        not isinstance(trace, bool) and trace
    )
    if custom_sink and len(seed_list) > 1:
        raise ValueError(
            "a custom trace sink only works with a single seed; pass "
            "trace=True to get one EventTrace per run"
        )

    if journal is not None and engine is None:
        raise ValueError(
            "journal is engine-only (crash-safe sweeps need the engine's "
            "fan-out); pass engine= as well"
        )
    if engine is not None:
        if not named:
            raise ValueError(
                "engine fan-out needs the workload by name (factories "
                "cannot cross process boundaries)"
            )
        if custom_sink:
            raise ValueError(
                "engine fan-out supports trace=True/False, not a custom sink"
            )
        if energy_model is not None:
            raise ValueError("energy_model is inline-only; omit engine")
        from repro.sim.engine import RunSpec
        from repro.workloads import canonical_workload_name

        # Worker processes resolve the name from scratch, so ship the
        # self-contained spelling (gen fingerprints/folders become full
        # spec strings, trace folders become absolute paths).
        workload = canonical_workload_name(workload)
        specs = [
            RunSpec(workload=workload, config=config, seed=seed,
                    ops_per_thread=ops_per_thread, trace=bool(trace))
            for seed in seed_list
        ]
        return SimulationReport(
            engine.run_specs(specs, journal=journal), trim=trim
        )

    if named:
        from repro.workloads import make_workload

        kwargs = {}
        if ops_per_thread is not None:
            kwargs["ops_per_thread"] = ops_per_thread
        name = workload
        factory = lambda: make_workload(name, **kwargs)  # noqa: E731
    else:
        if ops_per_thread is not None:
            raise ValueError(
                "ops_per_thread only scales named workloads; bake it into "
                "the factory instead"
            )
        factory = workload

    runs = []
    for seed in seed_list:
        if custom_sink:
            sink = trace
        elif trace:
            sink = EventTrace()
        else:
            sink = None
        runs.append(_simulate_one(
            factory, config, seed=seed, energy_model=energy_model, trace=sink
        ))
    return SimulationReport(runs, trim=trim)


def verify(workload, config=None, **kwargs):
    """Schedule-exploration verification: ``repro.verify.verify``.

    Explores the workload's schedule space (random/PCT fuzzing or the
    exhaustive DPOR-lite explorer), checks the serializability,
    single-retry-bound, and state-equivalence oracles on every
    schedule, and shrinks any failure to a replayable
    :class:`~repro.verify.ScheduleArtifact`. See
    :func:`repro.verify.explore.verify` for the full parameter list.
    """
    from repro.verify import verify as _verify

    return _verify(workload, config, **kwargs)


def sweep_retry_threshold(workload, config=None, thresholds=range(1, 11),
                          seeds=(1, 2, 3), trim=SWEEP_TRIM, *,
                          ops_per_thread=None, engine=None, oracle=None):
    """Best retry threshold per application (paper §6 methodology).

    ``workload`` is a benchmark name (fanned out through ``engine``,
    or an inline single-process engine) or a zero-argument factory
    (run inline); ``config`` resolves like :func:`simulate`'s. Returns
    ``(best_aggregate, best_threshold)``.
    """
    config = _resolve_config(config, oracle)
    return _sweep_retry_threshold(
        workload, config, thresholds=thresholds, seeds=seeds, trim=trim,
        ops_per_thread=ops_per_thread, engine=engine,
    )


__all__ = [
    "SimulationReport",
    "simulate",
    "verify",
    "sweep_retry_threshold",
]
