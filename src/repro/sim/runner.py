"""Run orchestration: multi-seed runs and the paper's trimmed mean.

The paper executes every application "10 times with different seeds and
the trimmed mean is used to remove 3 outliers"; :func:`trimmed_mean`
implements that (dropping the 2 highest and 1 lowest by default when
removing 3), and :func:`repro.api.simulate` wires it to the simulator.

:class:`RunResult` and :class:`AggregateResult` round-trip losslessly
through ``to_dict()``/``from_dict()``; the experiment engine's on-disk
cache (:mod:`repro.sim.engine`) stores exactly that representation.
"""

import warnings

from repro.common.constants import PAPER_TRIM
from repro.common.serialize import Serializable
from repro.core.modes import EXEC_MODES
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.obs.trace import EventTrace
from repro.sim.config import SimConfig
from repro.sim.machine import build_machine
from repro.sim.stats import MachineStats


def trimmed_mean(values, trim=PAPER_TRIM):
    """Mean after removing ``trim`` outliers (⌈trim/2⌉ high, ⌊trim/2⌋ low).

    Falls back to a plain mean when too few values remain — and warns
    when it does, because a silently un-trimmed mean at low seed counts
    is easy to mistake for the paper's methodology.

    With nothing to drop and at most two values the sort is skipped: a
    sum of two IEEE terms does not depend on their order, so the mean
    is bit-identical (a warm sweep at one seed takes this path for
    every metric of every aggregate).
    """
    if trim < 1 and len(values) <= 2:
        return sum(values) / len(values) if values else 0.0
    ordered = sorted(values)
    if trim >= 1 and 0 < len(ordered) <= trim:
        warnings.warn(
            "trimmed_mean: only {} value(s) with trim={}; returning the "
            "plain (un-trimmed) mean".format(len(ordered), trim),
            RuntimeWarning,
            stacklevel=2,
        )
    if len(ordered) > trim >= 1:
        drop_high = (trim + 1) // 2
        drop_low = trim // 2
        ordered = ordered[drop_low:len(ordered) - drop_high]
    if not ordered:
        return 0.0
    return sum(ordered) / len(ordered)


class RunResult(Serializable):
    """One simulation run's headline metrics.

    ``trace`` optionally carries the run's
    :class:`~repro.obs.trace.EventTrace`; it rides through the dict
    form (and therefore the engine's cache and process transport) as a
    list of event dicts, so a traced cell replayed from cache still has
    its trace.
    """

    def __init__(self, workload_name, config, seed, stats, energy, trace=None):
        self.workload_name = workload_name
        self.config = config
        self.seed = seed
        self.stats = stats
        self.energy = energy
        self.trace = trace

    @property
    def cycles(self):
        """Makespan in cycles."""
        return self.stats.makespan_cycles

    @property
    def aborts_per_commit(self):
        """Fig. 9 metric for this run/aggregate."""
        return self.stats.aborts_per_commit()

    def to_dict(self):
        """The full run as a JSON-serializable dict (cache format)."""
        return {
            "workload_name": self.workload_name,
            "config": self.config.to_dict(),
            "seed": self.seed,
            "stats": self.stats.to_dict(),
            "energy": self.energy.to_dict(),
            "trace": self.trace.to_dicts() if self.trace is not None else None,
        }

    @classmethod
    def from_dict(cls, data, config=None):
        """Rebuild a run from :meth:`to_dict` output.

        ``config``, when given, is the run's :class:`SimConfig`, equal
        to the one ``data`` stores; it is used as is instead of parsing
        and validating ``data["config"]`` again. A result read from the
        engine's cache stores no config (the entry names it by
        fingerprint), so it decodes only with ``config``.
        """
        trace_dicts = data.get("trace")
        return cls(
            workload_name=data["workload_name"],
            config=(config if config is not None
                    else SimConfig.from_dict(data["config"])),
            seed=data["seed"],
            stats=MachineStats.from_dict(data["stats"]),
            energy=EnergyBreakdown.from_dict(data["energy"]),
            trace=(
                EventTrace.from_dicts(trace_dicts)
                if trace_dicts is not None else None
            ),
        )

    def __repr__(self):
        return "RunResult({}, {}, seed={}, cycles={})".format(
            self.workload_name, self.config.config_letter, self.seed, self.cycles
        )


class AggregateResult(Serializable):
    """Trimmed-mean metrics over several seeds of one (workload, config)."""

    def __init__(self, workload_name, config, runs, trim=PAPER_TRIM):
        if not runs:
            raise ValueError("need at least one run to aggregate")
        self.workload_name = workload_name
        self.config = config
        self.runs = list(runs)
        self.trim = trim

    def _metric(self, extractor):
        return trimmed_mean([extractor(run) for run in self.runs], self.trim)

    @property
    def cycles(self):
        return self._metric(lambda run: run.cycles)

    @property
    def energy(self):
        """Trimmed-mean total energy."""
        return self._metric(lambda run: run.energy.total)

    @property
    def aborts_per_commit(self):
        return self._metric(lambda run: run.aborts_per_commit)

    @property
    def discovery_time_fraction(self):
        """Share of busy cycles spent in failed-mode discovery."""
        return self._metric(lambda run: run.stats.discovery_time_fraction())

    def commit_mode_shares(self):
        """Mean share of commits per mode (Fig. 12)."""
        per_run = [run.stats.commit_mode_shares() for run in self.runs]
        return {
            mode: trimmed_mean([shares.get(mode, 0.0) for shares in per_run],
                               self.trim)
            for mode in EXEC_MODES
        }

    def abort_category_shares(self):
        """Mean share of aborts per category (Fig. 11).

        Keyed in the order the categories first appear over the runs.
        """
        per_run = [run.stats.abort_category_shares() for run in self.runs]
        categories = dict.fromkeys(
            category for shares in per_run for category in shares
        )
        return {
            category: trimmed_mean(
                [shares.get(category, 0.0) for shares in per_run], self.trim
            )
            for category in categories
        }

    def retry_shares(self):
        """Mean (first-retry, n-retry, fallback) shares (Fig. 13)."""
        per_run = [run.stats.retry_shares() for run in self.runs]
        return tuple(
            trimmed_mean([shares[index] for shares in per_run], self.trim)
            for index in range(3)
        )

    @property
    def first_retry_immutable_ratio(self):
        """Fig. 1 ratio."""
        return self._metric(lambda run: run.stats.first_retry_immutable_ratio())

    def to_dict(self):
        """The aggregate (config, trim, every run) as a JSON dict."""
        return {
            "workload_name": self.workload_name,
            "config": self.config.to_dict(),
            "trim": self.trim,
            "runs": [run.to_dict() for run in self.runs],
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild an aggregate from :meth:`to_dict` output."""
        return cls(
            workload_name=data["workload_name"],
            config=SimConfig.from_dict(data["config"]),
            runs=[RunResult.from_dict(run) for run in data["runs"]],
            trim=data["trim"],
        )


def _simulate_one(workload_factory, config, *, seed=1, energy_model=None,
                  trace=None):
    """Simulate one (workload, config, seed) and return a RunResult.

    The implementation behind :func:`repro.api.simulate` and the
    experiment engine. ``trace`` is an optional
    :class:`~repro.obs.trace.TraceSink` the machine emits into; when it
    is an :class:`~repro.obs.trace.EventTrace` it is also attached to
    the returned result.
    """
    workload = workload_factory()
    machine = build_machine(config, workload, seed, trace=trace)
    stats = machine.run()
    model = energy_model or EnergyModel()
    energy = model.evaluate(stats)
    attached = trace if isinstance(trace, EventTrace) else None
    return RunResult(workload.name, config, seed, stats, energy,
                     trace=attached)
