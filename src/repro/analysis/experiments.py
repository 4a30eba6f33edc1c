"""Experiment harness: one entry point per table/figure of the paper.

The expensive part — simulating every (benchmark, configuration) pair
over several seeds — is factored into :func:`run_config_matrix`; each
``figN_*`` function is a cheap projection of that matrix into exactly
the rows/series the corresponding paper figure reports.

Configurations follow the paper's naming: **B** requester-wins,
**P** PowerTM, **C** CLEAR over requester-wins, **W** CLEAR over
PowerTM (Fig. 8-13 group bars as B P C W).
"""

from repro.core.modes import ExecMode
from repro.htm.abort import AbortCategory
from repro.analysis.report import geometric_mean
from repro.htm.design import design_name
from repro.sim.config import SimConfig
from repro.sim.engine import ExperimentEngine, RunSpec
from repro.sim.runner import AggregateResult, select_best_threshold
from repro.workloads import ALL_NAMES, make_workload

CONFIG_LETTERS = ("B", "P", "C", "W")


class ExperimentSettings:
    """Scale knobs for the experiment suite.

    ``paper()`` approximates the paper's methodology (32 cores, 10
    seeds, trimmed mean removing 3, retry-threshold sweep);
    ``quick()`` is the CI-sized variant, so every figure regenerates
    in seconds on a laptop. :func:`settings_for` names every scale.
    """

    def __init__(self, benchmarks=ALL_NAMES, num_cores=8, ops_per_thread=12,
                 seeds=(1, 2, 3), trim=0, retry_threshold=5, retry_sweep=False,
                 sweep_thresholds=(1, 2, 4, 6, 8, 10), config_overrides=None):
        self.benchmarks = tuple(benchmarks)
        self.num_cores = num_cores
        self.ops_per_thread = ops_per_thread
        self.seeds = tuple(seeds)
        self.trim = trim
        self.retry_threshold = retry_threshold
        self.retry_sweep = retry_sweep
        self.sweep_thresholds = tuple(sweep_thresholds)
        # Extra SimConfig fields applied to every configuration — how
        # chaos/oracle runs reuse the whole harness (e.g.
        # {"fault_spurious_rate": 0.05, "oracle": "online"}).
        self.config_overrides = dict(config_overrides or {})

    @classmethod
    def quick(cls, benchmarks=ALL_NAMES):
        """CI-sized settings: 8 cores, 3 seeds, fixed threshold."""
        return cls(benchmarks=benchmarks)

    @classmethod
    def micro(cls, benchmarks=ALL_NAMES):
        """Smallest full-matrix scale: 4 cores, 2 seeds, tiny regions.

        Runs all 19 benchmarks across B/P/C/W in seconds; used by the
        conflict-equivalence suite (whose goldens are generated at this
        scale) and anywhere a complete but cheap matrix is needed.
        """
        return cls(benchmarks=benchmarks, num_cores=4, ops_per_thread=6,
                   seeds=(1, 2), trim=0)

    @classmethod
    def paper(cls, benchmarks=ALL_NAMES):
        """The paper's methodology: 32 cores, 10 seeds, trimmed mean, sweep."""
        return cls(
            benchmarks=benchmarks,
            num_cores=32,
            ops_per_thread=30,
            seeds=tuple(range(1, 11)),
            trim=3,
            retry_sweep=True,
        )

    def config_for(self, letter, retry_threshold=None):
        """SimConfig for a configuration (legacy letter or design name).

        ``retry_threshold`` defaults to the settings' own.
        """
        if retry_threshold is None:
            retry_threshold = self.retry_threshold
        return SimConfig.for_design(
            design_name(letter), num_cores=self.num_cores,
            retry_threshold=retry_threshold, **self.config_overrides
        )

    def workload_factory(self, name):
        """Factory building a fresh scaled workload instance."""
        return lambda: make_workload(name, ops_per_thread=self.ops_per_thread)

    def cell_thresholds(self):
        """Retry thresholds simulated per cell (one unless sweeping)."""
        if self.retry_sweep:
            return self.sweep_thresholds
        return (self.retry_threshold,)

    def expand_specs(self):
        """The flat engine job list covering the whole matrix.

        Ordered benchmark-major, then configuration letter, then retry
        threshold, then seed — the order :func:`run_config_matrix`
        regroups results in. One :class:`SimConfig` per (letter,
        threshold) is shared by every cell that runs it.
        """
        configs = [
            self.config_for(letter, threshold)
            for letter in CONFIG_LETTERS
            for threshold in self.cell_thresholds()
        ]
        return [
            RunSpec(workload=name, config=config, seed=seed,
                    ops_per_thread=self.ops_per_thread)
            for name in self.benchmarks
            for config in configs
            for seed in self.seeds
        ]


def settings_for(scale):
    """The settings of a named scale, as ``run_experiments.py`` runs it.

    ``micro``, ``quick`` and ``paper`` are the classmethods above;
    ``sweep`` is the paper's methodology at reduced seed count (the
    per-application best-of retry threshold, 32 cores) and ``medium``
    is 32 cores at a fixed threshold. Any other name gets ``quick``.
    """
    if scale == "paper":
        return ExperimentSettings.paper()
    if scale == "sweep":
        return ExperimentSettings(
            num_cores=32, ops_per_thread=16, seeds=(1, 2), trim=0,
            retry_sweep=True, sweep_thresholds=(1, 2, 4, 8),
        )
    if scale == "medium":
        return ExperimentSettings(
            num_cores=32, ops_per_thread=16, seeds=(1, 2, 3), trim=0
        )
    if scale == "micro":
        return ExperimentSettings.micro()
    return ExperimentSettings.quick()


def run_config_matrix(settings=None, progress=None, *, jobs=1,
                      cache_dir=None, engine=None, engine_progress=None,
                      cell_timeout=None, allow_partial=False, journal=None):
    """Simulate every (benchmark, configuration) pair.

    Returns {benchmark: {letter: AggregateResult}}. With
    ``settings.retry_sweep`` the per-application best retry threshold is
    selected exactly as in the paper ("best of 1 to 10 retries").

    The matrix is expanded into independent (workload, config, seed)
    cells and dispatched through the experiment engine: ``jobs`` worker
    processes (1 = strictly serial, ``None`` = all cores) with optional
    on-disk memoization under ``cache_dir``. Pass a pre-built
    ``engine`` to share a cache/pool across calls; ``engine_progress``
    receives per-cell :class:`~repro.sim.engine.ProgressEvent` updates,
    while ``progress(name, letter, aggregate)`` still fires once per
    aggregated matrix cell.

    ``cell_timeout`` bounds each cell's wall-clock time (see
    :class:`~repro.sim.engine.ExperimentEngine`). With
    ``allow_partial=True`` the return value becomes ``(matrix,
    report)``: failed cells no longer raise; instead any benchmark
    missing data for *any* configuration is dropped from the matrix
    (every figure normalizes across B/P/C/W, so a partial row would be
    misleading) and the :class:`~repro.sim.engine.SweepReport` says
    exactly what failed and why.

    ``journal`` (a job-folder path or
    :class:`~repro.sim.journal.SweepJournal`) makes the sweep
    crash-safe: finished cells are durably logged and a resumed call
    replays them with exactly-once execution.
    """
    settings = settings or ExperimentSettings.quick()
    if engine is None:
        engine = ExperimentEngine(jobs=jobs, cache_dir=cache_dir,
                                  progress=engine_progress,
                                  cell_timeout=cell_timeout)
    specs = settings.expand_specs()
    report = None
    if allow_partial:
        report = engine.run_specs_report(specs, journal=journal)
        results = report.results
    else:
        results = engine.run_specs(specs, journal=journal)

    thresholds = settings.cell_thresholds()
    seeds_per_threshold = len(settings.seeds)
    matrix = {}
    offset = 0
    for name in settings.benchmarks:
        per_config = {}
        for letter in CONFIG_LETTERS:
            aggregates = {}
            for threshold in thresholds:
                runs = results[offset:offset + seeds_per_threshold]
                offset += seeds_per_threshold
                if any(run is None for run in runs):
                    continue  # this threshold lost a seed to a failure
                aggregates[threshold] = AggregateResult(
                    runs[0].workload_name, runs[0].config, runs,
                    settings.trim,
                )
            if not aggregates:
                continue
            aggregate, _ = select_best_threshold(aggregates)
            per_config[letter] = aggregate
            if progress is not None:
                progress(name, letter, aggregate)
        if len(per_config) == len(CONFIG_LETTERS):
            matrix[name] = per_config
    if allow_partial:
        return matrix, report
    return matrix


# ---------------------------------------------------------------------------
# Figure projections
# ---------------------------------------------------------------------------

def fig1_retry_immutability(matrix):
    """Fig. 1: ratio of retrying ARs with a small, unchanged footprint.

    Measured on the baseline (B) runs, as in the paper's motivation.
    Returns {benchmark: ratio} plus an ``average`` entry.
    """
    ratios = {
        name: per_config["B"].first_retry_immutable_ratio
        for name, per_config in matrix.items()
    }
    observed = [ratio for ratio in ratios.values()]
    ratios["average"] = sum(observed) / len(observed) if observed else 0.0
    return ratios


def fig8_execution_time(matrix):
    """Fig. 8: execution time normalized to B, plus discovery overlay.

    Returns {benchmark: {letter: normalized_time}} with a ``geomean``
    pseudo-benchmark, and a parallel {benchmark: {letter:
    discovery_fraction}} map for the "time running aborted in
    discovery" overlay.
    """
    normalized = {}
    discovery = {}
    for name, per_config in matrix.items():
        base = per_config["B"].cycles or 1.0
        normalized[name] = {
            letter: per_config[letter].cycles / base for letter in CONFIG_LETTERS
        }
        discovery[name] = {
            letter: per_config[letter].discovery_time_fraction
            for letter in CONFIG_LETTERS
        }
    normalized["geomean"] = {
        letter: geometric_mean(
            [normalized[name][letter] for name in matrix]
        )
        for letter in CONFIG_LETTERS
    }
    return normalized, discovery


def fig9_aborts_per_commit(matrix):
    """Fig. 9: aborts per committed transaction, plus an average row."""
    rows = {
        name: {
            letter: per_config[letter].aborts_per_commit
            for letter in CONFIG_LETTERS
        }
        for name, per_config in matrix.items()
    }
    rows["average"] = {
        letter: sum(rows[name][letter] for name in matrix) / max(1, len(matrix))
        for letter in CONFIG_LETTERS
    }
    return rows


def fig10_energy(matrix):
    """Fig. 10: energy normalized to B, plus a geomean row."""
    rows = {}
    for name, per_config in matrix.items():
        base = per_config["B"].energy or 1.0
        rows[name] = {
            letter: per_config[letter].energy / base for letter in CONFIG_LETTERS
        }
    rows["geomean"] = {
        letter: geometric_mean([rows[name][letter] for name in matrix])
        for letter in CONFIG_LETTERS
    }
    return rows


#: The four categories Fig. 11 of the paper stacks. Categories outside
#: this set (e.g. the chaos layer's ``Injected``) only appear in a row
#: when their share is nonzero, so fault-free figure output is
#: byte-identical to a build without the chaos layer.
FIG11_PAPER_CATEGORIES = (
    AbortCategory.MEMORY_CONFLICT,
    AbortCategory.EXPLICIT_FALLBACK,
    AbortCategory.OTHER_FALLBACK,
    AbortCategory.OTHERS,
)


def fig11_abort_breakdown(matrix):
    """Fig. 11: abort shares by category per benchmark and config."""
    rows = {}
    for name, per_config in matrix.items():
        rows[name] = {}
        for letter in CONFIG_LETTERS:
            shares = per_config[letter].abort_category_shares()
            row = {
                category: shares.get(category, 0.0)
                for category in FIG11_PAPER_CATEGORIES
            }
            for category in AbortCategory:
                if category not in row and shares.get(category, 0.0) > 0.0:
                    row[category] = shares[category]
            rows[name][letter] = row
    return rows


def fig12_commit_modes(matrix):
    """Fig. 12: commit shares by execution mode per benchmark and config."""
    rows = {}
    for name, per_config in matrix.items():
        rows[name] = {
            letter: per_config[letter].commit_mode_shares()
            for letter in CONFIG_LETTERS
        }
    return rows


def fig13_retry_bound(matrix):
    """Fig. 13: (1-retry, n-retry, fallback) shares among retried commits.

    Includes an ``average`` row — the basis for the paper's headline
    "64.4% first-retry / 15.4% fallback" numbers.
    """
    rows = {}
    for name, per_config in matrix.items():
        rows[name] = {
            letter: per_config[letter].retry_shares() for letter in CONFIG_LETTERS
        }
    rows["average"] = {
        letter: tuple(
            sum(rows[name][letter][index] for name in matrix) / max(1, len(matrix))
            for index in range(3)
        )
        for letter in CONFIG_LETTERS
    }
    return rows


def headline_summary(matrix):
    """The abstract's headline numbers, measured on this matrix."""
    times, _ = fig8_execution_time(matrix)
    return _headline(times, fig9_aborts_per_commit(matrix),
                     fig10_energy(matrix), fig13_retry_bound(matrix))


def _headline(times, aborts, energy, retries):
    """:func:`headline_summary` read off the Fig. 8, 9, 10 and 13 rows."""
    return {
        "time_reduction_C_vs_B": 1.0 - times["geomean"]["C"],
        "time_reduction_W_vs_B": 1.0 - times["geomean"]["W"],
        "time_reduction_W_vs_P": 1.0 - (
            times["geomean"]["W"] / times["geomean"]["P"]
            if times["geomean"]["P"] else 1.0
        ),
        "energy_reduction_C_vs_B": 1.0 - energy["geomean"]["C"],
        "energy_reduction_W_vs_B": 1.0 - energy["geomean"]["W"],
        "aborts_per_commit_B": aborts["average"]["B"],
        "aborts_per_commit_C": aborts["average"]["C"],
        "aborts_per_commit_W": aborts["average"]["W"],
        "first_retry_share_B": retries["average"]["B"][0],
        "first_retry_share_P": retries["average"]["P"][0],
        "first_retry_share_C": retries["average"]["C"][0],
        "first_retry_share_W": retries["average"]["W"][0],
        "fallback_share_B": retries["average"]["B"][2],
        "fallback_share_C": retries["average"]["C"][2],
        "fallback_share_W": retries["average"]["W"][2],
    }


def figure_payload(matrix):
    """Every figure's data as one JSON-serializable dict.

    The single source of the figure-JSON shape: the experiment script
    wraps this with run metadata (scale, seeds, elapsed time), and the
    equivalence suite compares it byte-for-byte against committed
    goldens — so any change to a figure projection shows up in both.
    Each figure is computed once; the headline is read off them.
    """
    times, discovery = fig8_execution_time(matrix)
    aborts = fig9_aborts_per_commit(matrix)
    energy = fig10_energy(matrix)
    retries = fig13_retry_bound(matrix)
    return {
        "fig1": fig1_retry_immutability(matrix),
        "fig8_times": {k: v for k, v in times.items()},
        "fig8_discovery": discovery,
        "fig9": aborts,
        "fig10": energy,
        "fig11": {
            name: {
                letter: {cat.value: share for cat, share in shares.items()}
                for letter, shares in per_config.items()
            }
            for name, per_config in fig11_abort_breakdown(matrix).items()
        },
        "fig12": {
            name: {
                letter: {mode.value: share for mode, share in shares.items()}
                for letter, shares in per_config.items()
            }
            for name, per_config in fig12_commit_modes(matrix).items()
        },
        "fig13": {
            name: {letter: list(triple) for letter, triple in per_config.items()}
            for name, per_config in retries.items()
        },
        "headline": _headline(times, aborts, energy, retries),
    }
