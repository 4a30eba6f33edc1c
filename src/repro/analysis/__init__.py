"""Analysis layer: characterization, experiments, and rendering.

- :mod:`repro.analysis.characterize` — derives Table 1 (AR mutability
  classes) and feeds Fig. 1 from probe executions.
- :mod:`repro.analysis.experiments` — one entry point per figure of the
  evaluation, producing the same rows/series the paper reports.
- :mod:`repro.analysis.report` — plain-text tables and the geometric
  mean.
- :mod:`repro.analysis.claims` — the paper's claims as one table of
  checks over the figure data, Table 1 and the ablation runs.
"""

from repro.analysis.characterize import (
    RegionCharacterization,
    characterize_workload,
    characterization_table,
)
from repro.analysis.experiments import (
    CONFIG_LETTERS,
    ExperimentSettings,
    run_config_matrix,
    fig1_retry_immutability,
    fig8_execution_time,
    fig9_aborts_per_commit,
    fig10_energy,
    fig11_abort_breakdown,
    fig12_commit_modes,
    fig13_retry_bound,
    headline_summary,
)
from repro.analysis.report import render_table
from repro.analysis.storage import StorageOverhead, storage_overhead

__all__ = [
    "RegionCharacterization",
    "characterize_workload",
    "characterization_table",
    "CONFIG_LETTERS",
    "ExperimentSettings",
    "run_config_matrix",
    "fig1_retry_immutability",
    "fig8_execution_time",
    "fig9_aborts_per_commit",
    "fig10_energy",
    "fig11_abort_breakdown",
    "fig12_commit_modes",
    "fig13_retry_bound",
    "headline_summary",
    "render_table",
    "StorageOverhead",
    "storage_overhead",
]
