#!/usr/bin/env python3
"""Cross-design evaluation matrix: every registered HTM design on every
workload.

Runs the full design zoo (``repro.htm.design.DESIGN_REGISTRY`` — the
paper's four modes plus the post-paper ``lrw`` and ``bigatomics``
backends) across all 19 workloads and writes two artifacts:

- ``BENCH_DESIGNS.json`` — the raw matrix (per-cell cycles, abort rate,
  commit-mode split, energy, design annotations), plus per-design
  summaries.
- ``DESIGNS.md`` — a rendered markdown grid: execution time normalized
  to the baseline design per workload, and a per-design summary table.

No plotting dependencies: the grid is JSON + markdown by construction,
so it runs (and diffs reviewably) anywhere the test suite runs.

Scales:

- ``micro`` (default): 4 cores, 6 ops/thread, seeds 1-2 — the committed
  artifacts and the CI smoke both use this, so regenerating is cheap.
- ``full``: 8 cores, 12 ops/thread, seeds 1-3.

Every cell runs with the online serializability monitor armed; a
violation in any design on any workload fails the whole benchmark.
"""

import json
import os
import sys
import time

from repro import api, cli
from repro.cli import argparse
from repro.core.modes import ExecMode
from repro.energy.model import EnergyModel
from repro.htm.abort import AbortReason
from repro.htm.design import DESIGN_REGISTRY
from repro.sim.config import SimConfig
from repro.workloads import ALL_NAMES

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_DESIGNS.json")
MARKDOWN_PATH = os.path.join(REPO_ROOT, "DESIGNS.md")

SCALES = {
    "micro": dict(cores=4, ops_per_thread=6, seeds=(1, 2)),
    "full": dict(cores=8, ops_per_thread=12, seeds=(1, 2, 3)),
}

#: Annotation counters worth surfacing in the summary, per design.
ANNOTATION_KEYS = ("multiword_commits",)


def measure_cell(workload, design, scale, engine, journal=None):
    """One workload x design cell: seed-averaged metrics as a dict."""
    config = SimConfig.for_design(
        design, num_cores=scale["cores"], oracle="online",
    )
    report = api.simulate(
        workload, config, seeds=scale["seeds"],
        ops_per_thread=scale["ops_per_thread"], trim=0, engine=engine,
        journal=journal,
    )
    model = EnergyModel()
    runs = report.runs
    energy = sum(model.evaluate(r.stats).total for r in runs) / len(runs)
    commits = sum(r.stats.total_commits for r in runs)
    fallback = sum(
        r.stats.commits_by_mode.get(ExecMode.FALLBACK, 0) for r in runs
    )
    annotations = {}
    for key in ANNOTATION_KEYS:
        total = sum(
            r.stats.design_annotations.get(key, 0) for r in runs
        )
        if total:
            annotations[key] = total
    capacity = sum(
        r.stats.aborts_by_reason.get(AbortReason.CAPACITY, 0) for r in runs
    )
    return {
        "workload": workload,
        "design": design,
        "cycles": report.cycles,
        "aborts_per_commit": round(report.aborts_per_commit, 4),
        "fallback_commit_share": round(fallback / commits, 4) if commits else 0.0,
        "capacity_aborts": capacity,
        "energy": round(energy, 1),
        "annotations": annotations,
    }


def geomean(values):
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def summarize(matrix, designs):
    """Per-design aggregates over the workload axis, baseline-relative."""
    summaries = {}
    for design in designs:
        cells = [matrix[workload][design] for workload in sorted(matrix)]
        relative = [
            cell["cycles"] / matrix[cell["workload"]]["baseline"]["cycles"]
            for cell in cells
        ]
        rel_energy = [
            cell["energy"] / matrix[cell["workload"]]["baseline"]["energy"]
            for cell in cells
        ]
        annotations = {}
        for cell in cells:
            for key, value in cell["annotations"].items():
                annotations[key] = annotations.get(key, 0) + value
        summaries[design] = {
            "letter": DESIGN_REGISTRY[design].letter,
            "geomean_relative_cycles": round(geomean(relative), 4),
            "geomean_relative_energy": round(geomean(rel_energy), 4),
            "mean_aborts_per_commit": round(
                sum(c["aborts_per_commit"] for c in cells) / len(cells), 4
            ),
            "mean_fallback_commit_share": round(
                sum(c["fallback_commit_share"] for c in cells) / len(cells), 4
            ),
            "total_capacity_aborts": sum(c["capacity_aborts"] for c in cells),
            "annotations": annotations,
        }
    return summaries


def render_markdown(payload):
    """The committed DESIGNS.md: normalized grid + summary table."""
    scale = payload["scale_params"]
    designs = payload["designs"]
    matrix = payload["matrix"]
    summaries = payload["summaries"]
    lines = [
        "# Cross-design evaluation matrix",
        "",
        "Generated by `scripts/bench_designs.py --scale {}` ({} cores, "
        "{} ops/thread, seeds {}). Every registered design ran every "
        "workload with the invariant oracles armed.".format(
            payload["scale"], scale["cores"], scale["ops_per_thread"],
            "/".join(str(s) for s in scale["seeds"]),
        ),
        "",
        "## Execution time (cycles, normalized to `baseline`)",
        "",
        "Lower is better; the `baseline` column shows raw cycles.",
        "",
        "| workload | " + " | ".join(
            "`{}`".format(d) for d in designs
        ) + " |",
        "|---" * (len(designs) + 1) + "|",
    ]
    for workload in sorted(matrix):
        row = matrix[workload]
        base = row["baseline"]["cycles"]
        cells = []
        for design in designs:
            if design == "baseline":
                cells.append("{:,.0f}".format(base))
            else:
                cells.append("{:.3f}".format(row[design]["cycles"] / base))
        lines.append(
            "| {} | ".format(workload) + " | ".join(cells) + " |"
        )
    lines += [
        "",
        "## Per-design summary (geomean over all {} workloads)".format(
            len(matrix)
        ),
        "",
        "| design | letter | rel. cycles | rel. energy | aborts/commit "
        "| fallback share | notes |",
        "|---|---|---|---|---|---|---|",
    ]
    for design in designs:
        summary = summaries[design]
        notes = []
        if summary["total_capacity_aborts"]:
            notes.append("{} capacity aborts".format(
                summary["total_capacity_aborts"]
            ))
        for key, value in sorted(summary["annotations"].items()):
            notes.append("{} {}".format(value, key.replace("_", " ")))
        lines.append(
            "| `{}` | {} | {:.3f} | {:.3f} | {:.3f} | {:.1%} | {} |".format(
                design, summary["letter"] or "—",
                summary["geomean_relative_cycles"],
                summary["geomean_relative_energy"],
                summary["mean_aborts_per_commit"],
                summary["mean_fallback_commit_share"],
                "; ".join(notes) or "—",
            )
        )
    lines += [
        "",
        "Letters B/P/C/W are the paper's four configurations; `lrw` and "
        "`bigatomics` are post-paper designs registered through the "
        "`repro.htm.design` protocol. Regenerate with "
        "`PYTHONPATH=src python scripts/bench_designs.py`.",
        "",
    ]
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_scale_flag(parser, sorted(SCALES), default="micro")
    cli.add_engine_flags(parser)
    cli.add_journal_flags(parser)
    parser.add_argument(
        "--designs", nargs="+", choices=sorted(DESIGN_REGISTRY),
        default=None, metavar="NAME",
        help="subset of designs to run (default: every registered design)",
    )
    parser.add_argument(
        "--workloads", nargs="+", default=None, metavar="NAME",
        help="subset of workloads to run: built-in names or "
             "gen:<spec|fingerprint|folder> (default: all 19 built-ins)",
    )
    parser.add_argument(
        "--json", metavar="OUT", default=JSON_PATH,
        help="matrix JSON path (default: repo BENCH_DESIGNS.json)",
    )
    parser.add_argument(
        "--markdown", metavar="OUT", default=MARKDOWN_PATH,
        help="rendered grid path (default: repo DESIGNS.md)",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="print the summary only; write no artifacts",
    )
    args = parser.parse_args(argv)
    cli.validate_engine_flags(parser, args)
    cli.validate_journal_flags(parser, args)
    if args.designs is not None and "baseline" not in args.designs:
        parser.error("--designs must include baseline (the normalizer)")
    if args.workloads is not None:
        args.workloads = cli.resolve_workload_names(parser, args.workloads)
    return args


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    scale = SCALES[args.scale]
    designs = args.designs or sorted(DESIGN_REGISTRY)
    workloads = args.workloads or list(ALL_NAMES)
    engine = cli.build_engine(args)
    # One job folder stores the whole matrix: each api.simulate call
    # merges its cells into the manifest and its results into the
    # folder, so a killed run resumed with --resume serves every
    # completed cell from it.
    journal = cli.resolve_journal(args)
    started = time.time()
    matrix = {}
    for workload in workloads:
        row = {}
        for design in designs:
            row[design] = measure_cell(workload, design, scale, engine,
                                       journal=journal)
        matrix[workload] = row
        print("{:12s} ".format(workload) + "  ".join(
            "{}={:,}".format(design, row[design]["cycles"])
            for design in designs
        ))
    payload = {
        "schema_version": 1,
        "description": (
            "Cross-design evaluation matrix: every registered HTM design "
            "on every workload, oracle-checked, seed-averaged."
        ),
        "scale": args.scale,
        "scale_params": {
            "cores": scale["cores"],
            "ops_per_thread": scale["ops_per_thread"],
            "seeds": list(scale["seeds"]),
        },
        "designs": designs,
        "matrix": matrix,
        "summaries": summarize(matrix, designs),
    }
    print("ran {} cells in {:.1f}s".format(
        len(workloads) * len(designs), time.time() - started
    ))
    for design in designs:
        summary = payload["summaries"][design]
        print("  {:14s} rel-cycles {:.3f}  rel-energy {:.3f}".format(
            design, summary["geomean_relative_cycles"],
            summary["geomean_relative_energy"],
        ))
    if args.no_write:
        return
    with open(args.json, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote {}".format(args.json))
    with open(args.markdown, "w") as handle:
        handle.write(render_markdown(payload))
    print("wrote {}".format(args.markdown))


if __name__ == "__main__":
    main()
