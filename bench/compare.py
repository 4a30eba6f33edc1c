#!/usr/bin/env python3
"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

    python3 bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a result written by ``bench/run.py --out``: one workload's
result, or a whole-suite run (``{"runs": [...]}``). For every workload
and end-to-end metric the report gives each side's quartiles and median
and a verdict on B against A:

- ``worse``: B's median is worse than A's by more than the bound;
- ``unresolved``: a side's quartile spread (as a share of its median)
  exceeds the bound, unless every B run beats, or loses to, every A run;
- ``better``: B's median beats A's by more than A's own quartile spread;
- ``same``: otherwise.

Traced results add each layer's share of the traced wall, per side.
"""

import collections
import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: One report row per metric: how to read it from a result, and how to
#: judge a change (``bound`` None: report the change, give no verdict).
Metric = collections.namedtuple("Metric", "name unit better bound extract")


def metric_table(spec):
    """Every end-to-end metric, then every per-layer share."""
    table = [
        Metric(m["name"], m["unit"], m["better"], m["bound"],
               lambda run, name=m["name"]: run["metrics"][name]["value"])
        for m in spec["end_to_end"]
    ]
    table += [
        Metric(m["name"], m["unit"], m["better"], None,
               lambda run, name=m["name"]:
               run["layer_metrics"][name]["value"])
        for m in spec["per_layer"] if m["name"].endswith(".share")
    ]
    return table


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


Row = collections.namedtuple("Row", "workload metric a b change verdict")


def judge(metric, a, b):
    """(relative change of the medians, verdict) for B against A."""
    a_median = quartiles(a)[1]
    change = (quartiles(b)[1] - a_median) / abs(a_median) if a_median else 0.0
    if metric.bound is None:
        return change, "-"
    lower = metric.better == "lower"
    worse_by = change if lower else -change

    def beats(y, x):
        return y < x if lower else y > x

    separated = (all(beats(y, x) for x in a for y in b)
                 or all(beats(x, y) for x in a for y in b))
    if max(spread(a), spread(b)) > metric.bound and not separated:
        return change, "unresolved"
    if worse_by > metric.bound:
        return change, "worse"
    if -worse_by > spread(a):
        return change, "better"
    return change, "same"


def quartile_text(values):
    q1, median, q3 = quartiles(values)
    return "{:.4g} / {:.4g} / {:.4g} (n={})".format(q1, median, q3, len(values))


#: The report, one declarative column list over rows.
COLUMNS = (
    ("workload", lambda row: row.workload),
    ("metric", lambda row: row.metric.name),
    ("unit", lambda row: row.metric.unit),
    ("A q1 / median / q3", lambda row: quartile_text(row.a)),
    ("B q1 / median / q3", lambda row: quartile_text(row.b)),
    ("change", lambda row: "{:+.1%}".format(row.change)),
    ("bound", lambda row: "-" if row.metric.bound is None
     else "{:.0%}".format(row.metric.bound)),
    ("verdict", lambda row: row.verdict),
)


def load_runs(paths):
    """``{workload: [result, ...]}`` from result files."""
    runs = collections.defaultdict(list)
    for path in paths:
        with open(path) as handle:
            data = json.load(handle)
        for run in data.get("runs", [data]):
            if not run["correct"]:
                print("warning: {} ({}) failed its checks".format(
                    path, run["workload"]))
            if not run["comparable"]:
                print("warning: {} ({}) is a smoke run, not comparable"
                      .format(path, run["workload"]))
            runs[run["workload"]].append(run)
    return runs


def compare(spec, a_runs, b_runs):
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        a_side, b_side = a_runs.get(workload, []), b_runs.get(workload, [])
        for metric in metric_table(spec):
            a = [metric.extract(run) for run in a_side
                 if metric.bound is not None or "layer_metrics" in run]
            b = [metric.extract(run) for run in b_side
                 if metric.bound is not None or "layer_metrics" in run]
            if not a or not b:
                continue
            change, verdict = judge(metric, a, b)
            rows.append(Row(workload, metric, a, b, change, verdict))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        raise SystemExit(__doc__)
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        raise SystemExit("need result files on both sides of --")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.analysis.report import render_table

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    rows = compare(spec, load_runs(a_paths), load_runs(b_paths))
    print(render_table(
        [title for title, _ in COLUMNS],
        [[cell(row) for _, cell in COLUMNS] for row in rows],
        title="B ({} file(s)) against A ({} file(s))".format(
            len(b_paths), len(a_paths)),
    ))
    worse = [row for row in rows if row.verdict == "worse"]
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
