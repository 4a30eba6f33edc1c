#!/usr/bin/env python3
"""Regenerate the committed golden files, with a diff summary first.

The test suite pins three goldens:

- ``tests/goldens/figures_micro.json`` — the figure payload of the full
  micro experiment matrix (all benchmarks x B/P/C/W at 4 cores).
- ``tests/goldens/trace_micro.json`` — the exact event stream of one
  micro cell (genome/W/4c seed 1).
- ``tests/goldens/corpus_micro.json`` — one generated kernel
  (``gen:footprint=3``) run through each of the four designs with the
  online serializability monitor armed, digests pinned per cell.

All three must only ever change when simulated behaviour *intentionally*
changes. This script recomputes each golden, prints a summary of what
would change, and only overwrites with ``--apply`` — so an accidental
behaviour change reads as a scary diff instead of a silently rewritten
golden. Run it after any change that legitimately moves simulation
results, then commit the new goldens together with the change.
"""

import argparse
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

GOLDEN_DIR = os.path.join(REPO, "tests", "goldens")


def compute_figures():
    from repro.analysis.experiments import (
        ExperimentSettings,
        figure_payload,
        run_config_matrix,
    )

    settings = ExperimentSettings.micro()
    matrix = run_config_matrix(settings)
    return json.loads(json.dumps(figure_payload(matrix)))


def compute_trace():
    from repro import api
    from repro.htm.design import design_name
    from repro.sim.config import SimConfig

    current = load(os.path.join(GOLDEN_DIR, "trace_micro.json"))
    # The pinned cell's identity (workload/config/seed) comes from the
    # existing golden; only the event stream is recomputed.
    report = api.simulate(
        current["workload"],
        SimConfig.for_design(design_name(current["config"]),
                             num_cores=current["num_cores"]),
        seeds=current["seed"], ops_per_thread=current["ops_per_thread"],
        trace=True,
    )
    refreshed = dict(current)
    refreshed["events"] = json.loads(json.dumps(report.trace.to_dicts()))
    return refreshed


def compute_corpus():
    import hashlib

    from repro import api
    from repro.htm.design import DESIGN_REGISTRY
    from repro.sim.config import SimConfig
    from repro.sim.machine import build_machine
    from repro.workloads import make_workload

    name = "gen:footprint=3"
    per_design = {}
    for design in sorted(DESIGN_REGISTRY):
        config = SimConfig.for_design(design, num_cores=4,
                                      oracle="online")
        report = api.simulate(name, config, seeds=1, ops_per_thread=4)
        stats = report.runs[0].stats
        # api.simulate does not surface final memory; digest it from
        # a direct machine run of the same cell.
        machine = build_machine(
            config, make_workload(name, ops_per_thread=4), seed=1
        )
        machine.run()
        memory = machine.memory.snapshot()
        per_design[design] = {
            "commits": stats.total_commits,
            "cycles": stats.makespan_cycles,
            "stats_sha256": hashlib.sha256(json.dumps(
                stats.to_dict(), sort_keys=True,
                separators=(",", ":"),
            ).encode()).hexdigest(),
            "memory_sha256": hashlib.sha256(json.dumps(
                sorted(memory.items()), separators=(",", ":"),
            ).encode()).hexdigest(),
        }
    return {
        "description": (
            "Generated kernel gen:footprint=3 through every design, "
            "online monitor armed; refresh with "
            "scripts/refresh_goldens.py --only corpus --apply"
        ),
        "num_cores": 4,
        "seed": 1,
        "ops_per_thread": 4,
        "results": {"gen": per_design},
    }


def load(path):
    with open(path) as handle:
        return json.load(handle)


def summarize_diff(name, old, new):
    """Print what changed, one line per top-level key."""
    changed = []
    for key in sorted(set(old) | set(new)):
        if key not in old:
            changed.append("{}: ADDED".format(key))
        elif key not in new:
            changed.append("{}: REMOVED".format(key))
        elif old[key] != new[key]:
            if isinstance(old[key], list) and isinstance(new[key], list):
                changed.append("{}: {} -> {} entries, contents differ".format(
                    key, len(old[key]), len(new[key])))
            else:
                changed.append("{}: changed".format(key))
    if not changed:
        print("{}: unchanged".format(name))
        return False
    print("{}: {} top-level key(s) differ:".format(name, len(changed)))
    for line in changed:
        print("  " + line)
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--apply", action="store_true",
        help="overwrite the goldens (default: dry run, diff summary only)",
    )
    parser.add_argument(
        "--only", choices=("figures", "trace", "corpus"), default=None,
        help="refresh just one golden",
    )
    args = parser.parse_args(argv)

    targets = []
    if args.only in (None, "figures"):
        targets.append(("figures_micro.json", compute_figures))
    if args.only in (None, "trace"):
        targets.append(("trace_micro.json", compute_trace))
    if args.only in (None, "corpus"):
        targets.append(("corpus_micro.json", compute_corpus))

    any_changed = False
    for name, compute in targets:
        path = os.path.join(GOLDEN_DIR, name)
        old = load(path)
        new = compute()
        if summarize_diff(name, old, new):
            any_changed = True
            if args.apply:
                with open(path, "w") as handle:
                    json.dump(new, handle, indent=1, sort_keys=True)
                    handle.write("\n")
                print("  rewrote {}".format(os.path.relpath(path, REPO)))
    if any_changed and not args.apply:
        print("dry run: nothing written; re-run with --apply to overwrite")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
