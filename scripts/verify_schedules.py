#!/usr/bin/env python3
"""Explore schedule spaces and verify every schedule against the oracles.

For each selected workload the script explores the same-cycle tie-break
schedule space (``--explore-mode random|pct|exhaustive``), checks the
serializability, single-retry-bound, and cross-schedule equivalence
oracles on every explored schedule, ddmin-shrinks any failure to a
minimal replayable artifact, and prints one summary line per workload.
Exit status is 1 when any schedule violated an oracle.

Failing artifacts are written to ``--artifact-dir`` as JSON; replay one
later with ``--replay ARTIFACT.json`` (the artifact pins the workload,
config, seed, and decision list, so replay is exact).

Fuzzing sweeps over many workloads fan out across the experiment
engine's process pool (``--jobs``); exhaustive exploration and replay
run inline.
"""

import os
import sys

from repro import cli
from repro.cli import argparse
from repro.verify import ScheduleArtifact, replay_artifact, verify
from repro.workloads import DATASTRUCTURE_NAMES

#: Small-footprint workloads whose micro configurations explore quickly.
DEFAULT_WORKLOADS = ("mwobject", "hashmap", "queue", "stack")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "workloads", nargs="?", default=",".join(DEFAULT_WORKLOADS),
        metavar="A,B,...",
        help="comma-separated workloads, or 'all' for every data-structure "
             "benchmark (default: %(default)s)",
    )
    parser.add_argument(
        "--config", default="baseline", metavar="DESIGN",
        help="HTM design name (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, metavar="S",
        help="workload seed (default: %(default)s)",
    )
    parser.add_argument(
        "--ops", type=int, default=4, metavar="N",
        help="ops per thread (default: %(default)s; keep tiny for "
             "exhaustive exploration)",
    )
    cli.add_explore_flags(parser)
    cli.add_engine_flags(parser)
    parser.add_argument(
        "--artifact-dir", default=".verify_artifacts", metavar="DIR",
        help="where failing-schedule artifacts are written "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--replay", metavar="ARTIFACT.json", default=None,
        help="replay a previously saved failing-schedule artifact and "
             "report whether it still violates (ignores workload "
             "selection and exploration flags)",
    )
    args = parser.parse_args(argv)
    cli.validate_explore_flags(parser, args)
    cli.validate_engine_flags(parser, args)
    if args.workloads == "all":
        args.workload_list = list(DATASTRUCTURE_NAMES)
    else:
        # Any namespace is explorable: built-ins and gen: specs.
        # Unknown names exit with a one-line message.
        args.workload_list = cli.resolve_workload_names(
            parser, args.workloads.split(",")
        )
    return args


def replay_one(path):
    """Replay a saved artifact; exit 0 if it reproduces its violations."""
    artifact = ScheduleArtifact.load(path)
    outcome = replay_artifact(artifact)
    expected = sorted({entry["kind"] for entry in artifact.violations})
    observed = sorted({entry["kind"] for entry in outcome.violations})
    print("replayed {}: {} decision(s), recorded kinds={}, observed "
          "kinds={}".format(path, len(artifact.decisions), expected,
                            observed))
    if observed == expected:
        print("replay reproduces the recorded violation kinds exactly")
        return 0
    if not observed:
        # The common benign case: the artifact captured a planted
        # (test-only) bug that the clean simulator does not have.
        print("replay is clean — the recorded failure does not reproduce "
              "on this build (fixed bug, or a test-only planted fault)")
        return 0
    print("replay DIVERGES from the recorded violations")
    return 1


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if args.replay:
        return replay_one(args.replay)

    engine = None
    if args.explore_mode in ("random", "pct") and len(args.workload_list) > 1:
        engine = cli.build_engine(args)
    exhaustive = args.explore_mode == "exhaustive"
    failures = 0
    for name in args.workload_list:
        report = verify(
            name, args.config, cores=args.explore_cores, seed=args.seed,
            ops_per_thread=args.ops, explorer=args.explore_mode,
            schedules=args.explore, explore_seed=args.explore_seed,
            max_schedules=args.explore if exhaustive else None,
            engine=engine,
        )
        print(report.summary())
        if report.ok:
            continue
        failures += 1
        for artifact in report.artifacts:
            os.makedirs(args.artifact_dir, exist_ok=True)
            path = os.path.join(
                args.artifact_dir,
                "{}_{}_seed{}.json".format(name, args.config, args.seed),
            )
            artifact.save(path)
            print("  wrote minimized failing schedule to {} "
                  "({} decision(s)); replay with --replay {}".format(
                      path, len(artifact.decisions), path))
    if failures:
        print("{} of {} workload(s) violated an oracle".format(
            failures, len(args.workload_list)))
        return 1
    print("all {} workload(s) verified clean".format(len(args.workload_list)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
