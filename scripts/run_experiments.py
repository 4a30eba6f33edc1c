#!/usr/bin/env python3
"""Run the full experiment matrix and dump every figure's data to JSON.

Used to populate EXPERIMENTS.md. Scale is chosen via the positional
argument: ``micro`` (4 cores, seconds — the equivalence-suite scale),
``quick`` (8 cores), ``medium`` (32 cores, 3 seeds — the default),
``sweep`` (reduced retry sweep), or ``paper`` (32 cores, 10 seeds,
retry sweep; hours serially). ``--profile`` wraps every simulated cell
in cProfile and prints an aggregated top-15 cumulative table.

The matrix fans out over worker processes (``--jobs``, default: all
cores) and memoizes finished cells in a content-addressed on-disk
cache (``--cache-dir``, default ``.exp_cache``), so re-runs and
crashed sweeps resume for free; ``--no-cache`` forces fresh
simulation. Figure JSON is byte-identical (modulo ``elapsed_seconds``)
whatever the job count, because every cell is independently seeded.

``--trace OUT.json`` additionally exports a Chrome/Perfetto trace of
one representative cell (first benchmark, config B, first seed) and
``--trace-report OUT.txt`` its per-region forensic abort report; both
run after the matrix and never change the figure JSON.

``--journal DIR`` makes the sweep crash-safe: every finished cell is
durably logged into the job folder, and re-running with ``--resume
DIR`` replays completed cells (and remembered quarantines) instead of
re-executing them — a SIGKILL'd sweep resumes with exactly-once cell
execution and byte-identical figure JSON.

Exit status: 0 for a complete matrix, 2 when any cell was quarantined
(the figure JSON is partial — CI and service callers must not treat it
as a full sweep).
"""

import json
import os
import sys
import time

from repro import api, cli
from repro.analysis.experiments import (
    ExperimentSettings,
    figure_payload,
    run_config_matrix,
)
from repro.cli import argparse
from repro.sim.engine import DEFAULT_CACHE_DIR


def settings_for(scale):
    if scale == "paper":
        return ExperimentSettings.paper()
    if scale == "sweep":
        # Paper methodology at reduced seed count: per-application
        # best-of retry threshold, 32 cores.
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


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scale", nargs="?", default="medium",
        choices=("quick", "medium", "sweep", "paper", "micro"),
        help="experiment scale (default: medium)",
    )
    parser.add_argument(
        "out", nargs="?", default=".exp_results.json",
        help="output JSON path (default: .exp_results.json)",
    )
    cli.add_engine_flags(parser)
    cli.add_journal_flags(parser)
    cli.add_trace_flags(parser)
    parser.add_argument(
        "--benchmarks", default=None, metavar="A,B,...",
        help="comma-separated benchmark subset: built-in names, "
             "gen:<spec|fingerprint|folder>, or trace:<folder> "
             "(default: all 19 built-ins). Multi-axis gen specs contain "
             "commas — pass those by fingerprint or saved kernel folder",
    )
    parser.add_argument(
        "--chaos", nargs="?", type=float, const=0.05, default=None,
        metavar="RATE",
        help="inject seeded faults: spurious aborts at RATE (default "
             "0.05 when given bare), capacity aborts at RATE/2, plus "
             "latency jitter and delayed wakeups",
    )
    cli.add_oracle_flag(parser)
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per cell; hung cells are retried then "
             "quarantined and the sweep degrades to a partial matrix",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run every simulated cell under cProfile, dump per-cell "
             ".prof files next to the cache dir, and print a top-15 "
             "cumulative-time table (cache hits are not profiled)",
    )
    args = parser.parse_args(argv)
    cli.validate_engine_flags(parser, args)
    cli.validate_journal_flags(parser, args)
    if args.chaos is not None and not 0.0 <= args.chaos <= 1.0:
        parser.error("--chaos RATE must be in [0, 1], not {}".format(args.chaos))
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        parser.error("--cell-timeout must be positive")
    if args.benchmarks:
        args.benchmark_list = cli.resolve_workload_names(
            parser, args.benchmarks.split(",")
        )
    else:
        args.benchmark_list = None
    return args


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    settings = settings_for(args.scale)
    if args.benchmark_list:
        settings.benchmarks = tuple(args.benchmark_list)
    if args.chaos is not None:
        settings.config_overrides.update(
            fault_spurious_rate=args.chaos,
            fault_capacity_rate=args.chaos / 2.0,
            fault_jitter_cycles=4,
            fault_wakeup_delay_cycles=8,
        )
    if args.oracle is not None:
        settings.config_overrides["oracle"] = args.oracle
    jobs = cli.resolve_jobs(args)
    cache_dir = cli.resolve_cache_dir(args)
    profile_dir = None
    if args.profile:
        profile_dir = (cache_dir or DEFAULT_CACHE_DIR) + ".profiles"
    started = time.time()

    def engine_progress(event):
        print(
            "\r[{:>4}/{}] {:5.1f} cells/s  {} cache hit(s)  ETA {:4.0f}s ".format(
                event.done, event.total, event.cells_per_second,
                event.cache_hits, event.eta_seconds,
            ),
            end="", flush=True,
        )

    def progress(name, letter, aggregate):
        print(
            "\r{:>7.1f}s  {:12s} {}  cycles={:,.0f}  a/c={:.2f}".format(
                time.time() - started, name, letter,
                aggregate.cycles, aggregate.aborts_per_commit,
            ),
            flush=True,
        )

    engine = cli.build_engine(
        args, progress=engine_progress,
        cell_timeout=args.cell_timeout, profile_dir=profile_dir,
    )
    journal = cli.resolve_journal(args)
    report = None
    if args.cell_timeout is not None or journal is not None:
        matrix, report = run_config_matrix(
            settings, progress=progress, engine=engine, allow_partial=True,
            journal=journal,
        )
    else:
        matrix = run_config_matrix(settings, progress=progress, engine=engine)

    payload = {
        "scale": args.scale,
        "num_cores": settings.num_cores,
        "seeds": list(settings.seeds),
    }
    payload.update(figure_payload(matrix))
    payload["elapsed_seconds"] = time.time() - started
    if args.chaos is not None:
        payload["chaos"] = {
            "fault_spurious_rate": args.chaos,
            "fault_capacity_rate": args.chaos / 2.0,
        }
    # Only a sweep that actually lost cells carries a failure report, so
    # a clean run's JSON stays byte-identical to one from a build
    # without the fault-tolerance machinery.
    if report is not None and report.failures:
        payload["failures"] = report.failure_report()
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=1)
    print("wrote {} after {:.0f}s ({} jobs, cache {})".format(
        args.out, payload["elapsed_seconds"], jobs,
        cache_dir or "disabled",
    ))
    if report is not None and report.journal is not None:
        counters = report.journal
        print("journal {}: replayed={} replayed_failures={} executed={} "
              "cache_hits={} dropped_tail={} skipped_corrupt={}".format(
                  counters["job_dir"], counters["replayed"],
                  counters["replayed_failures"], counters["executed"],
                  report.cache_hits, counters["dropped_tail"],
                  counters["skipped_corrupt"]))
    exit_status = 0
    if report is not None and report.failures:
        print("WARNING: {} of {} cells failed; matrix is partial "
              "(see \"failures\" in {})".format(
                  len(report.failures), report.total, args.out))
        # Partial matrices must be machine-detectable: CI gates and
        # service callers key off the exit status, not the warning text.
        exit_status = 2
    if cli.wants_trace(args):
        export_trace(settings, engine, args)
    if profile_dir is not None:
        print_profile_summary(profile_dir)
    return exit_status


def export_trace(settings, engine, args):
    """Trace one representative cell and write the requested exports.

    Runs after (and independently of) the matrix, so the figure JSON is
    byte-identical with or without ``--trace``. The representative cell
    is the first benchmark of the scale under the baseline (B)
    configuration on the first seed — the same simulation the matrix
    ran, re-executed with an event trace attached (a traced cell keys
    the cache separately, so neither run pollutes the other's entries).
    """
    name = settings.benchmarks[0]
    report = api.simulate(
        name, settings.config_for("B"), seeds=settings.seeds[0],
        ops_per_thread=settings.ops_per_thread, trace=True, engine=engine,
    )
    print("traced {}/B/{}c seed={} ({} events)".format(
        name, settings.num_cores, settings.seeds[0], len(report.trace)))
    if args.trace:
        report.write_chrome_trace(args.trace)
        print("wrote Chrome trace {} (load in Perfetto / chrome://tracing)"
              .format(args.trace))
    if args.trace_report:
        report.write_forensic_report(args.trace_report)
        print("wrote forensic report {}".format(args.trace_report))


def print_profile_summary(profile_dir, top=15):
    """Aggregate every per-cell .prof and print the hottest functions."""
    import glob
    import pstats

    prof_files = sorted(glob.glob(os.path.join(profile_dir, "*.prof")))
    if not prof_files:
        print("no profiles written (every cell served from cache?); "
              "re-run with --no-cache to profile")
        return
    stats = pstats.Stats(prof_files[0])
    for path in prof_files[1:]:
        stats.add(path)
    print("\naggregated {} cell profile(s) from {}".format(
        len(prof_files), profile_dir))
    stats.sort_stats("cumulative").print_stats(top)


if __name__ == "__main__":
    sys.exit(main())
