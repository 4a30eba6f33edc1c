#!/usr/bin/env python3
"""Run the repository benchmark: five workloads, measured from outside.

One workload in this process (the form ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload sim-contended --seed 1 --seconds 10 --trace 0

Every workload, each in its own fresh process, one after another::

    python3 bench/run.py [--workloads a,b] [--seed S] [--trace] [--smoke] [--out F]

A run sets its workload up ``SETUP_REPS`` times (``setup_s`` is the
import time plus the median set-up), then runs whole rounds, each
repeating the same inputs, until ``--seconds`` of timed work have
passed. It checks every output and prints the end-to-end metrics named
in ``BENCHMARK.json``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 1`` then repeats the same rounds with every layer's public
calls timed and prints the per-layer metrics instead, writing
``bench/out/<workload>.layers.json`` and a Chrome/Perfetto
``bench/out/<workload>.trace.json``.

``throughput`` is the work of one round over the sum of each op's
fast-decile time across the rounds (with two or three rounds, close to
its best time). On a shared host whose speed swings by 2x within
seconds, the fast repeats track the program's own cost, while means
and medians mostly track the neighbours' load; the mean rate is kept
in the results file as ``mean_throughput``.

``--refresh-expected`` rewrites ``bench/expected.json``, the stats
digests and event counts every cell must reproduce at seed 1.
"""

import argparse
import collections
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPS = 3
#: Every run repeats its round at least this often (best-of needs two).
MIN_ROUNDS = 2
FAST_PERCENTILE = 10
EXPECTED_SEED = 1


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def import_suite():
    """Import the workloads from this checkout's ``src`` (never elsewhere)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit("bench: no program source at {}".format(SRC))
    sys.path.insert(0, SRC)
    import workloads
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit("bench: imported repro from {}, not {}".format(
            repro.__file__, SRC))
    return workloads


def percentile(values, q):
    """The ``q``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, seconds, max_rounds=None):
    """Run whole rounds until about ``seconds`` of timed work are done.

    Stops once less than half a (median) round of the budget is left,
    so the timed total lands within half a round of ``seconds``.
    Garbage from one round (machines are reference cycles) is collected
    before the next, so no round pays for another's.
    """
    rounds = []
    timed = 0.0
    while True:
        outcome = workload.run_round(len(rounds))
        rounds.append(outcome)
        timed += outcome.wall
        gc.collect()
        if max_rounds is not None and len(rounds) >= max_rounds:
            return rounds
        typical = statistics.median(r.wall for r in rounds)
        if len(rounds) >= MIN_ROUNDS and timed + typical / 2 >= seconds:
            return rounds


def check_cells(rounds, expected):
    """Fail every cell that differs from ``expected`` or from round 0.

    Rounds repeat the same inputs, so a cell that reads differently in a
    later round is nondeterministic. Returns how many cells were
    checked against ``expected``.
    """
    first = rounds[0].cells
    checked = 0
    for index, outcome in enumerate(rounds):
        wrong = []
        for name, cell in outcome.cells.items():
            want = expected.get(name)
            if want is not None:
                checked += 1
                if want["digest"] != cell[0] or (
                        cell[1] is not None and want["events"] != cell[1]):
                    wrong.append(name)
                    continue
            if index and first.get(name, cell) != cell:
                wrong.append(name)
        if wrong:
            outcome.fail("differs from expected.json or round 0: {}".format(
                ", ".join(wrong[:3])), cells=len(wrong))
    return checked


def op_samples(rounds):
    """``{op: [seconds per round]}`` and ``{op: work}`` over ``rounds``."""
    times = collections.defaultdict(list)
    work = {}
    for outcome in rounds:
        for op, seconds in outcome.op_times.items():
            times[op].append(seconds)
            work[op] = outcome.op_work[op]
    return times, work


def end_to_end(rounds, setup_s):
    times, work = op_samples(rounds)
    fast = sum(percentile(samples, FAST_PERCENTILE)
               for samples in times.values())
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": setup_s,
        "throughput": sum(work.values()) / fast if fast else 0.0,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def describe(rounds, workload):
    """Per-run figures beyond the end-to-end metrics (results file only)."""
    latencies = [seconds for outcome in rounds
                 for seconds in outcome.op_times.values()]
    extra = {
        "rounds": len(rounds),
        "timed_s": sum(outcome.wall for outcome in rounds),
        "throughput_counts": workload.throughput_unit,
        "mean_throughput": sum(
            sum(outcome.op_work.values()) for outcome in rounds
        ) / max(sum(latencies), 1e-9),
        "op_times": op_samples(rounds)[0],
        "op_samples": len(latencies),
    }
    if latencies:
        extra["op_p50_ms"] = percentile(latencies, 50) * 1e3
        extra["op_p90_ms"] = percentile(latencies, 90) * 1e3
    for key in ("paper_err", "payload_sha256"):
        if key in rounds[0].extra:
            extra[key] = rounds[0].extra[key]
    return extra


def outcome_metrics(all_stats):
    """Simulated per-layer outcomes summed over every distinct cell."""
    commits = begins = first = retried = fallback = 0
    l1 = accesses = makespan = 0
    for stats in all_stats:
        commits += stats.total_commits
        begins += stats.tx_begins
        fallback_commits = sum(stats.fallback_commit_retries.values())
        first += stats.commits_by_retries.get(1, 0)
        fallback += fallback_commits
        retried += fallback_commits + sum(
            count for retries, count in stats.commits_by_retries.items()
            if retries >= 1)
        levels = stats.accesses_by_level
        l1 += levels.get("L1", 0)
        accesses += sum(n for level, n in levels.items() if level != "LOCK")
        makespan += stats.makespan_cycles

    def ratio(part, whole):
        return part / whole if whole else 0.0

    return {
        "htm.commit_ratio": ratio(commits, begins),
        "htm.first_retry_share": ratio(first, retried),
        "htm.fallback_share": ratio(fallback, retried),
        "memory.l1_hit_ratio": ratio(l1, accesses),
        "sim.makespan_cycles": makespan,
    }


def trace_pass(suite, workload, rounds):
    """Repeat ``rounds``' work with every layer timed; per-layer metrics."""
    tracer = suite.tracing.Tracer().install()
    try:
        traced = [workload.run_round(index, tracer)
                  for index in range(len(rounds))]
    finally:
        tracer.uninstall()
    wall = sum(outcome.wall for outcome in traced)
    untraced_wall = sum(outcome.wall for outcome in rounds)
    report = tracer.layer_report(wall)
    metrics = {}
    for layer, entry in report.items():
        for key in ("calls", "self_s", "share"):
            metrics["{}.{}".format(layer, key)] = entry[key]
    stats = {}
    for outcome in traced:
        stats.update(outcome.stats)
    metrics.update(outcome_metrics(stats.values()))
    resumes, resume_s = tracer.totals.get(("workloads", "body.send"), (0, 0.0))
    metrics["workloads.resume_us"] = resume_s / resumes * 1e6 if resumes else 0.0
    metrics["sim.machine.events"] = tracer.events
    metrics["engine.pool_efficiency"] = sum(
        outcome.extra.get("execute_s", 0.0) for outcome in traced
    ) / (suite.JOBS * wall)
    metrics["engine.cache.hits"] = sum(
        outcome.extra.get("cache_hits", 0) for outcome in traced)
    metrics["trace.overhead"] = wall / untraced_wall
    metrics["trace.coverage"] = sum(
        entry["self_s"] for entry in report.values()) / wall
    layers = {
        "traced_wall_s": wall,
        "untraced_wall_s": untraced_wall,
        "layers": report,
        "missing": tracer.missing,
    }
    return traced, metrics, layers, tracer.chrome_trace()


def with_units(values, declared):
    """``{name: {value, unit}}`` for exactly the metrics ``declared``."""
    return {
        metric["name"]: {"value": values[metric["name"]],
                         "unit": metric["unit"]}
        for metric in declared
    }


def write_json(path, data):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def print_metrics(title, metrics):
    from repro.analysis.report import render_table

    rows = [[name, "{:.6g}".format(entry["value"]), entry["unit"]]
            for name, entry in metrics.items()]
    print(render_table(["metric", "value", "unit"], rows, title=title))


def print_layers(result):
    from repro.analysis.report import render_table

    layers = result["layers"]
    rows = [[layer, entry["calls"], "{:.4f}".format(entry["self_s"]),
             "{:.3f}".format(entry["share"])]
            for layer, entry in layers["layers"].items()]
    print(render_table(
        ["layer", "calls", "self_s", "share"], rows,
        title="per layer: traced pass {:.2f} s vs untraced {:.2f} s".format(
            layers["traced_wall_s"], layers["untraced_wall_s"])))
    print_metrics("simulated outcomes and trace figures", {
        name: entry for name, entry in result["layer_metrics"].items()
        if not name.endswith((".calls", ".self_s", ".share"))
    })


def run_one(args, spec):
    """Measure one workload in this process; the result dict."""
    import_start = time.perf_counter()
    suite = import_suite()
    import_s = time.perf_counter() - import_start
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        workload = suite.build(args.workload, args.seed, workdir,
                               smoke=args.smoke)
        setup_times = []
        for _ in range(SETUP_REPS):
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        gc.collect()
        rounds = measure(workload, args.seconds,
                         MIN_ROUNDS if args.smoke else None)
        metrics = end_to_end(rounds, import_s + statistics.median(setup_times))
        traced = []
        if args.trace:
            traced, layer_values, layers, chrome = trace_pass(
                suite, workload, rounds)
        expected = {}
        if os.path.exists(EXPECTED_PATH):
            with open(EXPECTED_PATH) as handle:
                expected = json.load(handle)["cells"]
        all_rounds = rounds + traced
        checked = check_cells(all_rounds, expected)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "comparable": not args.smoke,
            "host": {"cpus": os.cpu_count(), "python": sys.version.split()[0]},
            "metrics": with_units(metrics, spec["end_to_end"]),
            "extra": describe(rounds, workload),
            "setup_reps_s": setup_times,
            "import_s": import_s,
            "expected_checked": checked,
        }
        if args.trace:
            # check_cells has already failed any differing traced cell.
            result["traced_cells_match"] = all(
                outcome.cells == rounds[0].cells
                for outcome in traced if outcome.cells)
            result["layers"] = layers
            result["layer_metrics"] = with_units(layer_values,
                                                 spec["per_layer"])
            layers["workload"] = args.workload
            layers["seed"] = args.seed
            layers["metrics"] = result["layer_metrics"]
            write_json(os.path.join(OUT_DIR, args.workload + ".layers.json"),
                       layers)
            write_json(os.path.join(OUT_DIR, args.workload + ".trace.json"),
                       chrome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [message for outcome in all_rounds
                for message in outcome.failures]
    result["attempted"] = sum(outcome.ops for outcome in all_rounds)
    result["failed"] = sum(outcome.failed_ops for outcome in all_rounds)
    result["failures"] = failures
    result["correct"] = not failures
    result["extra"]["fail_ratio"] = result["failed"] / result["attempted"]
    return result


def print_result(result, trace):
    extra = result["extra"]
    print("workload {} seed {}: {} round(s), {:.2f} s timed, {} op(s), "
          "{} failed, {} cell(s) checked against expected.json{}".format(
              result["workload"], result["seed"], extra["rounds"],
              extra["timed_s"], result["attempted"], result["failed"],
              result["expected_checked"],
              " (smoke: not comparable)" if result["smoke"] else ""))
    for message in result["failures"][:5]:
        print("  FAILED: " + message)
    print_metrics("end-to-end (throughput counts {})".format(
        extra["throughput_counts"]), result["metrics"])
    print("op latency p50 {:.3f} ms, p90 {:.3f} ms (n={}){}".format(
        extra.get("op_p50_ms", 0.0), extra.get("op_p90_ms", 0.0),
        extra["op_samples"],
        ", paper_err {:.4f}".format(extra["paper_err"])
        if "paper_err" in extra else ""))
    if trace:
        print_layers(result)
    metrics = result["layer_metrics"] if trace else result["metrics"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


def run_all(args, spec):
    """Each workload in a fresh process, one after another."""
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    runs = []
    ok = True
    for name in names:
        path = os.path.join(OUT_DIR, name + ".result.json")
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", path]
        if args.smoke:
            command.append("--smoke")
        if subprocess.run(command).returncode != 0:
            print("workload {} did not produce a result".format(name))
            ok = False
            continue
        with open(path) as handle:
            runs.append(json.load(handle))
    payloads = {run["extra"]["payload_sha256"] for run in runs
                if "payload_sha256" in run["extra"]}
    if len(payloads) > 1:
        print("FAILED: sweep-warm's figure payload differs from sweep-cold's")
        ok = False
    ok = ok and all(run["correct"] for run in runs)
    write_json(args.out or os.path.join(OUT_DIR, "results.json"),
               {"runs": runs})
    print("{} workload(s): {}".format(len(runs), "correct" if ok else "FAILED"))
    return 0 if ok else 1


def refresh_expected():
    suite = import_suite()
    os.makedirs(OUT_DIR, exist_ok=True)
    cells = {}
    # sweep-warm re-reads exactly sweep-cold's cells.
    for name in ("sweep-cold", "sim-contended", "sim-clear", "sim-footprint"):
        workdir = tempfile.mkdtemp(prefix="expected-", dir=OUT_DIR)
        try:
            workload = suite.build(name, EXPECTED_SEED, workdir)
            workload.setup()
            outcome = workload.run_round(0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if outcome.failures:
            raise SystemExit("{} failed: {}".format(name, outcome.failures))
        for cell, (digest, events) in outcome.cells.items():
            cells[cell] = {"digest": digest, "events": events}
        print("{}: {} cells".format(name, len(outcome.cells)))
    write_json(EXPECTED_PATH, {"seed": EXPECTED_SEED, "cells": cells})
    return 0


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [workload["name"] for workload in spec["workloads"]]
    parser.add_argument("--workload", choices=names,
                        help="measure this one workload in this process")
    parser.add_argument("--workloads", metavar="A,B",
                        help="subset to run, each in a fresh process "
                             "(default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed work per run (default: %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run the traced per-layer pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for plumbing checks (not comparable)")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full result JSON here")
    parser.add_argument("--refresh-expected", action="store_true",
                        help="rewrite bench/expected.json and exit")
    args = parser.parse_args(argv)
    if args.workloads:
        unknown = set(args.workloads.split(",")) - set(names)
        if unknown:
            parser.error("unknown workload(s): " + ", ".join(sorted(unknown)))
    return args


def main(argv=None):
    spec = load_spec()
    args = parse_args(sys.argv[1:] if argv is None else argv, spec)
    if args.refresh_expected:
        return refresh_expected()
    if args.workload is None:
        return run_all(args, spec)
    result = run_one(args, spec)
    if args.out:
        write_json(args.out, result)
    print_result(result, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
