"""The benchmark's five workloads.

Each workload is a closed loop from one client: the benchmark calls the
program and waits for the result before making the next call. A
workload's unit of work is a *round* (one pass over its cells, one cold
sweep, or one warm re-read). Every round of a run repeats the same
inputs, made from the run's seed alone, so rounds are replicates: their
outputs must match exactly, and their timings show the host's noise
rather than different work. Set-up is everything the first round needs
before its timer starts.

Every round returns what the runner measures and checks: the timed
seconds of each op (a cell, a sweep or a pass) and the work it did,
failed ops, and a stats digest (plus event count, where the benchmark
sees the machine) for every simulated cell.
"""

import dataclasses
import functools
import hashlib
import json
import os
import shutil
import tempfile
import time

from repro.analysis.experiments import (
    ExperimentSettings,
    figure_payload,
    headline_summary,
    run_config_matrix,
)
from repro.sim.config import SimConfig
from repro.sim.engine import ExperimentEngine
from repro.sim.machine import build_machine
from repro.workloads import make_workload

import tracing

#: Engine workers for the sweeps (the benchmark host has two cores).
JOBS = min(2, os.cpu_count() or 1)

#: The paper's headline values (abstract and section 7), as in
#: ``benchmarks/bench_headline.py``; ``paper_err`` is measured against
#: these gem5 numbers, not against hardware.
PAPER_HEADLINE = {
    "time_reduction_W_vs_B": 0.350,
    "time_reduction_C_vs_B": 0.274,
    "time_reduction_W_vs_P": 0.233,
    "energy_reduction_C_vs_B": 0.264,
    "energy_reduction_W_vs_B": 0.306,
    "aborts_per_commit_B": 7.9,
    "aborts_per_commit_C": 1.6,
    "aborts_per_commit_W": 2.3,
    "first_retry_share_B": 0.354,
    "first_retry_share_P": 0.464,
    "first_retry_share_C": 0.642,
    "first_retry_share_W": 0.644,
    "fallback_share_B": 0.372,
    "fallback_share_C": 0.155,
    "fallback_share_W": 0.154,
}

FOOTPRINT_KERNEL = (
    "gen:footprint=16,mutability=likely_immutable,contention=0.0,"
    "read_fraction=0.5,hot_lines=16,private_lines=4096,nesting=4"
)
SMOKE_SWEEP_KERNELS = ("mwobject", "bst", "genome")


def cell_id(kernel, design, cores, ops, seed, oracle="off"):
    """Stable name of one simulated cell (the key of ``expected.json``)."""
    return "{}|{}|{}c|ops{}|s{}|{}".format(kernel, design, cores, ops, seed,
                                           oracle)


def digest(data):
    """SHA-256 of ``data`` as canonical JSON (a stats dict or a payload)."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def paper_error(matrix):
    """Mean absolute relative error of the headline numbers vs the paper."""
    measured = headline_summary(matrix)
    errors = [abs(measured[key] - value) / abs(value)
              for key, value in PAPER_HEADLINE.items()]
    return sum(errors) / len(errors)


def _plain_call(layer, name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@dataclasses.dataclass
class Round:
    """What one round did: its ops' times and work, failures and cells."""

    wall: float = 0.0
    ops: int = 0
    cell_ops: bool = True  # an op is one cell (else one whole round)
    op_times: dict = dataclasses.field(default_factory=dict)  # op -> s
    op_work: dict = dataclasses.field(default_factory=dict)  # op -> work
    failures: list = dataclasses.field(default_factory=list)
    failed_ops: int = 0
    cells: dict = dataclasses.field(default_factory=dict)  # id -> (digest, events)
    # id -> MachineStats, round 0 only: later rounds repeat it, and
    # holding every round's would grow the memory the run measures.
    stats: dict = dataclasses.field(default_factory=dict)
    extra: dict = dataclasses.field(default_factory=dict)

    def fail(self, message, cells=1):
        """Record a failure touching ``cells`` cells of this round."""
        self.failures.append(message)
        self.failed_ops = min(self.ops, self.failed_ops
                              + (cells if self.cell_ops else 1))


class SimWorkload:
    """``build_machine`` + ``Machine.run`` over a fixed cell list."""

    throughput_unit = "simulated events"

    def __init__(self, kernels, designs, cores, ops, seed, oracle="off"):
        self.kernels = tuple(kernels)
        self.designs = tuple(designs)
        self.cores = cores
        self.ops = ops
        self.seed = seed
        self.oracle = oracle
        self._ready = None

    def _build(self):
        machines = []
        for design in self.designs:
            config = SimConfig.for_design(design, num_cores=self.cores,
                                          oracle=self.oracle)
            for kernel in self.kernels:
                workload = make_workload(kernel, ops_per_thread=self.ops)
                machines.append((
                    cell_id(kernel, design, self.cores, self.ops, self.seed,
                            self.oracle),
                    build_machine(config, workload, self.seed),
                ))
        return machines

    def setup(self):
        self._ready = self._build()

    def run_round(self, index, tracer=None):
        machines = self._ready or self._build()
        self._ready = None
        outcome = Round(ops=len(machines))
        clock = time.perf_counter
        for name, machine in machines:
            start = clock()
            try:
                stats = machine.run()
            except Exception as exc:  # a stall or OracleViolation fails the op
                outcome.wall += clock() - start
                outcome.fail("{}: {}: {}".format(name, type(exc).__name__, exc))
                continue
            end = clock()
            outcome.wall += end - start
            outcome.op_times[name] = end - start
            outcome.op_work[name] = machine.event_count
            outcome.cells[name] = (digest(stats.to_dict()),
                                   machine.event_count)
            if index == 0:
                outcome.stats[name] = stats
            if tracer is not None:
                tracer.span(name, "cell", start, end,
                            args={"events": machine.event_count})
        return outcome


class _SweepWorkload:
    """Shared matrix settings and scratch space of the two sweeps."""

    throughput_unit = "cells"

    def __init__(self, seed, workdir, smoke=False):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def settings(self):
        if self.smoke:
            return ExperimentSettings(benchmarks=SMOKE_SWEEP_KERNELS,
                                      num_cores=4, ops_per_thread=6,
                                      seeds=(self.seed,))
        return ExperimentSettings(seeds=(self.seed,))

    def _cells(self, outcome, specs, report, index):
        for spec, result in zip(specs, report.results):
            if result is None:
                continue
            name = cell_id(spec.workload, spec.config.design,
                           spec.config.num_cores, spec.ops_per_thread,
                           spec.seed)
            outcome.cells[name] = (digest(result.stats.to_dict()), None)
            if index == 0:
                outcome.stats[name] = result.stats
        for failure in report.failures:
            outcome.fail("{} s{}: {} ({})".format(
                failure.spec.workload, failure.spec.seed, failure.kind,
                failure.message))


class SweepColdWorkload(_SweepWorkload):
    """A journaled sweep on a fresh cache, fanned out to engine workers."""

    def setup(self):
        for spec in self.settings().expand_specs():
            build_machine(spec.config,
                          make_workload(spec.workload,
                                        ops_per_thread=spec.ops_per_thread),
                          spec.seed)

    def run_round(self, index, tracer=None):
        settings = self.settings()
        specs = settings.expand_specs()
        round_dir = tempfile.mkdtemp(prefix="cold-", dir=self.workdir)
        try:
            execute = None
            call = _plain_call
            if tracer is not None:
                execute = functools.partial(tracing.execute_traced,
                                            span_dir=round_dir)
                call = tracer.call
            engine = ExperimentEngine(jobs=JOBS, execute=execute,
                                      cache_dir=os.path.join(round_dir, "cache"))
            start = time.perf_counter()
            matrix, report = call(
                "analysis", "run_config_matrix", run_config_matrix, settings,
                engine=engine, journal=os.path.join(round_dir, "journal"),
                allow_partial=True,
            )
            payload = call("analysis", "figure_payload", figure_payload, matrix)
            wall = time.perf_counter() - start
            outcome = Round(wall=wall, ops=len(specs),
                            op_times={"sweep": wall},
                            op_work={"sweep": report.completed})
            if tracer is not None:
                outcome.extra["execute_s"] = tracing.collect_worker_spans(
                    tracer, round_dir)
        finally:
            shutil.rmtree(round_dir, ignore_errors=True)
        self._cells(outcome, specs, report, index)
        if index == 0:
            outcome.extra["paper_err"] = paper_error(matrix)
            outcome.extra["payload_sha256"] = digest(payload)
        return outcome


class SweepWarmWorkload(_SweepWorkload):
    """The same matrix re-read from a warm cache, one engine per pass."""

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        self.cache_dir = None
        self.reference = None

    def setup(self):
        stale = self.cache_dir
        self.cache_dir = tempfile.mkdtemp(prefix="warm-", dir=self.workdir)
        engine = ExperimentEngine(jobs=JOBS, cache_dir=self.cache_dir)
        matrix, report = run_config_matrix(self.settings(), engine=engine,
                                           allow_partial=True)
        if report.failures:
            raise RuntimeError("prefill failed: {}".format(
                report.failure_report()))
        self.reference = figure_payload(matrix)
        if stale is not None:
            shutil.rmtree(stale, ignore_errors=True)

    def run_round(self, index, tracer=None):
        settings = self.settings()
        call = tracer.call if tracer is not None else _plain_call
        engine = ExperimentEngine(jobs=1, cache_dir=self.cache_dir)
        start = time.perf_counter()
        matrix, report = call("analysis", "run_config_matrix",
                              run_config_matrix, settings, engine=engine,
                              allow_partial=True)
        payload = call("analysis", "figure_payload", figure_payload, matrix)
        wall = time.perf_counter() - start
        outcome = Round(wall=wall, ops=1, cell_ops=False,
                        op_times={"pass": wall},
                        op_work={"pass": report.cache_hits})
        outcome.extra["cache_hits"] = report.cache_hits
        if report.cache_hits != report.total:
            outcome.fail("pass {}: {} of {} cells served from cache".format(
                index, report.cache_hits, report.total))
        if payload != self.reference:
            outcome.fail("pass {}: figure payload differs from the cold "
                         "sweep's".format(index))
        if index == 0:
            # Digesting every cell costs about as much as the pass, so
            # the first pass stands for the rest (whose payload matched).
            self._cells(outcome, settings.expand_specs(), report, index)
            outcome.extra["paper_err"] = paper_error(matrix)
            outcome.extra["payload_sha256"] = digest(payload)
        return outcome


def build(name, seed, workdir, smoke=False):
    """The named workload at ``seed`` (``smoke`` shrinks every size)."""
    def sim(kernels, designs, ops, oracle="off", smoke_ops=2):
        if smoke:
            return SimWorkload(kernels[:2], designs, 4, smoke_ops, seed, oracle)
        return SimWorkload(kernels, designs, 32, ops, seed, oracle)

    if name == "sweep-cold":
        return SweepColdWorkload(seed, workdir, smoke)
    if name == "sweep-warm":
        return SweepWarmWorkload(seed, workdir, smoke)
    if name == "sim-contended":
        return sim(("genome", "sorted-list", "vacation-h", "yada", "labyrinth",
                    "intruder", "bayes", "mwobject", "queue", "stack",
                    "deque", "arrayswap"), ("baseline",), 8)
    if name == "sim-clear":
        return sim(("genome", "labyrinth", "vacation-h", "yada", "bayes",
                    "intruder", "bst"), ("clear", "clear+powertm"), 6,
                   oracle="online")
    if name == "sim-footprint":
        return sim((FOOTPRINT_KERNEL,), ("baseline",), 32, smoke_ops=4)
    raise ValueError("unknown workload {!r}".format(name))
