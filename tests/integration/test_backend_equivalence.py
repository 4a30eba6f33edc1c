"""Fused body step equivalence: the fast path is bit-identical.

``CoreExecutor._fused_body_step`` must be an observationally invisible
shortcut for the general ``_step_body`` path — identical stats, event
counts, and final architectural memory, run for run, on every
registered design. The general path is forced with the test-only
``general_path()`` patch from ``tests/conftest.py``. Evidence layers:

1. pairwise differentials: every registered design (the paper's four
   plus ``lrw``/``bigatomics``) runs representative workloads on both
   paths; stats JSON, ``event_count``, ``memory.snapshot()`` and the
   memory's load/store counters must match exactly — and, in the slow
   profile, the full 19-workload
   x all-designs grid does the same;
2. the full micro experiment matrix run on the general path produces
   figure JSON equal to the committed golden
   (``tests/goldens/figures_micro.json``) — the same file the default
   (fast) path is pinned against in ``test_conflict_equivalence``;
3. fast-path conditions: the fused step exists for HTM runs without a
   fault plan, whatever else is armed (trace, scheduler, retry ledger,
   watchdog, checkers), and the result matches the general path byte
   for byte in each case;
4. import footprint: simulating imports no NumPy (it costs every sim
   process ~12 MB of peak RSS).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.common.errors import CycleLimitExceeded
from repro.htm.design import DESIGN_REGISTRY
from repro.obs.trace import EventTrace
from repro.sim.config import SimConfig
from repro.sim.executor import CoreExecutor
from repro.sim.machine import Machine, build_machine
from repro.verify import DefaultScheduler, RetryLedger
from repro.workloads import ALL_NAMES, make_workload
from tests.conftest import both_paths, general_path

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "goldens", "figures_micro.json"
)
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

ALL_DESIGNS = sorted(DESIGN_REGISTRY)

#: Fast-profile differential workloads: one data structure, one STAMP
#: application, one high-contention pattern.
SMOKE_WORKLOADS = ("hashmap", "genome", "mwobject")


def both_cells(design, workload, seed=1, ops_per_thread=6, num_cores=4,
               **overrides):
    """(fast digest, general digest) for one cell."""
    config = SimConfig.for_design(design, num_cores=num_cores, **overrides)
    return both_paths(lambda: build_machine(
        config, make_workload(workload, ops_per_thread=ops_per_thread),
        seed=seed,
    ))


class TestPairwiseDifferential:
    @pytest.mark.parametrize("design", ALL_DESIGNS)
    @pytest.mark.parametrize("workload", SMOKE_WORKLOADS)
    def test_designs_match_on_smoke_workloads(self, design, workload):
        fast, general = both_cells(design, workload)
        assert fast == general

    def test_single_retry_threshold_matches(self):
        # The paper's bounded-retry point (threshold 1) stresses the
        # abort/fallback machinery the fused step must delegate for.
        fast, general = both_cells("baseline", "mwobject", retry_threshold=1)
        assert fast == general

    def test_sle_speculation_matches(self):
        fast, general = both_cells("clear", "genome", speculation="sle")
        assert fast == general

    def test_lrw_bounded_sets_match(self):
        # Tiny budgets make the bounded sets overflow constantly; those
        # accesses must leave the fused step for the general path.
        fast, general = both_cells("lrw", "genome", lrw_read_lines=2,
                                   lrw_write_lines=1)
        assert fast == general

    def test_truncation_matches(self):
        # Cycle-limit truncation must fire at the same event on both
        # paths, with the same exception message and truncated stats.
        config = SimConfig.for_design("baseline", num_cores=4, max_cycles=500)

        def truncated():
            machine = build_machine(
                config, make_workload("genome", ops_per_thread=40), seed=1
            )
            with pytest.raises(CycleLimitExceeded) as excinfo:
                machine.run()
            assert machine.stats.truncated
            return {
                "message": str(excinfo.value),
                "stats": json.dumps(machine.stats.to_dict(), sort_keys=True),
                "events": machine.event_count,
                "memory": sorted(machine.memory.snapshot().items()),
            }

        fast = truncated()
        with general_path():
            general = truncated()
        assert fast == general


class TestHookDegradation:
    """Only SLE and a fault plan turn the fused body step off."""

    def workload(self):
        return make_workload("mwobject", ops_per_thread=3)

    def assert_fused(self, build, fused=True):
        machine = build()
        taken = [executor._body_step != executor._step_body
                 for executor in machine.executors]
        assert taken == [fused] * len(taken)
        fast, general = both_paths(build)
        assert fast == general

    def test_pure_config_enters_fused_loop(self, monkeypatch):
        sentinel = RuntimeError("fused step entered")

        def explode(self):
            def fused():
                raise sentinel
            return fused

        machine = build_machine(SimConfig(num_cores=4), self.workload())
        assert all(executor._body_step != executor._step_body
                   for executor in machine.executors)
        monkeypatch.setattr(CoreExecutor, "_fused_body_step", explode)
        machine = build_machine(SimConfig(num_cores=4), self.workload())
        with pytest.raises(RuntimeError, match="fused step entered"):
            machine.run()

    def test_faults_degrade(self):
        config = SimConfig(num_cores=4, fault_jitter_cycles=4)
        self.assert_fused(lambda: Machine(config, self.workload()),
                          fused=False)

    def test_sle_degrades(self):
        config = SimConfig(num_cores=4, speculation="sle")
        self.assert_fused(lambda: Machine(config, self.workload()),
                          fused=False)

    def test_trace_keeps_fused_loop(self):
        self.assert_fused(lambda: Machine(
            SimConfig(num_cores=4), self.workload(), trace=EventTrace()
        ))

    def test_checkers_keep_fused_loop(self):
        config = SimConfig(num_cores=4, oracle="online")
        self.assert_fused(lambda: Machine(config, self.workload()))

    def test_watchdog_keeps_fused_loop(self):
        config = SimConfig(num_cores=4, watchdog_cycles=100_000)
        self.assert_fused(lambda: Machine(config, self.workload()))

    def test_scheduler_and_ledger_keep_fused_loop(self):
        self.assert_fused(lambda: Machine(
            SimConfig(num_cores=4), self.workload(),
            scheduler=DefaultScheduler(), retry_ledger=RetryLedger(),
        ))


class TestImportFootprint:
    def test_simulating_never_imports_numpy(self):
        script = (
            "import sys\n"
            "from repro.sim.config import SimConfig\n"
            "from repro.sim.machine import build_machine\n"
            "from repro.workloads import make_workload\n"
            "for oracle in ('off', 'online'):\n"
            "    config = SimConfig(num_cores=4, oracle=oracle)\n"
            "    build_machine(config, make_workload('genome',\n"
            "                  ops_per_thread=2)).run()\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
        subprocess.run([sys.executable, "-c", script], env=env, check=True)


@pytest.mark.slow
class TestFullMatrixEquivalence:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_PATH) as handle:
            return json.load(handle)

    def test_micro_matrix_general_path_matches_golden(self, golden):
        # test_conflict_equivalence pins the default (fast) path to the
        # same golden, so both paths reproduce the micro matrix byte
        # for byte. Serial and uncached: the patch lives in this
        # process only.
        from repro.analysis.experiments import (
            ExperimentSettings,
            figure_payload,
            run_config_matrix,
        )
        from repro.sim.engine import ExperimentEngine

        with general_path():
            matrix = run_config_matrix(
                ExperimentSettings.micro(),
                engine=ExperimentEngine(jobs=1, cache_dir=None),
            )
        payload = json.loads(json.dumps(figure_payload(matrix)))
        assert payload == golden

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_every_workload_matches(self, design):
        for workload in ALL_NAMES:
            fast, general = both_cells(design, workload)
            assert fast == general, (
                "fast/general divergence on {}/{}".format(workload, design)
            )
