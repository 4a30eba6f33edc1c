"""One body step equivalence: the product step matches the reference.

``CoreExecutor._fused_body_step`` builds the simulator's only BODY-phase
implementation. The general op path it replaced survives as the test
reference in ``tests/reference_step.py``, installed by the
``general_path()`` patch from ``tests/conftest.py``; both must give
identical stats, event counts, and final architectural memory, run for
run, on every registered design. Evidence layers:

1. pairwise differentials: every registered design (the paper's four
   plus ``lrw``/``bigatomics``) runs representative workloads on both
   paths; stats JSON, ``event_count``, ``memory.snapshot()`` and the
   memory's load/store counters must match exactly — and, in the slow
   profile, the full 19-workload x all-designs grid does the same, once
   plain and once with a fault plan and the online monitor armed;
2. the full micro experiment matrix run on the reference produces
   figure JSON equal to the committed golden
   (``tests/goldens/figures_micro.json``) — the same file the product
   step is pinned against in ``test_conflict_equivalence``;
2b. on tiny caches with four directory sets, where the step's miss
   path takes every branch the Table 2 geometry rarely reaches
   (evictions and inclusion drops at every level, C2C transfers,
   upgrades, remote invalidations, multi-member lexicographical groups
   and directory-set locks), both paths still match, and the reference
   run shows each of those paths taken;
3. every configuration builds the one step: plain, SLE, a fault plan,
   trace, scheduler, watchdog and the online monitor, and
   the result matches the reference byte for byte in each case;
4. import footprint: simulating imports no NumPy (it costs every sim
   process ~12 MB of peak RSS).
"""

import collections
import json
import os
import subprocess
import sys
from unittest import mock

import pytest

from repro.common.errors import CycleLimitExceeded
from repro.core.controller import ClearController
from repro.htm.design import DESIGN_REGISTRY
from repro.memory.cache import SetAssocCache
from repro.memory.directory import Directory
from repro.memory.system import MemorySystem
from repro.obs.trace import EventTrace
from repro.sim.config import SimConfig
from repro.sim.executor import CoreExecutor
from repro.sim.machine import Machine, build_machine
from repro.sim.validate import validate_machine
from repro.verify import DefaultScheduler
from repro.workloads import ALL_NAMES, make_workload
from tests.conftest import both_paths, general_path, run_digest, takes_one_step

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "goldens", "figures_micro.json"
)
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

ALL_DESIGNS = sorted(DESIGN_REGISTRY)

#: Fast-profile differential workloads: one data structure, one STAMP
#: application, one high-contention pattern.
SMOKE_WORKLOADS = ("hashmap", "genome", "mwobject")


#: A generated kernel whose regions touch four lines of an eight-line
#: hot pool, half of them written, on nearly every invocation.
HOT_POOL_KERNEL = (
    "gen:footprint=4,contention=0.9,hot_lines=8,private_lines=64,"
    "mutability=mutable,read_fraction=0.5"
)


def both_cells(design, workload, seed=1, ops_per_thread=6, num_cores=4,
               **overrides):
    """(one-step digest, reference digest) for one cell."""
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
        # abort and fallback machinery.
        fast, general = both_cells("baseline", "mwobject", retry_threshold=1)
        assert fast == general

    def test_sle_speculation_matches(self):
        fast, general = both_cells("clear", "genome", speculation="sle")
        assert fast == general

    def test_lrw_bounded_sets_match(self):
        # Tiny budgets make the bounded sets overflow constantly; the
        # step tracks them through their own record_read/record_write.
        fast, general = both_cells("lrw", "genome", lrw_read_lines=2,
                                   lrw_write_lines=1)
        assert fast == general

    @pytest.mark.parametrize("design", ["clear", "clear+powertm"])
    def test_small_discovery_windows_match(self, design):
        # A 1-entry store queue and a 3-entry ALT under regions of four
        # lines, about half of them written: discovery overflows both,
        # and some regions fill the store queue exactly, through the
        # step's inline checks and the reference's hooks.
        overflows = collections.Counter()

        def counting(conclude):
            def counted(controller, discovery):
                overflows["sq"] += discovery.sq_overflow
                overflows["alt"] += discovery.alt_overflow
                return conclude(controller, discovery)
            return counted

        with mock.patch.object(
            ClearController, "conclude_failed_discovery",
            counting(ClearController.conclude_failed_discovery),
        ), mock.patch.object(
            ClearController, "conclude_committed_discovery",
            counting(ClearController.conclude_committed_discovery),
        ):
            fast, general = both_cells(design, HOT_POOL_KERNEL,
                                       sq_entries=1, alt_entries=3)
        assert fast == general
        assert overflows["sq"] and overflows["alt"]

    def test_machine_wider_than_a_word_matches(self):
        # 70 cores: the directory's and the sharer index's core
        # bit-vectors outgrow 64 bits.
        config = SimConfig.for_design("clear", num_cores=70, oracle="online")

        def build():
            return build_machine(
                config, make_workload("genome", ops_per_thread=3), seed=1
            )

        machine = build()
        fast = run_digest(machine)
        assert fast["events"] == 46_646
        validate_machine(machine)
        with general_path():
            general = run_digest(build())
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


#: A machine whose caches hold a few dozen lines: a 4-set 2-way L1, a
#: 16-set 4-way L2 and a 16-set 8-way L3, over four directory sets.
TINY_CACHES = dict(
    l1_size=4 * 64 * 2, l1_assoc=2, l2_size=16 * 64 * 4, l2_assoc=4,
    l3_size=16 * 64 * 8, l3_assoc=8, directory_sets=4,
)

#: Each tiny-cache workload and the rare paths its reference run must
#: take. labyrinth's grids overflow every level; in the hot-pool
#: kernel CLEAR's lock plans hold groups of two lines in one
#: directory set.
TINY_WORKLOADS = [
    pytest.param("labyrinth", {
        "L1 eviction", "L2 eviction", "L3 eviction", "inclusion drop",
        "C2C", "UPG", "remote invalidation",
    }, id="labyrinth"),
    pytest.param(HOT_POOL_KERNEL, {
            "C2C", "UPG", "remote invalidation", "multi-member group",
            "directory-set lock",
        }, id="gen-hot-pool"),
]


def reference_paths_taken(build):
    """Run ``build()`` on the reference; return its digest and path counts.

    The reference's memory model runs through ``MemorySystem`` and
    ``SetAssocCache`` methods, so wrapping them counts the paths the
    product step takes inline; CLEAR's lock plans and set locks are
    counted on both paths' shared code.
    """
    counts = collections.Counter()
    machines = []
    install = SetAssocCache.install
    drop_private = MemorySystem._drop_private_line
    invalidate_private = MemorySystem._invalidate_private
    lock_set = Directory.lock_set
    prepare_lock_plan = ClearController.prepare_lock_plan

    def counted_install(cache, line):
        victim = install(cache, line)
        if victim is not None:
            memsys = machines[0].memsys
            level = ("L3" if cache is memsys.l3
                     else "L2" if cache in memsys.l2 else "L1")
            counts[level + " eviction"] += 1
        return victim

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    def counted_plan(controller, discovery, mode):
        plan = prepare_lock_plan(controller, discovery, mode)
        counts["multi-member group"] += sum(len(group) > 1 for group in plan)
        return plan

    with general_path():
        machines.append(build())
        with mock.patch.object(SetAssocCache, "install", counted_install), \
                mock.patch.object(MemorySystem, "_drop_private_line",
                                  counted("inclusion drop", drop_private)), \
                mock.patch.object(MemorySystem, "_invalidate_private",
                                  counted("remote invalidation",
                                          invalidate_private)), \
                mock.patch.object(Directory, "lock_set",
                                  counted("directory-set lock", lock_set)), \
                mock.patch.object(ClearController, "prepare_lock_plan",
                                  counted_plan):
            digest = run_digest(machines[0])
    accesses = machines[0].stats.accesses_by_level
    counts["C2C"] = accesses.get("C2C", 0)
    counts["UPG"] = accesses.get("UPG", 0)
    return digest, counts


class TestTinyCaches:
    """The miss path where the Table 2 geometry rarely goes."""

    @pytest.mark.parametrize("workload, paths", TINY_WORKLOADS)
    @pytest.mark.parametrize("design", ["baseline", "clear", "clear+powertm"])
    def test_paths_match_on_tiny_caches(self, design, workload, paths):
        config = SimConfig.for_design(design, num_cores=4, **TINY_CACHES)

        def build():
            return build_machine(
                config, make_workload(workload, ops_per_thread=8), seed=1
            )

        fast = run_digest(build())
        general, counts = reference_paths_taken(build)
        assert fast == general
        expected = set(paths)
        if design == "baseline":
            # No discovery, so no lock plans and no set locks.
            expected -= {"multi-member group", "directory-set lock"}
        missed = sorted(path for path in expected if not counts[path])
        assert not missed, "paths never taken: {}".format(missed)


class TestHookDegradation:
    """No hook or configuration turns the one body step off."""

    def workload(self):
        return make_workload("mwobject", ops_per_thread=3)

    def assert_one_step(self, build):
        assert takes_one_step(build())
        fast, general = both_paths(build)
        assert fast == general

    def test_pure_config_enters_fused_loop(self, monkeypatch):
        sentinel = RuntimeError("one step entered")

        def explode(self):
            def step():
                raise sentinel
            return step

        machine = build_machine(SimConfig(num_cores=4), self.workload())
        assert takes_one_step(machine)
        with general_path():
            assert not takes_one_step(
                build_machine(SimConfig(num_cores=4), self.workload())
            )
        monkeypatch.setattr(CoreExecutor, "_fused_body_step", explode)
        machine = build_machine(SimConfig(num_cores=4), self.workload())
        with pytest.raises(RuntimeError, match="one step entered"):
            machine.run()

    def test_fault_plan_builds_the_one_step(self):
        config = SimConfig(num_cores=4, fault_jitter_cycles=4,
                           fault_spurious_rate=0.2,
                           fault_wakeup_delay_cycles=3)
        self.assert_one_step(lambda: Machine(config, self.workload()))

    def test_sle_builds_the_one_step(self):
        config = SimConfig(num_cores=4, speculation="sle")
        self.assert_one_step(lambda: Machine(config, self.workload()))

    def test_trace_keeps_fused_loop(self):
        self.assert_one_step(lambda: Machine(
            SimConfig(num_cores=4), self.workload(), trace=EventTrace()
        ))

    def test_checkers_keep_fused_loop(self):
        config = SimConfig(num_cores=4, oracle="online")
        self.assert_one_step(lambda: Machine(config, self.workload()))

    def test_watchdog_keeps_fused_loop(self):
        config = SimConfig(num_cores=4, watchdog_cycles=100_000)
        self.assert_one_step(lambda: Machine(config, self.workload()))

    def test_scheduler_keeps_fused_loop(self):
        self.assert_one_step(lambda: Machine(
            SimConfig(num_cores=4), self.workload(),
            scheduler=DefaultScheduler(),
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
        # test_conflict_equivalence pins the product step to the same
        # golden, so both paths reproduce the micro matrix byte for
        # byte. Serial and uncached: the patch lives in this process
        # only.
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
                "step/reference divergence on {}/{}".format(workload, design)
            )

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_every_workload_matches_under_a_fault_plan(self, design):
        # Injected spurious aborts, latency jitter and wakeup delay with
        # the online monitor armed: the step's fault branches, jitter
        # draws and monitored fallback ops against the reference.
        for workload in ALL_NAMES:
            fast, general = both_cells(
                design, workload, oracle="online",
                fault_spurious_rate=0.05, fault_jitter_cycles=4,
                fault_wakeup_delay_cycles=4,
            )
            assert fast == general, (
                "step/reference divergence under faults on {}/{}".format(
                    workload, design
                )
            )
