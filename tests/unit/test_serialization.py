"""Round-trip tests for the serializable config/result API."""

import dataclasses
import json
from collections import Counter

import pytest

from repro import api
from repro.common.errors import ConfigurationError
from repro.core.modes import ExecMode
from repro.energy.model import EnergyBreakdown
from repro.htm.abort import AbortCategory, AbortReason
from repro.htm.design import design_name
from repro.sim.config import SimConfig
from repro.sim.runner import AggregateResult, RunResult
from repro.sim.stats import MachineStats
from repro.workloads import make_workload


def sample_result(letter="C", seed=1):
    config = SimConfig.for_design(design_name(letter), num_cores=4)
    return api.simulate(
        lambda: make_workload("mwobject", ops_per_thread=6), config,
        seeds=seed,
    ).run


class TestSimConfigRoundTrip:
    def test_to_dict_covers_every_field(self):
        config = SimConfig()
        data = config.to_dict()
        assert set(data) == {
            field.name for field in dataclasses.fields(SimConfig)
        }

    def test_round_trip_identity(self):
        config = SimConfig.for_design("clear+powertm", num_cores=8, retry_threshold=3)
        assert SimConfig.from_dict(config.to_dict()) == config

    def test_round_trip_through_json(self):
        config = SimConfig(speculation="sle", scl_lock_policy="all")
        rebuilt = SimConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    def test_unknown_field_rejected(self):
        data = SimConfig().to_dict()
        data["does_not_exist"] = 1
        with pytest.raises(ConfigurationError):
            SimConfig.from_dict(data)

    def test_from_dict_validates(self):
        data = SimConfig().to_dict()
        data["retry_threshold"] = 0
        with pytest.raises(ConfigurationError):
            SimConfig.from_dict(data)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SimConfig().num_cores = 1

    def test_replaced_sees_every_field(self):
        # The dataclass derivation is what guarantees new fields cannot
        # be silently dropped: replaced() goes through dataclasses.replace.
        original = SimConfig()
        for field in dataclasses.fields(SimConfig):
            clone = original.replaced()
            assert getattr(clone, field.name) == getattr(original, field.name)

    def test_fingerprint_changes_with_any_field(self):
        base = SimConfig().fingerprint()
        assert SimConfig(retry_threshold=2).fingerprint() != base
        assert SimConfig(mem_latency=81).fingerprint() != base
        assert SimConfig().fingerprint() == base

    def test_fingerprint_is_sha256_hex(self):
        fingerprint = SimConfig().fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)


class TestEnergyRoundTrip:
    def test_round_trip(self):
        breakdown = EnergyBreakdown(static=12.5, dynamic=30.25)
        rebuilt = EnergyBreakdown.from_dict(
            json.loads(json.dumps(breakdown.to_dict()))
        )
        assert rebuilt.static == breakdown.static
        assert rebuilt.dynamic == breakdown.dynamic
        assert rebuilt.total == breakdown.total


class TestRunResultRoundTrip:
    def test_json_round_trip_is_lossless(self):
        result = sample_result()
        data = json.loads(json.dumps(result.to_dict()))
        rebuilt = RunResult.from_dict(data)
        assert rebuilt.to_dict() == result.to_dict()

    def test_rebuilt_metrics_match(self):
        result = sample_result()
        rebuilt = RunResult.from_dict(result.to_dict())
        assert rebuilt.cycles == result.cycles
        assert rebuilt.aborts_per_commit == result.aborts_per_commit
        assert rebuilt.energy.total == result.energy.total
        assert rebuilt.config == result.config
        assert rebuilt.seed == result.seed
        assert rebuilt.workload_name == result.workload_name

    def test_stats_enums_and_region_tuples_survive(self):
        result = sample_result()
        rebuilt = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt.stats.commits_by_mode == result.stats.commits_by_mode
        assert rebuilt.stats.aborts_by_reason == result.stats.aborts_by_reason
        assert (rebuilt.stats.aborts_by_category
                == result.stats.aborts_by_category)
        assert (rebuilt.stats.per_region_commits
                == result.stats.per_region_commits)
        assert all(
            isinstance(region, tuple)
            for region in rebuilt.stats.per_region_commits
        )

    def test_derived_figure_metrics_match(self):
        result = sample_result()
        rebuilt = RunResult.from_dict(result.to_dict())
        assert (rebuilt.stats.commit_mode_shares()
                == result.stats.commit_mode_shares())
        assert rebuilt.stats.retry_shares() == result.stats.retry_shares()
        assert (rebuilt.stats.discovery_time_fraction()
                == result.stats.discovery_time_fraction())
        assert (rebuilt.stats.first_retry_immutable_ratio()
                == result.stats.first_retry_immutable_ratio())


class TestMachineStatsRoundTrip:
    def test_empty_stats_round_trip(self):
        stats = MachineStats(num_cores=2)
        rebuilt = MachineStats.from_dict(
            json.loads(json.dumps(stats.to_dict()))
        )
        assert rebuilt.to_dict() == stats.to_dict()

    def test_full_surface_round_trips(self):
        """Annotations, histograms and tuple region ids all come back."""
        stats = MachineStats(num_cores=3)
        stats.record_begin(0)
        stats.record_commit(0, ExecMode.SPECULATIVE, 0, ("bst", "insert"))
        stats.record_commit(1, ExecMode.NS_CL, 1, ("bst", "remove"))
        stats.record_commit(2, ExecMode.FALLBACK, 5, 7)
        stats.record_abort(1, AbortReason.MEMORY_CONFLICT, ("bst", "remove"),
                           latency=40)
        stats.record_abort(2, AbortReason.EXPLICIT_FALLBACK, 7)
        stats.record_access("L1")
        stats.record_lock_acquired(2)
        stats.record_lock_hold(12)
        stats.record_fallback_hold(300)
        stats.record_first_retry(True)
        stats.add_busy(1, 90, failed_discovery=True)
        stats.makespan_cycles = 1234
        data = stats.to_dict()
        assert data["metrics"]["histograms"]
        rebuilt = MachineStats.from_dict(data)
        assert rebuilt.to_dict() == data
        assert MachineStats.from_dict(
            json.loads(json.dumps(data))).to_dict() == data
        assert ("bst", "insert") in rebuilt.per_region_commits
        # Decoding sets exactly the attributes __init__ does, and the
        # bound metrics are the rebuilt registry's own.
        assert set(vars(rebuilt)) == set(vars(MachineStats(num_cores=3)))
        rebuilt.record_lock_hold(5)
        assert rebuilt.metrics.histogram("lock_hold_cycles").count == 2

    def test_core_counters_survive(self):
        stats = sample_result().stats
        rebuilt = MachineStats.from_dict(stats.to_dict())
        assert len(rebuilt.cores) == len(stats.cores)
        for mine, theirs in zip(rebuilt.cores, stats.cores):
            assert mine.to_dict() == theirs.to_dict()


class TestAggregateRoundTrip:
    def test_json_round_trip(self):
        config = SimConfig.for_design("baseline", num_cores=4)
        aggregate = api.simulate(
            lambda: make_workload("mwobject", ops_per_thread=4), config,
            seeds=(1, 2), trim=0,
        ).aggregate()
        rebuilt = AggregateResult.from_dict(
            json.loads(json.dumps(aggregate.to_dict()))
        )
        assert rebuilt.cycles == aggregate.cycles
        assert rebuilt.energy == aggregate.energy
        assert rebuilt.trim == aggregate.trim
        assert len(rebuilt.runs) == 2
        assert rebuilt.to_dict() == aggregate.to_dict()


DESIGNS = ("baseline", "powertm", "clear", "clear+powertm")
DECODE_CELLS = DESIGNS + ("chaos", "truncated", "empty")


@pytest.fixture(scope="module")
def decode_cells():
    """Stats dicts, as a cache entry holds them, covering every decode path.

    The paper's four designs on a contended kernel (fallback, S-CL and
    NS-CL commits), a chaos run (injected abort reasons and fallback
    commits), a truncated run and an empty surface.
    """
    from repro.common.errors import CycleLimitExceeded
    from repro.sim.machine import build_machine

    def run(config, kernel="sorted-list", ops=8):
        machine = build_machine(
            config, make_workload(kernel, ops_per_thread=ops), seed=1)
        try:
            machine.run()
        except CycleLimitExceeded:
            assert machine.stats.truncated
        return machine.stats

    cells = {design: run(SimConfig.for_design(design, num_cores=4))
             for design in DESIGNS}
    cells["chaos"] = run(
        SimConfig.for_design(
            "clear", num_cores=4, retry_threshold=2,
            fault_spurious_rate=0.3, fault_capacity_rate=0.1,
            fault_jitter_cycles=4, fault_wakeup_delay_cycles=8),
        kernel="arrayswap")
    cells["truncated"] = run(
        SimConfig.for_design("baseline", num_cores=4, max_cycles=500),
        kernel="genome", ops=40)
    cells["empty"] = MachineStats(4)
    return {name: json.loads(json.dumps(stats.to_dict()))
            for name, stats in cells.items()}


class TestDirectDecode:
    """``from_dict`` builds the surface directly, and loses nothing."""

    def test_cells_cover_every_decode_path(self, decode_cells):
        chaos = decode_cells["chaos"]
        assert {"injected_spurious", "injected_capacity"} \
            <= set(chaos["aborts_by_reason"])
        assert chaos["fallback_commit_retries"]
        assert decode_cells["truncated"]["truncated"]
        modes = set()
        for data in decode_cells.values():
            modes.update(data["commits_by_mode"])
        assert {"fallback", "s_cl", "ns_cl"} <= modes

    @pytest.mark.parametrize("name", DECODE_CELLS)
    def test_round_trip_is_byte_identical(self, decode_cells, name):
        data = decode_cells[name]
        rebuilt = MachineStats.from_dict(data).to_dict()
        assert json.dumps(rebuilt, sort_keys=True) \
            == json.dumps(data, sort_keys=True)

    @pytest.mark.parametrize("name", DECODE_CELLS)
    def test_counters_are_counters_keyed_by_members(self, decode_cells,
                                                    name):
        stats = MachineStats.from_dict(decode_cells[name])
        members = {
            "commits_by_mode": list(ExecMode),
            "aborts_by_reason": list(AbortReason),
            "aborts_by_category": list(AbortCategory),
        }
        for field, enum_members in members.items():
            counter = getattr(stats, field)
            assert type(counter) is Counter
            assert all(any(key is member for member in enum_members)
                       for key in counter)
            for member in enum_members:
                if member not in counter:
                    assert counter[member] == 0
        for field in ("commits_by_retries", "fallback_commit_retries",
                      "per_region_commits", "per_region_aborts",
                      "accesses_by_level"):
            counter = getattr(stats, field)
            assert type(counter) is Counter
            assert counter["never-recorded"] == 0
        assert all(type(retries) is int
                   for retries in stats.commits_by_retries)
