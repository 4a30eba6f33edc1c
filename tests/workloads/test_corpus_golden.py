"""Golden-pinned generated kernel, every design.

This suite runs one generated kernel, ``gen:footprint=3``, through
``api.simulate`` across each of the four designs with the online
serializability monitor armed and pins the results byte-for-byte
against ``tests/goldens/corpus_micro.json`` — so the generator, the
namespace resolution, and the designs' behaviour on generated
workloads are all frozen together, and so is the spec's fingerprint,
the engine's cache token. Refresh intentionally moved results with
``scripts/refresh_goldens.py --only corpus --apply``.
"""

import hashlib
import json
import os

import pytest

from repro import api
from repro.htm.design import DESIGN_REGISTRY
from repro.sim.config import SimConfig
from repro.sim.machine import build_machine
from repro.workloads import make_workload, workload_cache_token

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "goldens", "corpus_micro.json"
)

TARGETS = {"gen": "gen:footprint=3"}


def load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def _digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def test_golden_covers_every_design_and_target():
    golden = load_golden()
    for label in TARGETS:
        assert set(golden["results"][label]) == set(DESIGN_REGISTRY)


def test_kernel_fingerprint_is_pinned():
    # The fingerprint is the engine's cache token: if it drifts, every
    # cached gen: result silently goes stale.
    assert workload_cache_token(TARGETS["gen"]) == (
        "1eb8e4d1818e825b4573d100e91f1b3cfbce75a63c8880092b7fb176174fef54"
    )


@pytest.mark.parametrize("label", sorted(TARGETS))
@pytest.mark.parametrize("design", sorted(DESIGN_REGISTRY))
def test_corpus_cell_matches_golden(label, design):
    golden = load_golden()
    pinned = golden["results"][label][design]
    config = SimConfig.for_design(
        design, num_cores=golden["num_cores"], oracle="online"
    )
    report = api.simulate(
        TARGETS[label], config, seeds=golden["seed"],
        ops_per_thread=golden["ops_per_thread"],
    )
    stats = report.runs[0].stats
    assert stats.total_commits == pinned["commits"]
    assert stats.makespan_cycles == pinned["cycles"]
    assert _digest(stats.to_dict()) == pinned["stats_sha256"]

    machine = build_machine(
        config,
        make_workload(TARGETS[label],
                      ops_per_thread=golden["ops_per_thread"]),
        seed=golden["seed"],
    )
    machine.run()
    memory = sorted(machine.memory.snapshot().items())
    assert _digest(memory) == pinned["memory_sha256"]
