"""Seeded gen-workload sweep through the engine, journaled and resumed.

The corpus CI job's gate: a 12-cell matrix of generated kernels (2
specs x 2 designs x 3 seeds) fans out across worker processes into a
job folder, then a resumed run must serve every completed cell from
that folder — exactly once, byte-identical — instead of re-executing,
whatever cache the resuming engine was given. This proves the ``gen:``
namespace survives the whole durability stack: worker processes
re-resolve canonical names from scratch, cache keys carry the spec
fingerprint token, and the folder's entries decode to the same
results.
"""

import json

import pytest

from repro.sim.config import SimConfig
from repro.sim.engine import ExperimentEngine, RunSpec
from repro.sim.journal import SweepJournal

SPECS = (
    "gen:footprint=2,mutability=immutable",
    "gen:regions=2,footprint=3,contention=0.75",
)
DESIGNS = ("baseline", "clear")
SEEDS = (1, 2, 3)


def build_cells():
    return [
        RunSpec(
            workload=name,
            config=SimConfig.for_design(design, num_cores=4),
            seed=seed,
            ops_per_thread=4,
        )
        for name in SPECS
        for design in DESIGNS
        for seed in SEEDS
    ]


def dump(report):
    return json.dumps(
        [result.to_dict() for result in report.results], sort_keys=True
    )


@pytest.mark.slow
def test_journaled_sweep_resumes_byte_identical(tmp_path):
    cells = build_cells()
    assert len(cells) == 12
    job_dir = str(tmp_path / "job")

    engine = ExperimentEngine(jobs=2, cache_dir=str(tmp_path / "cache"))
    first = engine.run_specs_report(cells, journal=SweepJournal(job_dir))
    assert first.ok, first.failure_report()
    assert first.journal["executed"] == 12

    resumed_engine = ExperimentEngine(
        jobs=2, cache_dir=str(tmp_path / "cache2")
    )
    resumed = resumed_engine.run_specs_report(cells, journal=job_dir)
    assert resumed.ok, resumed.failure_report()
    assert resumed.journal["replayed"] == 12
    assert resumed.journal["executed"] == 0
    assert dump(resumed) == dump(first)
    # The job folder was both runs' only store.
    assert not (tmp_path / "cache").exists()
    assert not (tmp_path / "cache2").exists()


@pytest.mark.slow
def test_fanout_agrees_with_serial(tmp_path):
    cells = build_cells()
    serial = ExperimentEngine(jobs=1, cache_dir=None).run_specs_report(cells)
    fanned = ExperimentEngine(jobs=2, cache_dir=None).run_specs_report(cells)
    assert serial.ok and fanned.ok
    assert dump(fanned) == dump(serial)


def test_gen_cache_keys_carry_the_spec_token(tmp_path):
    spec_a, spec_b = (
        RunSpec(
            workload=name,
            config=SimConfig.for_design("baseline", num_cores=2),
            seed=1,
            ops_per_thread=2,
        )
        for name in SPECS
    )
    assert spec_a.cache_key() != spec_b.cache_key()
