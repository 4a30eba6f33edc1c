"""Property-based tests for the job folder's crash recovery.

The one store's durability claim, stated as invariants:

- **Round trip** — whatever results a sweep stored in its job folder,
  a fresh handle on the folder serves back exactly.
- **Corruption safety** — an entry cut at *any* byte offset, or
  replaced by arbitrary bytes, is never served: loading it never
  raises, sets the entry aside, and leaves every other entry and the
  key's next store intact.
- **Resume convergence** (slow) — under an arbitrary seeded fault plan
  corrupting the folder's entries, a run plus one resume always
  converges to the uninterrupted sweep's exact results, re-executing
  exactly the corrupted cells.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import SimConfig
from repro.sim.engine import SCHEMA_VERSION, ExperimentEngine, RunSpec
from repro.sim.enginefaults import EngineFaultPlan, FaultyIO
from repro.sim.journal import SweepJournal
from tests.conftest import FINGERPRINT

record_values = st.dictionaries(
    st.sampled_from(["cycles", "aborts", "pad"]),
    st.one_of(st.integers(0, 10**6), st.text(max_size=8)),
    max_size=3,
)


def build_journal(root, records):
    journal = SweepJournal(os.path.join(root, "job"))
    for index, value in enumerate(records):
        journal.store("key-{}".format(index), value, FINGERPRINT)
    return journal


@given(st.lists(record_values, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_replay_equals_what_was_recorded(records):
    with tempfile.TemporaryDirectory() as root:
        journal = build_journal(root, records)
        fresh = SweepJournal(journal.path)
        for index, value in enumerate(records):
            assert fresh.load("key-{}".format(index)) == value


@given(
    st.lists(record_values, min_size=1, max_size=5),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=80, deadline=None)
def test_truncation_anywhere_in_an_entry_is_quarantined(records, cut_seed):
    # hypothesis reuses examples across runs, so the scratch directory
    # must be per-example (a function-scoped tmp_path fixture is not).
    with tempfile.TemporaryDirectory() as root:
        journal = build_journal(root, records)
        last_key = "key-{}".format(len(records) - 1)
        path = journal._path(last_key)
        with open(path, "rb") as handle:
            intact = handle.read()
        with open(path, "wb") as handle:
            handle.write(intact[:cut_seed % len(intact)])

        recovered = SweepJournal(journal.path)
        assert recovered.load(last_key) is None
        assert recovered.stats.corrupt_quarantined == 1
        for index, value in enumerate(records[:-1]):
            assert recovered.load("key-{}".format(index)) == value
        recovered.store(last_key, records[-1], FINGERPRINT)
        assert SweepJournal(journal.path).load(last_key) == records[-1]


@given(st.binary(max_size=200))
@settings(max_examples=60, deadline=None)
def test_arbitrary_entry_garbage_never_crashes_load(garbage):
    with tempfile.TemporaryDirectory() as root:
        journal = SweepJournal(os.path.join(root, "job"))
        os.makedirs(os.path.dirname(journal._path("key")))
        with open(journal._path("key"), "wb") as handle:
            handle.write(garbage)
        # Must not raise, and never serves bytes that do not hold the
        # spec's config.
        assert journal.load("key", FINGERPRINT) is None
        journal.store("key", {"v": 1}, FINGERPRINT)
        assert SweepJournal(journal.path).load("key") == {"v": 1}


@pytest.mark.slow
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=8, deadline=None)
def test_resume_converges_under_any_fault_plan(seed, corrupt_rate):
    specs = [
        RunSpec(
            workload="mwobject",
            config=SimConfig.for_design("baseline", num_cores=2),
            seed=s,
            ops_per_thread=3,
        )
        for s in (1, 2)
    ]
    clean = ExperimentEngine(jobs=1, cache_dir=None).run_specs_report(specs)
    expected = json.dumps([r.to_dict() for r in clean.results], sort_keys=True)
    with tempfile.TemporaryDirectory() as root:
        job = os.path.join(root, "job")
        # The manifest is written atomically, so corrupting it models
        # unrecoverable disk corruption (refused by design): write it
        # clean, and let the plan corrupt the cell entries.
        SweepJournal(job).ensure(specs, SCHEMA_VERSION)
        io = FaultyIO(EngineFaultPlan(seed=seed, corrupt_rate=corrupt_rate))
        first = ExperimentEngine(jobs=1, cache_dir=None).run_specs_report(
            specs, journal=SweepJournal(job, io=io))
        assert first.ok
        resumed = ExperimentEngine(jobs=1, cache_dir=None).run_specs_report(
            specs, journal=job
        )
        assert resumed.ok
        got = json.dumps(
            [r.to_dict() for r in resumed.results], sort_keys=True
        )
        assert got == expected
        assert resumed.journal["executed"] == io.injected["corrupt"]
        assert (resumed.journal["replayed"] + resumed.journal["executed"]
                == len(specs))
