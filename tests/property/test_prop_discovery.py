"""The int discovery state against the table-of-entries reference.

:class:`repro.core.discovery.DiscoveryState` keeps the ALT as one
``line -> needs_locking`` dict and sorts it only when it is read;
``tests/reference_discovery.py`` keeps the table it replaced, sorted on
every insert, with per-entry bits. Hypothesis drives random access
scripts through both: loads and stores over a few lines (tainted
addresses or not), branches, a conflict into failed mode, small SQ and
ALT capacities, and a CRT filled before the retry (often with the
script's own loads). Both must agree,
after every op, on the overflow flags and ``exhausted``, and at the end
on every ``assess()`` field, the retry decision, the NS-CL and S-CL
lock plans (S-CL with CRT promotion, or locking every line), the
Conflict bits (a group boundary in the int plan) and the CRT's own
state, which a lookup reorders.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import ClearController
from repro.core.crt import ConflictingReadsTable
from repro.core.decision import RetryDecision, decide_retry_mode
from repro.core.modes import ExecMode
from repro.memory.cache import SetAssocCache
from tests.reference_discovery import (
    ReferenceDiscovery, on_branch, on_load, on_store, reference_lock_plan,
)

# Few enough lines that reads often hit the CRT in one of its sets,
# where the order of the promotion's lookups shows in its LRU order.
lines = st.integers(min_value=0, max_value=23)
# Loads outweigh stores three to one, so scripts keep read-only lines
# for the CRT to promote.
ops = st.one_of(
    st.tuples(st.sampled_from(["load", "load", "load", "store"]), lines,
              st.booleans()),
    st.tuples(st.just("branch"), st.booleans()),
    st.tuples(st.just("conflict")),
)
#: Every field of DiscoveryAssessment.
DISCOVERY_FIELDS = (
    "fits_window", "lockable", "immutable", "sq_overflow", "alt_overflow",
    "footprint",
)

scenarios = st.fixed_dictionaries({
    "script": st.lists(ops, min_size=6, max_size=48),
    "crt": st.lists(lines, max_size=32),
    # Also put every loaded line in the CRT first, as past S-CL
    # conflicts on them would: reads then hit it often enough that the
    # promotion order shows.
    "crt_loads": st.booleans(),
    "sq": st.integers(min_value=1, max_value=10),
    "alt": st.integers(min_value=1, max_value=32),
    "sets": st.integers(min_value=1, max_value=8),
    "policy": st.sampled_from(["writes", "all"]),
    "crt_enabled": st.booleans(),
})


def build(scenario):
    """A controller with its int state, and the reference over the same inputs."""
    num_sets = scenario["sets"]
    # A 4-set, 2-way L1: lockability fails for some footprints.
    l1 = SetAssocCache(4 * 64 * 2, 2)
    controller = ClearController(
        core=0, directory_sets=num_sets, can_coreside=l1.can_coreside,
        alt_entries=scenario["alt"], sq_capacity=scenario["sq"],
        scl_lock_policy=scenario["policy"],
        crt_enabled=scenario["crt_enabled"],
    )
    reference = ReferenceDiscovery(
        "r", dir_set_of=lambda line: line % num_sets,
        can_coreside=l1.can_coreside, sq_capacity=scenario["sq"],
        alt_entries=scenario["alt"],
    )
    return controller, controller.begin_invocation("r"), reference


def run_script(controller, discovery, reference, script):
    for op in script:
        kind = op[0]
        if kind == "load":
            on_load(discovery, controller, op[1], op[2])
            reference.on_load(op[1], op[2])
        elif kind == "store":
            on_store(discovery, controller, op[1], op[2])
            reference.on_store(op[1], op[2])
        elif kind == "branch":
            on_branch(discovery, op[1])
            reference.on_branch(op[1])
        else:
            controller.note_conflict(discovery)
            reference.enter_failed_mode()
        assert discovery.sq_overflow == reference.sq_overflow
        assert discovery.alt_overflow == reference.alt_overflow
        assert discovery.exhausted == reference.exhausted
        assert discovery.failed == reference.failed
        assert discovery.store_count == reference.store_count


def line_groups(plan):
    return [[entry.line for entry in group] for group in plan]


@given(scenarios)
@settings(max_examples=200, deadline=None)
def test_int_state_matches_the_table(scenario):
    controller, discovery, reference = build(scenario)
    run_script(controller, discovery, reference, scenario["script"])
    assert discovery.lines == {
        entry.line: entry.needs_locking for entry in reference.alt.entries()
    }
    assert discovery.ordered_lines() == reference.alt.all_lines()

    mine, theirs = discovery.assess(), reference.assess()
    for field in DISCOVERY_FIELDS:
        assert getattr(mine, field) == getattr(theirs, field), field

    # The retry decision (the controller's has_writes included).
    decision = controller.conclude_failed_discovery(discovery)
    if reference.exhausted:
        expected = RetryDecision(ExecMode.SPECULATIVE, "exhausted")
    else:
        expected = decide_retry_mode(theirs, has_writes=reference.has_writes())
    assert decision.mode is expected.mode


@given(scenarios)
@settings(max_examples=200, deadline=None)
def test_lock_plans_match_the_table(scenario):
    controller, discovery, reference = build(scenario)
    run_script(controller, discovery, reference, scenario["script"])

    # NS-CL: every line, grouped by directory set; a group boundary is
    # exactly where the table's Conflict bit is clear.
    plan = controller.prepare_lock_plan(discovery, ExecMode.NS_CL)
    table_plan = reference_lock_plan(reference, ExecMode.NS_CL, crt=None)
    assert plan == line_groups(table_plan)
    boundaries = [
        index < len(group) - 1 for group in plan for index in range(len(group))
    ]
    assert boundaries == [entry.conflict for entry in reference.alt.entries()]

    # S-CL: the same CRT on both sides; its lookups reorder its sets.
    table_crt = ConflictingReadsTable()
    crt_lines = list(scenario["crt"])
    if scenario["crt_loads"]:
        crt_lines[:0] = [op[1] for op in scenario["script"] if op[0] == "load"]
    for line in crt_lines:
        controller.crt.insert(line)
        table_crt.insert(line)
    plan = controller.prepare_lock_plan(discovery, ExecMode.S_CL)
    table_plan = reference_lock_plan(
        reference, ExecMode.S_CL, table_crt,
        scl_lock_policy=scenario["policy"],
        crt_enabled=scenario["crt_enabled"],
    )
    assert plan == line_groups(table_plan)
    assert controller.crt.lines() == table_crt.lines()
    assert discovery.lines == {
        entry.line: entry.needs_locking for entry in reference.alt.entries()
    }

