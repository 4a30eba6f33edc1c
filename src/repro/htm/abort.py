"""Abort reasons and the Fig. 11 reporting categories.

The paper groups aborts into four categories, cheapest to costliest:
Memory Conflict, Explicit Fallback (found the fallback lock taken when
starting), Other Fallback (another thread took the fallback lock while
this AR ran speculatively), and Others (capacity, explicit xabort,
exceptions/interrupts, ...).
"""

import enum


class AbortReason(enum.Enum):
    """Precise cause of a transaction abort."""

    MEMORY_CONFLICT = "memory_conflict"
    NACKED = "nacked"  # request hit a locked cacheline (CL/power nack)
    EXPLICIT_FALLBACK = "explicit_fallback"  # fallback lock taken at begin
    OTHER_FALLBACK = "other_fallback"  # fallback lock taken mid-flight
    CAPACITY = "capacity"  # read/write set exceeded private cache
    SQ_OVERFLOW = "sq_overflow"  # store queue exhausted (discovery limit)
    ROB_OVERFLOW = "rob_overflow"  # speculative window exhausted
    EXPLICIT = "explicit"  # workload-issued xabort
    LOCK_SET_FAILURE = "lock_set_failure"  # CL mode could not pin its set
    FOOTPRINT_DEVIATION = "footprint_deviation"  # NS-CL learned-set miss
    OTHER = "other"  # exceptions, interrupts, ...
    # Chaos-layer injections (repro.sim.faults). Real TSX-class HTM
    # suffers spurious aborts (interrupts, microarchitectural events)
    # and unpredictable capacity aborts; the fault injector emulates
    # them under distinct reasons so chaos runs stay analyzable.
    INJECTED_SPURIOUS = "injected_spurious"
    INJECTED_CAPACITY = "injected_capacity"

    # Identity hash, as for ``ExecMode``: members are singletons.
    __hash__ = object.__hash__


class AbortCategory(enum.Enum):
    """Fig. 11 reporting buckets, plus the chaos-run injection bucket."""

    MEMORY_CONFLICT = "Memory Conflict"
    EXPLICIT_FALLBACK = "Explicit Fallback"
    OTHER_FALLBACK = "Other Fallback"
    OTHERS = "Others"
    INJECTED = "Injected"  # chaos-layer faults; empty without --chaos

    __hash__ = object.__hash__


#: Every category in definition order, and the value <-> member maps
#: the stats decode and the figure projections read instead of calling
#: the classes, iterating them or reading ``.value``.
ABORT_CATEGORIES = tuple(AbortCategory)
CATEGORY_VALUE = {category: category.value for category in ABORT_CATEGORIES}
REASON_BY_VALUE = {reason.value: reason for reason in AbortReason}

#: Each reason's Fig. 11 category (:func:`categorize_abort` as a map).
CATEGORY_OF = {
    AbortReason.MEMORY_CONFLICT: AbortCategory.MEMORY_CONFLICT,
    AbortReason.NACKED: AbortCategory.MEMORY_CONFLICT,
    AbortReason.EXPLICIT_FALLBACK: AbortCategory.EXPLICIT_FALLBACK,
    AbortReason.OTHER_FALLBACK: AbortCategory.OTHER_FALLBACK,
    AbortReason.CAPACITY: AbortCategory.OTHERS,
    AbortReason.SQ_OVERFLOW: AbortCategory.OTHERS,
    AbortReason.ROB_OVERFLOW: AbortCategory.OTHERS,
    AbortReason.EXPLICIT: AbortCategory.OTHERS,
    AbortReason.LOCK_SET_FAILURE: AbortCategory.OTHERS,
    AbortReason.FOOTPRINT_DEVIATION: AbortCategory.OTHERS,
    AbortReason.OTHER: AbortCategory.OTHERS,
    AbortReason.INJECTED_SPURIOUS: AbortCategory.INJECTED,
    AbortReason.INJECTED_CAPACITY: AbortCategory.INJECTED,
}

# Injected faults behave like their real counterparts everywhere else:
# they count toward the retry limit (a spurious abort on real hardware
# is indistinguishable from any other abort to the retry counter) and,
# like every non-memory-conflict cause, mark an S-CL region
# non-discoverable (paper §4.4.2).
INJECTED_REASONS = frozenset(
    {AbortReason.INJECTED_SPURIOUS, AbortReason.INJECTED_CAPACITY}
)

# Aborts that do not advance the retry counter toward the fallback
# threshold (paper §7, "certain types of aborts do not increase the
# counter to take the fallback path", which is also why observed retry
# counts can exceed the nominal maximum). Fallback-lock aborts resolve
# when the fallback holder finishes; NACKs resolve when the power-mode
# or cacheline-locked holder — both guaranteed/likely to commit —
# finishes. Neither indicates that this AR needs serialization.
NON_COUNTING_REASONS = frozenset(
    {AbortReason.EXPLICIT_FALLBACK, AbortReason.OTHER_FALLBACK,
     AbortReason.NACKED}
)

# Abort causes that mark the region non-discoverable when they hit an
# S-CL execution (paper §4.4.2: "If an abort is triggered by any other
# reason than memory conflicts, the section is marked as
# non-discoverable").
NON_MEMORY_REASONS = frozenset(
    {
        AbortReason.CAPACITY,
        AbortReason.SQ_OVERFLOW,
        AbortReason.ROB_OVERFLOW,
        AbortReason.EXPLICIT,
        AbortReason.LOCK_SET_FAILURE,
        AbortReason.OTHER,
        AbortReason.INJECTED_SPURIOUS,
        AbortReason.INJECTED_CAPACITY,
    }
)


def categorize_abort(reason):
    """Map a precise abort reason to its Fig. 11 category."""
    return CATEGORY_OF[reason]


def counts_toward_retry_limit(reason):
    """Whether this abort advances the counter toward fallback."""
    return reason not in NON_COUNTING_REASONS
