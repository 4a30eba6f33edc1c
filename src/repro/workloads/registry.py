"""Benchmark registry: workload name → workload instance.

Two namespaces resolve through :func:`make_workload`:

- **built-in names** — the paper's 19 kernels, matching its figures
  exactly (including the ``kmeans-h``/``kmeans-l`` and
  ``vacation-h``/``vacation-l`` input variants);
- ``gen:<spec|fingerprint|folder>`` — seeded parametric workloads from
  :mod:`repro.workloads.gen`.

:func:`canonical_workload_name` rewrites a name to its self-contained
spelling (the one worker processes can resolve without shared state),
and :func:`workload_cache_token` supplies the extra content-address
material a ``gen:`` workload contributes to engine cache keys.
"""

from repro.common.errors import UnknownWorkloadError
from repro.workloads.datastructures import (
    ArraySwapWorkload,
    BitcoinWorkload,
    BstWorkload,
    DequeWorkload,
    HashmapWorkload,
    MwObjectWorkload,
    QueueWorkload,
    StackWorkload,
    SortedListWorkload,
)
from repro.workloads.stamp import (
    BayesWorkload,
    GenomeWorkload,
    IntruderWorkload,
    KmeansHighWorkload,
    KmeansLowWorkload,
    LabyrinthWorkload,
    Ssca2Workload,
    VacationHighWorkload,
    VacationLowWorkload,
    YadaWorkload,
)

WORKLOAD_FACTORIES = {
    "arrayswap": ArraySwapWorkload,
    "bitcoin": BitcoinWorkload,
    "bst": BstWorkload,
    "deque": DequeWorkload,
    "hashmap": HashmapWorkload,
    "mwobject": MwObjectWorkload,
    "queue": QueueWorkload,
    "stack": StackWorkload,
    "sorted-list": SortedListWorkload,
    "bayes": BayesWorkload,
    "genome": GenomeWorkload,
    "intruder": IntruderWorkload,
    "kmeans-h": KmeansHighWorkload,
    "kmeans-l": KmeansLowWorkload,
    "labyrinth": LabyrinthWorkload,
    "ssca2": Ssca2Workload,
    "vacation-h": VacationHighWorkload,
    "vacation-l": VacationLowWorkload,
    "yada": YadaWorkload,
}

DATASTRUCTURE_NAMES = (
    "arrayswap", "bitcoin", "bst", "deque", "hashmap",
    "mwobject", "queue", "stack", "sorted-list",
)

STAMP_NAMES = (
    "bayes", "genome", "intruder", "kmeans-h", "kmeans-l",
    "labyrinth", "ssca2", "vacation-h", "vacation-l", "yada",
)

ALL_NAMES = DATASTRUCTURE_NAMES + STAMP_NAMES

GEN_PREFIX = "gen:"

#: Human-readable description of every resolvable namespace, used by
#: the unknown-name error and the CLI help strings.
WORKLOAD_NAMESPACES = (
    "a built-in benchmark name",
    "gen:<spec|fingerprint|folder> (seeded generator)",
)


def _unknown(name):
    return UnknownWorkloadError(
        "unknown workload {!r}; expected {} — built-in names: {}".format(
            name, " or ".join(WORKLOAD_NAMESPACES),
            ", ".join(sorted(WORKLOAD_FACTORIES)),
        )
    )


def make_workload(name, **kwargs):
    """Instantiate a workload by name (any namespace)."""
    if isinstance(name, str) and name.startswith(GEN_PREFIX):
        from repro.workloads.gen import make_generated

        return make_generated(name[len(GEN_PREFIX):], **kwargs)
    try:
        factory = WORKLOAD_FACTORIES[name]
    except (KeyError, TypeError):
        raise _unknown(name) from None
    return factory(**kwargs)


def canonical_workload_name(name):
    """The self-contained spelling of ``name``.

    Built-in names pass through; ``gen:`` arguments (spec strings,
    fingerprints, kernel folders) become the canonical spec string. The
    result resolves in any process — this is what the experiment engine
    ships to workers. Raises
    :class:`~repro.common.errors.UnknownWorkloadError` when the name
    matches no namespace.
    """
    if isinstance(name, str) and name.startswith(GEN_PREFIX):
        from repro.workloads.gen import parse_gen_spec

        return GEN_PREFIX + parse_gen_spec(name[len(GEN_PREFIX):]).canonical()
    if name in WORKLOAD_FACTORIES:
        return name
    raise _unknown(name)


def workload_cache_token(name):
    """Extra cache-key material for a ``gen:`` workload, or ``None``.

    Built-in names are fully described by the name itself, so they
    contribute nothing (their cache keys stay byte-identical to every
    earlier release). A ``gen:`` name contributes the spec fingerprint,
    so a re-generated spec behind the same fingerprint prefix can never
    alias a cached result.
    """
    if isinstance(name, str) and name.startswith(GEN_PREFIX):
        from repro.workloads.gen import parse_gen_spec

        return parse_gen_spec(name[len(GEN_PREFIX):]).fingerprint()
    return None
