"""All 19 evaluated benchmarks (paper §6), plus the ``gen:`` namespace.

Data-structure benchmarks: arrayswap, bitcoin, bst, deque, hashmap,
mwobject, queue, stack, sorted-list. STAMP suite (synthetic kernels
preserving AR structure, footprint and contention): bayes, genome,
intruder, kmeans-h, kmeans-l, labyrinth, ssca2, vacation-h, vacation-l,
yada.

Beyond the built-ins, :func:`make_workload` resolves ``gen:<spec>``
seeded generated workloads (:mod:`repro.workloads.gen`); see DESIGN.md
§16.
"""

from repro.workloads.base import Workload, RegionSpec, Mutability
from repro.workloads.registry import (
    WORKLOAD_FACTORIES,
    DATASTRUCTURE_NAMES,
    GEN_PREFIX,
    STAMP_NAMES,
    ALL_NAMES,
    WORKLOAD_NAMESPACES,
    canonical_workload_name,
    make_workload,
    workload_cache_token,
)

__all__ = [
    "Workload",
    "RegionSpec",
    "Mutability",
    "WORKLOAD_FACTORIES",
    "DATASTRUCTURE_NAMES",
    "STAMP_NAMES",
    "ALL_NAMES",
    "GEN_PREFIX",
    "WORKLOAD_NAMESPACES",
    "canonical_workload_name",
    "make_workload",
    "workload_cache_token",
]
