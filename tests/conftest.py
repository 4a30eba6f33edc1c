"""Shared fixtures for the test suite."""

import contextlib
import json
from unittest import mock

import pytest

from repro.htm.design import design_name
from repro.sim.config import SimConfig
from repro.sim.executor import CoreExecutor
from tests import reference_step

#: The config fingerprint tests pass when they store synthetic result
#: dicts; ``DiskCache.load`` given no fingerprint does not compare it.
FINGERPRINT = "f" * 64


@contextlib.contextmanager
def general_path():
    """Machines built inside the block run the reference body step.

    Test-only: every executor's BODY phase runs the general op path in
    ``tests/reference_step.py``, the reference the product's one body
    step is compared with.
    """
    with mock.patch.object(CoreExecutor, "_fused_body_step",
                           reference_step.install):
        yield


def takes_one_step(machine):
    """True when no executor of ``machine`` runs the reference step."""
    return not any(reference_step.is_reference(executor._body_step)
                   for executor in machine.executors)


def run_digest(machine):
    """Everything observable about one finished run, comparably encoded."""
    stats = machine.run()
    memory = machine.memory
    return {
        "stats": json.dumps(stats.to_dict(), sort_keys=True),
        "events": machine.event_count,
        "memory": sorted(memory.snapshot().items()),
        "memory_ops": (memory.load_count, memory.store_count),
    }


def both_paths(build):
    """``(one-step digest, reference digest)`` of the machine ``build()`` makes."""
    fast = run_digest(build())
    with general_path():
        general = run_digest(build())
    return fast, general


@pytest.fixture
def small_config():
    """A 4-core configuration sized for fast tests."""
    return SimConfig(num_cores=4, retry_threshold=4)


@pytest.fixture
def tiny_clear_config():
    """A 4-core CLEAR configuration."""
    return SimConfig(num_cores=4, retry_threshold=4, design="clear")


@pytest.fixture
def micro_config():
    """Factory: a design configuration scaled down for fast tests.

    ``micro_config("clear", cores=4, retry_threshold=2)`` — design name
    (legacy B/P/C/W letters still resolve) plus any :class:`SimConfig`
    field overrides. Defaults to the 2-core baseline, the smallest
    machine that still exercises contention.
    """

    def make(design="baseline", cores=2, **overrides):
        return SimConfig.for_design(
            design_name(design), num_cores=cores, **overrides
        )

    return make


@pytest.fixture
def micro_machine(micro_config):
    """Factory: a ready-to-run micro machine on a registry workload.

    ``micro_machine("hashmap", "clear", cores=4, seed=2)`` builds the
    scaled config via ``micro_config`` and a named workload via the
    registry (``ops_per_thread`` defaults to 3 — micro scale). A
    prebuilt workload object passes through unchanged. Extra keyword
    arguments split between :class:`SimConfig` field overrides and the
    machine seams (``trace`` / ``scheduler``).
    """
    from repro.sim.machine import Machine
    from repro.workloads import make_workload

    def make(workload="mwobject", design="baseline", *, cores=2, seed=1,
             ops_per_thread=3, trace=None, scheduler=None, **overrides):
        config = micro_config(design, cores=cores, **overrides)
        if isinstance(workload, str):
            workload = make_workload(workload, ops_per_thread=ops_per_thread)
        return Machine(config, workload, seed=seed, trace=trace,
                       scheduler=scheduler)

    return make


def config_for(design, cores=4, **overrides):
    return SimConfig.for_design(design_name(design), num_cores=cores, **overrides)
