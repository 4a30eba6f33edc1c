"""Engine-level chaos: faults in the *substrate*, not the simulated machine.

:mod:`repro.sim.faults` injects faults into the simulated HTM (spurious
aborts, latency jitter); this module injects faults into the experiment
engine itself — the layer PR 2's fault tolerance had never been tested
against. Three seeded fault families, all deterministic:

- **Worker SIGKILLs** — :func:`kill_once_execute` wraps the normal cell
  executor and, for cells selected by the plan, kills its own worker
  process with ``SIGKILL`` (the untrappable kind). A marker file makes
  each kill exactly-once per cell per job, so the engine's
  crash-recovery path is exercised but every chaos run still converges.
- **Cache and job-folder entry corruption** — :class:`FaultyIO`
  subclasses the :class:`~repro.common.diskio.DiskIO` seam: atomic
  writes may land garbage payloads.
- **ENOSPC** — writes may raise ``OSError(ENOSPC)``, driving the
  store's degrade-to-off path.

Every decision hashes ``(seed, fault kind, target, occurrence)`` so two
runs under the same :class:`EngineFaultPlan` inject identical faults —
chaos runs are replayable, and CI can assert that two seeded runs
converge to byte-identical reports.
"""

import dataclasses
import errno
import hashlib
import os
import signal

from repro.common.diskio import DiskIO


def _roll(seed, kind, label, occurrence):
    """Deterministic uniform draw in [0, 1) for one fault decision."""
    payload = "{}:{}:{}:{}".format(seed, kind, label, occurrence)
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclasses.dataclass(frozen=True)
class EngineFaultPlan:
    """Seeded rates for each engine-fault family.

    Rates are independent probabilities per opportunity: per cell for
    ``worker_kill_rate``, per write for the IO families. The
    frozen dataclass is hashable and picklable, so a plan can cross
    process boundaries and key test parametrizations.
    """

    seed: int = 0
    worker_kill_rate: float = 0.0
    corrupt_rate: float = 0.0
    enospc_rate: float = 0.0

    def __post_init__(self):
        for field in ("worker_kill_rate", "corrupt_rate", "enospc_rate"):
            rate = getattr(self, field)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    "{} must be in [0, 1], not {}".format(field, rate)
                )

    def roll(self, kind, label, occurrence=0):
        """The seeded draw for one (fault kind, target) opportunity."""
        return _roll(self.seed, kind, label, occurrence)


class FaultyIO(DiskIO):
    """A :class:`DiskIO` that injects the plan's IO faults.

    Decisions key on the target's basename and a per-path operation
    counter, so every *retry* of an operation gets a fresh draw — a
    fault plan with rates below 1 therefore always converges: a
    corrupted entry is quarantined, its cell re-executed and the entry
    rewritten. ``injected`` counts what actually fired, per fault kind.
    """

    def __init__(self, plan):
        self.plan = plan
        self.injected = {"corrupt": 0, "enospc": 0}
        self._op_counts = {}  # basename -> writes so far

    def write_atomic(self, path, data):
        name = os.path.basename(path)
        occurrence = self._op_counts.get(name, 0)
        self._op_counts[name] = occurrence + 1
        if self.plan.roll("enospc", name, occurrence) < self.plan.enospc_rate:
            self.injected["enospc"] += 1
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
        if self.plan.roll("corrupt", name, occurrence) < self.plan.corrupt_rate:
            self.injected["corrupt"] += 1
            data = b"\x00CHAOS" + data[: max(0, len(data) // 2)]
        super().write_atomic(path, data)


def should_kill(spec_key, *, rate, seed, marker_dir):
    """Decide-and-claim one exactly-once kill for a cell.

    Returns True when the plan selects this cell *and* this call won the
    marker (``O_CREAT|O_EXCL``) — so across every retry and every worker
    process, each selected cell dies exactly once per ``marker_dir``.
    """
    if rate <= 0.0 or _roll(seed, "kill", spec_key, 0) >= rate:
        return False
    os.makedirs(marker_dir, exist_ok=True)
    marker = os.path.join(marker_dir, spec_key)
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False  # this cell already took its kill
    os.close(fd)
    return True


def kill_once_execute(spec, rate, seed, marker_dir):
    """``execute_spec`` that may SIGKILL its own worker first.

    Module-level (used via ``functools.partial``) so the process pool
    can pickle it. The marker file is claimed *before* the kill, so the
    retried cell runs clean — the engine's BrokenProcessPool recovery
    is what gets tested, not an infinite crash loop.
    """
    from repro.sim.engine import execute_spec

    if should_kill(spec.cache_key(), rate=rate, seed=seed,
                   marker_dir=marker_dir):
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_spec(spec)


__all__ = [
    "EngineFaultPlan",
    "FaultyIO",
    "kill_once_execute",
    "should_kill",
]
