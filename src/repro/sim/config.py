"""Machine configuration (paper Table 2) and policy selection.

The HTM design is selected by the canonical ``design`` field, keyed
into :data:`~repro.htm.design.DESIGN_REGISTRY`. The paper's four
configurations map onto the legacy letters:

========== ===================
Paper name ``design``
========== ===================
B           ``baseline``
P           ``powertm``
C           ``clear``
W           ``clear+powertm``
========== ===================

:class:`SimConfig` is a frozen dataclass: every field is declared
exactly once, and ``replaced()``/``to_dict()``/``from_dict()``/
``fingerprint()`` are all derived from :func:`dataclasses.fields`, so
adding a knob is a one-line change that automatically flows into
copying, serialization, and the experiment cache key.
"""

import dataclasses
import hashlib
import json

from repro.common.errors import ConfigurationError
from repro.common.serialize import Serializable
from repro.htm.design import (
    DESIGN_REGISTRY,
    LEGACY_LETTER_DESIGNS,
    design_name,
)

#: Checker modes for ``SimConfig.oracle``:
#:
#: - ``"online"`` (the default): the
#:   :class:`~repro.sim.monitor.OnlineMonitor` — serializability by
#:   incremental epoch tracking and the single-retry bound, checked at
#:   each abort and commit, cheap enough to leave on in every run.
#: - ``"off"``: no checking.
ORACLE_MODES = ("off", "online")


@dataclasses.dataclass(frozen=True)
class SimConfig(Serializable):
    """All machine and policy parameters of a simulation.

    Defaults reproduce Table 2: 32 Icelake-like cores, 48 KiB/12-way L1D,
    512 KiB/8-way L2, 4 MiB/16-way L3, latencies 1/10/45/80 cycles,
    ROB 352, LQ 128, SQ 72 entries; TSX-like HTM with a best-of-1..10
    retry threshold before the fallback lock.
    """

    num_cores: int = 32
    # -- caches and memory (Table 2) --
    l1_size: int = 48 * 1024
    l1_assoc: int = 12
    l2_size: int = 512 * 1024
    l2_assoc: int = 8
    l3_size: int = 4 * 1024 * 1024
    l3_assoc: int = 16
    l1_latency: int = 1
    l2_latency: int = 10
    l3_latency: int = 45
    mem_latency: int = 80
    directory_sets: int = 4096
    # -- core speculative window (Table 2) --
    rob_entries: int = 352
    lq_entries: int = 128
    sq_entries: int = 72
    # -- speculation substrate --
    # "htm": TSX-like out-of-core speculation (§4.2/§4.4); the SQ is
    #        the only in-core limit on failed-mode discovery.
    # "sle": in-core speculation (§4.1/§4.3); every speculative
    #        attempt is bounded by the ROB/LQ/SQ window.
    speculation: str = "htm"
    # -- HTM policy --
    retry_threshold: int = 5
    backoff_base: int = 8
    backoff_max_exponent: int = 6
    # -- HTM design (repro.htm.design) --
    # Canonical registry key selecting the protocol backend.
    design: str = "baseline"
    # -- CLEAR --
    ert_entries: int = 16
    alt_entries: int = 32
    crt_entries: int = 64
    crt_assoc: int = 8
    # Ablation knobs (paper defaults first):
    # §4.4.2 discusses locking only the write set plus previously
    # conflicting reads ("writes", the paper's choice) versus all
    # accessed addresses ("all") in S-CL.
    scl_lock_policy: str = "writes"
    # §4.1: on a conflict, keep discovering in failed mode instead
    # of aborting immediately.
    failed_mode_discovery: bool = True
    # §5: the Conflicting Reads Table feeding S-CL lock promotion.
    crt_enabled: bool = True
    # -- LRW (design "lrw"): flat per-attempt tracking budgets --
    # Distinct lines the bounded read/write tracking structures hold
    # before the attempt overflows straight to the fallback path.
    lrw_read_lines: int = 64
    lrw_write_lines: int = 16
    # -- Big Atomics (design "bigatomics") --
    # Footprints of at most this many lines commit multiword-atomically
    # in a short constant time instead of the full commit sequence.
    bigatomics_lines: int = 8
    bigatomics_commit_cycles: int = 6
    # -- transaction overheads (cycles) --
    tx_begin_cycles: int = 30
    tx_commit_cycles: int = 25
    tx_abort_cycles: int = 50
    lock_release_cycles: int = 4
    # -- run control --
    max_cycles: int = 60_000_000
    # -- robustness: fault injection (repro.sim.faults) --
    # All default to "off"; with every rate/amplitude at zero the
    # machine builds no FaultPlan and every hook is a skipped None
    # check, so default runs are bit-identical to a chaos-free build.
    # Per-attempt probability of an injected spurious abort on a
    # speculative attempt (TSX-class interrupt/microarchitectural
    # aborts our conflict model never produces on its own).
    fault_spurious_rate: float = 0.0
    # Per-attempt probability of an injected capacity-style abort.
    fault_capacity_rate: float = 0.0
    # Max extra cycles of coherence-latency jitter per memory access.
    fault_jitter_cycles: int = 0
    # Max extra cycles a parked core's lock-release wakeup is delayed.
    fault_wakeup_delay_cycles: int = 0
    # -- robustness: online checker (repro.sim.monitor) --
    # Checker mode, one of ORACLE_MODES: "online" (serializability and
    # the single-retry bound) or "off". Zero simulated-time cost either
    # way.
    oracle: str = "online"
    # Livelock watchdog: trip when no AR commits within this many
    # cycles while cores are still runnable (0 disables).
    watchdog_cycles: int = 0

    def __post_init__(self):
        if self.num_cores <= 0:
            raise ConfigurationError("need at least one core")
        if self.retry_threshold < 1:
            raise ConfigurationError("retry threshold must be >= 1")
        if self.alt_entries < 1 or self.ert_entries < 1:
            raise ConfigurationError("CLEAR tables need at least one entry")
        if self.design not in DESIGN_REGISTRY:
            raise ConfigurationError(
                "unknown design {!r}; registered designs: {}".format(
                    self.design, ", ".join(sorted(DESIGN_REGISTRY))
                )
            )
        for knob in ("lrw_read_lines", "lrw_write_lines",
                     "bigatomics_lines", "bigatomics_commit_cycles"):
            if getattr(self, knob) < 1:
                raise ConfigurationError("{} must be >= 1".format(knob))
        if self.speculation not in ("htm", "sle"):
            raise ConfigurationError(
                "speculation must be 'htm' or 'sle', not {!r}".format(
                    self.speculation
                )
            )
        if self.scl_lock_policy not in ("writes", "all"):
            raise ConfigurationError(
                "scl_lock_policy must be 'writes' or 'all', not {!r}".format(
                    self.scl_lock_policy
                )
            )
        for rate_name in ("fault_spurious_rate", "fault_capacity_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    "{} must be in [0, 1], not {!r}".format(rate_name, rate)
                )
        if self.fault_spurious_rate + self.fault_capacity_rate > 1.0:
            raise ConfigurationError(
                "fault_spurious_rate + fault_capacity_rate must not exceed 1"
            )
        for cycles_name in ("fault_jitter_cycles", "fault_wakeup_delay_cycles",
                            "watchdog_cycles"):
            if getattr(self, cycles_name) < 0:
                raise ConfigurationError(
                    "{} must be non-negative".format(cycles_name)
                )
        if self.oracle not in ORACLE_MODES:
            raise ConfigurationError(
                "oracle must be one of {}, not {!r}".format(
                    ", ".join(repr(mode) for mode in ORACLE_MODES),
                    self.oracle,
                )
            )

    @property
    def online_monitor(self):
        """True when the online monitor runs (``oracle="online"``)."""
        return self.oracle == "online"

    @property
    def chaos_enabled(self):
        """True when any fault-injection knob is active."""
        return (
            self.fault_spurious_rate > 0.0
            or self.fault_capacity_rate > 0.0
            or self.fault_jitter_cycles > 0
            or self.fault_wakeup_delay_cycles > 0
        )

    @property
    def design_class(self):
        """The registered :class:`~repro.htm.design.HtmDesign` subclass."""
        return DESIGN_REGISTRY[self.design]

    @property
    def config_letter(self):
        """The paper's letter (B/P/C/W), or the design name otherwise."""
        return self.design_class.letter or self.design

    def replaced(self, **overrides):
        """A copy of this configuration with some fields replaced."""
        return dataclasses.replace(self, **overrides)

    def to_dict(self):
        """All fields as a JSON-serializable dict (field-name keyed)."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a configuration from :meth:`to_dict` output.

        Unknown keys raise :class:`ConfigurationError` rather than being
        silently dropped, so stale cache entries or hand-edited configs
        fail loudly.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                "unknown SimConfig fields: {}".format(sorted(unknown))
            )
        return cls(**data)

    def fingerprint(self):
        """SHA-256 hex digest of the full configuration.

        Canonical (sorted-key, compact) JSON over every declared field;
        two configs share a fingerprint iff all fields are equal. Used
        as the configuration component of the experiment cache key.
        Hashed once per instance: the digest is memoized outside the
        dataclass fields, so ``to_dict()``, ``==``, ``hash`` and
        ``replaced()`` never see it.
        """
        digest = self.__dict__.get("_fingerprint")
        if digest is None:
            canonical = json.dumps(self.to_dict(), sort_keys=True,
                                   separators=(",", ":"))
            digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint", digest)
        return digest

    @classmethod
    def for_design(cls, name, **overrides):
        """Build a configuration for a registered design by name.

        ``name`` must be a :data:`~repro.htm.design.DESIGN_REGISTRY`
        key.
        """
        return cls(design=name, **overrides)


__all__ = [
    "ORACLE_MODES",
    "SimConfig",
    "DESIGN_REGISTRY",
    "LEGACY_LETTER_DESIGNS",
    "design_name",
]
