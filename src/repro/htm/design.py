"""Pluggable HTM designs: the protocol-backend seam of the simulator.

The paper evaluates four configurations (B/P/C/W) that the reproduction
originally hard-coded as two booleans threaded through the executor,
arbiter, and fallback layers. This module turns that choice into a
first-class backend API:

- :class:`HtmDesign` — the protocol every design implements. One
  instance is created per :class:`~repro.sim.machine.Machine` and
  shared by its executors; hooks cover attempt construction (read/write
  set tracking, CLEAR controller, fallback lock), conflict-resolution
  policy, retry/fallback threshold decisions, capacity-abort
  classification, commit cost, and per-design stat/energy annotations.
  Every hook takes keyword-only arguments so designs can override a
  subset without positional drift.
- :data:`DESIGN_REGISTRY` — string-keyed registry of design classes;
  :class:`~repro.sim.config.SimConfig` validates its ``design`` field
  against it and :func:`register_design` adds new entries.

The four paper configurations are registered as ``baseline``,
``powertm``, ``clear``, and ``clear+powertm``; their hooks reproduce
the pre-seam behaviour exactly (the micro-matrix figure goldens are
byte-identical through the dispatch). On top of the seam live two
designs from the related-work survey:

- ``lrw`` — FORTH-style Limited Read/Write-set HTM (arXiv 2510.15888):
  speculative footprints are bounded by small flat line budgets on top
  of the cache-geometry limits, and an overflow routes the region
  straight to the serial fallback instead of burning retries that
  cannot possibly fit.
- ``bigatomics`` — Big-Atomics-style constant-time multiword commit
  (arXiv 2501.07503): atomic regions whose footprint fits a small
  multiword budget commit with a short fixed latency; larger regions
  fall through to CLEAR-style failed-mode discovery unchanged.
"""

from repro.core.controller import ClearController
from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason
from repro.htm.fallback import FallbackLock
from repro.htm.rwset import LimitedReadWriteSets, ReadWriteSets

#: name -> HtmDesign subclass for every registered design.
DESIGN_REGISTRY = {}

#: The paper's single-letter names for the four legacy designs.
LEGACY_LETTER_DESIGNS = {
    "B": "baseline",
    "P": "powertm",
    "C": "clear",
    "W": "clear+powertm",
}


def register_design(cls):
    """Class decorator adding a design to :data:`DESIGN_REGISTRY`."""
    if not cls.name:
        raise ValueError("a design needs a non-empty name")
    DESIGN_REGISTRY[cls.name] = cls
    return cls


class HtmDesign:
    """Base protocol (and requester-wins default behaviour).

    Subclass, set the class attributes, override the hooks that differ,
    and decorate with :func:`register_design`. All hook arguments are
    keyword-only. A design instance is per-machine and may keep run
    state (see :class:`BigAtomicsDesign`); it must not assume anything
    survives across machines.
    """

    #: Registry key; also the canonical ``SimConfig.design`` value.
    name = ""
    #: The paper's single-letter name, or None for post-paper designs.
    letter = None
    #: Conflict-resolution baseline: power-token priority when True.
    powertm = False
    #: Whether the CLEAR mechanism (discovery, NS-CL/S-CL) is active.
    clear = False
    #: Abort reasons this design legitimately routes straight to the
    #: fallback path before the retry budget is spent; the retry-bound
    #: oracle exempts such commits from its threshold-undershoot check.
    early_fallback_reasons = frozenset()

    def __init__(self, config):
        self.config = config

    # -- machine construction ------------------------------------------------

    def build_fallback_lock(self, *, line):
        """The global fallback lock guarding serial execution."""
        return FallbackLock(line)

    def make_controller(self, *, core, machine):
        """Per-core CLEAR controller, or None outside the clear family."""
        if not self.clear:
            return None
        config = self.config
        return ClearController(
            core,
            dir_set_of=machine.memsys.directory.set_of,
            can_coreside=machine.memsys.l1[core].can_coreside,
            ert_entries=config.ert_entries,
            crt_entries=config.crt_entries,
            crt_assoc=config.crt_assoc,
            alt_entries=config.alt_entries,
            sq_capacity=config.sq_entries,
            lq_capacity=config.lq_entries,
            scl_lock_policy=config.scl_lock_policy,
            crt_enabled=config.crt_enabled,
        )

    # -- attempt construction ------------------------------------------------

    def build_rwsets(self, *, executor):
        """Speculative access tracking for one conflict-detecting attempt.

        The default models TSX-like tracking in the private caches: the
        write set against L1 geometry, the union against L2, with every
        tracked line registered in the machine-global sharer index (and
        in the online monitor's first-read epoch summary when armed).
        """
        config = executor.config
        monitor = executor.monitor
        return ReadWriteSets(
            l1_sets=config.l1_size // (64 * config.l1_assoc),
            l1_assoc=config.l1_assoc,
            l2_sets=config.l2_size // (64 * config.l2_assoc),
            l2_assoc=config.l2_assoc,
            index=executor.machine.sharer_index,
            core=executor.core,
            monitor_epochs=monitor.line_epochs if monitor is not None else None,
        )

    # -- policy hooks --------------------------------------------------------

    def wants_power_token(self, *, counting_retries):
        """Whether a speculative attempt should request the power token."""
        return False

    def select_retry_mode(self, *, executor, reason, proposed):
        """The next attempt's mode after an abort.

        ``proposed`` is what the per-mode decision logic (CLEAR's
        decision tree, or plain speculative retry) suggested; the design
        gets the final word. The default applies the paper's counting-
        retry budget: the fallback path once ``retry_threshold`` aborts
        counted.
        """
        if executor.counting_retries >= executor.config.retry_threshold:
            return ExecMode.FALLBACK
        return proposed

    def classify_capacity_abort(self, *, executor, exc):
        """Abort reason for a read/write-set overflow (``exc``)."""
        return AbortReason.CAPACITY

    def conflict_nacker(self, *, power_core, requester_unstoppable):
        """Which conflicting peer NACKs the requester, or None.

        Called only when the power-token holder is among the conflicting
        peers. The default is PowerTM's rule: the power transaction
        never loses, except to an NS-CL lock acquisition (whose
        completion guarantee makes it unstoppable, §5.2).
        """
        if requester_unstoppable:
            return None
        return power_core

    def commit_cycles(self, *, executor):
        """Cycle cost of committing the attempt ``executor`` is ending."""
        return executor.config.tx_commit_cycles

    # -- reporting -----------------------------------------------------------

    def stat_annotations(self, *, machine):
        """Design-specific counters to attach to the run's MachineStats.

        Returned mappings land in ``stats.design_annotations`` (and the
        serialized result) only when non-empty, so designs without
        annotations keep legacy results byte-identical.
        """
        return {}


@register_design
class BaselineDesign(HtmDesign):
    """B: TSX-like requester-wins HTM with the retry/fallback budget."""

    name = "baseline"
    letter = "B"


@register_design
class PowerTmDesign(HtmDesign):
    """P: PowerTM — the first retry acquires the single power token."""

    name = "powertm"
    letter = "P"
    powertm = True

    def wants_power_token(self, *, counting_retries):
        return counting_retries > 0


@register_design
class ClearDesign(HtmDesign):
    """C: CLEAR over requester-wins (discovery, NS-CL/S-CL retries)."""

    name = "clear"
    letter = "C"
    clear = True


@register_design
class ClearPowerTmDesign(ClearDesign):
    """W: CLEAR layered over PowerTM."""

    name = "clear+powertm"
    letter = "W"
    powertm = True

    def wants_power_token(self, *, counting_retries):
        return counting_retries > 0


@register_design
class LrwDesign(HtmDesign):
    """Limited Read/Write-set HTM (arXiv 2510.15888).

    Speculative tracking is bounded by small flat budgets
    (``lrw_read_lines``/``lrw_write_lines``) on top of the cache
    geometry — modelling dedicated bounded tracking structures instead
    of whole private caches. A region that overflows its budget can
    never succeed speculatively, so a capacity abort skips the
    remaining retry budget and serializes under the fallback lock at
    once (graceful overflow-to-fallback).
    """

    name = "lrw"
    early_fallback_reasons = frozenset({AbortReason.CAPACITY})

    def build_rwsets(self, *, executor):
        config = executor.config
        monitor = executor.monitor
        return LimitedReadWriteSets(
            max_read_lines=config.lrw_read_lines,
            max_write_lines=config.lrw_write_lines,
            l1_sets=config.l1_size // (64 * config.l1_assoc),
            l1_assoc=config.l1_assoc,
            l2_sets=config.l2_size // (64 * config.l2_assoc),
            l2_assoc=config.l2_assoc,
            index=executor.machine.sharer_index,
            core=executor.core,
            monitor_epochs=monitor.line_epochs if monitor is not None else None,
        )

    def select_retry_mode(self, *, executor, reason, proposed):
        if reason is AbortReason.CAPACITY:
            return ExecMode.FALLBACK
        if executor.counting_retries >= executor.config.retry_threshold:
            return ExecMode.FALLBACK
        return proposed


@register_design
class BigAtomicsDesign(ClearDesign):
    """Big-Atomics-style constant-time multiword commit (arXiv 2501.07503).

    Small-footprint atomic regions — at most ``bigatomics_lines``
    distinct lines — commit with a short fixed latency
    (``bigatomics_commit_cycles``), modelling a multiword-atomic commit
    that publishes the whole write set in constant time. Regions above
    the budget behave exactly like the ``clear`` design: failed-mode
    discovery, NS-CL/S-CL retries, fallback. Multiword commits are
    counted per run and discounted by the energy model.
    """

    name = "bigatomics"
    letter = None  # post-paper design; ClearDesign's "C" must not leak

    def __init__(self, config):
        super().__init__(config)
        self.multiword_commits = 0

    def commit_cycles(self, *, executor):
        rwsets = executor.rwsets
        if (
            executor.mode is ExecMode.SPECULATIVE
            and rwsets is not None
            and len(rwsets.touched_lines()) <= executor.config.bigatomics_lines
        ):
            self.multiword_commits += 1
            return executor.config.bigatomics_commit_cycles
        return executor.config.tx_commit_cycles

    def stat_annotations(self, *, machine):
        if not self.multiword_commits:
            return {}
        return {"multiword_commits": self.multiword_commits}


def design_name(spec):
    """Canonical design name for a name or a paper figure letter.

    For internal call sites that key results by the paper's B/P/C/W
    labels; user-facing surfaces (``SimConfig``, ``repro.api``) take
    design names only.
    """
    return LEGACY_LETTER_DESIGNS.get(spec, spec)


__all__ = [
    "HtmDesign",
    "DESIGN_REGISTRY",
    "LEGACY_LETTER_DESIGNS",
    "register_design",
    "design_name",
    "BaselineDesign",
    "PowerTmDesign",
    "ClearDesign",
    "ClearPowerTmDesign",
    "LrwDesign",
    "BigAtomicsDesign",
]
