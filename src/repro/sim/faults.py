"""Deterministic, seeded fault injection — the chaos layer.

Real TSX-class HTM suffers aborts our conflict model never produces on
its own: interrupts and microarchitectural events cause *spurious*
aborts, and cache-geometry effects cause *capacity* aborts that the
read/write-set model cannot predict. Real interconnects also jitter,
and real wakeups from lock releases are not instantaneous. This module
injects all four fault classes so the paper's robustness claims — the
NS-CL completion guarantee, the S-CL NACK/retry deadlock avoidance, and
the bounded-retry decision tree — can be stressed adversarially while
the online serializability monitor (:mod:`repro.sim.monitor`) watches.

Every draw flows through dedicated child streams of the run's
:class:`~repro.common.rng.DeterministicRng`, so:

- the same ``(config, seed)`` pair reproduces the *identical*
  injected-fault sequence (recorded in :attr:`FaultPlan.log`), and
- enabling faults never perturbs any other RNG stream — with every
  knob at zero no :class:`FaultPlan` is built at all and the executor
  hooks reduce to a skipped ``None`` check, keeping default runs
  bit-identical to a chaos-free build.

Injected aborts are reported under their own
:class:`~repro.htm.abort.AbortReason` values (``INJECTED_SPURIOUS`` /
``INJECTED_CAPACITY``, Fig. 11 category ``Injected``) so chaos runs
stay analyzable with the standard figure machinery.
"""

from repro.htm.abort import AbortReason

#: Injected aborts strike within the first this-many body operations of
#: the doomed attempt (uniformly drawn), so short and long atomic
#: regions both get hit at comparable per-attempt rates.
INJECT_WINDOW_OPS = 16


class FaultPlan:
    """Per-run injected-fault schedule, derived from the run seed.

    Built by :meth:`from_config`, which returns ``None`` when every
    fault knob is zero — the machine and executor hooks test that
    ``machine.faults is not None`` and otherwise do no work at all.
    """

    def __init__(self, config, rng, num_cores):
        self.spurious_rate = config.fault_spurious_rate
        self.capacity_rate = config.fault_capacity_rate
        self.jitter_cycles = config.fault_jitter_cycles
        self.wakeup_delay_cycles = config.fault_wakeup_delay_cycles
        fault_rng = rng.child("faults")
        self._attempt_rngs = [
            fault_rng.child(("attempt", core)) for core in range(num_cores)
        ]
        self._jitter_rngs = [
            fault_rng.child(("jitter", core)) for core in range(num_cores)
        ]
        self._wakeup_rng = fault_rng.child("wakeup")
        #: Chronological record of injected aborts that actually fired:
        #: ``(reason_value, core, attempt_index)`` tuples. Two runs of
        #: the same (config, seed) produce identical logs.
        self.log = []
        # Timing perturbations are far too frequent to log one by one;
        # aggregate counters still pin down the sequence (they are a
        # deterministic function of the per-core draw streams).
        self.jitter_events = 0
        self.jitter_cycles_total = 0
        self.wakeup_delays = 0
        self.wakeup_cycles_total = 0

    @classmethod
    def from_config(cls, config, rng, num_cores):
        """A plan for this run, or ``None`` when chaos is disabled."""
        if not config.chaos_enabled:
            return None
        return cls(config, rng, num_cores)

    # -- abort injection ----------------------------------------------------

    def plan_attempt(self, core):
        """Schedule an injected abort for one speculative attempt.

        Returns ``(reason, op_index)`` — abort the attempt with
        ``reason`` once it has executed ``op_index`` body operations —
        or ``None`` when this attempt is spared. Consumes exactly one
        or two draws from the core's attempt stream, so the schedule
        depends only on the per-core attempt sequence, not on
        cross-core interleaving.
        """
        roll = self._attempt_rngs[core].random()
        if roll < self.spurious_rate:
            reason = AbortReason.INJECTED_SPURIOUS
        elif roll < self.spurious_rate + self.capacity_rate:
            reason = AbortReason.INJECTED_CAPACITY
        else:
            return None
        op_index = self._attempt_rngs[core].randint(1, INJECT_WINDOW_OPS)
        return (reason, op_index)

    def note_injected(self, core, reason, attempt_index):
        """Record that a planned abort actually fired."""
        self.log.append((reason.value, core, attempt_index))

    # -- timing perturbations -----------------------------------------------

    def jitter(self, core):
        """Extra coherence-latency cycles for one memory access."""
        if self.jitter_cycles <= 0:
            return 0
        extra = self._jitter_rngs[core].randint(0, self.jitter_cycles)
        if extra:
            self.jitter_events += 1
            self.jitter_cycles_total += extra
        return extra

    def wakeup_delay(self, core):
        """Extra cycles delaying one parked core's release wakeup."""
        if self.wakeup_delay_cycles <= 0:
            return 0
        extra = self._wakeup_rng.randint(0, self.wakeup_delay_cycles)
        if extra:
            self.wakeup_delays += 1
            self.wakeup_cycles_total += extra
        return extra

    # -- reporting ----------------------------------------------------------

    def injected_abort_count(self):
        """Number of injected aborts that actually fired."""
        return len(self.log)

    def summary(self):
        """JSON-serializable digest of everything this plan injected."""
        return {
            "injected_aborts": list(self.log),
            "jitter_events": self.jitter_events,
            "jitter_cycles_total": self.jitter_cycles_total,
            "wakeup_delays": self.wakeup_delays,
            "wakeup_cycles_total": self.wakeup_cycles_total,
        }
