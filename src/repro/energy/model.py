"""A linear static + dynamic energy model standing in for McPAT.

The paper derives its energy results from two effects (§7): CLEAR runs
*faster* (less static energy) and executes *fewer instructions* because
it aborts less (less dynamic energy). Both effects are linear in
quantities the simulator already measures, so a linear event model
preserves the trends:

- static: per-core leakage power integrated over the makespan;
- dynamic: per-event energies for compute ops, cache/memory accesses at
  each level, transaction begins/commits/aborts, and cacheline lock
  operations. Work wasted in aborted attempts (including failed-mode
  discovery) is counted because it was executed.

Units are arbitrary ("nanojoule-ish"); every figure normalizes to the
baseline configuration, exactly as the paper's Fig. 10 does.
"""


class EnergyBreakdown:
    """Static/dynamic decomposition of one run's energy."""

    __slots__ = ("static", "dynamic")

    def __init__(self, static, dynamic):
        self.static = static
        self.dynamic = dynamic

    @property
    def total(self):
        """Static plus dynamic energy."""
        return self.static + self.dynamic

    def to_dict(self):
        """The decomposition as a JSON-serializable dict."""
        return {"static": self.static, "dynamic": self.dynamic}

    @classmethod
    def from_dict(cls, data):
        """Rebuild a breakdown from :meth:`to_dict` output."""
        return cls(static=data["static"], dynamic=data["dynamic"])

    def __repr__(self):
        return "EnergyBreakdown(static={:.1f}, dynamic={:.1f})".format(
            self.static, self.dynamic
        )


class EnergyModel:
    """Per-event energy coefficients (22nm-flavoured relative values)."""

    def __init__(
        self,
        static_power_per_core=0.02,
        compute_op=1.0,
        branch_op=1.0,
        access_l1=1.5,
        access_l2=6.0,
        access_l3=20.0,
        access_mem=60.0,
        access_c2c=26.0,
        access_upgrade=20.0,
        lock_op=2.0,
        tx_begin=12.0,
        tx_commit=10.0,
        tx_abort=25.0,
    ):
        self.static_power_per_core = static_power_per_core
        self.compute_op = compute_op
        self.branch_op = branch_op
        self.access_energy = {
            "L1": access_l1,
            "L2": access_l2,
            "L3": access_l3,
            "MEM": access_mem,
            "C2C": access_c2c,
            "UPG": access_upgrade,
            "LOCK": lock_op,
        }
        self.tx_begin = tx_begin
        self.tx_commit = tx_commit
        self.tx_abort = tx_abort

    def evaluate(self, stats):
        """Energy of a run from its :class:`MachineStats`."""
        static = (
            self.static_power_per_core * stats.num_cores * stats.makespan_cycles
        )
        dynamic = 0.0
        for level, count in stats.accesses_by_level.items():
            dynamic += self.access_energy.get(level, self.access_energy["L1"]) * count
        dynamic += self.compute_op * stats.compute_ops
        dynamic += self.branch_op * stats.branch_ops
        dynamic += self.tx_begin * stats.tx_begins
        dynamic += self.tx_commit * stats.total_commits
        dynamic += self.tx_abort * stats.total_aborts
        return EnergyBreakdown(static=static, dynamic=dynamic)
