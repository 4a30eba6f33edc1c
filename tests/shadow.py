"""Shadow replay: the reference serializability checker for the tests.

The simulator checks commit-order serializability with the online
monitor (:mod:`repro.sim.monitor`), which reasons about commit epochs
instead of values. This fixture reaches the same verdict the slow,
obviously correct way, so a test can compare both verdicts on one run:
every committed AR is replayed, in commit order, against a shadow
memory seeded from the post-setup state (pokes issued outside any AR
are mirrored in as they happen), and at the end of the run the shadow
and the architectural memory must agree word for word. Fallback
regions that ended at an explicit XAbort replay with
``stop_on_abort=True``, mirroring the executor.

It attaches to a machine built with ``oracle="online"`` through three
attributes that machine already has:

- ``monitor.record_commit``, wrapped to replay each committed AR;
- ``memory.poke_mirror``, wrapped to mirror pokes into the shadow;
- ``monitor._violation``, replaced to collect the monitor's verdicts
  instead of raising, so both checkers see the whole run.

Attach right after building the machine and before planting anything
that tampers with memory: the shadow seeds from memory as it is then.
"""

from repro.common.errors import OracleViolation
from repro.memory.shared import SharedMemory
from repro.sim.monitor import MAX_DIFF_REPORT
from repro.sim.replay import replay_body


class ShadowReplay:
    """Commit-order replay of one monitored machine run."""

    def __init__(self, machine):
        monitor = machine.monitor
        if monitor is None:
            raise ValueError("ShadowReplay needs a machine with "
                             "oracle='online'")
        self.machine = machine
        self.shadow = SharedMemory()
        for word_addr, value in machine.memory.snapshot().items():
            self.shadow.poke(word_addr, value)
        #: Committed ARs replayed so far.
        self.commits = 0
        #: The monitor's verdicts, in the order it reached them.
        self.monitor_violations = []

        monitor_commit = monitor.record_commit
        monitor_mirror = machine.memory.poke_mirror
        shadow_poke = self.shadow.poke

        def record_commit(core, invocation, mode, rwsets, counting_retries,
                          via_abort=False):
            self.commits += 1
            replay_body(invocation.body_factory, self.shadow,
                        commit=True, stop_on_abort=True)
            monitor_commit(core, invocation, mode, rwsets, counting_retries,
                           via_abort=via_abort)

        def mirror(word_addr, value):
            shadow_poke(word_addr, value)
            monitor_mirror(word_addr, value)

        def collect(message, details):
            self.monitor_violations.append(
                OracleViolation(message, details=details)
            )

        monitor.record_commit = record_commit
        machine.memory.poke_mirror = mirror
        monitor._violation = collect

    def run(self):
        """Run the machine; returns the ``(online, shadow)`` verdicts.

        Each verdict is the checker's first :class:`OracleViolation`,
        or None when it passed the run. The monitor's leak and
        retry-bound checks raise directly, so a run they stop counts as
        an online verdict.
        """
        online = None
        try:
            self.machine.run()
        except OracleViolation as exc:
            online = exc
        if self.monitor_violations:
            online = self.monitor_violations[0]
        return online, self.verdict()

    def verdict(self):
        """The replay's verdict: the shadow-vs-memory diff, or None."""
        memory_words = self.machine.memory.snapshot()
        shadow_words = self.shadow.snapshot()
        diffs = []
        for word_addr in sorted(set(memory_words) | set(shadow_words)):
            actual = memory_words.get(word_addr, 0)
            replayed = shadow_words.get(word_addr, 0)
            if actual != replayed:
                diffs.append(
                    {"addr": word_addr, "actual": actual, "replayed": replayed}
                )
                if len(diffs) > MAX_DIFF_REPORT:
                    break
        if not diffs:
            return None
        return OracleViolation(
            "commit-order replay diverges from architectural memory at "
            "{}{} address(es)".format(
                len(diffs), "+" if len(diffs) > MAX_DIFF_REPORT else ""
            ),
            details={"diffs": diffs[:MAX_DIFF_REPORT]},
        )


def run_with_shadow(machine, plant=None):
    """Attach a :class:`ShadowReplay`, apply ``plant``, run; see ``run``."""
    replay = ShadowReplay(machine)
    if plant is not None:
        plant(machine)
    return replay.run()
