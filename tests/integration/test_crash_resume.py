"""Crash/resume integration: journaled sweeps survive SIGKILL.

The durability proof the job folder exists for, at three scopes:

- in-process: a resumed engine serves every stored cell from the job
  folder without re-execution (a bomb executor catches any cheating),
  whatever its own cache setting, remembers quarantines, and
  re-executes only the cell whose entry was cut short;
- subprocess (slow): a real ``run_experiments.py`` sweep is SIGKILL'd
  mid-flight and resumed with ``--resume`` — the figure JSON must be
  byte-identical to an uninterrupted run's, with exactly-once cell
  execution;
- chaos (slow): seeded worker kills and entry corruption from
  :mod:`repro.sim.enginefaults` — two runs under the same plan
  converge to identical reports.
"""

import functools
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.common.retry import RetryPolicy
from repro.sim.config import SimConfig
from repro.sim.engine import (
    SCHEMA_VERSION,
    ExperimentEngine,
    RunSpec,
    execute_spec,
)
from repro.sim.enginefaults import EngineFaultPlan, FaultyIO, kill_once_execute
from repro.sim.journal import SweepJournal

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRIPTS = REPO_ROOT / "scripts"


def tiny_specs(n=3):
    return [
        RunSpec(
            workload="mwobject",
            config=SimConfig.for_design("baseline", num_cores=2),
            seed=seed,
            ops_per_thread=3,
        )
        for seed in range(1, n + 1)
    ]


def engine(**overrides):
    fields = dict(jobs=1, cache_dir=None)
    fields.update(overrides)
    return ExperimentEngine(**fields)


def _bomb_execute(spec):
    raise AssertionError(
        "cell {} seed={} executed during a replay-only resume".format(
            spec.workload, spec.seed
        )
    )


def _flaky_execute(spec):
    if spec.seed == 2:
        raise ValueError("injected deterministic failure")
    return execute_spec(spec)


def results_json(report):
    return json.dumps(
        [r.to_dict() if r is not None else None for r in report.results],
        sort_keys=True,
    )


class TestInProcessResume:
    def test_resume_replays_without_reexecution(self, tmp_path):
        job = str(tmp_path / "job")
        specs = tiny_specs()
        first = engine().run_specs_report(specs, journal=job)
        assert first.ok and first.journal["executed"] == 3

        resumed = engine(execute=_bomb_execute).run_specs_report(
            specs, journal=job
        )
        assert resumed.ok
        assert resumed.journal["replayed"] == 3
        assert resumed.journal["executed"] == 0
        assert results_json(resumed) == results_json(first)

    def test_strict_run_specs_accepts_journal(self, tmp_path):
        job = str(tmp_path / "job")
        specs = tiny_specs()
        first = engine().run_specs(specs, journal=job)
        again = engine(execute=_bomb_execute).run_specs(specs, journal=job)
        assert [r.to_dict() for r in again] == [r.to_dict() for r in first]

    def test_resume_with_reordered_subset(self, tmp_path):
        job = str(tmp_path / "job")
        specs = tiny_specs()
        first = engine().run_specs_report(specs, journal=job)
        subset = [specs[2], specs[0]]
        resumed = engine(execute=_bomb_execute).run_specs_report(
            subset, journal=job
        )
        assert resumed.journal["replayed"] == 2
        assert [r.to_dict() for r in resumed.results] == [
            first.results[2].to_dict(), first.results[0].to_dict(),
        ]

    def test_resume_remembers_quarantine(self, tmp_path):
        job = str(tmp_path / "job")
        specs = tiny_specs()
        first = engine(execute=_flaky_execute).run_specs_report(
            specs, journal=job
        )
        assert len(first.failures) == 1
        assert first.failures[0].spec.seed == 2

        # The resume must not retry the quarantined cell (the bomb would
        # fire) — deterministic failures are remembered, not re-run.
        resumed = engine(execute=_bomb_execute).run_specs_report(
            specs, journal=job
        )
        assert len(resumed.failures) == 1
        assert resumed.failures[0].spec.seed == 2
        assert resumed.journal["replayed"] == 2
        assert resumed.journal["replayed_failures"] == 1
        assert resumed.journal["executed"] == 0

    def test_resume_quarantines_a_truncated_entry(self, tmp_path):
        job = str(tmp_path / "job")
        specs = tiny_specs()
        first = engine().run_specs_report(specs, journal=job)
        entry = SweepJournal(job)._path(specs[-1].cache_key())
        with open(entry, "rb") as handle:
            intact = handle.read()
        with open(entry, "wb") as handle:
            handle.write(intact[:10])  # cut short

        resumed = engine().run_specs_report(specs, journal=job)
        assert resumed.ok
        assert resumed.journal["replayed"] == 2
        assert resumed.journal["executed"] == 1  # only the cut cell
        assert resumed.journal["corrupt_quarantined"] == 1
        assert results_json(resumed) == results_json(first)

    def test_journal_composes_with_cache(self, tmp_path):
        job = str(tmp_path / "job")
        specs = tiny_specs()
        first = engine(cache_dir=str(tmp_path / "cache")).run_specs_report(
            specs, journal=job
        )
        assert first.journal["executed"] == 3
        # The job folder replaced the cache for the journaled call.
        assert not (tmp_path / "cache").exists()
        # Resume with *no* cache, or another one: the job folder alone
        # carries the results.
        for cache_dir in (None, str(tmp_path / "other-cache")):
            resumed = engine(
                cache_dir=cache_dir, execute=_bomb_execute,
            ).run_specs_report(specs, journal=job)
            assert resumed.journal["replayed"] == 3
            assert resumed.cache_hits == 0
            assert results_json(resumed) == results_json(first)
        assert not (tmp_path / "other-cache").exists()


@pytest.mark.slow
class TestSigkillSubprocessResume:
    """Kill a real sweep subprocess mid-flight; resume must be exact."""

    BENCHMARKS = "mwobject,stack,queue"
    CELLS = 3 * 4 * 2  # benchmarks x configs (B/P/C/W) x micro seeds

    def run_script(self, argv, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, str(SCRIPTS / "run_experiments.py")] + argv,
            capture_output=True, text=True, env=env, cwd=str(cwd),
        )

    def figure_payload(self, path):
        payload = json.loads(pathlib.Path(path).read_text())
        payload.pop("elapsed_seconds")
        return payload

    def test_sigkill_mid_sweep_then_resume_byte_identical(self, tmp_path):
        job = tmp_path / "job"
        killed_out = tmp_path / "killed.json"
        reference_out = tmp_path / "reference.json"

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        victim = subprocess.Popen(
            [sys.executable, str(SCRIPTS / "run_experiments.py"),
             "micro", str(killed_out), "--benchmarks", self.BENCHMARKS,
             "--jobs", "1", "--no-cache", "--journal", str(job)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=env, cwd=str(tmp_path),
        )
        # SIGKILL once a few cells are durably stored but (with high
        # probability) well before all of them are.
        def stored():
            return len(list(job.glob("??/*.json")))

        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and victim.poll() is None:
            if stored() >= 3:
                break
            time.sleep(0.05)
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        assert stored() >= 1, "sweep died before storing anything"

        resume = self.run_script(
            ["micro", str(killed_out), "--benchmarks", self.BENCHMARKS,
             "--jobs", "1", "--no-cache", "--resume", str(job)],
            cwd=tmp_path,
        )
        assert resume.returncode == 0, resume.stderr

        # Exactly-once: the resume replayed what the victim finished and
        # executed only the rest.
        counters = {}
        for line in resume.stdout.splitlines():
            if line.startswith("journal "):
                for token in line.split():
                    if "=" in token:
                        name, _, value = token.partition("=")
                        counters[name] = int(value)
        assert counters, resume.stdout
        assert counters["replayed"] >= 1
        assert counters["replayed"] + counters["executed"] == self.CELLS

        reference = self.run_script(
            ["micro", str(reference_out), "--benchmarks", self.BENCHMARKS,
             "--jobs", "1", "--no-cache"],
            cwd=tmp_path,
        )
        assert reference.returncode == 0, reference.stderr
        assert (self.figure_payload(killed_out)
                == self.figure_payload(reference_out))


@pytest.mark.slow
class TestEngineChaos:
    def test_worker_kills_recover_exactly_once(self, tmp_path):
        specs = tiny_specs()
        execute = functools.partial(
            kill_once_execute, rate=1.0, seed=7,
            marker_dir=str(tmp_path / "kills"),
        )
        chaotic = engine(
            jobs=2, execute=execute,
            retry_policy=RetryPolicy(base_seconds=0.01, max_seconds=0.05),
        )
        report = chaotic.run_specs_report(specs, journal=str(tmp_path / "job"))
        assert report.ok, report.failure_report()
        # Every cell took exactly one kill, then recovered.
        assert len(os.listdir(str(tmp_path / "kills"))) == len(specs)

        clean = engine().run_specs_report(specs)
        assert results_json(report) == results_json(clean)

    def test_seeded_io_chaos_runs_converge(self, tmp_path):
        """Two runs under one fault plan end in identical reports.

        The fault model: entries in the job folder corrupt (what bad
        disks do). The manifest is written atomically, so corrupting it
        would model unrecoverable disk corruption — which the job
        folder refuses by design — so it is written clean first and the
        plan only meets cell entries.
        """
        specs = tiny_specs()
        plan = EngineFaultPlan(seed=5, corrupt_rate=0.4)
        clean = engine().run_specs_report(specs)

        outcomes = []
        for run in ("a", "b"):
            job = tmp_path / run / "job"
            SweepJournal(job).ensure(specs, SCHEMA_VERSION)
            io = FaultyIO(plan)
            first = engine().run_specs_report(
                specs, journal=SweepJournal(job, io=io)
            )
            assert first.ok
            # Resume through a *clean* handle: corrupt entries are
            # quarantined and only their cells re-execute — the sweep
            # still converges to the uninterrupted results.
            resumed = engine().run_specs_report(specs, journal=str(job))
            assert resumed.ok
            assert results_json(resumed) == results_json(clean)
            assert resumed.journal["executed"] == io.injected["corrupt"]
            outcomes.append((
                dict(io.injected),
                resumed.journal["replayed"],
                resumed.journal["executed"],
                resumed.journal["corrupt_quarantined"],
            ))
        # Same plan, same seeds: the chaos itself is reproducible —
        # and it actually fired (a quiet plan would prove nothing).
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0]["corrupt"] > 0
