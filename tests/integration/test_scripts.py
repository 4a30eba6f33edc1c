"""Smoke tests for the reproduction scripts (run + render pipeline)."""

import json
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[2] / "scripts"


class TestExperimentPipeline:
    def test_run_then_render(self, tmp_path, monkeypatch):
        json_path = tmp_path / "results.json"
        md_path = tmp_path / "EXPERIMENTS.md"
        cache_dir = tmp_path / "cache"
        # A micro scale is not exposed via argv, so monkeypatch through
        # the module API instead of the CLI for the run step.
        sys.path.insert(0, str(SCRIPTS))
        try:
            import run_experiments

            monkeypatch.setattr(
                run_experiments, "settings_for",
                lambda scale: run_experiments.ExperimentSettings(
                    benchmarks=("mwobject",), num_cores=2, ops_per_thread=3,
                    seeds=(1,),
                ),
            )
            run_experiments.main(
                ["micro", str(json_path), "--jobs", "1",
                 "--cache-dir", str(cache_dir)]
            )
        finally:
            sys.path.remove(str(SCRIPTS))
        data = json.loads(json_path.read_text())
        assert "headline" in data and "fig8_times" in data
        # The run populated the content-addressed cache.
        assert list(cache_dir.rglob("*.json"))

        result = subprocess.run(
            [sys.executable, str(SCRIPTS / "render_experiments.py"),
             str(json_path), str(md_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        text = md_path.read_text()
        assert "# EXPERIMENTS" in text
        assert "Fig. 8" in text
        assert "mwobject" in text
        # One benchmark on 2 cores is not the micro scale's full matrix,
        # so the renderer evaluates no claim and still succeeds.
        assert "**not evaluated**" in text and "**holds**" not in text

    def test_rerun_from_cache_is_identical(self, tmp_path, monkeypatch):
        cold_path = tmp_path / "cold.json"
        warm_path = tmp_path / "warm.json"
        cache_dir = tmp_path / "cache"
        sys.path.insert(0, str(SCRIPTS))
        try:
            import run_experiments

            monkeypatch.setattr(
                run_experiments, "settings_for",
                lambda scale: run_experiments.ExperimentSettings(
                    benchmarks=("mwobject",), num_cores=2, ops_per_thread=3,
                    seeds=(1, 2),
                ),
            )
            for out in (cold_path, warm_path):
                run_experiments.main(
                    ["micro", str(out), "--jobs", "1",
                     "--cache-dir", str(cache_dir)]
                )
        finally:
            sys.path.remove(str(SCRIPTS))
        cold = json.loads(cold_path.read_text())
        warm = json.loads(warm_path.read_text())
        cold.pop("elapsed_seconds")
        warm.pop("elapsed_seconds")
        assert cold == warm

    def test_trace_flags_export_without_touching_figures(
        self, tmp_path, monkeypatch
    ):
        plain_path = tmp_path / "plain.json"
        traced_path = tmp_path / "traced.json"
        trace_out = tmp_path / "trace.json"
        report_out = tmp_path / "trace.txt"
        cache_dir = tmp_path / "cache"
        sys.path.insert(0, str(SCRIPTS))
        try:
            import run_experiments

            monkeypatch.setattr(
                run_experiments, "settings_for",
                lambda scale: run_experiments.ExperimentSettings(
                    benchmarks=("mwobject",), num_cores=2, ops_per_thread=3,
                    seeds=(1,),
                ),
            )
            run_experiments.main(
                ["micro", str(plain_path), "--jobs", "1",
                 "--cache-dir", str(cache_dir)]
            )
            run_experiments.main(
                ["micro", str(traced_path), "--jobs", "1",
                 "--cache-dir", str(cache_dir),
                 "--trace", str(trace_out),
                 "--trace-report", str(report_out)]
            )
        finally:
            sys.path.remove(str(SCRIPTS))
        plain = json.loads(plain_path.read_text())
        traced = json.loads(traced_path.read_text())
        plain.pop("elapsed_seconds")
        traced.pop("elapsed_seconds")
        assert plain == traced  # figure JSON identical with tracing on
        chrome = json.loads(trace_out.read_text())
        assert chrome["traceEvents"]
        assert "AR " in report_out.read_text()

    def test_no_cache_flag_skips_cache_dir(self, tmp_path, monkeypatch):
        json_path = tmp_path / "results.json"
        cache_dir = tmp_path / "cache"
        sys.path.insert(0, str(SCRIPTS))
        try:
            import run_experiments

            monkeypatch.setattr(
                run_experiments, "settings_for",
                lambda scale: run_experiments.ExperimentSettings(
                    benchmarks=("mwobject",), num_cores=2, ops_per_thread=3,
                    seeds=(1,),
                ),
            )
            run_experiments.main(
                ["micro", str(json_path), "--jobs", "1", "--no-cache",
                 "--cache-dir", str(cache_dir)]
            )
        finally:
            sys.path.remove(str(SCRIPTS))
        assert json_path.exists()
        assert not cache_dir.exists()


class TestJournalFlags:
    """The crash-safe sweep knobs and the partial-matrix exit status."""

    def micro_settings(self, run_experiments):
        return lambda scale: run_experiments.ExperimentSettings(
            benchmarks=("mwobject",), num_cores=2, ops_per_thread=3,
            seeds=(1,),
        )

    def test_journaled_run_exits_zero_and_resumes(self, tmp_path, monkeypatch):
        json_path = tmp_path / "results.json"
        resumed_path = tmp_path / "resumed.json"
        job = tmp_path / "job"
        sys.path.insert(0, str(SCRIPTS))
        try:
            import run_experiments

            monkeypatch.setattr(run_experiments, "settings_for",
                                self.micro_settings(run_experiments))
            status = run_experiments.main(
                ["micro", str(json_path), "--jobs", "1", "--no-cache",
                 "--journal", str(job)]
            )
            assert status == 0
            assert (job / "manifest.json").exists()
            # The job folder holds the cells: one entry per cell.
            assert len(list(job.glob("??/*.json"))) == 4
            status = run_experiments.main(
                ["micro", str(resumed_path), "--jobs", "1", "--no-cache",
                 "--resume", str(job)]
            )
            assert status == 0
        finally:
            sys.path.remove(str(SCRIPTS))
        first = json.loads(json_path.read_text())
        resumed = json.loads(resumed_path.read_text())
        first.pop("elapsed_seconds")
        resumed.pop("elapsed_seconds")
        assert first == resumed

    def test_resume_of_missing_job_folder_errors(self, tmp_path, monkeypatch):
        sys.path.insert(0, str(SCRIPTS))
        try:
            import run_experiments

            monkeypatch.setattr(run_experiments, "settings_for",
                                self.micro_settings(run_experiments))
            import pytest

            with pytest.raises(SystemExit) as excinfo:
                run_experiments.main(
                    ["micro", str(tmp_path / "out.json"),
                     "--resume", str(tmp_path / "nonexistent")]
                )
            assert excinfo.value.code == 2
        finally:
            sys.path.remove(str(SCRIPTS))

    def test_quarantined_cells_exit_nonzero(self, tmp_path, monkeypatch):
        """Satellite S2: a partial matrix must be machine-detectable."""
        json_path = tmp_path / "results.json"
        sys.path.insert(0, str(SCRIPTS))
        try:
            import run_experiments
            from repro.sim.engine import CellFailure

            monkeypatch.setattr(run_experiments, "settings_for",
                                self.micro_settings(run_experiments))
            real = run_experiments.run_config_matrix

            def lossy_matrix(settings, **kwargs):
                matrix, report = real(settings, **kwargs)
                report.failures.append(CellFailure(
                    spec=report_spec(settings), kind="timeout", attempts=3,
                    message="injected quarantine",
                ))
                return matrix, report

            def report_spec(settings):
                from repro.sim.engine import RunSpec

                return RunSpec(
                    workload=settings.benchmarks[0],
                    config=settings.config_for("B"),
                    seed=settings.seeds[0],
                    ops_per_thread=settings.ops_per_thread,
                )

            monkeypatch.setattr(run_experiments, "run_config_matrix",
                                lossy_matrix)
            status = run_experiments.main(
                ["micro", str(json_path), "--jobs", "1", "--no-cache",
                 "--journal", str(tmp_path / "job")]
            )
        finally:
            sys.path.remove(str(SCRIPTS))
        assert status == 2
        payload = json.loads(json_path.read_text())
        assert payload["failures"]["failed"] == 1


class TestWorkloadLists:
    def test_unknown_workload_exits_cleanly(self, tmp_path):
        """Caller-facing scripts turn UnknownWorkloadError into a
        one-line parser error, not a traceback."""
        for name in ("nope", "trace:" + str(tmp_path)):
            result = subprocess.run(
                [sys.executable, str(SCRIPTS / "run_experiments.py"),
                 "micro", str(tmp_path / "out.json"), "--no-cache",
                 "--benchmarks", "mwobject," + name],
                capture_output=True, text=True,
            )
            assert result.returncode == 2
            assert "Traceback" not in result.stderr
            listed = result.stderr.split("; expected ", 1)[1]
            assert "gen:" in listed and "trace:" not in listed

    def test_run_experiments_takes_a_multi_axis_spec(self, tmp_path):
        out = tmp_path / "out.json"
        result = subprocess.run(
            [sys.executable, str(SCRIPTS / "run_experiments.py"),
             "micro", str(out), "--jobs", "2", "--no-cache",
             "--benchmarks", "mwobject,gen:footprint=2,mutability=immutable"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        times = json.loads(out.read_text())["fig8_times"]
        assert {"mwobject", "gen:footprint=2,mutability=immutable"} <= set(
            times)

    def test_verify_schedules_takes_a_multi_axis_spec(self):
        result = subprocess.run(
            [sys.executable, str(SCRIPTS / "verify_schedules.py"),
             "gen:footprint=2,mutability=immutable", "--explore", "1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "all 1 workload(s) verified clean" in result.stdout


class TestCoverageGate:
    def test_unknown_options_reach_pytest(self, monkeypatch, capsys):
        """Options the gate does not know are pytest's, not errors."""
        sys.path.insert(0, str(SCRIPTS))
        try:
            import coverage_gate

            seen = []

            def measure(pytest_args):
                seen.append(list(pytest_args))
                return {"src/repro/api.py": (9, 10)}

            monkeypatch.setattr(coverage_gate, "measure", measure)
            status = coverage_gate.main(
                ["-p", "no:cacheprovider", "tests/unit/test_config.py"]
            )
        finally:
            sys.path.remove(str(SCRIPTS))
        assert seen == [["-p", "no:cacheprovider", "tests/unit/test_config.py"]]
        assert status == 0
        assert "total line coverage: 90.00%" in capsys.readouterr().out
