"""Smoke tests of the benchmark itself: ``python -m pytest bench -q``.

Every workload runs at ``--smoke`` sizes in a fresh process, as the
benchmark command would, with and without the traced pass.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
NAMES = [workload["name"] for workload in SPEC["workloads"]]


def units(declared):
    return {metric["name"]: metric["unit"] for metric in declared}


def run_bench(root, out, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), *args,
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=root,
    )


def smoke(tmp_path, name, trace, seed=3):
    out = tmp_path / "{}-{}-{}.json".format(name, trace, seed)
    proc = run_bench(ROOT, out, "--workload", name, "--smoke",
                     "--seed", str(seed), "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out) as handle:
        return last, json.load(handle)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_is_correct_and_prints_the_declared_metrics(tmp_path, name):
    last, result = smoke(tmp_path, name, trace=0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"], result["failures"]
    assert last["attempted"] >= 1
    assert result["extra"]["fail_ratio"] == 0
    printed = {name: entry["unit"] for name, entry in last["metrics"].items()}
    assert printed == units(SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in last["metrics"].values())
    assert not result["comparable"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass_leaves_digests_unchanged(tmp_path, name):
    last, result = smoke(tmp_path, name, trace=1)
    assert last["correct"], result["failures"]
    assert result["traced_cells_match"]
    printed = {name: entry["unit"] for name, entry in last["metrics"].items()}
    assert printed == units(SPEC["per_layer"])
    values = {name: entry["value"] for name, entry in last["metrics"].items()}
    assert values["trace.overhead"] > 0
    if name.startswith("sim-"):
        # Every second of Machine.run is some layer's self time.
        assert abs(values["trace.coverage"] - 1.0) < 0.05


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(str(tmp_path), tmp_path / "result.json",
                     "--workload", NAMES[0], "--seed", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_reports_every_declared_metric(tmp_path):
    sides = [smoke(tmp_path, "sim-footprint", trace=1, seed=seed)[1]
             for seed in (1, 2)]
    paths = []
    for index, result in enumerate(sides):
        paths.append(tmp_path / "side{}.json".format(index))
        paths[-1].write_text(json.dumps(result))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "compare.py"),
         str(paths[0]), "--", str(paths[1])],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    assert proc.returncode in (0, 1), proc.stderr
    for metric in SPEC["end_to_end"]:
        assert metric["name"] in proc.stdout
    assert "sim.executor.share" in proc.stdout
