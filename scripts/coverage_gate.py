#!/usr/bin/env python3
"""Line-coverage gate for the repro package.

Two ways to measure, one gate:

- **CI (pytest-cov)**: run ``pytest --cov=repro --cov-report=json`` and
  hand the JSON report to ``--report coverage.json``; the script
  compares its total percentage against the committed floor in
  ``tests/coverage_baseline.json`` and prints a per-module table.
- **Local (stdlib fallback)**: with no ``--report`` the script runs
  pytest in-process under a ``sys.settrace`` line collector restricted
  to ``src/repro`` — no third-party coverage dependency needed. Slower
  (roughly 5-10x a plain run) but measures the same quantity: executed
  source lines over possible source lines.

``--write-baseline`` re-measures and rewrites the committed floor:
the measured percentage rounded down, minus a 2-point tolerance for
the (small, systematic) difference between the two measurement methods
and for run-to-run churn in parallel/timeout tests. Exit status is 1
when coverage falls below the floor.
"""

import argparse
import dis
import json
import math
import os
import sys
import threading
import types

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO, "src", "repro")
BASELINE_PATH = os.path.join(REPO, "tests", "coverage_baseline.json")
#: Points subtracted from the measured floor when writing a baseline.
TOLERANCE = 2


class LineCollector:
    """sys.settrace collector for lines executed under ``src/repro``."""

    def __init__(self, root):
        self.root = root + os.sep
        self.executed = {}

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.root):
            return None  # never trace inside foreign code
        if event == "line":
            self.executed.setdefault(filename, set()).add(frame.f_lineno)
        return self.trace

    def install(self):
        threading.settrace(self.trace)
        sys.settrace(self.trace)

    def uninstall(self):
        sys.settrace(None)
        threading.settrace(None)


def possible_lines(path):
    """Every line that carries executable code in ``path``."""
    with open(path) as handle:
        code = compile(handle.read(), path, "exec")
    lines = set()
    stack = [code]
    while stack:
        code_object = stack.pop()
        lines.update(
            line for _, line in dis.findlinestarts(code_object)
            if line is not None
        )
        stack.extend(
            const for const in code_object.co_consts
            if isinstance(const, types.CodeType)
        )
    return lines


def source_files(root):
    found = []
    for directory, _, names in os.walk(root):
        if "__pycache__" in directory:
            continue
        found.extend(
            os.path.join(directory, name)
            for name in names if name.endswith(".py")
        )
    return sorted(found)


def measure(pytest_args):
    """Run pytest in-process under the collector; return per-file data."""
    import pytest

    collector = LineCollector(SRC_ROOT)
    collector.install()
    try:
        exit_code = pytest.main(["-x", "-q"] + list(pytest_args))
    finally:
        collector.uninstall()
    if exit_code != 0:
        print("pytest failed (exit {}); coverage not measured".format(
            exit_code))
        sys.exit(int(exit_code))
    per_file = {}
    for path in source_files(SRC_ROOT):
        possible = possible_lines(path)
        if not possible:
            continue
        executed = collector.executed.get(path, set()) & possible
        per_file[os.path.relpath(path, REPO)] = (len(executed), len(possible))
    return per_file


def totals(per_file):
    executed = sum(hit for hit, _ in per_file.values())
    possible = sum(total for _, total in per_file.values())
    return 100.0 * executed / possible if possible else 0.0


def module_table(per_file):
    """Aggregate per top-level repro submodule, worst-covered first."""
    modules = {}
    for path, (hit, total) in per_file.items():
        parts = path.split(os.sep)
        # src/repro/<module>/... or src/repro/<file>.py
        module = parts[2] if len(parts) > 3 else parts[2].replace(".py", "")
        have, need = modules.get(module, (0, 0))
        modules[module] = (have + hit, need + total)
    rows = sorted(
        modules.items(), key=lambda item: item[1][0] / item[1][1]
    )
    for module, (hit, total) in rows:
        print("  {:12s} {:6.1f}%  ({}/{} lines)".format(
            module, 100.0 * hit / total, hit, total))


def load_pytest_cov_report(path):
    """Per-file (hit, possible) from a pytest-cov ``--cov-report=json``."""
    with open(path) as handle:
        report = json.load(handle)
    per_file = {}
    for filename, data in report["files"].items():
        summary = data["summary"]
        per_file[filename] = (
            summary["covered_lines"], summary["num_statements"]
        )
    return per_file


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Any other arguments are extra pytest arguments for the "
               "fallback measurement (default: the tier-1 fast profile).",
    )
    parser.add_argument(
        "--report", metavar="coverage.json", default=None,
        help="check an existing pytest-cov JSON report instead of "
             "measuring with the stdlib fallback",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite {} from this measurement".format(
            os.path.relpath(BASELINE_PATH, REPO)),
    )
    args, pytest_args = parser.parse_known_args(argv)

    if args.report:
        per_file = load_pytest_cov_report(args.report)
        method = "pytest-cov"
    else:
        per_file = measure(pytest_args)
        method = "settrace"
    percent = totals(per_file)
    print("total line coverage: {:.2f}% ({})".format(percent, method))
    print("per-module:")
    module_table(per_file)

    if args.write_baseline:
        baseline = {
            "fail_under": max(0, math.floor(percent) - TOLERANCE),
            "measured_percent": round(percent, 2),
            "method": method,
            "note": "floor = floor(measured) - {} points of cross-method "
                    "and run-to-run tolerance; refresh with "
                    "scripts/coverage_gate.py --write-baseline".format(
                        TOLERANCE),
        }
        with open(BASELINE_PATH, "w") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
        print("wrote baseline {} (fail_under={})".format(
            os.path.relpath(BASELINE_PATH, REPO), baseline["fail_under"]))
        return 0

    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    floor = baseline["fail_under"]
    if percent < floor:
        print("FAIL: coverage {:.2f}% fell below the committed floor of "
              "{}%".format(percent, floor))
        return 1
    print("OK: coverage {:.2f}% >= floor {}%".format(percent, floor))
    return 0


if __name__ == "__main__":
    sys.exit(main())
