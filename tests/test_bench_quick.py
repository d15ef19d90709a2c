"""Smoke run of the benchmark: one checked pass of every workload.

``bench/run.py --quick`` builds the benchmark's inputs, runs each
workload once untraced and once traced, checks every answer against
the construction and prints one JSON line per workload.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quick_pass_has_no_failures():
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    rows = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert [row["workload"] for row in rows] == ["membership", "equivalence", "cli"], done.stderr
    for row in rows:
        assert row["correct"] is True, row
        assert row["failed"] == 0, row
    assert done.returncode == 0, done.stderr
