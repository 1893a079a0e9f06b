"""The benchmark's self-tests, run as tier-1 so that a change to the library
that breaks the benchmark tracer fails here."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
