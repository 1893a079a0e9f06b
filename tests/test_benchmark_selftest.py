"""The benchmark's self-tests, run as tier-1 so that a change to the library
that breaks the benchmark tracer fails here."""

import importlib
import inspect
import os
import subprocess
import sys
import types

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_targets_resolve_in_spencerflow():
    # A renamed target reads 0 in the benchmark's per-layer metrics instead
    # of failing there; the tracer module is read, never imported or written.
    path = os.path.join(ROOT, "benchmarks", "tracer.py")
    tracer = types.ModuleType("tracer")
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), tracer.__dict__)
    # the step count and share layer_metrics reads come from these spans
    spans = [*tracer.NAMED, ("euler2d", "rk4_step"), ("cartan", "integrate")]
    for module, attr in spans:
        assert inspect.isfunction(getattr(importlib.import_module(f"spencerflow.{module}"), attr))
