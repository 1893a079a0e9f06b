"""The benchmark's self-tests, run as tier-1 so that a change to the library
that breaks the benchmark tracer fails here."""

import glob
import importlib
import inspect
import json
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


def test_bench_baseline_holds_every_workload_and_end_to_end_metric():
    # BENCH_1.json is the first committed baseline and each BENCH_<n>.json a
    # later record to compare with it; every one must name every workload and
    # end-to-end metric of the benchmark.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert os.path.join(ROOT, "BENCH_1.json") in paths
    for path in paths:
        with open(path) as fh:
            bench = json.load(fh)
        assert {"git_sha", "python", "numpy", "nproc", "OPENBLAS_NUM_THREADS"} <= set(bench), path
        for workload in spec["workloads"]:
            result = bench["workloads"][workload["name"]]["result"]
            assert result["correct"] and result["failed"] == 0, (path, workload["name"])
            for metric in spec["end_to_end"]:
                value = result["metrics"][metric["name"]]
                assert value["unit"] == metric["unit"] and value["value"] > 0, (path, metric)
