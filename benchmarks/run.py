"""spencerflow benchmark: four CLI workloads timed from outside the program.

Run from the root of a spencerflow checkout:

    python3 benchmarks/run.py --workload euler-multivortex --seed 1 --seconds 25 --trace 0
    python3 benchmarks/selftest.py    # self-tests of the output checks and tracer

Load model: closed loop, one client. Jobs run one at a time, each in a fresh
interpreter (benchmarks/job.py) that imports spencerflow from ./src and calls
spencerflow.cli.main, the entry point of the `spencerflow` command, with
stdout captured. BLAS and OpenMP pools are held to one thread.

--trace 0 starts jobs until --seconds have passed; job j takes its inputs from
(seed, j). It reports the end-to-end metrics as medians over the jobs, and
setup_s also over a few import-only interpreters. wall_s and setup_s are
scaled to a reference host speed: each job also times a fixed Python loop
(job.calibrate) and its times are multiplied by CAL_REF_S / that time. The
report prints the raw median next to the scaled one. --trace 1 alternates
untraced and traced jobs on the inputs of (seed, 0), reports the median
per-layer metrics of the traced jobs and the tracing overhead, and writes the
spans of the first traced job to .bench_runs/<workload>.spans.json.

Metric names and units come from BENCHMARK.json. Every line but the last is
a report for people; the last line is the JSON result.
"""

import argparse
import ctypes
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from job import CAL_REF_S
from tracer import Profile, layer_metrics
from workloads import WORKLOADS, EulerWorkload, i1_drift_max, job_failure

JOB = os.path.join(os.path.dirname(os.path.abspath(__file__)), "job.py")
SETUP_PROBES = 5  # import-only interpreters per run, after one warm-up
JOB_TIMEOUT_S = 120
SC_LEVEL2_CACHE_SIZE, SC_LEVEL3_CACHE_SIZE = 191, 194  # glibc sysconf names


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(root, workdir, spec, env):
    """Run one job interpreter; returns (exit code, result or None, stderr,
    setup_s). setup_s runs from the spawn to the end of the imports."""
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, JOB, spec_path], cwd=root, env=env,
            capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout", None, "", None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode, None, proc.stderr, None
    result = json.loads(lines[-1])
    result["scale"] = CAL_REF_S / result["cal_s"]
    return 0, result, proc.stderr, result["ready"] - start


def git_sha(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root, numpy_version):
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(root),
    }
    try:
        libc = ctypes.CDLL(None)
        for key, name in (("l2_bytes", SC_LEVEL2_CACHE_SIZE), ("l3_bytes", SC_LEVEL3_CACHE_SIZE)):
            size = libc.sysconf(name)
            env[key] = size if size > 0 else None
    except (OSError, AttributeError):
        pass
    return env


def tail_percentile(values):
    """(p, value) for the highest percentile with at least ten samples beyond
    it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    return round(100 * (n - 10) / n), sorted(values)[n - 11]


def run_jobs(root, workdir, workload, seed, seconds, trace, env):
    """Closed loop: one job at a time until `seconds` have passed. In trace
    mode jobs alternate untraced / traced and end on a whole pair."""
    jobs = []
    start = time.monotonic()
    while (not jobs or (trace and len(jobs) % 2)
           or time.monotonic() - start < seconds):
        j = len(jobs)
        traced = trace and j % 2 == 1
        jobdir = os.path.join(workdir, f"job{j}")
        os.makedirs(jobdir)
        spec = workload.inputs(random.Random(f"{seed}:{0 if trace else j}"), jobdir)
        if traced:
            spec["spans"] = os.path.join(jobdir, "spans.json")
        code, result, stderr, setup_s = spawn(root, jobdir, spec, env)
        failure = job_failure(workload, spec, code, result)
        if failure:
            tail = stderr.strip().splitlines()[-1:] if stderr else []
            print(f"job {j} failed: {failure}" + (f" ({tail[0]})" if tail else ""))
        jobs.append({"spec": spec, "result": result, "failure": failure,
                     "traced": traced, "setup_s": setup_s})
    return jobs


def end_to_end(walls, setups, untraced):
    raw = [j["result"]["wall_s"] for j in untraced]
    tail = tail_percentile(walls)
    print("  wall_s per job: " + " ".join(f"{w:.3f}" for w in walls))
    print(f"  raw wall_s median {statistics.median(raw):.4f} s; host speed scale per job: "
          + " ".join(f"{j['result']['scale']:.3f}" for j in untraced))
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(j["result"]["maxrss_kb"] / 1024 for j in untraced),
    }
    notes = {
        "wall_s": f"median of {len(walls)}; " + (
            f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has >=10 samples beyond it"),
        "setup_s": f"median of {len(setups)} interpreter starts",
        "peak_rss_mb": f"median of {len(untraced)}",
    }
    return values, notes


def per_layer(traced, untraced_walls, euler):
    values = {name: statistics.median(j["layers"][name] for j in traced)
              for name in traced[0]["layers"]}
    # Paired jobs run back to back, so the overhead uses raw wall times.
    traced_wall = statistics.median(j["result"]["wall_s"] for j in traced)
    untraced_wall = statistics.median(untraced_walls)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_share"] = values["trace.overhead_s"] / untraced_wall
    values["i1_drift_max"] = statistics.median(
        i1_drift_max(j["result"]) for j in traced) if euler else 0.0
    notes = {
        "trace.overhead_s": f"traced {traced_wall:.4f} s - untraced {untraced_wall:.4f} s",
        "trace.overhead_share": f"of untraced wall_s {untraced_wall:.4f} s",
    }
    if traced[0]["absent"]:
        print(f"  absent trace targets (their metrics read 0): {', '.join(traced[0]['absent'])}")
    print("  euler2d.fft_bytes_per_step is computed from array sizes, not measured")
    return values, notes


def measure(args, root, bench):
    workload = WORKLOADS[args.workload]
    env = child_env(root)
    runs = os.path.join(root, ".bench_runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    try:
        probes = []
        for _ in range(SETUP_PROBES + 1):
            _, result, stderr, setup_s = spawn(root, workdir, {"argv": None}, env)
            if result is None:
                sys.exit(f"cannot import spencerflow from ./src:\n{stderr}")
            if not os.path.abspath(result["module"]).startswith(os.path.join(root, "src") + os.sep):
                sys.exit(f"spencerflow imported from {result['module']}, not ./src")
            probes.append(setup_s * result["scale"])
        numpy_version = result["numpy"]
        jobs = run_jobs(root, workdir, workload, args.seed, args.seconds, args.trace, env)
        traced = [j for j in jobs if j["traced"] and not j["failure"]]
        for job in traced:
            with open(job["spec"]["spans"]) as fh:
                doc = json.load(fh)
            job["absent"] = doc["absent"]
            job["layers"] = layer_metrics(Profile(doc), job["result"]["wall_s"],
                                          job["spec"].get("grid_n"))
        if traced:
            os.replace(traced[0]["spec"]["spans"],
                       os.path.join(runs, f"{args.workload}.spans.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [j for j in jobs if not j["traced"] and j["result"] and "wall_s" in j["result"]]
    if not untraced or (args.trace and not traced):
        sys.exit("no job completed; nothing was measured")
    failed = sum(1 for j in jobs if j["failure"])
    euler = isinstance(workload, EulerWorkload)
    walls = [j["result"]["wall_s"] * j["result"]["scale"] for j in untraced]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(jobs)}  failed {failed}  (closed loop, 1 client, fresh interpreter per job)")
    if args.trace:
        values, notes = per_layer(traced, [j["result"]["wall_s"] for j in untraced], euler)
        metric_defs = bench["per_layer"]
    else:
        setups = probes[1:] + [j["setup_s"] * j["result"]["scale"]
                               for j in jobs if j["setup_s"] is not None]
        values, notes = end_to_end(walls, setups, untraced)
        metric_defs = bench["end_to_end"]
    metrics = {}
    for m in metric_defs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:48s} {values[m['name']]:>14.6g} {m['unit']:10s} "
              f"{notes.get(m['name'], '')}")
    print(f"  {'error_rate':48s} {failed / len(jobs):>14.6g} {'share':10s} "
          f"{failed} failed of {len(jobs)} attempted")
    drifts = [i1_drift_max(j["result"]) for j in untraced if euler and not j["failure"]]
    if drifts and not args.trace:
        print(f"  {'i1_drift_max':48s} {statistics.median(drifts):>14.6g} "
              f"{'rel':10s} median of {len(drifts)}")
    print("env " + json.dumps(environment(root, numpy_version)))
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))


def main():
    # On SIGTERM unwind like an exception, so subprocess.run kills and waits
    # for the running job and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spencerflow", "cli.py")):
        sys.exit("run from the root of a spencerflow checkout: src/spencerflow/cli.py is missing")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    measure(args, root, bench)


if __name__ == "__main__":
    main()
