"""One benchmark job, run by run.py in a fresh interpreter.

    python3 benchmarks/job.py SPEC.json

SPEC holds `argv` for spencerflow.cli.main (null: only import, to time
set-up), optional `after` argument vectors run untimed once the job is done,
and optional `spans`, a path to write the trace to. Prints one JSON line:
the CLOCK_MONOTONIC time at which spencerflow.cli was imported, the host-speed
probe `cal_s`, and for a job the exit code, the wall time and captured stdout
of each call and the peak resident set.
"""

import contextlib
import io
import json
import resource
import sys
import time

# The host's speed drifts by 20-40% over minutes, alike for Python and FFT
# code, so run.py scales times by CAL_REF_S / cal_s: seconds at the speed at
# which the probe loop takes CAL_REF_S (its median on the 2-vCPU Xeon host
# the benchmark was defined on).
CAL_LOOPS = 400_000
CAL_REF_S = 0.035


def calibrate():
    """Seconds for a fixed pure-Python loop, timed in the job's own process."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def call(main, argv):
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    return rc, time.perf_counter() - start, buf.getvalue()


def run(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import numpy
    from spencerflow import cli

    result = {"ready": time.monotonic(), "numpy": numpy.__version__, "module": cli.__file__}
    result["cal_s"] = calibrate()
    if spec.get("argv") is not None:
        tracer = None
        if spec.get("spans"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        rc, wall, out = call(cli.main, spec["argv"])
        result.update(
            rc=rc,
            wall_s=wall,
            stdout=out,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        result["cal_s"] = (result["cal_s"] + calibrate()) / 2
        if tracer:
            tracer.uninstall()
            tracer.dump(spec["spans"])
        result["after"] = [
            {"rc": rc, "stdout": out}
            for rc, _, out in (call(cli.main, argv) for argv in spec.get("after", []))
        ]
    print(json.dumps(result))


if __name__ == "__main__":
    run(sys.argv[1])
