"""Seeded inputs and output checks for the benchmark workloads.

Each workload writes the files one job needs into a job directory, returns the
`spencerflow` argument vector that runs it, and checks the job's captured
output. A seed changes the inputs but not the answers: the checks below hold
for every seed.
"""

import json
import math
import os

PRESETS = os.path.join("src", "spencerflow", "presets")

# Desk-scale bounds printed in cli.REFERENCE_NOTE.
DRIFT_BOUNDS = {"I0": 1e-12, "I2": 1e-6, "I1": 1e-4}
# H*(S^3 x S^3) (x) (Sym^2 g)^g for g = so(4) = su2 + su2, q = 0..6.
SO4_SYM2_DIMS = [2, 0, 0, 4, 0, 0, 2]
CARTAN_BOUNDS = {"oracle_deviation": 1e-9, "norm_drift": 1e-12}


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _unit_vector(rng, dim):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            return [x / norm for x in v]


def i1_drift_max(result):
    """Largest Kelvin-circulation drift in an Euler job's conservation report."""
    report = json.loads(result["stdout"])
    return max(float(v) for k, v in report.items() if k.startswith("I1_"))


class EulerWorkload:
    """`spencerflow euler run` on a preset with jittered vortices and a short
    t_end; `monitor` records invariants and dumps vorticity at every step and
    re-derives the report from the written CSV."""

    def __init__(self, preset, t_end, monitor):
        self.preset = preset
        self.t_end = t_end
        self.monitor = monitor

    def inputs(self, rng, jobdir):
        with open(os.path.join(PRESETS, self.preset)) as fh:
            doc = json.load(fh)
        doc["t_end"] = self.t_end
        # Curves are listed in vortex order and centred on their vortex;
        # each curve moves with its vortex.
        for vortex, curve in zip(doc["vortices"], doc["curves"]):
            if (curve["cx"], curve["cy"]) != (vortex["x"], vortex["y"]):
                raise ValueError(f"{self.preset}: curve not centred on its vortex")
            dx, dy = rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)
            vortex["x"] += dx
            vortex["y"] += dy
            vortex["alpha"] *= 1.0 + rng.uniform(-0.05, 0.05)
            curve["cx"], curve["cy"] = vortex["x"], vortex["y"]
        if self.monitor:
            doc["output_every"] = 1
        config = _write_json(os.path.join(jobdir, "euler.json"), doc)
        spec = {"curves": len(doc["curves"]), "grid_n": doc["grid"]["N"]}
        if self.monitor:
            out = os.path.join(jobdir, "out")
            spec["argv"] = ["--json", "--out", out, "euler", "run", "--config", config]
            spec["after"] = [["--json", "report", "--csv", os.path.join(out, "invariants.csv")]]
        else:
            spec["argv"] = ["--json", "euler", "run", "--config", config]
        return spec

    def check(self, spec, result):
        report = {k: float(v) for k, v in json.loads(result["stdout"]).items()}
        circulations = [k for k in report if k.startswith("I1_")]
        if len(circulations) != spec["curves"]:
            return f"report has {len(circulations)} circulations, expected {spec['curves']}"
        for key, value in sorted(report.items()):
            bound = DRIFT_BOUNDS[key.split("_")[0]]
            if not value <= bound:
                return f"{key} drift {value:.3e} exceeds {bound:g}"
        for after in result.get("after", []):
            if after["rc"] != 0 or after["stdout"] != result["stdout"]:
                return "report --csv does not reproduce the in-run report"
        return None


class CartanWorkload:
    """`spencerflow cartan` on su2 with a constant connection over one full
    turn. `a` and lambda0 are unit vectors, so the turn is 2*pi for every seed
    and the step count is fixed; ds = 1e-3 stays far below the CFL bound."""

    def inputs(self, rng, jobdir):
        doc = {
            "algebra": "su2",
            "connection": {"preset": "constant", "params": {"a": _unit_vector(rng, 3)}},
            "lambda0": _unit_vector(rng, 3),
            "ds": 1e-3,
            "s_end": 2 * math.pi,
            "scheme": "rk4",
        }
        config = _write_json(os.path.join(jobdir, "cartan.json"), doc)
        return {"argv": ["--json", "cartan", "--config", config]}

    def check(self, spec, result):
        summary = json.loads(result["stdout"])
        for key, bound in CARTAN_BOUNDS.items():
            if key not in summary:
                return f"cartan summary lacks {key}"
            if not summary[key] <= bound:
                return f"{key} {summary[key]:.3e} exceeds {bound:g}"
        return None


class LieWorkload:
    """`spencerflow lie cohomology` with p=2, q=0..6 on so(4) = su2 + su2
    written in a randomly permuted basis."""

    def inputs(self, rng, jobdir):
        perm = list(range(6))
        rng.shuffle(perm)
        constants = [
            [perm[a + off], perm[b + off], perm[c + off], 1, 1]
            for off in (0, 3)
            for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        ]
        doc = {"dim": 6, "labels": [f"x{i}" for i in range(6)], "constants": constants}
        algebra = _write_json(os.path.join(jobdir, "so4.json"), doc)
        argv = ["--json", "lie", "cohomology", "--algebra", algebra, "--p", "2", "--max-q", "6"]
        return {"argv": argv}

    def check(self, spec, result):
        dims = json.loads(result["stdout"])["dims"]
        if dims != SO4_SYM2_DIMS:
            return f"cohomology dims {dims}, expected {SO4_SYM2_DIMS}"
        return None


WORKLOADS = {
    "euler-multivortex": EulerWorkload("appendix_d.json", 0.125, monitor=False),
    "euler-gaussian-monitor": EulerWorkload("gaussian.json", 0.5, monitor=True),
    "cartan-su2": CartanWorkload(),
    "lie-cohomology-so4": LieWorkload(),
}


def job_failure(workload, spec, exit_code, result):
    """Why a job failed, or None: a non-zero exit of the job process or of
    spencerflow, a missing result, or a failed output check."""
    if exit_code != 0:
        return f"job process exited with {exit_code}"
    if result is None:
        return "job printed no result"
    if result["rc"] != 0:
        return f"spencerflow exited with {result['rc']}"
    try:
        return workload.check(spec, result)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
