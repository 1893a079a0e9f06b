"""Command-line front end: `spencerflow lie|cartan|euler|report`.

Exit codes: 0 success, 1 config error, 2 numerical gate violation (CFL),
3 I/O error.
"""

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from importlib import resources

import numpy as np

from . import CFLViolation, cartan, euler2d, invariants, liealg, spencer

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GATE = 2
EXIT_IO = 3

REFERENCE_NOTE = (
    "note: the reference experiment reports drifts of 8.06e-32 (I0), "
    "6.26e-16 (I2) and 2.27e-7 (I1); those figures are beyond float64 at this "
    "resolution. Desk-scale bounds: I0 <= 1e-12, I2 <= 1e-6, I1 <= 1e-4 per curve."
)


class ConfigError(ValueError):
    pass


def _validate(doc, name, required, optional=()):
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    missing = set(required) - set(doc)
    if missing:
        raise ConfigError(f"missing keys in {name}: {sorted(missing)}")
    return doc


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def _load_algebra(name_or_path):
    try:
        return liealg.preset(name_or_path)
    except (KeyError, ValueError):
        pass
    if os.path.exists(name_or_path):
        return liealg.from_json(_load_json(name_or_path))
    raise ConfigError(f"unknown algebra {name_or_path!r} (not a preset or file)")


def _fmt(x):
    return "%.17g" % float(x)


# ---------------------------------------------------------------- euler


def load_euler_config(doc):
    _validate(
        doc,
        "euler config",
        required=("grid", "t_end", "vortices"),
        optional=("dt", "dealias", "curves", "output_every"),
    )
    gdoc = _validate(doc["grid"], "grid", required=("N",), optional=("L",))
    grid = euler2d.GridSpec(int(gdoc["N"]), float(gdoc.get("L", 2 * math.pi)))
    if doc.get("dealias", True) is not True:
        raise ConfigError("dealias:false is not supported; the solver always dealiases")
    vortices = []
    for v in doc["vortices"]:
        _validate(v, "vortex", required=("x", "y", "alpha", "sigma"))
        vortices.append(v)
    curves = []
    for i, c in enumerate(doc.get("curves", [])):
        _validate(c, "curve", required=("cx", "cy", "radius"), optional=("M",))
        curves.append(
            euler2d.MarkerCurve.circle(
                f"v{i}", c["cx"], c["cy"], c["radius"], int(c.get("M", 128))
            )
        )
    dt = doc.get("dt", "auto")
    if dt != "auto":
        dt = float(dt)
        if dt <= 0:
            raise ConfigError("dt must be positive or 'auto'")
    t_end = float(doc["t_end"])
    if t_end < 0:
        raise ConfigError("t_end must be non-negative")
    output_every = int(doc.get("output_every", 25))
    return grid, vortices, curves, dt, t_end, output_every


def simulate(doc, snapshot_cb=None):
    """Run a vorticity-transport simulation from a config document.

    Returns (records, curves_final). snapshot_cb(step, t, zeta, curves), when
    given, is invoked at every recorded snapshot.
    """
    grid, vortices, curves, dt_conf, t_end, output_every = load_euler_config(doc)
    zeta = euler2d.gaussian_vorticity(
        grid,
        [(v["x"], v["y"]) for v in vortices],
        [v["alpha"] for v in vortices],
        [v["sigma"] for v in vortices],
    )
    t = 0.0
    records = [invariants.phi_triple(zeta, curves, t=t)]
    if snapshot_cb:
        snapshot_cb(0, t, zeta, curves)
    step = 0
    while t < t_end * (1 - 1e-12):
        u = euler2d.velocity_from_vorticity(zeta)
        dt = u.cfl_dt() if dt_conf == "auto" else dt_conf
        if not math.isfinite(dt):
            dt = t_end - t
        dt = min(dt, t_end - t)
        curves = euler2d.advect_markers(curves, u, dt)
        del u  # drops the 4N marker-interpolation grids before the RK4 stages
        zeta = euler2d.rk4_step(zeta, dt)
        t += dt
        step += 1
        if step % output_every == 0 or t >= t_end * (1 - 1e-12):
            records.append(invariants.phi_triple(zeta, curves, t=t))
            if snapshot_cb:
                snapshot_cb(step, t, zeta, curves)
    return records, curves


def write_invariant_csv(path, records, labels):
    with open(path, "w") as fh:
        fh.write("t,I0,I2,div_max," + ",".join(f"circ_{l}" for l in labels) + "\n")
        for r in records:
            row = [r.t, r.I0, r.I2, r.div_max, *r.I1]
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def read_invariant_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:4] != ["t", "I0", "I2", "div_max"]:
            raise ConfigError(f"unexpected CSV header in {path}")
        labels = [h[len("circ_"):] for h in header[4:]]
        records = []
        for line in fh:
            vals = [float(x) for x in line.strip().split(",")]
            records.append(
                invariants.InvariantRecord(
                    t=vals[0], I0=vals[1], I2=vals[2], div_max=vals[3], I1=vals[4:]
                )
            )
    if len(records) < 2:
        raise ConfigError(f"{path} holds fewer than two records")
    return labels, records


def print_report(report, as_json=False, out=None):
    out = sys.stdout if out is None else out
    if as_json:
        out.write(json.dumps({k: _fmt(v) for k, v in report.items()}) + "\n")
    else:
        out.write("conservation report (|last-first| / max(|first|, 1e-30)):\n")
        for key, val in report.items():
            out.write(f"  {key:8s} {_fmt(val)}\n")
        out.write(REFERENCE_NOTE + "\n")


def cmd_euler(args):
    if args.subcommand == "run":
        doc = _load_json(args.config)
    else:
        name = "gaussian.json" if args.subcommand == "gaussian" else "appendix_d.json"
        doc = json.loads(
            resources.files("spencerflow.presets").joinpath(name).read_text()
        )
        if args.N:
            doc["grid"]["N"] = args.N
        if args.t_end is not None:
            doc["t_end"] = args.t_end

    outdir = args.out
    snapshot_cb = None
    if outdir:
        os.makedirs(outdir, exist_ok=True)

        def snapshot_cb(step, t, zeta, curves):
            base = os.path.join(outdir, f"zeta_{step:06d}")
            euler2d.dump_field(base, zeta.grid, zeta.values, t, "vorticity")

    records, curves = simulate(doc, snapshot_cb=snapshot_cb)
    labels = [c.label for c in curves]
    if outdir:
        write_invariant_csv(os.path.join(outdir, "invariants.csv"), records, labels)
    report = invariants.conservation_report(records)
    print_report(report, as_json=args.json)
    return EXIT_OK


# ---------------------------------------------------------------- cartan


def load_cartan_config(doc, g):
    _validate(
        doc,
        "cartan config",
        required=("algebra", "lambda0", "ds", "s_end"),
        optional=("connection", "v", "scheme", "renormalize"),
    )
    conn_doc = doc.get("connection", {"preset": "abelian_zero", "params": {}})
    _validate(conn_doc, "connection", required=("preset",), optional=("params",))
    preset = conn_doc["preset"]
    params = conn_doc.get("params", {})
    if preset == "constant":
        _validate(params, "connection params", required=("a",))
        A = cartan.ConnectionSampler.constant(
            liealg.LieVector(tuple(float(x) for x in params["a"]))
        )
    elif preset == "abelian_zero":
        _validate(params, "connection params", required=())
        A = cartan.ConnectionSampler.abelian_zero(g.dim)
    elif preset == "wu_yang_monopole":
        _validate(params, "connection params", required=("q",))
        A = cartan.ConnectionSampler.wu_yang_monopole(float(params["q"]))
    else:
        raise ConfigError(f"unknown connection preset {preset!r}")
    if A.dim != g.dim:
        raise ConfigError("connection dimension does not match the algebra")
    lam0 = liealg.DualVector(tuple(float(x) for x in doc["lambda0"]))
    if len(lam0.coeffs) != g.dim:
        raise ConfigError("lambda0 length does not match the algebra dimension")
    v = tuple(float(x) for x in doc.get("v", [1.0]))
    scheme = doc.get("scheme", "euler_paper")
    if scheme not in ("euler_paper", "rk4"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    return A, lam0, v, float(doc["ds"]), float(doc["s_end"]), scheme, bool(
        doc.get("renormalize", False)
    )


def cmd_cartan(args):
    doc = _load_json(args.config)
    g = _load_algebra(doc.get("algebra", ""))
    A, lam0, v, ds, s_end, scheme, renorm = load_cartan_config(doc, g)

    Av0 = A.contract((0.0,) * len(v), v)
    bound = cartan.cfl_bound(g, Av0)
    if ds >= bound:
        if args.auto_ds:
            ds = bound / 2.0
        else:
            print(
                f"CFL gate: ds={ds} violates the stability bound "
                f"ds * max|C^c_ba (A.v)^b| < 1 (bound {bound}); "
                "rerun with --auto-ds or a smaller ds",
                file=sys.stderr,
            )
            return EXIT_GATE

    states = cartan.integrate(g, lam0, A, v, ds, s_end, scheme, renorm)
    lams = np.array([[float(c) for c in st.lam.coeffs] for st in states])
    norms = np.linalg.norm(lams, axis=1)
    # post-hoc central-difference residual of the transport equation
    resid = np.zeros(len(states))
    for n in range(1, len(states) - 1):
        h = states[n + 1].s - states[n].s
        hm = states[n].s - states[n - 1].s
        if h <= 0 or abs(h - hm) > 1e-12 * max(h, hm):
            continue
        Av = A.contract(states[n].x, v)
        dlam = (lams[n + 1] - lams[n - 1]) / (2 * h)
        resid[n] = np.max(
            np.abs(dlam - cartan.rhs_generator(g, Av) @ lams[n])
        )

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "trajectory.csv")
        with open(path, "w") as fh:
            fh.write(
                "s," + ",".join(f"lambda_{i}" for i in range(g.dim)) + ",norm,residual_estimate\n"
            )
            for st, nrm, rs in zip(states, norms, resid):
                row = [st.s, *st.lam.coeffs, nrm, rs]
                fh.write(",".join(_fmt(x) for x in row) + "\n")

    summary = {
        "final_lambda": [float(c) for c in states[-1].lam.coeffs],
        "norm_drift": float(abs(norms[-1] - norms[0])),
        "max_residual_estimate": float(np.max(resid)),
    }
    if doc.get("connection", {}).get("preset") == "constant":
        oracle = cartan.coadjoint_flow_exact(g, Av0, lam0, s_end)
        summary["oracle_deviation"] = float(
            np.max(np.abs(lams[-1] - np.array([float(c) for c in oracle.coeffs])))
        )
    if args.json:
        print(json.dumps(summary))
    else:
        print(f"final lambda: {summary['final_lambda']}")
        print(f"norm drift:   {_fmt(summary['norm_drift'])}")
        print(f"residual:     {_fmt(summary['max_residual_estimate'])}")
        if "oracle_deviation" in summary:
            print(f"oracle dev:   {_fmt(summary['oracle_deviation'])}")
    return EXIT_OK


# ---------------------------------------------------------------- lie


def _print_or_dump(payload, args, text_lines):
    if args.json:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "lie_report.json"), "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def cmd_lie(args):
    g = _load_algebra(args.algebra)
    if args.subcommand == "verify":
        resid = liealg.jacobi_residual(g)
        lines = [f"algebra: {args.algebra} (dim {g.dim})", "bracket table:"]
        table = {}
        for a in range(g.dim):
            for b in range(a + 1, g.dim):
                out = liealg.bracket(
                    g, liealg.basis_vector(g, a), liealg.basis_vector(g, b)
                )
                pretty = " + ".join(
                    f"{c}*{g.basis_labels[i]}"
                    for i, c in enumerate(out.coeffs)
                    if c != 0
                ) or "0"
                lines.append(f"  [{g.basis_labels[a]}, {g.basis_labels[b]}] = {pretty}")
                table[f"[{g.basis_labels[a]},{g.basis_labels[b]}]"] = [
                    str(c) for c in out.coeffs
                ]
        lines.append(f"jacobi residual: {resid}")
        payload = {
            "algebra": args.algebra,
            "dim": g.dim,
            "bracket_table": table,
            "jacobi_residual": str(resid),
        }
        _print_or_dump(payload, args, lines)
        return EXIT_OK

    if args.subcommand == "cohomology":
        dims = [spencer.ce_cohomology_dim(g, args.p, q) for q in range(args.max_q + 1)]
        payload = {"algebra": args.algebra, "p": args.p, "dims": dims}
        _print_or_dump(
            payload, args, [f"H^q(g, Sym^{args.p} g) for q=0..{args.max_q}: "
                            + ",".join(map(str, dims))]
        )
        return EXIT_OK

    if args.subcommand == "betti":
        base = [int(x) for x in args.base.split(",")]
        if args.factor == "sym":
            factor = spencer.sym_dimension_factor(g, max_p=len(base))
        elif args.factor == "whitehead":
            factor = spencer.whitehead_factor(g, max_p=len(base))
        else:
            raise ConfigError(f"unknown factor preset {args.factor!r}")
        betti = spencer.spencer_betti(base, factor)
        payload = {
            "algebra": args.algebra,
            "base": base,
            "factor_preset": args.factor,
            "betti": betti,
        }
        _print_or_dump(payload, args, [",".join(map(str, betti))])
        return EXIT_OK

    # delta
    doc = json.loads(args.tensor)
    terms = {}
    degree = None
    for indices, num, den in doc:
        idx = tuple(sorted(int(i) for i in indices))
        degree = len(idx) if degree is None else degree
        if len(idx) != degree:
            raise ConfigError("mixed-degree tensors are not supported")
        terms[idx] = terms.get(idx, 0) + Fraction(num, den)
    X = spencer.SymTensor(g.dim, degree, terms)
    if args.kind == "structural":
        out = spencer.spencer_delta_structural(g, X)
    else:
        if not args.omega:
            raise ConfigError("curvature differential needs --omega")
        om = liealg.LieVector(tuple(Fraction(x) for x in args.omega.split(",")))
        out = spencer.spencer_delta_curvature(g, om, X)
    payload = {
        "algebra": args.algebra,
        "kind": args.kind,
        "degree": out.degree,
        "terms": {",".join(map(str, k)): str(v) for k, v in out.terms.items()},
    }
    _print_or_dump(
        payload, args,
        [f"degree {out.degree}: " + (str(payload["terms"]) if out.terms else "0")],
    )
    return EXIT_OK


# ---------------------------------------------------------------- report


def cmd_report(args):
    labels, records = read_invariant_csv(args.csv)
    report = invariants.conservation_report(records)
    print_report(report, as_json=args.json)
    return EXIT_OK


# ---------------------------------------------------------------- entry


def build_parser():
    parser = argparse.ArgumentParser(prog="spencerflow")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    lie = sub.add_parser("lie")
    lie_sub = lie.add_subparsers(dest="subcommand", required=True)
    for name in ("verify", "cohomology", "betti", "delta"):
        p = lie_sub.add_parser(name)
        p.add_argument("--algebra", required=True)
        if name == "cohomology":
            p.add_argument("--p", type=int, default=0)
            p.add_argument("--max-q", type=int, default=3)
        if name == "betti":
            p.add_argument("--base", required=True)
            p.add_argument("--factor", default="sym")
        if name == "delta":
            p.add_argument("--kind", choices=("structural", "curvature"),
                           default="structural")
            p.add_argument("--tensor", required=True)
            p.add_argument("--omega", default=None)

    car = sub.add_parser("cartan")
    car.add_argument("--config", required=True)
    car.add_argument("--auto-ds", action="store_true")

    eul = sub.add_parser("euler")
    eul_sub = eul.add_subparsers(dest="subcommand", required=True)
    run = eul_sub.add_parser("run")
    run.add_argument("--config", required=True)
    for name in ("gaussian", "multivortex"):
        p = eul_sub.add_parser(name)
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--t-end", type=float, default=None)

    rep = sub.add_parser("report")
    rep.add_argument("--csv", required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "lie":
            return cmd_lie(args)
        if args.command == "cartan":
            return cmd_cartan(args)
        if args.command == "euler":
            return cmd_euler(args)
        return cmd_report(args)
    except (ConfigError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CFLViolation as exc:
        print(f"numerical gate: {exc}", file=sys.stderr)
        return EXIT_GATE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
