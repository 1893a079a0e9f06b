"""Command-line front end: `spencerflow lie|cartan|euler|report`.

Exit codes: 0 success, 1 config error, 2 numerical gate violation (CFL),
3 I/O error.
"""

import argparse
import itertools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import CFLViolation, NonFinite, cartan, euler2d, invariants, liealg, read_preset, spencer

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
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def _load_algebra(name_or_path):
    if not isinstance(name_or_path, str):
        raise ConfigError(f"algebra must be a preset name or a file path, not {name_or_path!r}")
    try:
        return liealg.preset(name_or_path)
    except (KeyError, ValueError):
        pass
    if os.path.exists(name_or_path):
        try:
            return liealg.from_json(_load_json(name_or_path))
        except ValueError as exc:  # also the ConfigError of malformed JSON
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown algebra {name_or_path!r} (not a preset or file)")


def _fmt(x):
    return "%.17g" % float(x)


def _finite(value, name):
    """A config value as a finite float, or a ConfigError naming the field."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, not {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, not {value!r}")
    return x


def _finite_list(value, name):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty list of numbers, not {value!r}")
    return tuple(_finite(x, name) for x in value)


def _positive(value, name):
    x = _finite(value, name)
    if x <= 0:
        raise ConfigError(f"{name} must be positive, not {value!r}")
    return x


def _whole(value, name, minimum):
    """A config value as an int >= minimum, or a ConfigError naming the field."""
    x = _finite(value, name)
    if isinstance(value, bool) or x != int(x) or x < minimum:
        raise ConfigError(f"{name} must be a whole number >= {minimum}, not {value!r}")
    return int(x)


def _objects(value, name, item, required, optional=()):
    """value as a list of config objects, each with the given keys."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of {item} objects, not {value!r}")
    return [_validate(v, item, required, optional) for v in value]


# ---------------------------------------------------------------- euler


def load_euler_config(doc):
    """(grid, vortices as (x, y, alpha, sigma), curves, dt or "auto", t_end,
    output_every) of an euler config document."""
    _validate(
        doc,
        "euler config",
        required=("grid", "t_end", "vortices"),
        optional=("dt", "dealias", "curves", "output_every"),
    )
    gdoc = _validate(doc["grid"], "grid", required=("N",), optional=("L",))
    N, L = _whole(gdoc["N"], "N", 16), _positive(gdoc.get("L", 2 * math.pi), "L")
    try:
        grid = euler2d.GridSpec(N, L)
    except ValueError as exc:  # N not a power of two
        raise ConfigError(str(exc)) from exc
    if doc.get("dealias", True) is not True:
        raise ConfigError("dealias:false is not supported; the solver always dealiases")
    vortices = [
        (_finite(v["x"], "x"), _finite(v["y"], "y"), _finite(v["alpha"], "alpha"),
         _positive(v["sigma"], "sigma"))
        for v in _objects(doc["vortices"], "vortices", "vortex", ("x", "y", "alpha", "sigma"))
    ]
    curves = [
        euler2d.MarkerCurve.circle(
            f"v{i}", _finite(c["cx"], "cx"), _finite(c["cy"], "cy"),
            _finite(c["radius"], "radius"), _whole(c.get("M", 128), "M", 8),
        )
        for i, c in enumerate(
            _objects(doc.get("curves", []), "curves", "curve", ("cx", "cy", "radius"), ("M",))
        )
    ]
    dt = doc.get("dt", "auto")
    if dt != "auto":
        dt = _positive(dt, "dt")
    t_end = _positive(doc["t_end"], "t_end")
    output_every = _whole(doc.get("output_every", 25), "output_every", 1)
    return grid, vortices, curves, dt, t_end, output_every


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # non-finite values raise instead
def simulate(doc, snapshot_cb=None):
    """Run a vorticity-transport simulation from a config document.

    Returns (records, curves_final). snapshot_cb(step, t, zeta), when given,
    is invoked at every recorded snapshot; zeta is an array of the run's
    workspace and holds until the callback returns. The state is the band
    spectrum of the vorticity, projected from the initial field once; the
    grid field is made from it (one band inverse) only at a record. Each
    state gets one stage evaluation, with the markers as one (P, 2) array,
    split per curve only for a record and the returned curves: it feeds the
    state's record, its one CFL bound (read by the auto dt and by rk4_step's
    gate), and k1 of the RK4 step. Every stage, record, CFL bound and step of
    the run works in one Workspace. A step size that needs more steps to
    t_end than an index can count is the numerical gate. A state that leaves
    float64 is a config error at t=0 (finite config values can still
    overflow it) and the numerical gate after that. A finite value whose
    square overflows a Python float (an L or a sigma near 1e300) counts as
    not finite.
    """
    grid, vortices, curves, dt_conf, t_end, output_every = load_euler_config(doc)
    ends = np.cumsum([len(c.points) for c in curves])[:-1]

    def split(stacked):  # a (P, 2) marker array as one (M, 2) array per curve
        return np.split(stacked, ends)[: len(curves)]

    points = np.concatenate([c.points for c in curves] or [euler2d.NO_POINTS])
    t, step, records = 0.0, 0, []
    ws = euler2d.Workspace(grid)
    try:
        zhat = euler2d.gaussian_vorticity(
            grid,
            [(x, y) for x, y, _, _ in vortices],
            [alpha for _, _, alpha, _ in vortices],
            [sigma for _, _, _, sigma in vortices],
        ).spectrum(ws)
        while True:
            k1, u, p1 = euler2d.stage(grid, zhat, points, ws)
            done = t >= t_end * (1 - 1e-12)
            if step % output_every == 0 or done:
                zeta = euler2d.VorticityField.from_spectrum(grid, zhat, ws)
                records.append(
                    invariants.phi_triple(zeta, u, split(points), split(p1), t=t, ws=ws)
                )
                if snapshot_cb:
                    snapshot_cb(step, t, zeta)
            if done:
                final = split(points)
                return records, [euler2d.MarkerCurve(c.label, p) for c, p in zip(curves, final)]
            bound = u.cfl_dt(ws)
            dt = min(bound if dt_conf == "auto" else dt_conf, t_end - t)
            steps = (t_end - t) / dt if dt > 0 else math.inf
            if not steps < sys.maxsize:  # the step count could not be indexed
                raise CFLViolation(
                    f"step size {dt} needs {steps:g} steps to t_end={t_end}, "
                    "more than an index can count"
                )
            t += dt
            step += 1
            zhat, points = euler2d.rk4_step(zhat, dt, points, (k1, p1, bound), ws)
    except (NonFinite, OverflowError) as exc:
        if step == 0:
            raise ConfigError(f"the initial state of the config is not finite: {exc}") from exc
        raise CFLViolation(f"non-finite state after the step to t={t}") from exc


def write_invariant_csv(path, records, labels):
    with open(path, "w") as fh:
        fh.write(",".join(["t", "I0", "I2", "div_max", *(f"circ_{l}" for l in labels)]) + "\n")
        for r in records:
            row = [r.t, r.I0, r.I2, r.div_max, *r.I1]
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def read_invariant_csv(path):
    with open(path, errors="replace") as fh:  # bytes that are not text fail the parse
        # no-curve files of earlier versions end the header with a comma
        header = fh.readline().strip().removesuffix(",").split(",")
        if header[:4] != ["t", "I0", "I2", "div_max"]:
            raise ConfigError(f"unexpected CSV header in {path}")
        labels = [h[len("circ_"):] for h in header[4:]]
        records = []
        for lineno, line in enumerate(fh, start=2):
            try:
                vals = [float(x) for x in line.strip().split(",")]
                if len(vals) != len(header):
                    raise ValueError(f"{len(vals)} fields, the header has {len(header)}")
                records.append(
                    invariants.InvariantRecord(
                        t=vals[0], I0=vals[1], I2=vals[2], div_max=vals[3], I1=vals[4:]
                    )
                )
            except ValueError as exc:
                raise ConfigError(f"{path} line {lineno}: {exc}") from exc
    if len(records) < 2:
        raise ConfigError(f"{path} holds fewer than two records")
    return labels, records


def _report_result(report):
    """(payload, text lines) of a conservation report."""
    payload = {k: _fmt(v) for k, v in report.items()}
    lines = ["conservation report (|last-first| / max(|first|, 1e-30)):"]
    lines += [f"  {key:8s} {_fmt(val)}" for key, val in report.items()]
    return payload, lines + [REFERENCE_NOTE]


def cmd_euler(args):
    if args.subcommand == "run":
        doc = _load_json(args.config)
    else:
        name = "gaussian.json" if args.subcommand == "gaussian" else "appendix_d.json"
        doc = read_preset(name)
        if args.N is not None:
            doc["grid"]["N"] = args.N
        if args.t_end is not None:
            doc["t_end"] = args.t_end

    outdir = args.out
    snapshot_cb = None
    if outdir:
        os.makedirs(outdir, exist_ok=True)

        def snapshot_cb(step, t, zeta):
            base = os.path.join(outdir, f"zeta_{step:06d}")
            euler2d.dump_field(base, zeta.grid, zeta.values, t, "vorticity")

    records, curves = simulate(doc, snapshot_cb=snapshot_cb)
    labels = [c.label for c in curves]
    if outdir:
        write_invariant_csv(os.path.join(outdir, "invariants.csv"), records, labels)
    return _report_result(invariants.conservation_report(records))


# ---------------------------------------------------------------- cartan


def _not_skew(g):
    """The first (a, b, c) with C^c_ba != -C^a_bc, read from g.ad; None when
    every ad_{e_b} is skew, the one case in which the flow keeps |lambda|."""
    for b, ad_b in enumerate(g.ad):
        entries = {(c, a): v for a, ad_ba in enumerate(ad_b) for c, v in ad_ba}
        for (c, a), v in entries.items():
            if entries.get((a, c), 0) != -v:
                return a, b, c
    return None


def load_cartan_config(doc):
    _validate(
        doc,
        "cartan config",
        required=("algebra", "lambda0", "ds", "s_end"),
        optional=("connection", "v", "scheme", "renormalize"),
    )
    g = _load_algebra(doc["algebra"])
    conn_doc = doc.get("connection", {"preset": "abelian_zero", "params": {}})
    _validate(conn_doc, "connection", required=("preset",), optional=("params",))
    preset = conn_doc["preset"]
    params = conn_doc.get("params", {})
    if preset == "constant":
        _validate(params, "connection params", required=("a",))
        A = cartan.ConnectionSampler.constant(_finite_list(params["a"], "a"))
    elif preset == "abelian_zero":
        _validate(params, "connection params", required=())
        A = cartan.ConnectionSampler.abelian_zero(g.dim)
    elif preset == "wu_yang_monopole":
        _validate(params, "connection params", required=("q",))
        A = cartan.ConnectionSampler.wu_yang_monopole(_finite(params["q"], "q"))
    else:
        raise ConfigError(f"unknown connection preset {preset!r}")
    if A.dim != g.dim:
        raise ConfigError("connection dimension does not match the algebra")
    lam0 = _finite_list(doc["lambda0"], "lambda0")
    if len(lam0) != g.dim:
        raise ConfigError("lambda0 length does not match the algebra dimension")
    if not math.isfinite(math.hypot(*lam0)):
        raise ConfigError(f"the norm of lambda0 must be finite, not {math.hypot(*lam0)}")
    v = _finite_list(doc.get("v", [1.0]), "v")
    ds = _positive(doc["ds"], "ds")
    s_end = _finite(doc["s_end"], "s_end")
    if s_end < 0:
        raise ConfigError(f"s_end must be non-negative, not {s_end!r}")
    if not s_end / ds < sys.maxsize:
        raise ConfigError(
            f"ds={ds} and s_end={s_end} need {s_end / ds:g} steps, more than an index can count"
        )
    scheme = doc.get("scheme", "euler_paper")
    if scheme not in cartan.SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}")
    renormalize = doc.get("renormalize", False)
    if not isinstance(renormalize, bool):
        raise ConfigError(f"renormalize must be true or false, not {renormalize!r}")
    if renormalize and (abc := _not_skew(g)):
        (a, b, c), C, e = abc, g.structure_constants, g.basis_labels
        raise ConfigError(
            f"renormalize rescales lambda to |lambda0|, which the flow keeps only when every "
            f"ad(e_b) is skew, and ad({e[b]}) of {doc['algebra']} is not: the {e[c]} component "
            f"of [{e[b]}, {e[a]}] is {C[b][a][c]}, so that of {e[a]} in [{e[b]}, {e[c]}] "
            f"would be {-C[b][a][c]}, not {C[b][c][a]}"
        )
    return g, A, lam0, v, ds, s_end, scheme, renormalize


def cmd_cartan(args):
    doc = _load_json(args.config)
    g, A, lam0, v, ds, s_end, scheme, renorm = load_cartan_config(doc)

    Av0 = A.contract(np.zeros((1, len(v))), v)[0]
    # a bound of 0 leaves ds as it is, for integrate's origin gate to judge
    if args.auto_ds and ds >= (bound := cartan.cfl_bound(cartan.rhs_generator(g, Av0))) > 0:
        ds = bound / 2.0

    s, x, lam = cartan.integrate(g, lam0, A, v, ds, s_end, scheme, renorm)
    with np.errstate(over="ignore"):  # norm squares the entries; redo those rows
        norms = np.linalg.norm(lam, axis=1)
        big = ~np.isfinite(norms)
        norms[big] = np.hypot.reduce(lam[big], axis=1)
    cartan.finite_gate(norms, s, "the norm of lambda leaves float64 at s={s}")
    resid = cartan.residual_profile(g, A, v, s, x, lam)
    cartan.finite_gate(resid, s, "the residual leaves float64 at s={s}")
    summary = {
        "final_lambda": lam[-1].tolist(),
        "norm_drift": float(abs(norms[-1] - norms[0])),
        "max_residual_estimate": float(np.max(resid)),
    }
    if doc.get("connection", {}).get("preset") == "constant":
        with np.errstate(over="ignore", invalid="ignore"):
            oracle = cartan.coadjoint_flow_exact(g, Av0, lam0, s_end)
            dev = np.max(np.abs(lam[-1] - oracle.coeffs))
        cartan.finite_gate([dev], [s_end], "the oracle deviation leaves float64 at s={s}")
        summary["oracle_deviation"] = float(dev)

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "trajectory.csv"), "w") as fh:
            fh.write(
                "s," + ",".join(f"lambda_{i}" for i in range(g.dim)) + ",norm,residual_estimate\n"
            )
            for n in range(0, len(s), cartan.CHUNK):  # as Python floats one block at a time
                rows = np.column_stack([a[n : n + cartan.CHUNK] for a in (s, lam, norms, resid)])
                fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows.tolist())

    lines = [
        f"final lambda: {summary['final_lambda']}",
        f"norm drift:   {_fmt(summary['norm_drift'])}",
        f"residual:     {_fmt(summary['max_residual_estimate'])}",
    ]
    if "oracle_deviation" in summary:
        lines.append(f"oracle dev:   {_fmt(summary['oracle_deviation'])}")
    return summary, lines


# ---------------------------------------------------------------- lie


def _sym_tensor(text, dim):
    """The --tensor argument, a JSON list of [indices, numerator, denominator]
    terms of one degree, as a SymTensor over an algebra of dimension dim."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"--tensor is not JSON: {exc}") from None
    if not isinstance(doc, list) or not doc:
        raise ConfigError(f"--tensor must be a non-empty list of terms, not {text!r}")
    terms = {}
    for term in doc:
        if not (isinstance(term, list) and len(term) == 3 and isinstance(term[0], list)
                and all(type(i) is int and 0 <= i < dim for i in term[0])
                and type(term[1]) is int and type(term[2]) is int and term[2] != 0):
            raise ConfigError(
                f"--tensor term {term!r} must be [indices, numerator, denominator] "
                f"with indices in 0..{dim - 1} and a nonzero int denominator"
            )
        idx = tuple(sorted(term[0]))
        terms[idx] = terms.get(idx, 0) + Fraction(term[1], term[2])
    degrees = {len(idx) for idx in terms}
    if len(degrees) > 1:
        raise ConfigError("--tensor: mixed-degree tensors are not supported")
    return spencer.SymTensor(dim, degrees.pop(), terms)


def cmd_lie(args):
    g = _load_algebra(args.algebra)
    if args.subcommand == "verify":
        resid = liealg.jacobi_residual(g)
        lines = [f"algebra: {args.algebra} (dim {g.dim})", "bracket table:"]
        table, labels = {}, g.basis_labels
        for a, b in itertools.combinations(range(g.dim), 2):
            pretty = " + ".join(f"{v}*{labels[c]}" for c, v in g.ad[a][b]) or "0"
            lines.append(f"  [{labels[a]}, {labels[b]}] = {pretty}")
            table[f"[{labels[a]},{labels[b]}]"] = list(map(str, g.structure_constants[a][b]))
        lines.append(f"jacobi residual: {resid}")
        payload = {
            "algebra": args.algebra,
            "dim": g.dim,
            "bracket_table": table,
            "jacobi_residual": str(resid),
        }
    elif args.subcommand == "cohomology":
        if args.p < 0 or args.max_q < 0:
            raise ConfigError(f"degrees must be non-negative (p={args.p}, max_q={args.max_q})")
        resid = liealg.jacobi_residual(g)
        if resid != 0:  # d^2 != 0, and the "dimensions" would be meaningless
            raise ConfigError(
                f"the bracket of {args.algebra} breaks the Jacobi identity "
                f"(jacobi residual {resid}); see `spencerflow lie verify --algebra {args.algebra}`"
            )
        dims = spencer.ce_cohomology_dims(g, args.p, args.max_q)
        payload = {"algebra": args.algebra, "p": args.p, "dims": dims}
        lines = [f"H^q(g, Sym^{args.p} g) for q=0..{args.max_q}: " + ",".join(map(str, dims))]
    elif args.subcommand == "betti":
        try:
            base = [int(x) for x in args.base.split(",")]
        except ValueError:
            raise ConfigError(f"base must be comma-separated integers, not {args.base!r}") from None
        factor = {"sym": spencer.sym_dimension_factor, "whitehead": spencer.whitehead_factor}
        if any(b < 0 for b in base):
            raise ConfigError(f"base Betti numbers must be non-negative, not {args.base!r}")
        # spencer_betti reads f[0 .. len(base) - 1]
        betti = spencer.spencer_betti(base, factor[args.factor](g, max_p=len(base) - 1))
        payload = {
            "algebra": args.algebra,
            "base": base,
            "factor_preset": args.factor,
            "betti": betti,
        }
        lines = [",".join(map(str, betti))]
    else:  # delta
        X = _sym_tensor(args.tensor, g.dim)
        if args.kind == "structural":
            out = spencer.spencer_delta_structural(g, X)
        else:
            if not args.omega:
                raise ConfigError("curvature differential needs --omega")
            try:
                om = tuple(Fraction(x) for x in args.omega.split(","))
            except (ValueError, ZeroDivisionError):
                raise ConfigError(
                    f"--omega must be comma-separated rationals, not {args.omega!r}"
                ) from None
            if len(om) != g.dim:
                raise ConfigError(f"--omega needs {g.dim} components, not {len(om)}")
            out = spencer.spencer_delta_curvature(g, liealg.LieVector(om), X)
        payload = {
            "algebra": args.algebra,
            "kind": args.kind,
            "degree": out.degree,
            "terms": {",".join(map(str, k)): str(v) for k, v in out.terms.items()},
        }
        lines = [f"degree {out.degree}: " + (str(payload["terms"]) if out.terms else "0")]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "lie_report.json"), "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return payload, lines


# ---------------------------------------------------------------- report


def cmd_report(args):
    _, records = read_invariant_csv(args.csv)
    return _report_result(invariants.conservation_report(records))


# ---------------------------------------------------------------- entry


class _Parser(argparse.ArgumentParser):
    """A bad or missing flag is a config error (exit 1), not argparse's exit 2,
    which the CLI keeps for the numerical gate."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


class _Command:
    """A subparser built only when argv selects it: add_subparsers(parser_class=
    _Command) passes add_parser's keywords here, and argparse calls
    parse_known_args on the selected subparser alone."""

    def __init__(self, command, **kwargs):
        self.command, self.kwargs = command, kwargs

    def parse_known_args(self, args, namespace):
        return build_parser(self.command, **self.kwargs).parse_known_args(args, namespace)


def build_parser(command=None, prog="spencerflow", **kwargs):
    """The parser of a command or subcommand (None: the top parser). The
    commands it names are _Commands; no two command names are equal."""
    p = _Parser(prog=prog, **kwargs)
    if command is None:
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--json", action="store_true", help="machine-readable output")
    names = {
        None: ("lie", "cartan", "euler", "report"),
        "lie": ("verify", "cohomology", "betti", "delta"),
        "euler": ("run", "gaussian", "multivortex"),
    }.get(command)
    if names:
        dest = "subcommand" if command else "command"
        sub = p.add_subparsers(dest=dest, required=True, parser_class=_Command)
        for name in names:
            sub.add_parser(name, command=name)
    elif command in ("cartan", "run"):
        p.add_argument("--config", required=True)
    elif command == "report":
        p.add_argument("--csv", required=True)
    elif command in ("gaussian", "multivortex"):
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--t-end", type=float, default=None)
    else:  # a lie subcommand
        p.add_argument("--algebra", required=True)
    if command == "cartan":
        p.add_argument("--auto-ds", action="store_true")
    elif command == "cohomology":
        p.add_argument("--p", type=int, default=0)
        p.add_argument("--max-q", type=int, default=3)
    elif command == "betti":
        p.add_argument("--base", required=True)
        p.add_argument("--factor", choices=("sym", "whitehead"), default="sym")
    elif command == "delta":
        p.add_argument("--kind", choices=("structural", "curvature"), default="structural")
        p.add_argument("--tensor", required=True)
        p.add_argument("--omega", default=None)
    return p


def main(argv=None):
    """Run one command. Each cmd_* writes its --out artifacts and returns
    (payload, text lines); the result is printed here, once, as strict JSON
    under --json and as the lines otherwise, so an error prints nothing."""
    try:
        args = build_parser().parse_args(argv)
        # looked up at each call, so a wrapped cmd_* (the benchmark tracer) is seen
        command = {"lie": cmd_lie, "cartan": cmd_cartan, "euler": cmd_euler, "report": cmd_report}
        payload, lines = command[args.command](args)
        print(json.dumps(payload, allow_nan=False) if args.json else "\n".join(lines))
        return EXIT_OK
    except ConfigError as exc:
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
