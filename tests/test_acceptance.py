"""Ten headline checks, one test per criterion. Run with `pytest -v` to get a
single pass/fail line for each. Every tolerance is pinned in the assertion."""

import math

import numpy as np

from spencerflow import cartan as ca
from spencerflow import cli
from spencerflow import euler2d as eu
from spencerflow import invariants as inv
from spencerflow import liealg as la
from spencerflow import read_preset
from spencerflow import spencer as sp


def _report(tag, ok, detail):
    line = f"criterion {tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_lie_algebra_exactness():
    su2 = la.preset("su2")
    so3 = la.preset("so3")
    r1 = la.jacobi_residual(su2)
    r2 = la.jacobi_residual(so3)
    table_ok = (
        la.bracket(su2, la.basis_vector(su2, 0), la.basis_vector(su2, 1)).coeffs
        == (0, 0, 1)
        and la.bracket(su2, la.basis_vector(su2, 1), la.basis_vector(su2, 2)).coeffs
        == (1, 0, 0)
        and la.bracket(su2, la.basis_vector(su2, 2), la.basis_vector(su2, 0)).coeffs
        == (0, 1, 0)
    )
    _report(
        "1 lie exactness",
        r1 == 0 and r2 == 0 and table_ok,
        f"jacobi su2={r1}, so3={r2}, cyclic table={table_ok}",
    )


def test_criterion_02_betti_table():
    ab2 = la.preset("abelian2")
    su2 = la.preset("su2")
    rows = [
        ([1, 2, 1], ab2, [1, 4, 8]),
        ([1, 0, 1], ab2, [1, 2, 4]),
        ([1, 1, 1], ab2, [1, 3, 6]),
        ([1, 2, 1], su2, [1, 5, 13]),
        ([1, 0, 1], su2, [1, 3, 7]),
        ([1, 1, 1], su2, [1, 4, 10]),
    ]
    got = [sp.spencer_betti(b, sp.sym_dimension_factor(g)) for b, g, _ in rows]
    want = [e for _, _, e in rows]
    _report("2 betti table", got == want, f"{got}")


def test_criterion_03_ce_cohomology():
    su2 = la.preset("su2")
    hq = [sp.ce_cohomology_dim(su2, 0, q) for q in range(4)]
    invp = [sp.ce_cohomology_dim(su2, p, 0) for p in range(3)]
    _report(
        "3 CE cohomology",
        hq == [1, 0, 0, 1] and invp == [1, 0, 1],
        f"H^q={hq}, invariants={invp}",
    )


def test_criterion_04_cartan_integrator():
    su2 = la.preset("su2")
    e3 = la.LieVector((0.0, 0.0, 1.0))
    lam0 = la.DualVector((1.0, 0.0, 0.0))
    A = ca.ConnectionSampler.constant(e3)

    _, _, lam = ca.integrate(su2, lam0, A, (1.0,), 1e-3, 2 * math.pi, "rk4")
    ref = ca.coadjoint_flow_exact(su2, e3, lam0, 2 * math.pi)
    dev = float(np.max(np.abs(lam[-1] - np.array(ref.coeffs))))
    drift = abs(float(np.linalg.norm(lam[-1])) - 1.0)

    errs = []
    for ds in (1e-3, 5e-4):
        _, _, lam = ca.integrate(su2, lam0, A, (1.0,), ds, 1.0, "euler_paper")
        rf = ca.coadjoint_flow_exact(su2, e3, lam0, 1.0)
        errs.append(np.max(np.abs(lam[-1] - np.array(rf.coeffs))))
    order = math.log2(errs[0] / errs[1])

    gate = False
    try:
        ca.integrate(su2, lam0, A, (1.0,), 1.0, 1.0, "euler_paper")
    except ca.CFLViolation:
        gate = True

    _report(
        "4 cartan integrator",
        dev <= 1e-8 and drift <= 1e-10 and 0.9 <= order <= 1.1 and gate,
        f"rk4 dev={dev:.2e}, norm drift={drift:.2e}, euler order={order:.3f}, "
        f"CFL gate={gate}",
    )


def test_criterion_05_cartan_residual_order():
    su2 = la.preset("su2")
    A = ca.ConnectionSampler.constant(la.LieVector((0.0, 0.0, 1.0)))

    def samples(h, n):
        return [
            la.DualVector((math.cos(k * h), math.sin(k * h), 0.0)) for k in range(n)
        ]

    r1 = ca.cartan_residual(su2, A, samples(0.01, 101), 0.01)
    r2 = ca.cartan_residual(su2, A, samples(0.005, 201), 0.005)
    ratio = r1 / r2
    _report("5 residual order", 3.6 <= ratio <= 4.4, f"ratio={ratio:.4f}")


def test_criterion_06_monopole():
    _, _, diff = ca.monopole_radial_check(1.0, 1.0, 1e-4)
    _report("6 monopole radial", diff <= 1e-7, f"diff={diff:.2e}")


def _run_preset(name):
    records, _ = cli.simulate(read_preset(name))
    report = inv.conservation_report(records)
    div_max = max(r.div_max for r in records)
    return records, report, div_max


def test_criterion_07_gaussian_conservation():
    records, report, _ = _run_preset("gaussian.json")
    circs = [v for k, v in report.items() if k.startswith("I1_")]
    ok = report["I0"] <= 1e-12 and report["I2"] <= 1e-6 and all(
        c <= 1e-4 for c in circs
    )
    _report(
        "7 gaussian conservation",
        ok,
        f"I0 drift={report['I0']:.2e}, I2 drift={report['I2']:.2e}, "
        f"circ drifts={['%.2e' % c for c in circs]}",
    )


def test_criterion_08_multivortex_conservation():
    records, report, div_max = _run_preset("appendix_d.json")
    circs = [v for k, v in report.items() if k.startswith("I1_")]
    gamma0 = records[0].I1
    ok = (
        report["I0"] <= 1e-12
        and report["I2"] <= 1e-6
        and all(c <= 5e-3 for c in circs)
        and div_max <= 1e-12
    )
    _report(
        "8 multivortex conservation",
        ok,
        f"I0 drift={report['I0']:.2e}, I2 drift={report['I2']:.2e}, "
        f"circ drifts={['%.2e' % c for c in circs]}, div_max={div_max:.2e}, "
        f"initial circs={['%.6f' % g for g in gamma0]}",
    )


def test_criterion_09_solver_properties():
    grid = eu.GridSpec(64)
    X, _ = grid.coords()
    zeta = eu.VorticityField(grid, np.cos(X))

    z = zeta
    dt = 0.4 * eu.velocity_from_vorticity(zeta).cfl_dt()
    for _ in range(1000):
        z, _ = eu.rk4_step(z, dt)
    steady = float(np.max(np.abs(z.values - zeta.values)))

    zeta0 = eu.gaussian_vorticity(grid, [(math.pi, math.pi)], [4.0], [0.8])

    def run(n):
        z = zeta0
        for _ in range(n):
            z, _ = eu.rk4_step(z, 0.2 / n)
        return z.values

    c, m, f = run(40), run(80), run(160)
    order = math.log2(np.max(np.abs(c - f)) / np.max(np.abs(m - f)))

    rng = np.random.default_rng(0)
    vals = rng.standard_normal((64, 64))
    roundtrip = float(np.max(np.abs(np.fft.irfft2(np.fft.rfft2(vals)) - vals)))

    raw = rng.standard_normal((64, 64))
    bl = np.fft.irfft2(eu.VorticityField(grid, raw).spectrum(), s=raw.shape)
    u = eu.velocity_from_vorticity(eu.VorticityField(grid, bl))
    kx, ky = grid.wavenumbers()
    div = np.abs(kx * np.fft.rfft2(u.values[0]) + ky * np.fft.rfft2(u.values[1]))
    scale = np.max(np.abs(np.fft.rfft2(u.values[0]))) + np.max(np.abs(np.fft.rfft2(u.values[1])))
    divfree = float(np.max(div) / scale)

    ok = steady <= 1e-10 and order >= 3.7 and roundtrip <= 1e-13 and divfree <= 1e-13
    _report(
        "9 solver properties",
        ok,
        f"steady drift={steady:.2e}, order={order:.3f}, "
        f"roundtrip={roundtrip:.2e}, divfree={divfree:.2e}",
    )


def test_criterion_10_spencer_ledger():
    su2 = la.preset("su2")
    sl2 = la.preset("sl2")
    su2_zero = sp.nilpotency_report(su2, 3) == {1: 0, 2: 0, 3: 0}
    h = sp.SymTensor.monomial(3, (0,))
    dd = sp.spencer_delta_structural(sl2, sp.spencer_delta_structural(sl2, h))
    oracle = {(0, 1, 1): -8, (0, 1, 2): 8, (0, 2, 2): -8}
    _report(
        "10 spencer ledger",
        su2_zero and dd.terms == oracle,
        f"su2 vanishing={su2_zero}, sl2 delta^2(h)={dict(dd.terms)}",
    )
