import math

import numpy as np
import pytest

from spencerflow import euler2d as eu
from spencerflow import invariants as inv


@pytest.fixture(scope="module")
def grid():
    return eu.GridSpec(128)


@pytest.fixture(scope="module")
def gaussian(grid):
    return eu.gaussian_vorticity(grid, [(math.pi, math.pi)], [6.0], [0.5])


def circulation(zeta, points):
    """The circulation along points, with the velocity of the stage at zeta."""
    velocities = eu.stage(zeta.grid, zeta.spectrum(), points, eu.Workspace(zeta.grid))[2]
    return inv.circulation(points, velocities, zeta.grid.L)


class TestScalars:
    def test_total_vorticity_matches_mean_mode(self, grid):
        rng = np.random.default_rng(0)
        zeta = eu.VorticityField(grid, rng.standard_normal((128, 128)))
        k0 = float(np.real(zeta.spectrum()[0, 0])) / grid.N**2
        assert inv.total_vorticity(zeta) == pytest.approx(k0 * grid.L**2, abs=1e-13)

    def test_enstrophy_parseval(self, grid):
        rng = np.random.default_rng(1)
        zeta = eu.VorticityField(grid, rng.standard_normal((128, 128)))
        power = np.abs(np.fft.rfft2(zeta.values)) ** 2
        # on the rfft2 half-plane the columns other than ky = 0 and Nyquist
        # also stand for their conjugate mirrors
        full = 2.0 * np.sum(power) - np.sum(power[:, 0]) - np.sum(power[:, -1])
        spectral = float(full) / grid.N**4 * grid.L**2
        assert inv.enstrophy(zeta, eu.Workspace(grid)) == pytest.approx(spectral, rel=1e-11)

    def test_zero_field(self, grid):
        zeta = eu.VorticityField(grid, np.zeros((128, 128)))
        assert inv.total_vorticity(zeta) == 0.0
        assert inv.enstrophy(zeta, eu.Workspace(grid)) == 0.0


class TestCirculation:
    def test_reverse_curve_negates(self, gaussian):
        c = eu.MarkerCurve.circle("c", math.pi, math.pi, 1.0, M=128)
        a = circulation(gaussian, c.points)
        b = circulation(gaussian, c.points[::-1])
        assert abs(a + b) <= 1e-13 * max(1.0, abs(a))

    def test_gaussian_disc_oracle(self, grid, gaussian):
        # Stokes on the torus sees the mean-free vorticity: the enclosed
        # quantity is the disc integral of zeta - mean(zeta), done here by
        # midpoint quadrature in polar coordinates.
        R = 1.2
        c = eu.MarkerCurve.circle("c", math.pi, math.pi, R, M=256)
        gamma = circulation(gaussian, c.points)
        mean = inv.total_vorticity(gaussian) / grid.L**2
        nr, nt = 400, 400
        r = (np.arange(nr) + 0.5) * R / nr
        th = (np.arange(nt) + 0.5) * 2 * math.pi / nt
        rr, tt = np.meshgrid(r, th, indexing="ij")
        rho2 = rr**2
        zeta_vals = 6.0 * np.exp(-rho2 / (2 * 0.5**2)) - mean
        oracle = float(np.sum(zeta_vals * rr)) * (R / nr) * (2 * math.pi / nt)
        assert gamma == pytest.approx(oracle, abs=1e-3)

    def test_still_field_zero(self, grid):
        zeta = eu.VorticityField(grid, np.zeros((128, 128)))
        c = eu.MarkerCurve.circle("c", 2.0, 2.0, 1.0, M=64)
        assert circulation(zeta, c.points) == 0.0

    def test_too_few_points(self, gaussian):
        bad = eu.MarkerCurve.circle("c", 2.0, 2.0, 1.0, M=8)
        pts = bad.points[:8]
        assert circulation(gaussian, pts) is not None
        with pytest.raises(ValueError):
            circulation(gaussian, pts[:4])
        with pytest.raises(ValueError):
            eu.MarkerCurve("c", pts[:4])


class TestDivergence:
    def test_spectral_velocity_divergence_free(self, gaussian):
        u = eu.velocity_from_vorticity(gaussian)
        # roundoff amplified by |k| up to N/2 in the numerator
        assert inv.divergence_residual(u, eu.Workspace(u.grid)) <= 1e-11

    def test_still_field(self, grid):
        u = eu.VelocityField(grid, np.zeros((2, 128, 128)))
        assert inv.divergence_residual(u, eu.Workspace(grid)) == 0.0

    def test_detects_compressible_flow(self, grid):
        X, _ = grid.coords()
        u = eu.VelocityField(grid, np.stack([np.sin(X), np.zeros((128, 128))]))
        assert inv.divergence_residual(u, eu.Workspace(grid)) > 0.5

    def test_a_workspace_keeps_the_bits(self, grid, gaussian):
        # both components are one stacked rfft2 of u.values, in the stage's
        # workspace, where u.values is ws.u itself, or in one of its own.
        # Either way the residual has the bits of two separate rfft2 calls
        ws = eu.Workspace(grid)
        _, u, _ = eu.stage(grid, gaussian.spectrum(), eu.NO_POINTS, ws)
        assert u.values is ws.u
        X, _ = grid.coords()
        other = eu.VelocityField(grid, np.stack([u.values[0] + np.sin(X), u.values[1]]))
        swapped = eu.VelocityField(grid, u.values[::-1].copy())
        kx, ky = grid.wavenumbers()
        for v in (u, other, swapped):
            ux_hat, uy_hat = np.fft.rfft2(v.values[0]), np.fft.rfft2(v.values[1])
            scale = float(np.max(np.hypot(np.abs(ux_hat), np.abs(uy_hat))))
            want = float(np.max(np.abs(kx * ux_hat + ky * uy_hat))) / scale
            assert inv.divergence_residual(v, eu.Workspace(grid)) == want
            assert inv.divergence_residual(v, ws) == want


class TestPhiTriple:
    def test_zero_state(self, grid):
        zeta = eu.VorticityField(grid, np.zeros((128, 128)))
        c = eu.MarkerCurve.circle("c", 2.0, 2.0, 1.0, M=32)
        ws = eu.Workspace(grid)
        _, u, v = eu.stage(grid, zeta.spectrum(), c.points, ws)
        rec = inv.phi_triple(zeta, u, [c.points], [v], 1.5, ws)
        assert rec.t == 1.5
        assert rec.I0 == 0.0
        assert rec.I1 == (0.0,)
        assert rec.I2 == 0.0
        assert rec.div_max == 0.0

    def test_single_mode_shear(self, grid):
        X, _ = grid.coords()
        zeta = eu.VorticityField(grid, np.cos(X))
        ws = eu.Workspace(grid)
        _, u, v = eu.stage(grid, zeta.spectrum(), eu.NO_POINTS, ws)
        rec = inv.phi_triple(zeta, u, [], [], 0.0, ws)
        assert rec.I0 == pytest.approx(0.0, abs=1e-12)
        assert rec.I2 == pytest.approx(2 * math.pi**2, rel=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            inv.InvariantRecord(0.0, math.nan, (), 0.0, 0.0)


class TestConservationReport:
    def test_arithmetic(self):
        a = inv.InvariantRecord(0.0, 2.0, (1.0, -2.0), 4.0, 0.0)
        b = inv.InvariantRecord(1.0, 2.0 + 2e-6, (1.0 + 1e-7, -2.0), 4.0, 0.0)
        rep = inv.conservation_report([a, b])
        assert rep["I0"] == pytest.approx(1e-6, rel=1e-6)
        assert rep["I1_0"] == pytest.approx(1e-7, rel=1e-6)
        assert rep["I1_1"] == 0.0
        assert rep["I2"] == 0.0

    def test_zero_baseline_uses_eps(self):
        a = inv.InvariantRecord(0.0, 0.0, (), 0.0, 0.0)
        b = inv.InvariantRecord(1.0, 0.0, (), 0.0, 0.0)
        assert inv.conservation_report([a, b])["I0"] == 0.0

    def test_needs_two_records(self):
        a = inv.InvariantRecord(0.0, 0.0, (), 0.0, 0.0)
        with pytest.raises(ValueError):
            inv.conservation_report([a])

    def test_curve_count_mismatch(self):
        a = inv.InvariantRecord(0.0, 0.0, (1.0,), 0.0, 0.0)
        b = inv.InvariantRecord(1.0, 0.0, (), 0.0, 0.0)
        with pytest.raises(ValueError):
            inv.conservation_report([a, b])
