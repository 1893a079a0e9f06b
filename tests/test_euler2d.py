import math

import numpy as np
import pytest

from spencerflow import cartan as ca
from spencerflow import euler2d as eu


@pytest.fixture(scope="module")
def grid():
    return eu.GridSpec(64)


def single_mode(grid, kx, ky, amp=1.0):
    X, Y = grid.coords()
    return eu.VorticityField(grid, amp * np.cos(kx * X + ky * Y))


class TestGrid:
    def test_dx(self, grid):
        assert grid.dx == pytest.approx(2 * math.pi / 64)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            eu.GridSpec(48)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            eu.GridSpec(8)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            eu.GridSpec(32, 0.0)

    def test_wavenumber_range(self, grid):
        kx, _ = grid.wavenumbers()
        assert np.max(kx) == pytest.approx(31.0)
        assert np.min(kx) == pytest.approx(-32.0)


class TestFieldConstruction:
    def test_shape_checked(self, grid):
        with pytest.raises(ValueError):
            eu.VorticityField(grid, np.zeros((4, 4)))

    def test_finite_checked(self, grid):
        vals = np.zeros((64, 64))
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            eu.VorticityField(grid, vals)

    def test_marker_curve_minimum(self):
        with pytest.raises(ValueError):
            eu.MarkerCurve("c", np.zeros((4, 2)))

    def test_circle_geometry(self):
        c = eu.MarkerCurve.circle("c", 1.0, 2.0, 0.5, M=32)
        r = np.hypot(c.points[:, 0] - 1.0, c.points[:, 1] - 2.0)
        assert np.allclose(r, 0.5, atol=1e-14)


class TestVelocityInversion:
    def test_single_mode_closed_form(self, grid):
        # zeta = cos(3x): psi = cos(3x)/9, u_y = sin(3x)/3, u_x = 0
        zeta = single_mode(grid, 3, 0)
        u = eu.velocity_from_vorticity(zeta)
        X, _ = grid.coords()
        assert np.max(np.abs(u.u_x)) <= 1e-13
        assert np.allclose(u.u_y, np.sin(3 * X) / 3.0, atol=1e-13)

    def test_curl_recovers_vorticity(self, grid):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((64, 64))
        # band-limit: the real-part projection is not invertible at Nyquist
        vals = np.real(np.fft.ifft2(np.fft.fft2(raw) * eu._dealias_mask(grid)))
        vals -= vals.mean()
        zeta = eu.VorticityField(grid, vals)
        u = eu.velocity_from_vorticity(zeta)
        kx, ky = grid.wavenumbers()
        curl = np.real(
            np.fft.ifft2(
                1j * kx * np.fft.fft2(u.u_y) - 1j * ky * np.fft.fft2(u.u_x)
            )
        )
        assert np.max(np.abs(curl - vals)) <= 1e-10

    def test_divergence_free(self, grid):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((64, 64))
        vals = np.real(np.fft.ifft2(np.fft.fft2(raw) * eu._dealias_mask(grid)))
        zeta = eu.VorticityField(grid, vals)
        u = eu.velocity_from_vorticity(zeta)
        kx, ky = grid.wavenumbers()
        div = np.abs(kx * np.fft.fft2(u.u_x) + ky * np.fft.fft2(u.u_y))
        scale = np.max(np.abs(np.fft.fft2(u.u_x))) + np.max(np.abs(np.fft.fft2(u.u_y)))
        assert np.max(div) / scale <= 1e-13

    def test_constant_offset_no_velocity(self, grid):
        zeta = eu.VorticityField(grid, np.full((64, 64), 2.5))
        u = eu.velocity_from_vorticity(zeta)
        assert u.max_speed() == 0.0


class TestRhs:
    def test_steady_shear(self, grid):
        # zeta = cos(x) is a steady state: u is parallel to grad(zeta) level sets
        zeta = single_mode(grid, 1, 0)
        out = eu.rhs_vorticity(zeta)
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_mean_mode_exactly_zero(self, grid):
        rng = np.random.default_rng(2)
        zeta = eu.VorticityField(grid, rng.standard_normal((64, 64)))
        out = eu.rhs_vorticity(zeta)
        assert abs(np.mean(out.values)) <= 1e-14

    def test_dealias_mask_cuts_high_modes(self, grid):
        mask = eu._dealias_mask(grid)
        assert mask[0, 0]
        assert mask[21, 0]
        assert not mask[22, 0]
        assert not mask[32, 32]

    def test_closed_form_two_mode(self, grid):
        # zeta = cos(x) + cos(y): u = (-sin(y), sin(x)),
        # -(u . grad) zeta = -sin(x)sin(y) + ... check against direct evaluation
        X, Y = grid.coords()
        zeta = eu.VorticityField(grid, np.cos(X) + np.cos(Y))
        out = eu.rhs_vorticity(zeta)
        expect = -(-np.sin(Y) * (-np.sin(X)) + np.sin(X) * (-np.sin(Y)))
        assert np.max(np.abs(out.values - expect)) <= 1e-12


class TestTimeStepping:
    def test_dt_zero_identity(self, grid):
        zeta = single_mode(grid, 2, 1)
        assert eu.rk4_step(zeta, 0.0) is zeta

    def test_cfl_bound_still_field(self, grid):
        zeta = eu.VorticityField(grid, np.zeros((64, 64)))
        assert eu.cfl_dt(zeta) == math.inf

    def test_cfl_bound_single_mode(self, grid):
        # zeta = cos(x): max|u| = 1, dt <= 0.5 dx
        zeta = single_mode(grid, 1, 0)
        assert eu.cfl_dt(zeta) == pytest.approx(0.5 * grid.dx, rel=1e-12)

    def test_cfl_gate(self, grid):
        zeta = single_mode(grid, 1, 0)
        with pytest.raises(eu.CFLViolation):
            eu.rk4_step(zeta, 10.0)

    def test_one_cfl_exception(self):
        assert eu.CFLViolation is ca.CFLViolation

    def test_steady_state_long_run(self, grid):
        zeta = single_mode(grid, 1, 0)
        z = zeta
        dt = 0.4 * eu.cfl_dt(zeta)
        for _ in range(1000):
            z = eu.rk4_step(z, dt)
        assert np.max(np.abs(z.values - zeta.values)) <= 1e-10

    def test_richardson_order(self):
        grid = eu.GridSpec(64)
        zeta0 = eu.gaussian_vorticity(grid, [(math.pi, math.pi)], [4.0], [0.8])
        T = 0.2

        def run(n_steps):
            z = zeta0
            dt = T / n_steps
            for _ in range(n_steps):
                z = eu.rk4_step(z, dt)
            return z.values

        c = run(40)
        m = run(80)
        f = run(160)
        e1 = np.max(np.abs(c - f))
        e2 = np.max(np.abs(m - f))
        order = math.log2(e1 / e2) if e2 > 0 else 4.0
        assert order >= 3.7


class TestGaussianInitialData:
    def test_total_vorticity_analytic(self):
        # integral of alpha exp(-r^2 / (2 sigma^2)) = 2 pi alpha sigma^2
        grid = eu.GridSpec(128)
        zeta = eu.gaussian_vorticity(grid, [(math.pi, math.pi)], [6.0], [0.5])
        I0 = float(np.sum(zeta.values)) * grid.dx**2
        assert I0 == pytest.approx(2 * math.pi * 6.0 * 0.25, abs=1e-6)

    def test_enstrophy_analytic(self):
        # integral of alpha^2 exp(-r^2 / sigma^2) = pi alpha^2 sigma^2
        grid = eu.GridSpec(128)
        zeta = eu.gaussian_vorticity(grid, [(math.pi, math.pi)], [6.0], [0.5])
        I2 = float(np.sum(zeta.values**2)) * grid.dx**2
        assert I2 == pytest.approx(math.pi * 36.0 * 0.25, abs=1e-4)

    def test_periodic_seam_smoothness(self):
        grid = eu.GridSpec(64)
        zeta = eu.gaussian_vorticity(grid, [(0.1, 0.1)], [1.0], [0.5])
        # peak must sit at the requested center despite being near the seam
        i, j = np.unravel_index(np.argmax(zeta.values), zeta.values.shape)
        X, Y = grid.coords()
        assert abs(X[i, j] - 0.1) <= grid.dx
        assert abs(Y[i, j] - 0.1) <= grid.dx

    def test_length_mismatch(self):
        grid = eu.GridSpec(32)
        with pytest.raises(ValueError):
            eu.gaussian_vorticity(grid, [(1.0, 1.0)], [1.0], [0.5, 0.5])

    def test_bad_sigma(self):
        grid = eu.GridSpec(32)
        with pytest.raises(ValueError):
            eu.gaussian_vorticity(grid, [(1.0, 1.0)], [1.0], [0.0])


class TestInterpolation:
    def test_refine_exact_on_band_limited(self, grid):
        X, _ = grid.coords()
        vals = np.cos(5 * X)
        fine = eu._spectral_refine(vals, eu.REFINE)
        M = eu.REFINE * grid.N
        xf = np.arange(M) * grid.L / M
        assert np.max(np.abs(fine[:, 0] - np.cos(5 * xf))) <= 1e-12

    def test_grid_point_values(self, grid):
        zeta = single_mode(grid, 3, 0)
        u = eu.velocity_from_vorticity(zeta)
        X, Y = grid.coords()
        for i, j in [(0, 0), (5, 17), (40, 63)]:
            v = eu.interpolate_velocity(u, (X[i, j], Y[i, j]))
            assert np.allclose(v, (u.u_x[i, j], u.u_y[i, j]), atol=1e-12)

    def test_off_grid_accuracy(self, grid):
        # u_y = sin(3x)/3 for zeta = cos(3x); bilinear on the 4N grid
        zeta = single_mode(grid, 3, 0)
        u = eu.velocity_from_vorticity(zeta)
        for x in (0.31, 1.7, 4.0):
            v = eu.interpolate_velocity(u, (x, 1.0))
            # bilinear error on the 4N grid: h^2 |f''| / 8 with h = 2pi/256
            assert abs(v[1] - math.sin(3 * x) / 3.0) <= 3e-4

    def test_periodic_wrap(self, grid):
        zeta = single_mode(grid, 2, 1)
        u = eu.velocity_from_vorticity(zeta)
        a = eu.interpolate_velocity(u, (0.5, 0.7))
        b = eu.interpolate_velocity(u, (0.5 + grid.L, 0.7 - grid.L))
        assert np.allclose(a, b, atol=1e-12)

    def test_array_matches_pointwise(self, grid):
        zeta = single_mode(grid, 2, 3)
        u = eu.velocity_from_vorticity(zeta)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, grid.L, size=(20, 2))
        batch = eu.interpolate_velocity(u, pts)
        for k in range(20):
            assert np.allclose(batch[k], eu.interpolate_velocity(u, pts[k]))

    def test_non_finite_point_rejected(self, grid):
        zeta = single_mode(grid, 1, 0)
        u = eu.velocity_from_vorticity(zeta)
        with pytest.raises(ValueError):
            eu.interpolate_velocity(u, (np.nan, 0.0))


class TestMarkerAdvection:
    def test_uniform_translation(self):
        # a pure shear u_y = sin(x)/1 at x where sin = const? use still field:
        grid = eu.GridSpec(32)
        zeta = eu.VorticityField(grid, np.zeros((32, 32)))
        u = eu.velocity_from_vorticity(zeta)
        c = eu.MarkerCurve.circle("c", 3.0, 3.0, 1.0, M=16)
        out = eu.advect_markers([c], u, 0.5)[0]
        assert np.allclose(out.points, c.points, atol=1e-15)

    def test_shear_flow_displacement(self):
        grid = eu.GridSpec(64)
        zeta = single_mode(grid, 1, 0)  # u_y = sin(x)
        u = eu.velocity_from_vorticity(zeta)
        pts = np.stack(
            [np.full(16, math.pi / 2), np.linspace(0.5, 2.5, 16)], axis=1
        )
        c = eu.MarkerCurve("c", pts)
        dt = 0.01
        out = eu.advect_markers([c], u, dt)[0]
        # u is frozen and u_y at x = pi/2 is exactly 1, u_x = 0
        assert np.allclose(out.points[:, 0], math.pi / 2, atol=1e-6)
        assert np.allclose(out.points[:, 1] - pts[:, 1], dt, atol=1e-6)

    def test_labels_preserved(self):
        grid = eu.GridSpec(32)
        zeta = eu.VorticityField(grid, np.zeros((32, 32)))
        u = eu.velocity_from_vorticity(zeta)
        c = eu.MarkerCurve.circle("gamma_1", 2.0, 2.0, 0.5, M=8)
        assert eu.advect_markers([c], u, 0.1)[0].label == "gamma_1"


class TestFieldIO:
    def test_roundtrip(self, tmp_path):
        grid = eu.GridSpec(32)
        rng = np.random.default_rng(4)
        vals = rng.standard_normal((32, 32))
        path = tmp_path / "zeta.f64"
        eu.dump_field(path, grid, vals, 1.25, "vorticity")
        sidecar, back = eu.load_field(path)
        assert sidecar == {"N": 32, "L": grid.L, "t": 1.25, "quantity": "vorticity"}
        assert np.max(np.abs(back - vals)) == 0.0

    def test_strata_roundtrip_integer(self, tmp_path):
        grid = eu.GridSpec(32)
        labels = np.arange(32 * 32).reshape(32, 32) % 3
        path = tmp_path / "strata.i64"
        eu.dump_field(path, grid, labels, 0.0, "strata")
        sidecar, back = eu.load_field(path)
        assert back.dtype == np.int64
        assert np.array_equal(back, labels)


class TestSpectrumReality:
    def test_conjugate_symmetry(self, grid):
        rng = np.random.default_rng(5)
        zeta = eu.VorticityField(grid, rng.standard_normal((64, 64)))
        zhat = zeta.spectrum()
        flipped = np.conj(zhat[(-np.arange(64)) % 64][:, (-np.arange(64)) % 64])
        assert np.max(np.abs(zhat - flipped)) <= 1e-9 * np.max(np.abs(zhat))

    def test_rhs_output_real(self, grid):
        rng = np.random.default_rng(6)
        zeta = eu.VorticityField(grid, rng.standard_normal((64, 64)))
        out = eu.rhs_vorticity(zeta)
        assert out.values.dtype == np.float64
