import dataclasses
import json
import math

import numpy as np
import pytest

from spencerflow import cartan as ca
from spencerflow import cli
from spencerflow import euler2d as eu


@pytest.fixture(scope="module")
def grid():
    return eu.GridSpec(64)


def single_mode(grid, kx, ky, amp=1.0):
    X, Y = grid.coords()
    return eu.VorticityField(grid, amp * np.cos(kx * X + ky * Y))


def band_limit(grid, raw):
    return np.fft.irfft2(np.fft.rfft2(raw) * eu._spectral_ops(grid)[3])


def tendency(grid, zeta):
    return np.fft.irfft2(eu.stage(grid, zeta.spectrum(), eu.NO_POINTS)[0])


def marker_velocity(zeta, points):
    return eu.stage(zeta.grid, zeta.spectrum(), points)[2]


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
        vals = band_limit(grid, raw)
        vals -= vals.mean()
        zeta = eu.VorticityField(grid, vals)
        u = eu.velocity_from_vorticity(zeta)
        kx, ky = grid.wavenumbers()
        curl = np.fft.irfft2(1j * kx * np.fft.rfft2(u.u_y) - 1j * ky * np.fft.rfft2(u.u_x))
        assert np.max(np.abs(curl - vals)) <= 1e-10

    def test_divergence_free(self, grid):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((64, 64))
        zeta = eu.VorticityField(grid, band_limit(grid, raw))
        u = eu.velocity_from_vorticity(zeta)
        kx, ky = grid.wavenumbers()
        div = np.abs(kx * np.fft.rfft2(u.u_x) + ky * np.fft.rfft2(u.u_y))
        scale = np.max(np.abs(np.fft.rfft2(u.u_x))) + np.max(np.abs(np.fft.rfft2(u.u_y)))
        assert np.max(div) / scale <= 1e-13

    def test_constant_offset_no_velocity(self, grid):
        zeta = eu.VorticityField(grid, np.full((64, 64), 2.5))
        u = eu.velocity_from_vorticity(zeta)
        assert u.max_speed() == 0.0

    def test_velocity_field_holds_only_its_components(self):
        names = [f.name for f in dataclasses.fields(eu.VelocityField)]
        assert names == ["grid", "u_x", "u_y"]


class TestRhs:
    def test_steady_shear(self, grid):
        # zeta = cos(x) is a steady state: u is parallel to grad(zeta) level sets
        zeta = single_mode(grid, 1, 0)
        out = tendency(grid, zeta)
        assert np.max(np.abs(out)) <= 1e-12

    def test_mean_mode_exactly_zero(self, grid):
        rng = np.random.default_rng(2)
        zeta = eu.VorticityField(grid, rng.standard_normal((64, 64)))
        out = tendency(grid, zeta)
        assert abs(np.mean(out)) <= 1e-14

    def test_dealias_mask_cuts_high_modes(self, grid):
        mask = eu._spectral_ops(grid)[3]
        assert mask[0, 0]
        assert mask[21, 0]
        assert not mask[22, 0]
        assert not mask[32, 32]

    def test_closed_form_two_mode(self, grid):
        # zeta = cos(x) + cos(y): u = (-sin(y), sin(x)),
        # -(u . grad) zeta = -sin(x)sin(y) + ... check against direct evaluation
        X, Y = grid.coords()
        zeta = eu.VorticityField(grid, np.cos(X) + np.cos(Y))
        out = tendency(grid, zeta)
        expect = -(-np.sin(Y) * (-np.sin(X)) + np.sin(X) * (-np.sin(Y)))
        assert np.max(np.abs(out - expect)) <= 1e-12


class TestTimeStepping:
    def test_dt_zero_identity(self, grid):
        zeta = single_mode(grid, 2, 1)
        z, _ = eu.rk4_step(zeta, 0.0)
        assert z is zeta

    def test_cfl_bound_still_field(self, grid):
        zeta = eu.VorticityField(grid, np.zeros((64, 64)))
        assert eu.velocity_from_vorticity(zeta).cfl_dt() == math.inf

    def test_cfl_bound_single_mode(self, grid):
        # zeta = cos(x): max|u| = 1, dt <= 0.5 dx
        zeta = single_mode(grid, 1, 0)
        assert eu.velocity_from_vorticity(zeta).cfl_dt() == pytest.approx(0.5 * grid.dx, rel=1e-12)

    def test_cfl_gate(self, grid):
        zeta = single_mode(grid, 1, 0)
        with pytest.raises(eu.CFLViolation):
            eu.rk4_step(zeta, 10.0)

    def test_one_cfl_exception(self):
        assert eu.CFLViolation is ca.CFLViolation

    def test_steady_state_long_run(self, grid):
        zeta = single_mode(grid, 1, 0)
        z = zeta
        dt = 0.4 * eu.velocity_from_vorticity(zeta).cfl_dt()
        for _ in range(1000):
            z, _ = eu.rk4_step(z, dt)
        assert np.max(np.abs(z.values - zeta.values)) <= 1e-10

    def test_richardson_order(self):
        grid = eu.GridSpec(64)
        zeta0 = eu.gaussian_vorticity(grid, [(math.pi, math.pi)], [4.0], [0.8])
        T = 0.2

        def run(n_steps):
            z = zeta0
            dt = T / n_steps
            for _ in range(n_steps):
                z, _ = eu.rk4_step(z, dt)
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
    def test_exact_on_band_limited(self, grid):
        # zeta = cos(5x): u_y = sin(5x)/5, read on a 4N grid of points
        zeta = single_mode(grid, 5, 0)
        xf = np.arange(4 * grid.N) * grid.L / (4 * grid.N)
        v = marker_velocity(zeta, np.stack([xf, np.full_like(xf, 0.3)], axis=1))
        assert np.max(np.abs(v[:, 1] - np.sin(5 * xf) / 5.0)) <= 1e-12

    def test_grid_point_values(self, grid):
        rng = np.random.default_rng(7)
        zeta = eu.VorticityField(grid, band_limit(grid, rng.standard_normal((64, 64))))
        u = eu.velocity_from_vorticity(zeta)
        X, Y = grid.coords()
        v = marker_velocity(zeta, np.stack([X.ravel(), Y.ravel()], axis=1))
        assert np.max(np.abs(v[:, 0] - u.u_x.ravel())) <= 1e-13
        assert np.max(np.abs(v[:, 1] - u.u_y.ravel())) <= 1e-13

    def test_off_grid_accuracy(self, grid):
        # u_y = sin(3x)/3 for zeta = cos(3x); the band-limited sum is exact
        zeta = single_mode(grid, 3, 0)
        for x in (0.31, 1.7, 4.0):
            v = marker_velocity(zeta, [(x, 1.0)])[0]
            assert abs(v[1] - math.sin(3 * x) / 3.0) <= 1e-12

    def test_periodic_wrap(self, grid):
        zeta = single_mode(grid, 2, 1)
        a = marker_velocity(zeta, [(0.5, 0.7)])
        b = marker_velocity(zeta, [(0.5 + grid.L, 0.7 - grid.L)])
        assert np.allclose(a, b, atol=1e-12)

    def test_array_matches_pointwise(self, grid):
        zeta = single_mode(grid, 2, 3)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, grid.L, size=(20, 2))
        batch = marker_velocity(zeta, pts)
        for k in range(20):
            assert np.allclose(batch[k], marker_velocity(zeta, pts[k : k + 1])[0])

    def test_blocks_match_one_sum(self, grid, monkeypatch):
        zeta = single_mode(grid, 2, 3)
        pts = np.random.default_rng(8).uniform(0, grid.L, size=(50, 2))
        whole = marker_velocity(zeta, pts)
        monkeypatch.setattr(eu, "BLOCK", 7)
        assert np.allclose(marker_velocity(zeta, pts), whole, rtol=0, atol=1e-15)

    def test_non_finite_point_rejected(self, grid):
        zeta = single_mode(grid, 1, 0)
        with pytest.raises(ValueError):
            marker_velocity(zeta, [(np.nan, 0.0)])


class TestMarkerAdvection:
    def test_uniform_translation(self):
        # a still field leaves every marker in place
        grid = eu.GridSpec(32)
        zeta = eu.VorticityField(grid, np.zeros((32, 32)))
        c = eu.MarkerCurve.circle("c", 3.0, 3.0, 1.0, M=16)
        _, out = eu.rk4_step(zeta, 0.5, c.points)
        assert np.allclose(out, c.points, atol=1e-15)

    def test_shear_flow_displacement(self):
        grid = eu.GridSpec(64)
        zeta = single_mode(grid, 1, 0)  # u_y = sin(x)
        pts = np.stack(
            [np.full(16, math.pi / 2), np.linspace(0.5, 2.5, 16)], axis=1
        )
        dt = 0.01
        _, out = eu.rk4_step(zeta, dt, pts)
        # zeta = cos(x) is steady; u_y at x = pi/2 is exactly 1 and u_x = 0
        assert np.allclose(out[:, 0], math.pi / 2, atol=1e-6)
        assert np.allclose(out[:, 1] - pts[:, 1], dt, atol=1e-6)

    def test_markers_keep_their_streamline(self):
        # zeta = psi = cos(x) + cos(y) is steady, so markers stay on their
        # level set of psi; an RK4 through the stage velocities keeps it to
        # about 2e-9 over 40 steps, where a forward Euler drifts by 1.5e-2
        grid = eu.GridSpec(32)
        X, Y = grid.coords()
        zeta = eu.VorticityField(grid, np.cos(X) + np.cos(Y))
        pts = eu.MarkerCurve.circle("c", 1.0, 2.0, 0.7, M=16).points
        dt = 0.4 * eu.velocity_from_vorticity(zeta).cfl_dt()
        z, p = zeta, pts
        for _ in range(40):
            z, p = eu.rk4_step(z, dt, p)
        drift = np.cos(p[:, 0]) + np.cos(p[:, 1]) - np.cos(pts[:, 0]) - np.cos(pts[:, 1])
        assert np.max(np.abs(drift)) <= 1e-7

    def test_labels_preserved(self):
        doc = {
            "grid": {"N": 32},
            "t_end": 0.05,
            "vortices": [{"x": 2.0, "y": 2.0, "alpha": 1.0, "sigma": 0.5}],
            "curves": [{"cx": 2.0, "cy": 2.0, "radius": 0.5, "M": 8},
                       {"cx": 4.0, "cy": 4.0, "radius": 0.5, "M": 9}],
        }
        _, curves = cli.simulate(doc)
        assert [(c.label, len(c.points)) for c in curves] == [("v0", 8), ("v1", 9)]


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

    @staticmethod
    def dumped(tmp_path):
        path = tmp_path / "zeta.f64"
        eu.dump_field(path, eu.GridSpec(16), np.zeros((16, 16)), 0.0, "vorticity")
        return path

    @staticmethod
    def assert_io_error_names(path):
        with pytest.raises(OSError) as err:
            eu.load_field(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("kept_bytes", [12 * 8, None])
    def test_truncated_or_missing_payload_is_an_io_error(self, tmp_path, kept_bytes):
        path = self.dumped(tmp_path)
        if kept_bytes is None:
            path.unlink()
        else:
            path.write_bytes(path.read_bytes()[:kept_bytes])
        self.assert_io_error_names(path)

    @pytest.mark.parametrize("key", ["N", "quantity"])
    def test_sidecar_without_a_key_is_an_io_error(self, tmp_path, key):
        path = self.dumped(tmp_path)
        sidecar = tmp_path / "zeta.f64.json"
        doc = json.loads(sidecar.read_text())
        del doc[key]
        sidecar.write_text(json.dumps(doc))
        self.assert_io_error_names(path)

    @pytest.mark.parametrize("text", ['{"N": 16, "quantity": ', "[16]"])
    def test_sidecar_that_is_not_a_json_object_is_an_io_error(self, tmp_path, text):
        path = self.dumped(tmp_path)
        (tmp_path / "zeta.f64.json").write_text(text)
        self.assert_io_error_names(path)


class TestSpectrumReality:
    def test_conjugate_symmetry(self, grid):
        rng = np.random.default_rng(5)
        zeta = eu.VorticityField(grid, rng.standard_normal((64, 64)))
        # the ky = 0 and Nyquist columns of the half-plane are self-conjugate
        zhat = zeta.spectrum()[:, [0, 32]]
        flipped = np.conj(zhat[(-np.arange(64)) % 64])
        assert np.max(np.abs(zhat - flipped)) <= 1e-9 * np.max(np.abs(zhat))

    def test_rhs_output_real(self, grid):
        rng = np.random.default_rng(6)
        zeta = eu.VorticityField(grid, rng.standard_normal((64, 64)))
        dz, u, v = eu.stage(grid, zeta.spectrum(), [(0.5, 0.7)])
        for out in (np.fft.irfft2(dz), u.u_x, u.u_y, v):
            assert out.dtype == np.float64
