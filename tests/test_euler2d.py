import collections
import dataclasses
import json
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest

from spencerflow import cartan as ca
from spencerflow import cli
from spencerflow import euler2d as eu
from spencerflow import invariants as inv


@pytest.fixture(scope="module")
def grid():
    return eu.GridSpec(64)


def single_mode(grid, kx, ky, amp=1.0):
    X, Y = grid.coords()
    return eu.VorticityField(grid, amp * np.cos(kx * X + ky * Y))


def band_limit(grid, raw):
    return np.fft.irfft2(eu.VorticityField(grid, raw).spectrum(), s=raw.shape)


def tendency(grid, zeta):
    return np.fft.irfft2(eu.stage(grid, zeta.spectrum(), eu.NO_POINTS)[0], s=(grid.N, grid.N))


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

    def test_max_speed_where_squares_and_hypot_order_differently(self, grid):
        # u_x² + u_y² ranks the second point higher, hypot the first: the max
        # must still be the first point's hypot, as the plain expression gives
        first = (-1.4235195912828331, -0.5091135415064895)
        second = (-1.3397514365059482, 0.7004789170928504)
        assert math.hypot(*first) > math.hypot(*second)
        assert first[0] ** 2 + first[1] ** 2 < second[0] ** 2 + second[1] ** 2
        u_x, u_y = np.zeros((2, 64, 64))
        (u_x[3, 5], u_y[3, 5]), (u_x[40, 7], u_y[40, 7]) = first, second
        u = eu.VelocityField(grid, u_x, u_y)
        assert u.max_speed() == float(np.max(np.hypot(u_x, u_y))) == math.hypot(*first)

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
        keep = grid.kept_rows
        assert keep.shape == (64, 1) and grid.band == 22  # the band columns ky <= 21
        assert keep[0, 0] and keep[21, 0] and keep[-21, 0]
        assert not keep[22, 0] and not keep[-22, 0]
        assert not keep[32, 0]  # the Nyquist row
        rng = np.random.default_rng(5)
        zhat = eu.VorticityField(grid, rng.standard_normal((64, 64))).spectrum()
        assert zhat.shape == (64, 22) and not np.any(zhat[22:-21]) and np.all(zhat[:22, 1:])

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

    def test_non_finite_velocity_stops_the_step_after_its_first_stage(self, monkeypatch):
        # 1e307 cos x overflows the rfft2 sum, so its velocity is not finite:
        # the bound raises instead of reading nan, which every dt would pass
        stages = []
        real_stage = eu.stage

        def counted(*args):
            stages.append(args)
            return real_stage(*args)

        monkeypatch.setattr(eu, "stage", counted)
        zeta = single_mode(eu.GridSpec(16), 1, 0, amp=1e307)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(eu.NonFinite):
            eu.rk4_step(zeta, 1e-3)
        assert len(stages) == 1

    def test_a_step_whose_spectrum_leaves_float64_raises(self, grid):
        zhat = single_mode(grid, 1, 0).spectrum()
        huge = np.full_like(zhat, 1e308)  # a first-stage tendency the sum overflows on
        with np.errstate(all="ignore"), pytest.raises(eu.NonFinite, match="spectrum"):
            eu.rk4_step(zhat, 1.0, eu.NO_POINTS, (huge, eu.NO_POINTS, math.inf), eu.Workspace(grid))

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


def reference_point_values(grid, fhat, points):
    """The folded direct sum of point_values, written out in one loop over
    blocks of BLOCK points on this thread."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = grid.band
    m = np.arange(n)
    w = np.where(m > 0, 2.0, 1.0)
    w = np.outer(w, w)[:, None] / (2.0 * grid.N**2)
    pos, neg = (np.stack([f[k, :n] for f in fhat], axis=1) * w for k in (m, -m))
    coef = np.conj(np.stack([pos + neg, 1j * (pos - neg)], 1)).reshape(2 * n, -1).view(float)
    out = np.empty((len(pts), len(fhat)))
    for s in range(0, len(pts), eu.BLOCK):
        theta = np.mod(pts[s : s + eu.BLOCK], grid.L) * (2.0 * math.pi / grid.L)
        e = np.empty(theta.shape + (n,), dtype=complex)
        e[..., :2] = np.exp(1j * theta[..., None] * m[:2])
        h = 2
        while h < n:
            j = min(h, n - h)
            np.multiply(e[..., :j], e[..., h - 1 : h] * e[..., 1:2], out=e[..., h : h + j])
            h += j
        c = e.view(np.float64)
        a = (c[:, 0] @ coef).reshape(len(c), len(fhat), 2 * n)
        out[s : s + eu.BLOCK] = (a @ c[:, 1, :, None])[:, :, 0]
    return out


def serial_stage(grid, zhat, points):
    """The stage as one expression per step on this thread, with the marker
    sum computed inline: the reference for the stage's helper thread."""
    kx, ky = grid.wavenumbers()
    ky = ky[:, : grid.band]
    mask = np.abs(kx) < 2.0 * math.pi / grid.L * grid.band  # the rows |kx| <= N/3
    k2 = kx**2 + ky**2
    inv_k2 = np.divide(mask, k2, out=np.zeros_like(k2), where=k2 > 0)
    diff, cross = (kx**2 - ky**2) * mask, kx * ky * mask
    psi_hat = zhat * inv_k2
    uhat = (1j * ky * psi_hat, -1j * kx * psi_hat)
    s, band = (grid.N, grid.N), slice(0, grid.band)
    u_x, u_y = np.fft.irfft2(uhat[0], s=s), np.fft.irfft2(uhat[1], s=s)
    out = np.fft.rfft2(u_x * u_y)[:, band] * diff
    out += np.fft.rfft2(u_y * u_y - u_x * u_x)[:, band] * cross
    return out, u_x, u_y, reference_point_values(grid, uhat, points)


def stage_arrays(grid, zhat, points):
    out, u, p = eu.stage(grid, zhat, points)
    return out, u.u_x, u.u_y, p


def same_bits(a, b):
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def random_state(N, P, seed):
    grid = eu.GridSpec(N)
    rng = np.random.default_rng(seed)
    zhat = np.fft.rfft2(rng.standard_normal((N, N)))[:, : grid.band]
    return grid, zhat, rng.uniform(-grid.L, 2 * grid.L, size=(P, 2))


@pytest.mark.parametrize("N, P", [(64, 0), (64, 129), (256, 0), (256, 129)])
def test_a_stage_makes_two_irfft2_and_two_rfft2(N, P, monkeypatch):
    # each on the band columns alone: an irfft2 as its ifft over axis 0 and
    # irfft over axis 1, an rfft2 as its rfft over axis 1 and fft over axis 0.
    # From N = OVERLAP_N up the marker sum runs on the helper thread, which
    # must make no FFT either
    grid, zhat, pts = random_state(N, P, 7)
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for kind in ("fft", "ifft", "rfft", "irfft"):
        for name in (kind, kind + "2", kind + "n"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    monkeypatch.setattr(eu, "_cpus", lambda: 2)
    eu.stage(grid, zhat, pts, eu.Workspace(grid))
    assert calls == {"ifft": 2, "irfft": 2, "rfft": 2, "fft": 2}


@pytest.mark.parametrize("N", [16, 32, 64, 128, 256])
def test_band_transforms_equal_the_half_plane_ones(N):
    # the forward transform is rfft2's first band columns and the inverse is
    # irfft2 of the zero-padded half-plane, bit for bit, also through the
    # buffers of a workspace that has been written before
    grid = eu.GridSpec(N)
    rng = np.random.default_rng(N)
    ws = eu.Workspace(grid)
    for _ in range(2):
        x = rng.standard_normal((N, N))
        full = np.fft.rfft2(x)
        band = eu._band_forward(x, grid.band, ws.out, ws.rows[0])
        assert band is ws.out and same_bits([band], [full[:, : grid.band]])
        padded = np.zeros_like(full)
        padded[:, : grid.band] = band
        want = np.fft.irfft2(padded)
        assert same_bits([eu._band_inverse(band, ws.u[0], ws.scratch)], [want])
        assert same_bits([eu.VorticityField.from_spectrum(grid, band).values], [want])


def test_a_stage_returns_the_arrays_of_its_workspace():
    grid, zhat, pts = random_state(32, 5, seed=3)
    ws = eu.Workspace(grid)
    T, u, _ = eu.stage(grid, zhat, pts, ws)
    assert T is ws.out
    assert np.shares_memory(u.u_x, ws.u) and np.shares_memory(u.u_y, ws.u)
    kept = T.copy()
    T_own, u_own, _ = eu.stage(grid, 2 * zhat, pts)  # a workspace of its own
    assert not np.shares_memory(T_own, ws.out) and not np.shares_memory(u_own.u_x, ws.u)
    assert same_bits([T], [kept])
    eu.stage(grid, 2 * zhat, pts, ws)
    assert same_bits([T], [T_own])  # the next stage given ws overwrote it


def warm_peak(fn):
    """The tracemalloc peak of fn() above what was traced before it, on its
    second call: the first writes every buffer of its workspace once."""
    fn()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def test_a_step_in_a_warm_workspace_allocates_little():
    # one step at N = 256. With 768 markers the marker blocks set the peak
    # (about 0.6 MB, up to 0.8 MB with the helper thread's block beside the
    # caller's); a step that allocated its stage and FFT arrays afresh peaked
    # at 9.3 MB. Without markers nothing of the step's own is left but the
    # finite check (about 0.14 MB with the FFTs' own buffers): the new
    # spectrum is a state array of the workspace, where a fresh one peaked
    # at 0.38 MB
    grid = eu.GridSpec(256)
    zhat = eu.gaussian_vorticity(grid, [(3.0, 3.0)], [1.0], [0.5]).spectrum()
    pts = np.random.default_rng(5).uniform(0.0, grid.L, (768, 2))
    ws = eu.Workspace(grid)
    assert warm_peak(lambda: eu.rk4_step(zhat, 1e-3, pts, None, ws))[0] < 1.2e6
    assert warm_peak(lambda: eu.rk4_step(zhat, 1e-3, eu.NO_POINTS, None, ws))[0] < 0.25e6


def test_a_recorded_state_in_a_warm_workspace_allocates_little():
    # simulate's work on a recorded state at N = 256: its stage, record, CFL
    # bound and step. The record's grid field, transforms and magnitudes and
    # the bound's squares go to workspace arrays that are free between
    # stages, and so does the new spectrum; with 768 markers the marker
    # blocks set the peak (about 0.6 to 0.8 MB; 2.39 MB with the record's
    # arrays allocated afresh), and without markers it is about 0.14 MB
    # (0.38 MB with a fresh spectrum). The record keeps its bits.
    grid = eu.GridSpec(256)
    zhat = eu.gaussian_vorticity(grid, [(3.0, 3.0)], [1.0], [0.5]).spectrum()
    ws = eu.Workspace(grid)

    def recorded_state(pts):
        k1, u, p1 = eu.stage(grid, zhat, pts, ws)
        zeta = eu.VorticityField.from_spectrum(grid, zhat, ws)
        curves = ([pts], [p1]) if len(pts) else ([], [])
        record = inv.phi_triple(zeta, u, *curves, ws=ws)
        bound = u.cfl_dt(ws)
        eu.rk4_step(zhat, 1e-3, pts, (k1, p1, bound), ws)
        return record, bound

    pts = np.random.default_rng(5).uniform(0.0, grid.L, (768, 2))
    peak, (record, bound) = warm_peak(lambda: recorded_state(pts))
    assert peak < 1.2e6
    _, u, p1 = eu.stage(grid, zhat, pts)  # a workspace of its own
    zeta = eu.VorticityField.from_spectrum(grid, zhat)
    assert record == inv.phi_triple(zeta, u, [pts], [p1]) and bound == u.cfl_dt()
    assert warm_peak(lambda: recorded_state(eu.NO_POINTS))[0] < 0.25e6


def test_a_chain_of_steps_alternates_between_the_workspace_states():
    # spectrum(ws) is ws.states[0]; each step writes the state array its
    # input does not occupy, so a returned state holds through the next step
    # and is overwritten by the second-next
    grid = eu.GridSpec(32)
    ws = eu.Workspace(grid)
    field = eu.gaussian_vorticity(grid, [(3.0, 3.0)], [1.0], [0.5])
    z0 = field.spectrum(ws)
    assert np.shares_memory(z0, ws.states[0]) and same_bits([z0], [field.spectrum()])
    z1, _ = eu.rk4_step(z0, 1e-2, eu.NO_POINTS, None, ws)
    kept = z1.copy()
    z2, _ = eu.rk4_step(z1, 1e-2, eu.NO_POINTS, None, ws)
    assert np.shares_memory(z1, ws.states[1]) and np.shares_memory(z2, ws.states[0])
    assert same_bits([z1], [kept])
    z3, _ = eu.rk4_step(z2, 1e-2, eu.NO_POINTS, None, ws)
    assert np.shares_memory(z3, z1) and not same_bits([z1], [kept])


def test_a_step_leaves_the_callers_state_unwritten():
    grid, zhat, pts = random_state(32, 9, seed=4)
    ws = eu.Workspace(grid)
    for _ in range(2):  # states[0] is the new spectrum, then states[0] again
        kept = zhat.copy()
        z, _ = eu.rk4_step(zhat, 1e-3, pts, None, ws)
        assert same_bits([zhat], [kept]) and not np.shares_memory(z, zhat)
        assert np.shares_memory(z, ws.states[0])


class TestStageHelperThread:
    """From N = OVERLAP_N up, stage hands the marker sum to a helper thread
    that takes its blocks from the front while the caller does its own FFTs;
    the caller then takes the blocks the helper has not, from the back."""

    @pytest.fixture(autouse=True)
    def helper_runs_every_marker_sum(self, monkeypatch):
        # every grid hands its sum over, and the caller goes on only once the
        # helper has emptied the block list, so that the helper runs every block
        monkeypatch.setattr(eu, "OVERLAP_N", 16)
        monkeypatch.setattr(eu, "_cpus", lambda: 2)
        submit = eu._Helper.submit

        def submit_and_wait_for_the_blocks(helper, fn):
            submit(helper, fn)
            deadline = time.monotonic() + 30
            while fn.__self__.starts and time.monotonic() < deadline:
                time.sleep(1e-4)

        monkeypatch.setattr(eu._Helper, "submit", submit_and_wait_for_the_blocks)

    @pytest.mark.parametrize("N", [16, 64])
    @pytest.mark.parametrize("P", [0, 1, 64, 65, 129, 192])
    @pytest.mark.parametrize("overlap_n", [16, 2**30])  # helper thread, in place
    def test_bit_identical_to_the_serial_stage(self, N, P, overlap_n, monkeypatch):
        monkeypatch.setattr(eu, "OVERLAP_N", overlap_n)
        grid, zhat, pts = random_state(N, P, seed=N + P)
        assert same_bits(stage_arrays(grid, zhat, pts), serial_stage(grid, zhat, pts))

    def test_the_helper_runs_the_front_blocks_and_the_caller_the_back(self, monkeypatch):
        monkeypatch.undo()  # the fixture's submit would wait for the helper to take every block
        monkeypatch.setattr(eu, "OVERLAP_N", 16)
        monkeypatch.setattr(eu, "_cpus", lambda: 2)
        grid, zhat, pts = random_state(32, 3 * eu.BLOCK + 5, seed=13)
        caller, ran = threading.get_ident(), []
        helper_started = threading.Event()
        block_values = eu._block_values

        def block_values_in_turn(grid, coef, block):
            # the caller waits until the helper has taken its first block, and
            # the helper runs it only once the caller has run the three others,
            # so the stage must wait for the helper's block
            if threading.get_ident() == caller:
                assert helper_started.wait(30)
            else:
                helper_started.set()
                deadline = time.monotonic() + 30
                while len(ran) < 3 and time.monotonic() < deadline:
                    time.sleep(1e-3)
            values = block_values(grid, coef, block)
            start = int(np.flatnonzero(pts[:, 0] == block[0, 0])[0])
            ran.append((threading.get_ident(), start))
            return values

        monkeypatch.setattr(eu, "_block_values", block_values_in_turn)
        got = stage_arrays(grid, zhat, pts)
        assert len(ran) == 4
        assert same_bits(got, serial_stage(grid, zhat, pts))
        assert [s for ident, s in ran if ident != caller] == [0]
        assert [s for ident, s in ran if ident == caller] == [k * eu.BLOCK for k in (3, 2, 1)]

    def test_bit_identical_at_the_default_overlap_size(self, monkeypatch):
        monkeypatch.undo()
        grid, zhat, pts = random_state(eu.OVERLAP_N, 33, seed=7)
        assert same_bits(stage_arrays(grid, zhat, pts), serial_stage(grid, zhat, pts))

    @staticmethod
    def serial_step(seed):
        """A state, points, a dt and the RK4 step written as one expression."""
        grid, zhat, pts = random_state(32, 40, seed)
        zhat = eu.VorticityField(grid, np.fft.irfft2(zhat, s=(32, 32))).spectrum()
        # a step near the bound, so that each rounding of the sum reaches the result
        dt = 0.9 * eu.stage(grid, zhat, eu.NO_POINTS)[1].cfl_dt()
        k1, _, _, p1 = serial_stage(grid, zhat, pts)
        k2, _, _, p2 = serial_stage(grid, zhat + dt / 2 * k1, pts + dt / 2 * p1)
        k3, _, _, p3 = serial_stage(grid, zhat + dt / 2 * k2, pts + dt / 2 * p2)
        k4, _, _, p4 = serial_stage(grid, zhat + dt * k3, pts + dt * p3)
        want_z = zhat + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        want_p = np.mod(pts + dt / 6 * (p1 + 2 * p2 + 2 * p3 + p4), grid.L)
        return grid, zhat, pts, dt, [want_z, want_p]

    def test_rk4_step_bit_identical_to_the_serial_expression(self):
        grid, zhat, pts, dt, want = self.serial_step(seed=9)
        z, p = eu.rk4_step(zhat, dt, pts, None, eu.Workspace(grid))
        assert same_bits([z, p], want)

    def test_rk4_step_from_its_workspaces_first_stage_is_bit_identical(self):
        # k1 is the workspace's own tendency array, which the next stage overwrites
        grid, zhat, pts, dt, want = self.serial_step(seed=10)
        ws = eu.Workspace(grid)
        for _ in range(2):  # a fresh workspace, then a warm one
            k1, u, p1 = eu.stage(grid, zhat, pts, ws)
            z, p = eu.rk4_step(zhat, dt, pts, (k1, p1, u.cfl_dt()), ws)
            assert same_bits([z, p], want)

    def test_steps_through_the_workspace_states_equal_the_expression(self):
        # five chained steps, each written in place into the state array its
        # input does not occupy, against zhat + dt / 6 (k1 + ... + k4) in
        # fresh arrays: the same bits
        grid, zhat, pts, dt, _ = self.serial_step(seed=11)
        ws = eu.Workspace(grid)
        z, p, want_z, want_p = zhat, pts, zhat, pts
        for _ in range(5):
            z, p = eu.rk4_step(z, dt, p, None, ws)
            k1, _, _, p1 = serial_stage(grid, want_z, want_p)
            k2, _, _, p2 = serial_stage(grid, want_z + dt / 2 * k1, want_p + dt / 2 * p1)
            k3, _, _, p3 = serial_stage(grid, want_z + dt / 2 * k2, want_p + dt / 2 * p2)
            k4, _, _, p4 = serial_stage(grid, want_z + dt * k3, want_p + dt * p3)
            want_z = dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4) + want_z
            want_p = np.mod(want_p + dt / 6 * (p1 + 2 * p2 + 2 * p3 + p4), grid.L)
            assert same_bits([z, p], [want_z, want_p])

    def test_on_one_cpu_the_caller_does_all_the_work(self, monkeypatch):
        def submit(*args):
            raise AssertionError("work handed to the helper on one CPU")

        monkeypatch.setattr(eu, "_cpus", lambda: 1)
        monkeypatch.setattr(eu._Helper, "submit", submit)
        grid, zhat, pts = random_state(16, 9, seed=12)
        assert same_bits(stage_arrays(grid, zhat, pts), serial_stage(grid, zhat, pts))

    @pytest.mark.parametrize("N, P", [(eu.OVERLAP_N // 2, 9), (eu.OVERLAP_N, 0)])
    def test_small_grids_and_empty_sums_stay_with_the_caller(self, N, P, monkeypatch):
        def submit(*args):
            raise AssertionError("work handed to the helper")

        monkeypatch.undo()
        monkeypatch.setattr(eu, "_cpus", lambda: 2)
        monkeypatch.setattr(eu._Helper, "submit", submit)
        grid, zhat, pts = random_state(N, P, seed=14)
        assert same_bits(stage_arrays(grid, zhat, pts), serial_stage(grid, zhat, pts))

    def test_the_caller_runs_the_sum_the_busy_helper_has_not_started(self, monkeypatch):
        monkeypatch.undo()
        release, finished = threading.Event(), threading.Event()

        def busy():
            release.wait(10)
            finished.set()

        eu._helper.submit(busy)
        try:
            grid, zhat, pts = random_state(eu.OVERLAP_N, 9, seed=11)
            assert same_bits(stage_arrays(grid, zhat, pts), serial_stage(grid, zhat, pts))
            assert not finished.is_set()  # the stage did not wait for the helper
        finally:
            release.set()
            assert finished.wait(10)

    def test_marker_errors_are_raised_in_the_caller_and_the_next_stage_works(self, monkeypatch):
        grid, zhat, pts = random_state(16, 5, seed=1)
        with pytest.raises(ValueError, match="non-finite evaluation point"):
            eu.stage(grid, zhat, [(np.nan, 0.0)])
        block_values = eu._block_values

        def broken(*args):
            raise ValueError("internal failure")

        monkeypatch.setattr(eu, "_block_values", broken)
        with pytest.raises(ValueError, match="internal failure"):
            eu.stage(grid, zhat, pts)
        monkeypatch.setattr(eu, "_block_values", block_values)
        assert same_bits(stage_arrays(grid, zhat, pts), serial_stage(grid, zhat, pts))

    def test_marker_sum_runs_in_the_callers_errstate(self, monkeypatch):
        grid, zhat, pts = random_state(16, 3, seed=2)
        block_values, seen = eu._block_values, []

        def recording(*args):
            seen.append(np.geterr())
            return block_values(*args)

        monkeypatch.setattr(eu, "_block_values", recording)
        with np.errstate(over="ignore", invalid="raise", under="warn"):
            eu.stage(grid, zhat, pts)
            assert seen == [np.geterr()]

    def test_overflow_follows_the_callers_errstate(self):
        grid = eu.GridSpec(16)
        zhat = np.full((16, 6), 1.7e308 + 0j)
        pts = np.random.default_rng(3).uniform(0, grid.L, size=(7, 2))
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            eu.stage(grid, zhat, pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(all="ignore"):
                eu.stage(grid, zhat, pts)

    def test_concurrent_callers_each_get_their_own_result(self):
        states = [random_state(32, 17 * k, seed=k) for k in range(4)]
        want = [serial_stage(*state) for state in states]
        got = [[] for _ in states]

        def run(k):
            for _ in range(25):
                got[k].append(stage_arrays(*states[k]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(states))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, results in enumerate(got):
            assert len(results) == 25
            assert all(same_bits(r, want[k]) for r in results)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_helper(self):
        grid, zhat, pts = random_state(16, 4, seed=5)
        want = serial_stage(grid, zhat, pts)
        eu.stage(grid, zhat, pts)  # the helper thread now runs in this process
        pid = os.fork()
        if pid == 0:  # the child has no helper thread; a stage that waits for one hangs
            code = 1
            try:
                signal.alarm(20)
                code = 0 if same_bits(stage_arrays(grid, zhat, pts), want) else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_stages_start_at_most_one_thread(self):
        grid, zhat, pts = random_state(16, 4, seed=4)
        before = threading.active_count()
        for _ in range(200):
            eu.stage(grid, zhat, pts)
        assert threading.active_count() <= before + 1


def meshgrid_gaussian(grid, centers, alphas, sigmas):
    """The reference gaussian_vorticity keeps the bits of: every offset and
    square formed on the N x N meshgrid."""
    X, Y = grid.coords()
    vals = np.zeros((grid.N, grid.N))
    for (cx, cy), alpha, sigma in zip(centers, alphas, sigmas):
        dx = X - cx
        dy = Y - cy
        dx -= grid.L * np.round(dx / grid.L)
        dy -= grid.L * np.round(dy / grid.L)
        vals += alpha * np.exp(-(dx**2 + dy**2) / (2.0 * sigma**2))
    return vals


class TestGaussianInitialData:
    @pytest.mark.parametrize("N", [16, 64, 256])
    @pytest.mark.parametrize("L", [1.0, 2.0 * math.pi, 37.5])
    def test_bits_of_the_meshgrid_expression(self, N, L):
        # centres inside and outside [0, L), both signs of alpha, and a
        # vortex so narrow that its tail underflows
        grid = eu.GridSpec(N, L)
        centers = [(0.3 * L, 0.6 * L), (-0.45 * L, 1.7 * L), (2.2 * L, -0.1 * L)]
        alphas, sigmas = [6.0, -4.0, -3e-3], [0.07 * L, 0.2 * L, 0.004 * L]
        got = eu.gaussian_vorticity(grid, centers, alphas, sigmas)
        assert same_bits([got.values], [meshgrid_gaussian(grid, centers, alphas, sigmas)])

    def test_the_appendix_d_field_allocates_little(self):
        # the offsets are 1-D, so the field and one N x N term are its only
        # grid-sized arrays (1.19 MB at N = 256); the meshgrid form made about
        # six (3.67 MB)
        doc = json.loads(
            resources.files("spencerflow.presets").joinpath("appendix_d.json").read_text()
        )
        grid, vortices, *_ = cli.load_euler_config(doc)
        assert grid.N == 256
        args = zip(*[((x, y), alpha, sigma) for x, y, alpha, sigma in vortices])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            eu.gaussian_vorticity(grid, *args)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

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
        # the ky = 0 column of the band is self-conjugate
        zhat = zeta.spectrum()[:, [0]]
        flipped = np.conj(zhat[(-np.arange(64)) % 64])
        assert np.max(np.abs(zhat - flipped)) <= 1e-9 * np.max(np.abs(zhat))

    def test_rhs_output_real(self, grid):
        rng = np.random.default_rng(6)
        zeta = eu.VorticityField(grid, rng.standard_normal((64, 64)))
        dz, u, v = eu.stage(grid, zeta.spectrum(), [(0.5, 0.7)])
        for out in (np.fft.irfft2(dz, s=(64, 64)), u.u_x, u.u_y, v):
            assert out.dtype == np.float64
