"""Pseudo-spectral 2D incompressible Euler on the periodic torus.

Conventions (fixed once, validated by the single-mode oracle in the tests):
zeta = d(u_y)/dx - d(u_x)/dy, u = (dpsi/dy, -dpsi/dx), zeta = -Laplacian(psi).
Quadratic terms are dealiased with the 2/3 rule, and every velocity is the
velocity of the dealiased vorticity. The state of a run is the dealiased
vorticity spectrum on the band columns ky <= N/3 of the rfft2 half-plane, an
(N, N//3 + 1) complex array, the only columns the 2/3 rule leaves nonzero;
every transform of a step touches only those columns. A run's stages and
steps write into one Workspace, so the arrays a stage returns alias it.
"""

import collections
import contextvars
import json
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import CFLViolation, NonFinite

# marker points per block of the direct Fourier sum of _MarkerSum. In a stage
# the helper thread and the caller each take a block at a time beside the grid
# FFTs, so the block arrays add to the grid part's: at N = 256 a block's phases
# and matmul product take 0.18 MB each next to the 0.5 MB coefficient matrix
# (at 128 points the peak RSS of a multivortex run was 0.45 MB higher)
BLOCK = 64
# the smallest grid whose stages run the marker sum on the helper thread. Below
# it each numpy call of either part takes tens of microseconds, and the GIL
# changing hands at every call costs more than the overlap saves: on a 2-core
# host, N = 128 stages were no faster with the helper for 128 to 2048 points
# and N = 64 stages slower, while N = 256 stages were faster for 0 to 768
# points and N = 512 stages for 128
OVERLAP_N = 256


@dataclass(frozen=True)
class GridSpec:
    N: int
    L: float = 2.0 * math.pi

    def __post_init__(self):
        if self.N < 16 or (self.N & (self.N - 1)) != 0:
            raise ValueError("N must be a power of two >= 16")
        if self.L <= 0:
            raise ValueError("domain length must be positive")

    @property
    def dx(self):
        return self.L / self.N

    def coords(self):
        x = np.arange(self.N) * self.dx
        return np.meshgrid(x, x, indexing="ij")

    @property
    def band(self):
        """The number of band columns, ky = 0 .. N//3: the ky <= N/3 the 2/3 rule keeps."""
        return self.N // 3 + 1

    @property
    def kept_rows(self):
        """(N, 1) bool of |kx| <= N/3: all of the 2/3 rule's cut on the band columns."""
        return np.abs(np.fft.fftfreq(self.N, d=1.0 / self.N))[:, None] <= self.N / 3.0

    def wavenumbers(self):
        """kx (N, 1) and ky (1, N/2+1) of the whole rfft2 half-plane."""
        kx = 2.0 * math.pi * np.fft.fftfreq(self.N, d=self.dx)[:, None]
        return kx, 2.0 * math.pi * np.fft.rfftfreq(self.N, d=self.dx)[None, :]


@dataclass(frozen=True)
class VorticityField:
    grid: GridSpec
    values: np.ndarray  # N x N float64, values[i, j] = zeta(x_i, y_j)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.N, self.grid.N):
            raise ValueError("field shape does not match the grid")
        if not np.all(np.isfinite(vals)):
            raise NonFinite("non-finite vorticity values")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_spectrum(grid, zhat, ws=None):
        """The grid field of a band spectrum: one irfft2. With a workspace ws
        it is written through ws.scratch to ws.field, an N x N float view of
        ws.uhat, which is free between stages, the same bits, and holds until
        ws's next stage."""
        if ws is None:
            return VorticityField(grid, np.fft.irfft2(zhat, s=(grid.N, grid.N)))
        return VorticityField(grid, _band_inverse(zhat, ws.field, ws.scratch))

    def spectrum(self, ws=None):
        """The run state of this field: its spectrum on the band columns,
        dealiased, so zero in the rows |kx| > N/3. It is a fresh array; with a
        workspace ws it is ws.states[0], its rows' rfft going through
        ws.rows[0], the same bits, and holds until ws.states[0] is written
        again: by the next spectrum given ws, or by an rk4_step given ws
        whose input is not there."""
        out, rows = (None, None) if ws is None else (ws.states[0], ws.rows[0])
        zhat = _band_forward(self.values, self.grid.band, out, rows)
        zhat *= self.grid.kept_rows
        return zhat


@dataclass(frozen=True)
class VelocityField:
    grid: GridSpec
    u_x: np.ndarray
    u_y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u_x", np.asarray(self.u_x, dtype=np.float64))
        object.__setattr__(self, "u_y", np.asarray(self.u_y, dtype=np.float64))

    def max_speed(self, ws=None):
        """max(hypot(u_x, u_y)) bit for bit: hypot runs where u_x² + u_y² is within 1e-12
        of its max (far above either's rounding), everywhere if that max is 0, tiny or inf.
        With a workspace ws, u_x² and u_y² are written to ws.planes, the float views
        of the two halves of ws.rows, and are spent when it returns."""
        sq = (None, None) if ws is None else ws.planes
        with np.errstate(over="ignore"):
            s = np.multiply(self.u_x, self.u_x, out=sq[0])
            s += np.multiply(self.u_y, self.u_y, out=sq[1])
        m = s.max()
        near = s >= m * (1 - 1e-12) if 1e-290 < m < math.inf else ...
        return float(np.max(np.hypot(self.u_x[near], self.u_y[near])))

    def cfl_dt(self, ws=None):
        """Advective step bound dt <= 0.5 * dx / max|u|; +inf for a still field.
        Raises NonFinite when max|u| is not finite, which no dt can pass.
        max_speed works in ws.planes when a workspace ws is given."""
        vmax = self.max_speed(ws)
        if not math.isfinite(vmax):
            raise NonFinite("non-finite velocity")
        return math.inf if vmax == 0.0 else 0.5 * self.grid.dx / vmax


@dataclass(frozen=True)
class MarkerCurve:
    """Closed ordered loop of material points in the fundamental domain."""

    label: str
    points: np.ndarray  # M x 2

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 8:
            raise ValueError("a marker curve needs at least 8 (x, y) points")
        object.__setattr__(self, "points", pts)

    @staticmethod
    def circle(label, cx, cy, radius, M=128):
        theta = 2.0 * math.pi * np.arange(M) / M
        pts = np.stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)], axis=1)
        return MarkerCurve(label, pts)


class Workspace:
    """The spectral operators and the arrays of the stages and RK4 steps of
    one run on grid, made once: the caller makes one per run and passes it to
    every stage and rk4_step, which write their intermediates into it instead
    of allocating them. The tendency (out) and the grid velocity (u) that a
    stage returns hold only until the next stage given the workspace. The
    run state lives in states, whose two band arrays rk4_step fills in
    turn. Those are the only arrays live between two stages, so a record and
    a CFL bound given the workspace work in the others instead of
    allocating: from_spectrum writes the grid vorticity to field, an N x N
    float view of uhat; max_speed and invariants.enstrophy square into
    planes, the N x N float views of the first N^2 floats of the two halves
    of rows; and invariants.divergence_residual transforms u into rows and
    takes the magnitudes in coef and scratch. One workspace serves one
    caller at a time. Its size is 32 N^2 + 48 N + 120 N b + 64 b^2 + 16 b
    bytes for b = N // 3 + 1, the band width."""

    def __init__(self, grid):
        N, band = grid.N, (grid.N, grid.band)
        self.grid = grid
        # i ky, -i kx, 1/k^2, kx^2 - ky^2 and kx ky on the band, each 0 at k = 0.
        # All but i ky are 0 on the rows the 2/3 rule cuts, the Nyquist row
        # among them; i ky is the (1, band) row, as it multiplies psi hat,
        # which 1/k^2 zeroes there (an (N, band) copy cost 0.35 MB at N = 256)
        kx, ky = grid.wavenumbers()
        ky, keep = ky[:, : grid.band], grid.kept_rows
        self.iky, self.minus_ikx = 1j * ky, np.where(keep, -1j * kx, 0)
        k2 = kx**2 + ky**2
        self.inv_k2 = np.divide(keep, k2, out=np.zeros_like(k2), where=k2 > 0)
        self.diff, self.cross = (kx**2 - ky**2) * keep, kx * ky * keep
        self.uhat = np.empty((2, *band), complex)  # u_x and u_y hat; psi hat before u_y's
        self.field = self.uhat.reshape(-1).view(float)[: N * N].reshape(N, N)  # a record's zeta
        self.u = np.empty((2, N, N))
        # a stage's product plane is planes[0]: u_x u_y, then u_y^2 - u_x^2, with
        # u_x^2 in planes[1] once rows[1], the rfft of the rows of u_x u_y, is spent
        self.rows = np.empty((2, N, N // 2 + 1), complex)
        self.planes = self.rows.reshape(2, -1).view(float)[:, : N * N].reshape(2, N, N)
        # rk4_step's stage input, then the ifft of a u hat's columns, then F[u_y^2 - u_x^2]
        self.scratch = np.empty(band, complex)
        self.out = np.empty(band, complex)  # the tendency
        self.states = np.empty((2, *band), complex)  # run states: spectrum's, rk4_step's in turn
        self.coef = np.empty((grid.band, 2, 2, grid.band), complex)  # _fold's, for (u_x, u_y)


def _band_forward(x, band, out=None, rows=None):
    """rfft2(x)[:, :band] bit for bit: rfft over the rows, then fft over
    axis 0 of the first band columns only."""
    rows = np.fft.rfft(x, axis=1, out=rows)
    return np.fft.fft(rows[:, :band], axis=0, out=out)


def _band_inverse(zhat, out, cols):
    """irfft2(zhat, s=out.shape) bit for bit, through the (N, band) array
    cols. It is irfft2's own two steps, because numpy's irfft2 ignores out."""
    np.fft.ifft(zhat, axis=0, out=cols)
    return np.fft.irfft(cols, n=out.shape[1], axis=1, out=out)


def velocity_from_vorticity(zeta):
    """The velocity of the dealiased zeta on the grid: that of its stage."""
    return stage(zeta.grid, zeta.spectrum(), NO_POINTS)[1]


def _fold(grid, fhat, coef=None):
    """The coefficients of _MarkerSum: rows (m, cos | sin), columns (field,
    ky, Re | -Im) of the folded sum, as a (2n, 2n len(fhat)) float array,
    written through the (n, 2, len(fhat), n) complex array coef if given."""
    n = grid.band  # the band is |kx|, ky <= n - 1
    m = np.arange(n)
    # a ky > 0 column also stands for its conjugate mirror (x2); the kx = 0 row
    # meets itself in pos + neg below, so it is halved
    w = np.where(m > 0, 2.0, 1.0)
    w = np.outer(w, w) / (2.0 * grid.N**2)
    if coef is None:
        coef = np.empty((n, 2, len(fhat), n), dtype=complex)
    for i, f in enumerate(fhat):
        pos = np.multiply(f[:n, :n], w, out=coef[:, 0, i])
        neg = f[-m, :n] * w
        np.subtract(pos, neg, out=coef[:, 1, i])
        pos += neg
    coef[:, 1] *= 1j
    return np.conj(coef, out=coef).reshape(2 * n, -1).view(float)


def _block_values(grid, coef, pts):
    """_MarkerSum's values at one block of (B, 2) points, from _fold's coefficients."""
    n = len(coef) // 2
    theta = np.mod(pts, grid.L) * (2.0 * math.pi / grid.L)
    e = np.empty(theta.shape + (n,), dtype=complex)  # exp(i m x), exp(i m y)
    e[..., :2] = np.exp(1j * theta[..., None] * np.arange(2))
    h = 2
    while h < n:  # double the known powers: exp(i (h + j) t) = exp(i j t) exp(i h t)
        j = min(h, n - h)
        np.multiply(e[..., :j], e[..., h - 1 : h] * e[..., 1:2], out=e[..., h : h + j])
        h += j
    c = e.view(np.float64)  # (points, 2, 2n): cos m t and sin m t interleaved
    a = (c[:, 0] @ coef).reshape(len(c), -1, 2 * n)
    return (a @ c[:, 1, :, None])[:, :, 0]


class _MarkerSum:
    """Values at the (P, 2) points of the real fields whose band spectra are
    listed in fhat, as a (P, len(fhat)) array: the direct Fourier sum over the
    2/3 band, exact up to rounding for fields inside it, in O(P N^2) work. With
    each kx = m row folded with its -m mirror into cos(m x) and sin(m x) rows, a
    block of points costs one real matmul and one batched product over ky.
    The points are one list of blocks that two threads drain from both ends:
    in a stage the helper takes blocks from the front while the caller does
    the grid FFTs, then the caller takes the rest from the back. deque pops
    are atomic, so each block runs once. Whichever thread first needs the
    folded coefficients computes them, into the buffer buf when one is
    given; the other waits. Once values() returns, neither thread touches
    buf again."""

    def __init__(self, grid, fhat, points, buf=None):
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        if not np.all(np.isfinite(pts)):
            raise NonFinite("non-finite evaluation point")
        self.grid, self.fhat, self.pts, self.buf = grid, fhat, pts, buf
        self.out = np.empty((len(pts), len(fhat)))
        self.starts = collections.deque(range(0, len(pts), BLOCK))
        self.coef = None
        self.folding = threading.Lock()
        self.busy = threading.Lock()  # held by the helper while it takes blocks
        self.error = None
        self.ctx = contextvars.copy_context()  # numpy's errstate, for the helper

    def _drain(self, pop):
        while True:
            try:
                s = pop()
            except IndexError:
                return
            with self.folding:
                if self.coef is None:
                    self.coef = _fold(self.grid, self.fhat, self.buf)
            self.out[s : s + BLOCK] = _block_values(self.grid, self.coef, self.pts[s : s + BLOCK])

    def help(self):
        """The helper's part: blocks from the front, in the caller's context."""
        with self.busy:
            try:
                self.ctx.run(self._drain, self.starts.popleft)
            except BaseException as exc:  # re-raised by values()
                self.error = exc

    def values(self):
        """The (P, len(fhat)) values. Runs, from the last block back, every
        block the helper has not taken, then waits for the one it may be on."""
        self._drain(self.starts.pop)
        with self.busy:
            pass
        if self.error is not None:
            raise self.error
        return self.out


class _Helper:
    """One daemon thread, started on first use and kept for the life of the
    process, that runs the submitted calls in order. numpy's FFTs, ufunc loops
    and BLAS release the GIL, so a call handed to it overlaps the caller's own
    numpy work on a second core."""

    def __init__(self):
        self.calls = collections.deque()
        self.pending = threading.Semaphore(0)
        self.start = threading.Lock()
        self.thread = None

    def submit(self, fn):
        with self.start:
            if self.thread is None:
                self.thread = threading.Thread(
                    target=self._serve, name="spencerflow-stage-helper", daemon=True
                )
                self.thread.start()
        self.calls.append(fn)
        self.pending.release()

    def _serve(self):
        while True:
            self.pending.acquire()
            self.calls.popleft()()


def _cpus():
    """The number of CPUs this process may run on. On one CPU the two threads
    only take turns, and a multivortex run was 18% slower with the helper."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _new_helper():
    global _helper
    _helper = _Helper()


_new_helper()
os.register_at_fork(after_in_child=_new_helper)  # a forked child has no helper thread


def stage(grid, zhat, points, ws=None):
    """The RK4 stage kernel. For the vorticity band spectrum zhat and the
    (P, 2) marker points, from one psi inversion of the dealiased field: the
    tendency band spectrum of -(u . grad) zeta, dealiased and with its mean
    mode zero; the velocity on the grid; the (P, 2) velocity at the points.
    For divergence-free u the tendency is Basdevant's
    (kx^2 - ky^2) F[u_x u_y] + kx ky F[u_y^2 - u_x^2] (J. Comput. Phys. 50,
    1983): 2 inverse and 2 forward band transforms, whose products' rounding
    is scaled by k^2. The work is done in the workspace ws, a new one if
    None; the tendency and the grid velocity are its arrays, so they hold
    until the next stage given ws.
    From N = OVERLAP_N up and with two CPUs or more, the helper thread takes
    blocks of the marker sum from the front while this thread does the FFTs;
    then this thread takes the blocks left, from the last one back."""
    if ws is None:
        ws = Workspace(grid)
    # the one psi inversion; the k=0 mode of psi is zero (a constant
    # vorticity offset produces no velocity)
    uhat = ws.uhat
    psi_hat = np.multiply(zhat, ws.inv_k2, out=uhat[1])
    np.multiply(ws.iky, psi_hat, out=uhat[0])
    np.multiply(ws.minus_ikx, psi_hat, out=uhat[1])
    markers = _MarkerSum(grid, uhat, points, ws.coef)
    if markers.starts and grid.N >= OVERLAP_N and _cpus() > 1:
        _helper.submit(markers.help)
    try:
        for f, values in zip(uhat, ws.u):
            _band_inverse(f, values, ws.scratch)
        u = VelocityField(grid, *ws.u)
        prod, sq = ws.planes
        np.multiply(u.u_x, u.u_y, out=prod)
        out = _band_forward(prod, grid.band, ws.out, ws.rows[1])
        out *= ws.diff
        np.multiply(u.u_y, u.u_y, out=prod)
        prod -= np.multiply(u.u_x, u.u_x, out=sq)
        sq_hat = _band_forward(prod, grid.band, ws.scratch, ws.rows[1])
        sq_hat *= ws.cross
        out += sq_hat
    finally:
        p = markers.values()
    return out, u, p


NO_POINTS = np.empty((0, 2))
NO_POINTS.flags.writeable = False


def _shifted(ws, zhat, h, k):
    """The stage input zhat + h k, written to ws.scratch."""
    zin = np.multiply(k, h, out=ws.scratch)
    zin += zhat
    return zin


def rk4_step(zeta, dt, points=NO_POINTS, first=None, ws=None):
    """Classical 4-stage step of the vorticity transport equation and of the
    (P, 2) marker points it carries, both through the same stage velocities.
    zeta is the band spectrum of a run, whose workspace ws is then required;
    or a VorticityField, stepped through its spectrum (in a new workspace if
    ws is None) and returned as a field. first is (k1, p1, bound) for k1 and
    p1, the tendency and the marker velocity of zeta's stage, and the grid
    velocity's cfl_dt(), when the caller has them; k1 may be ws.out.
    Raises CFLViolation when dt exceeds that advective bound of zeta, and
    NonFinite when the new spectrum is not finite; returns (zeta, points),
    the points wrapped into the domain. k1 + 2 k2 + 2 k3 + k4 is summed in
    that order in the one of ws.states that zeta's spectrum does not occupy
    (ws.states[0] for a caller's array), scaled by dt / 6, and zeta's
    spectrum added to it in place: the bits of zhat + dt / 6 (k1 + ... + k4).
    That array is the new spectrum, so a chain of steps, each given the one
    before's result, alternates between the two and allocates no state: a
    returned spectrum holds until the second-next rk4_step given ws, and a
    caller's array is never written."""
    if dt == 0.0:
        return zeta, points
    field = isinstance(zeta, VorticityField)
    if ws is None:
        ws = Workspace(zeta.grid)
    g = ws.grid
    zhat = zeta.spectrum(ws) if field else zeta
    if first is None:
        k1, u, p1 = stage(g, zhat, points, ws)
        first = (k1, p1, u.cfl_dt(ws))
    k1, p1, bound = first
    if dt > bound:
        raise CFLViolation(f"dt={dt} exceeds the advective bound {bound}")
    acc = ws.states[1] if np.may_share_memory(zhat, ws.states[0]) else ws.states[0]
    np.copyto(acc, k1)
    k2, _, p2 = stage(g, _shifted(ws, zhat, dt / 2, k1), points + dt / 2 * p1, ws)
    zin = _shifted(ws, zhat, dt / 2, k2)
    k2 *= 2
    acc += k2
    k3, _, p3 = stage(g, zin, points + dt / 2 * p2, ws)
    zin = _shifted(ws, zhat, dt, k3)
    k3 *= 2
    acc += k3
    k4, _, p4 = stage(g, zin, points + dt * p3, ws)
    acc += k4
    acc *= dt / 6
    acc += zhat
    if not np.all(np.isfinite(acc)):
        raise NonFinite("non-finite vorticity spectrum")
    points = np.mod(points + dt / 6 * (p1 + 2 * p2 + 2 * p3 + p4), g.L)
    return (VorticityField.from_spectrum(g, acc) if field else acc), points


def gaussian_vorticity(grid, centers, alphas, sigmas):
    """Superposition of Gaussian vortices
    zeta0 = sum_i alpha_i exp(-((x-x_i)^2 + (y-y_i)^2) / (2 sigma_i^2))."""
    if not (len(centers) == len(alphas) == len(sigmas)):
        raise ValueError("centers, alphas and sigmas must have equal length")
    x = np.arange(grid.N) * grid.dx  # the axis of grid.coords()
    vals = np.zeros((grid.N, grid.N))
    term = np.empty_like(vals)
    for (cx, cy), alpha, sigma in zip(centers, alphas, sigmas):
        if sigma <= 0:
            raise ValueError("vortex widths must be positive")
        # nearest periodic image so off-center vortices stay smooth at the seam
        dx = x - cx
        dy = x - cy
        dx -= grid.L * np.round(dx / grid.L)
        dy -= grid.L * np.round(dy / grid.L)
        # the offsets vary along one axis each, so only their sum is N x N; it
        # is formed, negated, scaled and exponentiated in one array, with the
        # bits of the meshgrid expression alpha * exp(-(dx**2 + dy**2) / (2 sigma**2))
        np.add(np.square(dx)[:, None], np.square(dy)[None, :], out=term)
        np.negative(term, out=term)
        term /= 2.0 * sigma**2
        np.exp(term, out=term)
        term *= alpha
        vals += term
    return VorticityField(grid, vals)


# --- field I/O: raw little-endian float64 payload + JSON sidecar ---


def dump_field(path, grid, values, t, quantity):
    np.ascontiguousarray(values).astype("<f8", copy=False).tofile(str(path))
    sidecar = {"N": grid.N, "L": grid.L, "t": t, "quantity": quantity}
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh)
        fh.write("\n")


def load_field(path):
    """(sidecar, values) of a dumped field; an OSError names a malformed file."""
    try:
        with open(str(path) + ".json") as fh:
            sidecar = json.load(fh)
        if "quantity" not in sidecar:
            raise KeyError("quantity")
        values = np.fromfile(str(path), dtype="<f8").reshape(sidecar["N"], sidecar["N"])
    except (ValueError, KeyError, TypeError) as exc:
        raise OSError(f"{path}: not a valid field file: {exc!r}") from exc
    return sidecar, values
