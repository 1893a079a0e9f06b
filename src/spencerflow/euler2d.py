"""Pseudo-spectral 2D incompressible Euler on the periodic torus.

Conventions (fixed once, validated by the single-mode oracle in the tests):
zeta = d(u_y)/dx - d(u_x)/dy, u = (dpsi/dy, -dpsi/dx), zeta = -Laplacian(psi).
Spectra live on the rfft2 half-plane. Quadratic terms are dealiased with the
2/3 rule, and every velocity is the velocity of the dealiased vorticity.
"""

import collections
import contextvars
import functools
import json
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import CFLViolation, NonFinite

# marker points per block of the direct Fourier sum in point_values. In a stage
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

    def wavenumbers(self):
        kx, ky, _, _ = _spectral_ops(self)
        return kx, ky


@functools.cache
def _spectral_ops(grid):
    """(kx (N, 1), ky (1, N/2+1), 1/k^2 with 0 at k=0, 2/3-rule dealias mask)
    of a grid on the rfft2 half-plane, built once per distinct grid and
    returned read-only because every caller shares them. The mask also zeroes
    the Nyquist row and column."""
    kx = 2.0 * math.pi * np.fft.fftfreq(grid.N, d=grid.dx)[:, None]
    ky = 2.0 * math.pi * np.fft.rfftfreq(grid.N, d=grid.dx)[None, :]
    k2 = kx**2 + ky**2
    inv_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
    keep = np.abs(np.fft.fftfreq(grid.N, d=1.0 / grid.N)) <= grid.N / 3.0
    mask = keep[:, None] & keep[None, : grid.N // 2 + 1]
    ops = (kx, ky, inv_k2, mask)
    for arr in ops:
        arr.flags.writeable = False
    return ops


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

    def spectrum(self):
        return np.fft.rfft2(self.values)


@dataclass(frozen=True)
class VelocityField:
    grid: GridSpec
    u_x: np.ndarray
    u_y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u_x", np.asarray(self.u_x, dtype=np.float64))
        object.__setattr__(self, "u_y", np.asarray(self.u_y, dtype=np.float64))

    def max_speed(self):
        """max(hypot(u_x, u_y)) bit for bit: hypot runs where u_x² + u_y² is within 1e-12
        of its max (far above either's rounding), everywhere if that max is 0, tiny or inf."""
        with np.errstate(over="ignore"):
            s = self.u_x * self.u_x
            s += self.u_y * self.u_y
        m = s.max()
        near = s >= m * (1 - 1e-12) if 1e-290 < m < math.inf else ...
        return float(np.max(np.hypot(self.u_x[near], self.u_y[near])))

    def cfl_dt(self):
        """Advective step bound dt <= 0.5 * dx / max|u|; +inf for a still field.
        Raises NonFinite when max|u| is not finite, which no dt can pass."""
        vmax = self.max_speed()
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


def _velocity_spectrum(grid, zhat):
    """The one psi inversion: the (u_x, u_y) spectra of the vorticity spectrum
    zhat. The k=0 mode of psi is zero (a constant vorticity offset produces no
    velocity)."""
    kx, ky, inv_k2, _ = _spectral_ops(grid)
    psi_hat = zhat * inv_k2
    return 1j * ky * psi_hat, -1j * kx * psi_hat


def _grid_velocity(grid, uhat):
    return VelocityField(grid, np.fft.irfft2(uhat[0]), np.fft.irfft2(uhat[1]))


def velocity_from_vorticity(zeta):
    """The velocity of the dealiased zeta on the grid."""
    g = zeta.grid
    return _grid_velocity(g, _velocity_spectrum(g, zeta.spectrum() * _spectral_ops(g)[3]))


def point_values(grid, fhat, points):
    """Values at the (P, 2) points of the real fields whose rfft2 spectra are
    listed in fhat, as a (P, len(fhat)) array: the direct Fourier sum over the
    2/3 band, exact up to rounding for fields inside it, in O(P N^2) work. With
    each kx = m row folded with its -m mirror into cos(m x) and sin(m x) rows, a
    block of points costs one real matmul and one batched product over ky."""
    return _MarkerSum(grid, fhat, points).values()


def _fold(grid, fhat):
    """The coefficients of point_values: rows (m, cos | sin), columns (field,
    ky, Re | -Im) of the folded sum, as a (2n, 2n len(fhat)) float array."""
    n = int(np.sum(_spectral_ops(grid)[3][0]))  # the band is |kx|, ky <= n - 1
    m = np.arange(n)
    # a ky > 0 column also stands for its conjugate mirror (x2); the kx = 0 row
    # meets itself in pos + neg below, so it is halved
    w = np.where(m > 0, 2.0, 1.0)
    w = np.outer(w, w) / (2.0 * grid.N**2)
    coef = np.empty((n, 2, len(fhat), n), dtype=complex)
    for i, f in enumerate(fhat):
        pos = np.multiply(f[:n, :n], w, out=coef[:, 0, i])
        neg = f[-m, :n] * w
        np.subtract(pos, neg, out=coef[:, 1, i])
        pos += neg
    coef[:, 1] *= 1j
    return np.conj(coef, out=coef).reshape(2 * n, -1).view(float)


def _block_values(grid, coef, pts):
    """point_values at one block of (B, 2) points, from _fold's coefficients."""
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
    """point_values as one list of blocks of points that two threads drain
    from both ends: in a stage the helper takes blocks from the front while
    the caller does the grid FFTs, then the caller takes the rest from the
    back. deque pops are atomic, so each block runs once. Whichever thread
    first needs the folded coefficients computes them; the other waits."""

    def __init__(self, grid, fhat, points):
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        if not np.all(np.isfinite(pts)):
            raise NonFinite("non-finite evaluation point")
        self.grid, self.fhat, self.pts = grid, fhat, pts
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
                    self.coef = _fold(self.grid, self.fhat)
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


def stage(grid, zhat, points):
    """The RK4 stage kernel. For the vorticity spectrum zhat (rfft2
    half-plane) and the (P, 2) marker points, from one psi inversion of the
    dealiased field: the tendency spectrum of -(u . grad) zeta, dealiased and
    with its mean mode pinned to zero (the nonlinear term is a flux
    divergence); the velocity on the grid; the (P, 2) velocity at the points.
    From N = OVERLAP_N up and with two CPUs or more, the helper thread takes
    blocks of the marker sum from the front while this thread does the FFTs;
    then this thread takes the blocks left, from the last one back."""
    kx, ky, _, mask = _spectral_ops(grid)
    zhat = zhat * mask
    uhat = _velocity_spectrum(grid, zhat)
    markers = _MarkerSum(grid, uhat, points)
    if markers.starts and grid.N >= OVERLAP_N and _cpus() > 1:
        _helper.submit(markers.help)
    try:
        u = _grid_velocity(grid, uhat)
        zx = np.fft.irfft2(1j * kx * zhat)
        zy = np.fft.irfft2(1j * ky * zhat)
        zx *= u.u_x
        zy *= u.u_y
        zx += zy
        out = np.fft.rfft2(np.negative(zx, out=zx))
        out *= mask
        out[0, 0] = 0.0
    finally:
        p = markers.values()
    return out, u, p


NO_POINTS = np.empty((0, 2))
NO_POINTS.flags.writeable = False


def rk4_step(zeta, dt, points=NO_POINTS, first=None):
    """Classical 4-stage step of the vorticity transport equation and of the
    (P, 2) marker points it carries, both through the same stage velocities.
    first is (zhat, k1, p1, bound) for zhat = zeta.spectrum(), its stage's
    tendency k1 and marker velocity p1, and the grid velocity's cfl_dt(), when
    the caller has them. Raises CFLViolation when dt exceeds that advective
    bound of zeta; returns (zeta, points), the points wrapped into the domain."""
    if dt == 0.0:
        return zeta, points
    g = zeta.grid
    if first is None:
        zhat = zeta.spectrum()
        k1, u, p1 = stage(g, zhat, points)
        first = (zhat, k1, p1, u.cfl_dt())
    zhat, k1, p1, bound = first
    if dt > bound:
        raise CFLViolation(f"dt={dt} exceeds the advective bound {bound}")
    k2, _, p2 = stage(g, zhat + dt / 2 * k1, points + dt / 2 * p1)
    k3, _, p3 = stage(g, zhat + dt / 2 * k2, points + dt / 2 * p2)
    k4, _, p4 = stage(g, zhat + dt * k3, points + dt * p3)
    zeta = VorticityField(g, np.fft.irfft2(_rk4_sum(zhat, dt, k1, k2, k3, k4)))
    return zeta, np.mod(_rk4_sum(points, dt, p1, p2, p3, p4), g.L)


def _rk4_sum(y, dt, k1, k2, k3, k4):
    """y + dt/6 * (k1 + 2 k2 + 2 k3 + k4), summed in k2 and scaling k3 in
    place. IEEE + and * commute, so the bits equal the expression's."""
    k2 *= 2
    k2 += k1
    k3 *= 2
    k2 += k3
    k2 += k4
    k2 *= dt / 6
    k2 += y
    return k2


def gaussian_vorticity(grid, centers, alphas, sigmas):
    """Superposition of Gaussian vortices
    zeta0 = sum_i alpha_i exp(-((x-x_i)^2 + (y-y_i)^2) / (2 sigma_i^2))."""
    if not (len(centers) == len(alphas) == len(sigmas)):
        raise ValueError("centers, alphas and sigmas must have equal length")
    X, Y = grid.coords()
    vals = np.zeros((grid.N, grid.N))
    for (cx, cy), alpha, sigma in zip(centers, alphas, sigmas):
        if sigma <= 0:
            raise ValueError("vortex widths must be positive")
        # nearest periodic image so off-center vortices stay smooth at the seam
        dx = X - cx
        dy = Y - cy
        dx -= grid.L * np.round(dx / grid.L)
        dy -= grid.L * np.round(dy / grid.L)
        vals += alpha * np.exp(-(dx**2 + dy**2) / (2.0 * sigma**2))
    return VorticityField(grid, vals)


# --- field I/O: raw little-endian float64 payload + JSON sidecar ---


def dump_field(path, grid, values, t, quantity):
    arr = np.ascontiguousarray(values)
    arr.astype("<f8" if arr.dtype.kind == "f" else "<i8", copy=False).tofile(str(path))
    sidecar = {"N": grid.N, "L": grid.L, "t": t, "quantity": quantity}
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh)
        fh.write("\n")


def load_field(path):
    """(sidecar, values) of a dumped field; an OSError names a malformed file."""
    try:
        with open(str(path) + ".json") as fh:
            sidecar = json.load(fh)
        dtype = "<i8" if sidecar["quantity"] == "strata" else "<f8"
        values = np.fromfile(str(path), dtype=dtype).reshape(sidecar["N"], sidecar["N"])
    except (ValueError, KeyError, TypeError) as exc:
        raise OSError(f"{path}: not a valid field file: {exc!r}") from exc
    return sidecar, values
