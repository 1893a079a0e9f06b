"""Pseudo-spectral 2D incompressible Euler on the periodic torus.

Conventions (fixed once, validated by the single-mode oracle in the tests):
zeta = d(u_y)/dx - d(u_x)/dy, u = (dpsi/dy, -dpsi/dx), zeta = -Laplacian(psi).
Quadratic terms are dealiased with the 2/3 rule.
"""

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import CFLViolation


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
    """(kx, ky, k^2, 2/3-rule dealias mask) of a grid, built once per distinct
    grid and returned read-only because every caller shares them."""
    k = 2.0 * math.pi * np.fft.fftfreq(grid.N, d=grid.dx)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    keep = np.abs(np.fft.fftfreq(grid.N, d=1.0 / grid.N)) <= grid.N / 3.0
    mx, my = np.meshgrid(keep, keep, indexing="ij")
    ops = (kx, ky, kx**2 + ky**2, mx & my)
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
            raise ValueError("non-finite vorticity values")
        object.__setattr__(self, "values", vals)

    def spectrum(self):
        return np.fft.fft2(self.values)


@dataclass(frozen=True)
class VelocityField:
    grid: GridSpec
    u_x: np.ndarray
    u_y: np.ndarray
    _refined: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "u_x", np.asarray(self.u_x, dtype=np.float64))
        object.__setattr__(self, "u_y", np.asarray(self.u_y, dtype=np.float64))

    def max_speed(self):
        return float(np.max(np.hypot(self.u_x, self.u_y)))

    def cfl_dt(self):
        """Advective step bound dt <= 0.5 * dx / max|u|; +inf for a still field."""
        vmax = self.max_speed()
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

    def wrapped(self, L):
        return MarkerCurve(self.label, np.mod(self.points, L))

    @staticmethod
    def circle(label, cx, cy, radius, M=128):
        theta = 2.0 * math.pi * np.arange(M) / M
        pts = np.stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)], axis=1)
        return MarkerCurve(label, pts)


def _velocity(grid, zhat):
    """The velocity of the vorticity spectrum zhat."""
    kx, ky, k2, _ = _spectral_ops(grid)
    psi_hat = np.where(k2 > 0, zhat / np.where(k2 > 0, k2, 1.0), 0.0)
    ux = np.real(np.fft.ifft2(1j * ky * psi_hat))
    uy = np.real(np.fft.ifft2(-1j * kx * psi_hat))
    return VelocityField(grid, ux, uy)


def velocity_from_vorticity(zeta):
    """Invert zeta -> psi -> u spectrally; the k=0 mode of psi is set to zero
    (a constant vorticity offset produces no velocity)."""
    return _velocity(zeta.grid, zeta.spectrum())


def _dealias_mask(grid):
    return _spectral_ops(grid)[3]


def tendency(grid, zhat):
    """The values of rhs_vorticity for the vorticity spectrum zhat: the RK4
    stage kernel, which takes the spectrum so a stage can share its fft2."""
    kx, ky, _, mask = _spectral_ops(grid)
    zhat = zhat * mask
    u = _velocity(grid, zhat)
    zx = np.real(np.fft.ifft2(1j * kx * zhat))
    zy = np.real(np.fft.ifft2(1j * ky * zhat))
    out_hat = np.fft.fft2(-(u.u_x * zx + u.u_y * zy)) * mask
    out_hat[0, 0] = 0.0
    return np.real(np.fft.ifft2(out_hat))


def rhs_vorticity(zeta):
    """-(u . grad) zeta with 2/3-rule dealiasing; the mean mode is pinned to
    zero exactly (the nonlinear term is a flux divergence)."""
    return VorticityField(zeta.grid, tendency(zeta.grid, zeta.spectrum()))


def cfl_dt(zeta):
    """Advective step bound of zeta's velocity (VelocityField.cfl_dt)."""
    return velocity_from_vorticity(zeta).cfl_dt()


def rk4_step(zeta, dt):
    """Classical 4-stage step of the vorticity transport equation; raises
    CFLViolation when dt exceeds the advective bound of zeta."""
    if dt == 0.0:
        return zeta
    g = zeta.grid
    z = zeta.values
    zhat = zeta.spectrum()
    bound = _velocity(g, zhat).cfl_dt()
    if dt > bound:
        raise CFLViolation(f"dt={dt} exceeds the advective bound {bound}")
    k1 = tendency(g, zhat)
    k2 = tendency(g, np.fft.fft2(z + dt / 2 * k1))
    k3 = tendency(g, np.fft.fft2(z + dt / 2 * k2))
    k4 = tendency(g, np.fft.fft2(z + dt * k3))
    return VorticityField(g, z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4))


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


REFINE = 4  # spectral zero-padding factor for marker interpolation


def _refined_velocity(u):
    key = "grids"
    if key not in u._refined:
        u._refined[key] = tuple(
            _spectral_refine(comp, REFINE) for comp in (u.u_x, u.u_y)
        )
    return u._refined[key]


def _spectral_refine(values, factor):
    """Zero-padded inverse transform of a real N x N field onto a factor*N grid,
    exact for band-limited fields (Nyquist row/column split symmetrically)."""
    N = values.shape[0]
    M = factor * N
    h = N // 2
    hat = np.fft.fftshift(np.fft.fft2(values))  # frequencies -h .. h-1
    ext = np.zeros((N + 1, N + 1), dtype=complex)  # frequencies -h .. h
    ext[:N, :N] = hat
    ext[N, :N] = hat[0, :]
    ext[:N, N] = hat[:, 0]
    ext[N, N] = hat[0, 0]
    ext[0, :] *= 0.5
    ext[N, :] *= 0.5
    ext[:, 0] *= 0.5
    ext[:, N] *= 0.5
    big = np.zeros((M, M), dtype=complex)
    lo = M // 2 - h
    big[lo : lo + N + 1, lo : lo + N + 1] = ext
    return np.real(np.fft.ifft2(np.fft.ifftshift(big))) * factor**2


def interpolate_velocity(u, p):
    """Velocity at arbitrary points: zero-padded spectral refinement to a
    4N grid, then bilinear interpolation with periodic wrapping.

    Accepts a single (x, y) point or an (M, 2) array; the output shape matches.
    """
    pts = np.asarray(p, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite evaluation point")
    fine_x, fine_y = _refined_velocity(u)
    M = fine_x.shape[0]
    h = u.grid.L / M
    f = np.mod(pts, u.grid.L) / h
    base = np.floor(f).astype(int)
    t = f - base
    i0 = base[:, 0] % M
    j0 = base[:, 1] % M
    i1 = (i0 + 1) % M
    j1 = (j0 + 1) % M
    tx = t[:, 0]
    ty = t[:, 1]
    out = np.empty_like(pts)
    for k, fine in enumerate((fine_x, fine_y)):
        out[:, k] = (
            (1 - tx) * (1 - ty) * fine[i0, j0]
            + tx * (1 - ty) * fine[i1, j0]
            + (1 - tx) * ty * fine[i0, j1]
            + tx * ty * fine[i1, j1]
        )
    return out[0] if single else out


def advect_markers(curves, u, dt):
    """RK4 advection of every marker through the (frozen) velocity field."""
    L = u.grid.L
    out = []
    for curve in curves:
        p = curve.points
        k1 = interpolate_velocity(u, p)
        k2 = interpolate_velocity(u, p + dt / 2 * k1)
        k3 = interpolate_velocity(u, p + dt / 2 * k2)
        k4 = interpolate_velocity(u, p + dt * k3)
        new_pts = np.mod(p + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4), L)
        out.append(MarkerCurve(curve.label, new_pts))
    return out


# --- field I/O: raw little-endian float64 payload + JSON sidecar ---


def dump_field(path, grid, values, t, quantity):
    arr = np.ascontiguousarray(values)
    arr.astype("<f8" if arr.dtype.kind == "f" else "<i8").tofile(str(path))
    sidecar = {"N": grid.N, "L": grid.L, "t": t, "quantity": quantity}
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh)
        fh.write("\n")


def load_field(path):
    with open(str(path) + ".json") as fh:
        sidecar = json.load(fh)
    dtype = "<i8" if sidecar["quantity"] == "strata" else "<f8"
    values = np.fromfile(str(path), dtype=dtype).reshape(sidecar["N"], sidecar["N"])
    return sidecar, values
