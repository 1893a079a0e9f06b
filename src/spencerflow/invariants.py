"""Conserved-quantity monitor for the 2D Euler runs: total vorticity, Kelvin
circulations along material curves, enstrophy, divergence residuals and
conservation reports. A record writes its N x N intermediates into the
arrays of the run's workspace ws that are free between stages."""

from dataclasses import dataclass

import numpy as np

from . import NonFinite

EPS_DENOM = 1e-30  # guard for relative errors of near-zero invariants


@dataclass(frozen=True)
class InvariantRecord:
    t: float
    I0: float
    I1: tuple  # one circulation per tracked curve
    I2: float
    div_max: float

    def __post_init__(self):
        object.__setattr__(self, "I1", tuple(self.I1))
        vals = (self.t, self.I0, self.I2, self.div_max, *self.I1)
        if not all(np.isfinite(v) for v in vals):
            raise NonFinite("non-finite invariant record")


def total_vorticity(zeta):
    """I0 = sum zeta * (L/N)^2, exact quadrature for band-limited fields."""
    return float(np.sum(zeta.values)) * zeta.grid.dx**2


def enstrophy(zeta, ws):
    """I2 = sum zeta^2 * (L/N)^2, with zeta^2 in the run workspace's
    ws.planes[1], spent when it returns."""
    sq = np.square(zeta.values, out=ws.planes[1])
    return float(np.sum(sq)) * zeta.grid.dx**2


def circulation(points, velocities, L):
    """Gamma = sum_m u(x_m) . (x_{m+1} - x_{m-1}) / 2, the periodic trapezoid
    rule with minimal-image differences on a torus of side L, for a closed
    loop of (M, 2) points and the (M, 2) velocities at them."""
    if points.shape[0] < 8:
        raise ValueError("a marker curve needs at least 8 points")
    diffs = np.roll(points, -1, axis=0) - np.roll(points, 1, axis=0)
    diffs -= L * np.round(diffs / L)
    return float(np.sum(velocities * diffs)) / 2.0


def _spare(buf, like):
    """The leading floats of the free workspace array buf, as an array of like's shape."""
    return buf.reshape(-1).view(float)[: like.size].reshape(like.shape)


def divergence_residual(u, ws):
    """max over modes of |k . u_hat| normalized by the largest mode magnitude.
    u_hat of both components is one stacked rfft2 of u.values, the bits of
    two calls, into the two halves of the run workspace's ws.rows, and the
    magnitudes go into ws.coef and ws.scratch; all are spent when it returns."""
    kx, ky = u.grid.wavenumbers()
    ux_hat, uy_hat = np.fft.rfft2(u.values, out=ws.rows)
    mag_x = np.abs(ux_hat, out=_spare(ws.coef, ux_hat))
    mag_y = np.abs(uy_hat, out=_spare(ws.scratch, uy_hat))
    scale = float(np.max(np.hypot(mag_x, mag_y, out=mag_x)))
    if scale == 0.0:
        return 0.0
    ux_hat *= kx  # k . u_hat in place: a record's full-plane arrays add to a run's peak memory
    uy_hat *= ky
    ux_hat += uy_hat
    return float(np.max(np.abs(ux_hat, out=mag_x))) / scale


def phi_triple(zeta, u, points, velocities, t, ws):
    """The (I0, I1 per curve, I2, div_max) bundle at time t; u is the grid
    velocity of zeta, points the (M, 2) points of each curve and velocities
    the (M, 2) values of u at them. ws is the run's workspace, free between
    stages, in which I2 and div_max work; zeta and u may be the grid
    vorticity that from_spectrum wrote to ws.uhat and the stage's ws.u,
    which they do not write."""
    return InvariantRecord(
        t=t,
        I0=total_vorticity(zeta),
        I1=tuple(circulation(p, v, zeta.grid.L) for p, v in zip(points, velocities)),
        I2=enstrophy(zeta, ws),
        div_max=divergence_residual(u, ws),
    )


def conservation_report(series):
    """Relative drift |last - first| / max(|first|, eps) for each invariant."""
    if len(series) < 2:
        raise ValueError("need at least two records for a conservation report")
    first, last = series[0], series[-1]
    if len(first.I1) != len(last.I1):
        raise ValueError("curve count changed between records")

    def rel(a, b):
        return abs(b - a) / max(abs(a), EPS_DENOM)

    report = {"I0": rel(first.I0, last.I0), "I2": rel(first.I2, last.I2)}
    for i, (a, b) in enumerate(zip(first.I1, last.I1)):
        report[f"I1_{i}"] = rel(a, b)
    return report
