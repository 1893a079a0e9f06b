"""Conserved-quantity monitor for the 2D Euler runs: total vorticity, Kelvin
circulations along material curves, enstrophy, divergence residuals, vorticity
strata, and conservation reports."""

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


def enstrophy(zeta):
    """I2 = sum zeta^2 * (L/N)^2."""
    return float(np.sum(zeta.values**2)) * zeta.grid.dx**2


def circulation(points, velocities, L):
    """Gamma = sum_m u(x_m) . (x_{m+1} - x_{m-1}) / 2, the periodic trapezoid
    rule with minimal-image differences on a torus of side L, for a closed
    loop of (M, 2) points and the (M, 2) velocities at them."""
    if points.shape[0] < 8:
        raise ValueError("a marker curve needs at least 8 points")
    diffs = np.roll(points, -1, axis=0) - np.roll(points, 1, axis=0)
    diffs -= L * np.round(diffs / L)
    return float(np.sum(velocities * diffs)) / 2.0


def divergence_residual(u):
    """max over modes of |k . u_hat| normalized by the largest mode magnitude."""
    kx, ky = u.grid.wavenumbers()
    ux_hat = np.fft.rfft2(u.u_x)
    uy_hat = np.fft.rfft2(u.u_y)
    div = np.abs(kx * ux_hat + ky * uy_hat)
    scale = float(np.max(np.hypot(np.abs(ux_hat), np.abs(uy_hat))))
    if scale == 0.0:
        return 0.0
    return float(np.max(div)) / scale


def phi_triple(zeta, u, velocities, curves, t=0.0):
    """The (I0, I1 per curve, I2, div_max) bundle at one snapshot; u is the
    grid velocity of zeta and velocities its (P, 2) values at the points of
    curves, stacked in curve order."""
    ends = np.cumsum([len(c.points) for c in curves])[:-1]
    return InvariantRecord(
        t=t,
        I0=total_vorticity(zeta),
        I1=tuple(
            circulation(c.points, v, zeta.grid.L)
            for c, v in zip(curves, np.split(velocities, ends))
        ),
        I2=enstrophy(zeta),
        div_max=divergence_residual(u),
    )


def strata_classify(zeta, thresholds):
    """label(x) = #{tau in thresholds : |zeta(x)| >= tau}, as an N x N int64 array."""
    thresholds = list(thresholds)
    if any(t < 0 for t in thresholds):
        raise ValueError("thresholds must be non-negative")
    if any(not a < b for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly ascending")
    return np.searchsorted(thresholds, np.abs(zeta.values), side="right").astype(np.int64)


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
