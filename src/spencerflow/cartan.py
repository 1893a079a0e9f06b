"""Characteristic-line integrator for the constrained-connection transport
equation dlambda/ds = -C^c_{ba} (A.v)^b lambda_c, with a CFL gate,
norm-preserving renormalization, residual diagnostics, and a matrix-exponential
flow oracle.

All numeric state on this path is float64.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import CFLViolation
from .liealg import DualVector


@dataclass(frozen=True)
class ConnectionSampler:
    """Callable contract for a connection: sample_fn(x, mu) takes an (n, k)
    float array of base points and returns A_mu there as (n, dim) floats, or
    as (dim,) floats that broadcast to that shape."""

    dim: int  # algebra dimension of the returned vectors
    sample_fn: object

    def sample(self, x, mu):
        a = np.asarray(self.sample_fn(x, mu), dtype=float)
        if a.shape[-1:] != (self.dim,):
            raise ValueError("sampler returned a vector of the wrong dimension")
        return a

    def contract(self, x, v):
        """A . v = sum_mu A_mu(x) v^mu at every row of x, as an (n, dim) array."""
        out = np.zeros((len(x), self.dim))
        for mu, vmu in enumerate(v):
            if vmu == 0:
                continue
            out += vmu * self.sample(x, mu)
        return out

    @staticmethod
    def constant(a):
        """A_0 = a, all other directions zero."""
        a = _floats(a)
        zero = np.zeros_like(a)
        return ConnectionSampler(len(a), lambda x, mu: a if mu == 0 else zero)

    @staticmethod
    def abelian_zero(dim):
        return ConnectionSampler.constant(np.zeros(dim))

    @staticmethod
    def wu_yang_monopole(q):
        """Northern-patch abelian monopole in spherical coordinates
        x = (r, theta, phi): A_phi = q (1 - cos theta), A_r = A_theta = 0."""

        def sample(x, mu):
            if mu == 2:
                return q * (1.0 - np.cos(x[:, 1]))[:, None]
            return np.zeros(1)

        return ConnectionSampler(1, sample)


def _structure_tensor(g):
    """C[a, b, c] = C^c_{ab} of the algebra g as a float64 array. A float array
    passes through unchanged, so the functions below take either g or its
    tensor, and a run converts the Fractions once."""
    if isinstance(g, np.ndarray):
        return g
    return np.array(g.structure_constants, dtype=float)


def _floats(vec):
    """Coefficients of a LieVector or DualVector (or a float array) as float64."""
    return np.asarray(getattr(vec, "coeffs", vec), dtype=float)


def rhs_generator(g, A_dot_v):
    """Matrix M with (dlambda/ds)_a = M[a, c] lambda_c = -C^c_{ba} (A.v)^b lambda_c,
    one per row of an A.v of shape (..., dim)."""
    # M[..., a, c] = -sum_b C[b, a, c] * Av[..., b]
    return -np.einsum("bac,...b->...ac", _structure_tensor(g), _floats(A_dot_v))


def cfl_bound(g, A_dot_v):
    """ds_max = 1 / max_{a,b,c} |C^c_{ba} (A.v)^b| for each row of an A.v of
    shape (..., dim); +inf where the max is 0. Rounding is monotone, so the
    max over (a, c) can be taken on C before the product."""
    C_max = np.max(np.abs(_structure_tensor(g)), axis=(1, 2))
    worst = np.max(np.abs(_floats(A_dot_v)) * C_max, axis=-1)
    with np.errstate(divide="ignore"):
        return 1.0 / worst


SCHEMES = ("euler_paper", "rk4")
CHUNK = 256  # steps whose generators integrate builds at once


def _mul(X, Y):
    """X @ Y for matrices stored as (d, d) or (d, d, n) arrays, the step axis
    last: the sum over j runs as whole-array passes over contiguous steps,
    in the order j = 0, 1, ..., and stays off BLAS gemm."""
    return sum(X[:, j, None] * Y[None, j] for j in range(len(X)))


def _generators(h, M0, M_mid, M_end, scheme):
    """The step generators G with lambda(s+h) = lambda + h * (G @ lambda), from
    the generators M at each step's start, midpoint and end, as (d, d) arrays
    for one step or (d, d, n) arrays with h of shape (n,) for n steps.

    euler_paper is G = M0. rk4 is the classical 4-stage scheme written as a
    matrix polynomial: its stages are k_i = A_i lambda with A_1 = M0,
    A_2 = M_mid + (h/2 M_mid) A_1, A_3 = M_mid + (h/2 M_mid) A_2 and
    A_4 = M_end + (h M_end) A_3, so G = (A_1 + 2 A_2 + 2 A_3 + A_4) / 6.
    Each product takes h on its left factor, whose entries the CFL gate
    keeps below 1, so G leaves float64 only where M does.
    """
    if scheme == "euler_paper":
        return M0
    half = h / 2 * M_mid
    A2 = M_mid + _mul(half, M0)
    A3 = M_mid + _mul(half, A2)
    A4 = M_end + _mul(h * M_end, A3)
    return (M0 + 2 * A2 + 2 * A3 + A4) / 6


def _steps_last(M):
    """A contiguous copy of a stack of matrices (n, d, d) as (d, d, n)."""
    return np.ascontiguousarray(np.moveaxis(M, 0, -1))


def _advance(lam, h, G, renormalize):
    """Fill lam[n + 1] = lam[n] + h[n] * (G[n] @ lam[n]) for each step n, where
    lam has one row more than h and G and its first row is given; renormalize
    rescales each new row to the norm of the row before it."""
    cur = lam[0]
    for Gn, hn, nxt in zip(G, h, lam[1:]):
        nxt[...] = cur + hn * Gn.dot(cur)
        if renormalize:
            norm1 = np.linalg.norm(nxt)
            if norm1 > 0:
                nxt *= np.linalg.norm(cur) / norm1
        cur = nxt


def _expm(M):
    """Scaling-and-squaring Taylor exponential, adequate for dim <= 4."""
    norm = np.linalg.norm(M, ord=np.inf)
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    A = M / (2**squarings)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    k = 1
    while np.linalg.norm(term, ord=np.inf) > 1e-14 and k < 60:
        term = term @ A / k
        out = out + term
        k += 1
    for _ in range(squarings):
        out = out @ out
    return out


def coadjoint_flow_exact(g, a, lam0, s):
    """Exact flow of the linear characteristic ODE with constant A.v = a, via
    the matrix exponential of s * M (test oracle)."""
    return DualVector(tuple(_expm(s * rhs_generator(g, a)) @ _floats(lam0)))


@np.errstate(over="ignore", invalid="ignore")
def integrate(g, lam0, A, v, ds, s_end, scheme="rk4", renormalize=False):
    """Integrate a characteristic from s=0 to s_end (the final step is
    shortened to land on s_end exactly). Returns arrays s, x and lambda of
    shapes (n+1,), (n+1, k) and (n+1, dim), one row per state.

    The base-point path x_n = x_0 + sum h_i v does not depend on lambda, so
    A.v is contracted at every state (and, for rk4, every midpoint) and the
    CFL gate is checked on every step before the lambda recursion starts.
    The recursion is linear, so each step is one matrix-vector product with
    its generator G (see _generators), built for CHUNK steps at a time.
    Overflow is not reported by numpy here: a base point or a lambda that
    leaves float64 raises the gate instead."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    C = _structure_tensor(g)
    n_full = int(s_end / ds)
    rem = s_end - n_full * ds
    h = [ds] * n_full + ([rem] if rem > 1e-15 * max(1.0, abs(s_end)) else [])
    s = np.cumsum([0.0] + h)
    x = np.cumsum(np.concatenate([np.zeros((1, len(v))), np.multiply.outer(h, v)]), axis=0)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise CFLViolation(f"the base point leaves float64 at s={s[bad[0]]}")

    Av = A.contract(x, v)
    bound = cfl_bound(C, Av[:-1])
    bad = np.flatnonzero(np.array(h) >= bound)
    if bad.size:
        n = bad[0]
        raise CFLViolation(
            f"step size {h[n]} >= stability bound {bound[n]} "
            "(ds * max|C^c_ba (A.v)^b| must stay below 1); "
            "rerun with --auto-ds or a smaller ds"
        )
    M = rhs_generator(C, Av)
    M_mid = M[:-1]  # unused by euler_paper
    if scheme == "rk4":
        mid = x[:-1] + np.multiply.outer(np.divide(h, 2), v)
        M_mid = rhs_generator(C, A.contract(mid, v))

    lam0 = _floats(lam0)
    lam = np.empty((len(s), len(lam0)))
    lam[0] = lam0
    hs = np.array(h)
    for n in range(0, len(h), CHUNK):
        end = min(n + CHUNK, len(h))
        stacks = (M[n:end], M_mid[n:end], M[n + 1 : end + 1])
        G = _generators(hs[n:end], *map(_steps_last, stacks), scheme)
        _advance(lam[n : end + 1], h[n:end], np.moveaxis(G, -1, 0).copy(), renormalize)
    bad = np.flatnonzero(~np.isfinite(lam).all(axis=1))
    if bad.size:
        raise CFLViolation(f"non-finite state after the step to s={s[bad[0]]}")
    return s, x, lam


def residual_profile(g, A, v, s, x, lam):
    """Central-difference residual max_a |dlambda_a/ds - (M(x) lambda)_a| of the
    transport equation at each row of a characteristic (s, x, lambda), with
    M = rhs_generator(g, A.v(x)). It reads 0 at the two ends and at a state
    whose neighbours are not equally spaced in s (the final, shortened step);
    spacings that differ only by the rounding of s count as equal."""
    h, hm = s[2:] - s[1:-1], s[1:-1] - s[:-2]
    tol = 1e-12 * np.maximum(h, hm) + 2 * np.spacing(np.abs(s[2:]))
    uneven = (h <= 0) | (np.abs(h - hm) > tol)
    M = rhs_generator(g, A.contract(x[1:-1], v))
    with np.errstate(divide="ignore", invalid="ignore"):
        dlam = (lam[2:] - lam[:-2]) / (2 * h[:, None])
        inner = np.max(np.abs(dlam - (M @ lam[1:-1, :, None])[..., 0]), axis=1)
    resid = np.zeros(len(s))
    resid[1:-1] = np.where(uneven, 0.0, inner)
    return resid


def cartan_residual(g, A, lam_samples, h):
    """Max-norm central-difference estimate of ||dlambda + ad*_omega lambda||
    on a 1-D grid of samples spaced h along the characteristic direction."""
    if h <= 0:
        raise ValueError("grid spacing must be positive")
    if len(lam_samples) < 3:
        raise ValueError("need at least 3 samples for central differences")
    lam = np.array([_floats(sample) for sample in lam_samples])
    if not np.isfinite(lam).all():
        raise ValueError("non-finite state")
    s = np.arange(len(lam)) * h
    return float(np.max(residual_profile(g, A, (1.0,), s, s[:, None], lam)))


def monopole_radial_check(q, r, h):
    """Central-difference derivative of lambda_r(r) = q/r^2 against the closed
    form -2q/r^3; returns (numeric, exact, abs difference)."""
    if r <= h or h <= 0:
        raise ValueError("need r > h > 0")
    numeric = (q / (r + h) ** 2 - q / (r - h) ** 2) / (2 * h)
    exact = -2 * q / r**3
    return numeric, exact, abs(numeric - exact)


def nonholonomy_coefficient(g, lam, omega_val):
    """<lambda, Omega> / ||lambda||^2, the quotient-direction coefficient."""
    lam_arr, om = _floats(lam), _floats(omega_val)
    norm2 = float(lam_arr @ lam_arr)
    if norm2 == 0.0:
        raise ValueError("lambda must be nonzero")
    return float(lam_arr @ om) / norm2
