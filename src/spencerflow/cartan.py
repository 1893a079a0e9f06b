"""Characteristic-line integrator for the constrained-connection transport
equation dlambda/ds = -C^c_{ba} (A.v)^b lambda_c, with a CFL gate,
norm-preserving renormalization, residual diagnostics, and a matrix-exponential
flow oracle.

All numeric state on this path is float64.
"""

import functools
import math
import sys
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
    # M[..., a, c] = -sum_b C[b, a, c] * Av[..., b], negated in place
    M = np.einsum("bac,...b->...ac", _structure_tensor(g), _floats(A_dot_v))
    return np.negative(M, out=M)


def cfl_bound(M):
    """ds_max = 1 / ||M||_inf, the largest absolute row sum, for each generator
    of a stack M of shape (..., d, d); +inf where M is 0, and 0 where a row
    sum passes float64. ||M||_inf bounds every eigenvalue of M, so
    h ||M||_inf < 1 keeps a step inside the stability intervals of explicit
    Euler and rk4. The sums and maximums are whole-array passes over the
    stack, one entry (i, j) at a time."""
    d = M.shape[-1]
    with np.errstate(over="ignore", divide="ignore"):
        rows = (sum(np.abs(M[..., i, j]) for j in range(d)) for i in range(d))
        return 1.0 / functools.reduce(np.maximum, rows)


SCHEMES = ("euler_paper", "rk4")
CHUNK = 512  # steps that integrate and residual_profile take at once
SHRINK = 0.5  # a window ends at its first row below this part of its start


def _mul(X, Y):
    """X @ Y for stacks of matrices stored (d, d, n), the step axis last, as
    one einsum. With optimize=False it stays off BLAS gemm and sums each
    entry from zero over j = 0, 1, ..., so its bits are those of the ordered
    sum of the products X[:, j, None] * Y[None, j]."""
    return np.einsum("ijn,jkn->ikn", X, Y, optimize=False)


def _apply(E, u):
    """u + E u for the (d, d, w) stack E and one vector u, as a (d, w) array.
    E u is one einsum that, like _mul, sums each entry from zero over
    j = 0, 1, .... It reads u through a stride-2 copy: at w = 1 einsum drops
    the step axis, and two unit-stride operands would make the sum over j
    one SIMD dot product, whose partial sums reorder it."""
    return u[:, None] + np.einsum("ijn,j->in", E, np.repeat(u, 2)[::2], optimize=False)


def _generators(h, M0, M_mid, M_end, scheme):
    """The generators G with lambda(s+h) = lambda + h * (G @ lambda) of n steps
    of sizes h (n,), as a (d, d, n) stack with the step axis last, from the
    (n, d, d) stacks of the generators M at each step's start, midpoint and end.

    euler_paper is G = M0, returned as a steps-last view. rk4 is the classical
    4-stage scheme written as a matrix polynomial: its stages are k_i = A_i
    lambda with A_1 = M0, A_2 = M_mid + (h/2 M_mid) A_1, A_3 = M_mid +
    (h/2 M_mid) A_2 and A_4 = M_end + (h M_end) A_3, so G = (A_1 + 2 A_2 +
    2 A_3 + A_4) / 6, built on steps-last copies for _mul. Each product takes
    h on its left factor, whose norm the CFL gate keeps below 1, so G leaves
    float64 only where M does; with x = h ||M||_inf < 1 at all three points,
    h ||G||_inf <= x + x^2/2 + x^3/6 + x^4/24 < e - 1."""
    if scheme == "euler_paper":
        return np.moveaxis(M0, 0, -1)
    M0, M_mid, M_end = (np.moveaxis(M, 0, -1).copy() for M in (M0, M_mid, M_end))
    half = h / 2 * M_mid
    A2 = M_mid + _mul(half, M0)
    A3 = M_mid + _mul(half, A2)
    A4 = M_end + _mul(h * M_end, A3)
    return (M0 + 2 * A2 + 2 * A3 + A4) / 6


def _squares(rows):
    """The squared norms of the columns of the (d, w) array rows, summed over
    i = 0, 1, ... in order at every w. (np.einsum("ij,ij->j") sums a single
    column, w = 1, as a SIMD dot product, whose partial sums reorder it.)"""
    return functools.reduce(np.add, rows * rows)


def _advance(lam, h, G, norm):
    """Fill lam[k + 1] = P_k ... P_0 lam[0] with P_n = I + h[n] G[:, :, n] for
    each step k, where lam has one row more than h and G has one generator
    per step and its first row is given.

    The steps are taken in windows, each from its first row lam[i]. A
    log-depth scan builds the increments E_k = P_k ... P_i - I of a window,
    combining a later and an earlier one as E_l + E_e + E_l E_e, so no 1 + O(h)
    is ever rounded. The rows are 2^e (u + E_k u) with u = lam[i] / 2^e exact
    and of order 1, so E u does not overflow where the row does not.
    A row is thus exact to about eps |u|, not eps of itself. So a window ends
    at its first row whose norm falls below SHRINK |u|, which starts the next
    one; the next window is twice the rows kept, and after a full window it
    doubles. The CFL gate keeps h ||G||_inf below e - 1, so a window of at
    most CHUNK steps has ||E||_inf < e^512 < 2^739 and E stays finite.
    With a norm, each row is rescaled to it, which is what a per-step rescale
    to the norm of the row before comes to on a linear recursion; the norms
    are taken on the scaled rows, so they do not overflow either."""
    start, width = 0, len(h)
    while start < len(h):
        end = min(start + width, len(h))
        E = np.multiply(G[..., start:end], h[start:end], order="C")  # (d, d, w)
        span = 1
        while span < end - start:
            E[..., span:] = E[..., span:] + E[..., :-span] + _mul(E[..., span:], E[..., :-span])
            span *= 2
        scale = math.ldexp(1.0, math.frexp(np.max(np.abs(lam[start])))[1] - 1)
        u = lam[start] / scale
        rows = _apply(E, u)  # (d, w)
        squares = _squares(rows)  # E's bound keeps them finite
        small = np.flatnonzero(squares < SHRINK**2 * (u @ u))
        kept = small[0] + 1 if small.size else end - start
        rows = rows[:, :kept]
        if norm is not None:
            norms = np.hypot.reduce(rows, axis=0)
            rows *= np.divide(norm / scale, norms, out=np.ones_like(norms), where=norms > 0)
        lam[start + 1 : start + kept + 1] = (rows * scale).T
        width = 2 * (kept if small.size else width)
        start += kept


def _gate(h, bound):
    """Raise the CFL gate at the first step h[n] >= bound[n]."""
    bad = np.flatnonzero(h >= bound)
    if bad.size:
        raise CFLViolation(
            f"step size {h[bad[0]]} >= stability bound {bound[bad[0]]} "
            "(ds * ||M||_inf must stay below 1); "
            "rerun with --auto-ds or a smaller ds"
        )


def _expm(M):
    """Scaling-and-squaring Taylor exponential, adequate for dim <= 4."""
    norm = np.linalg.norm(M, ord=np.inf)
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    A = M / (2**squarings)
    out = term = np.eye(len(M))
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
    the matrix exponential of s * M (test oracle). At s = 0 it is lam0, with
    no s * M formed: 0 * inf is nan for an entry of M past float64."""
    if s == 0:
        return DualVector(tuple(_floats(lam0)))
    return DualVector(tuple(_expm(s * rhs_generator(g, a)) @ _floats(lam0)))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def integrate(g, lam0, A, v, ds, s_end, scheme="rk4", renormalize=False):
    """Integrate a characteristic from s=0 to s_end (the final step is
    shortened to land on s_end exactly). Returns arrays s, x and lambda of
    shapes (n+1,), (n+1, k) and (n+1, dim), one row per state.

    The base-point path x_n = x_0 + sum h_i v does not depend on lambda, and
    each step multiplies lambda by I + h G with one generator G per step (see
    _generators). The steps run CHUNK at a time, so memory beyond the outputs
    is O(CHUNK d^2). A chunk builds A.v and its generator M at its states (and
    rk4's midpoints) and checks the CFL gate h ||M||_inf < 1 on every M the
    scheme samples before _advance scans its products, which keeps a window
    below e^CHUNK = e^512 < 2^739; the first step is checked at the origin
    before the path is built, the first violating step before its chunk.
    Overflow is not reported by numpy here: a base point or a lambda that
    leaves float64 raises the gate instead."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    C = _structure_tensor(g)
    if not s_end / ds < sys.maxsize:  # the step list below could not be indexed
        raise CFLViolation(
            f"step size {ds} needs {s_end / ds:g} steps to s_end={s_end}, "
            "more than an index can count"
        )
    n_full = int(s_end / ds)
    rem = s_end - n_full * ds
    tail = [rem] if rem > 1e-15 * max(1.0, abs(s_end)) else []
    first = np.array([ds] if n_full else tail)  # judged at the origin before the path is built
    _gate(first, cfl_bound(rhs_generator(C, A.contract(np.zeros((1, len(v))), v))))
    h = np.full(n_full + len(tail), ds)
    h[n_full:] = tail
    s = np.cumsum(np.concatenate([[0.0], h]))
    x = np.cumsum(np.concatenate([np.zeros((1, len(v))), np.multiply.outer(h, v)]), axis=0)
    finite_gate(x, s, "the base point leaves float64 at s={s}")

    lam0 = _floats(lam0)
    lam = np.empty((len(s), len(lam0)))
    lam[0] = lam0
    norm = math.hypot(*lam0) if renormalize else None
    for n in range(0, len(h), CHUNK):
        hc, xc = h[n : n + CHUNK], x[n : n + CHUNK + 1]  # a chunk's steps and states
        M = rhs_generator(C, A.contract(xc, v))
        at_states = cfl_bound(M)
        M_mid, bound = M[:-1], at_states[:-1]  # euler_paper samples each step's start
        if scheme == "rk4":  # and rk4 its midpoint and end as well
            M_mid = rhs_generator(C, A.contract(xc[:-1] + np.multiply.outer(hc / 2, v), v))
            bound = np.minimum(np.minimum(bound, cfl_bound(M_mid)), at_states[1:])
        _gate(hc, bound)
        _advance(lam[n : n + CHUNK + 1], hc, _generators(hc, M[:-1], M_mid, M[1:], scheme), norm)
    finite_gate(lam, s, "non-finite state after the step to s={s}")
    return s, x, lam


def finite_gate(values, s, message):
    """Raise the numerical gate at the first s whose row of values is not
    finite. One pass tests the whole array; only a failing one is searched
    row by row for that s."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = np.flatnonzero(~finite.reshape(len(s), -1).all(axis=1))
        raise CFLViolation(message.format(s=s[bad[0]]))


def residual_profile(g, A, v, s, x, lam):
    """Central-difference residual max_a |dlambda_a/ds - (M(x) lambda)_a| of the
    transport equation at each row of a characteristic (s, x, lambda), with
    M = rhs_generator(g, A.v(x)), taken CHUNK rows at a time. It reads 0 at the
    two ends and at a state whose neighbours are not equally spaced in s (the
    final, shortened step); spacings that differ only by the rounding of s
    count as equal. The max over a is d - 1 np.maximum passes over columns."""
    C, resid = _structure_tensor(g), np.zeros(len(s))
    for n in range(0, len(s) - 2, CHUNK):
        sc, lc, xc = (a[n : n + CHUNK + 2] for a in (s, lam, x))  # CHUNK rows and one each side
        h, hm = sc[2:] - sc[1:-1], sc[1:-1] - sc[:-2]
        tol = 1e-12 * np.maximum(h, hm) + 2 * np.spacing(np.abs(sc[2:]))
        uneven = (h <= 0) | (np.abs(h - hm) > tol)
        M = rhs_generator(C, A.contract(xc[1:-1], v))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            dlam = (lc[2:] - lc[:-2]) / (2 * h[:, None])
            inner = functools.reduce(np.maximum, np.abs(dlam - (M @ lc[1:-1, :, None])[..., 0]).T)
        resid[n + 1 : n + 1 + len(h)] = np.where(uneven, 0.0, inner)
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
