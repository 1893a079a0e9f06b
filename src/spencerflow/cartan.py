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
from .liealg import DualVector, LieVector


@dataclass(frozen=True)
class ConnectionSampler:
    """Callable contract mapping (base point x, direction mu) -> LieVector."""

    dim: int  # algebra dimension of the returned vectors
    sample_fn: object

    def sample(self, x, mu):
        v = self.sample_fn(x, mu)
        if len(v.coeffs) != self.dim:
            raise ValueError("sampler returned a vector of the wrong dimension")
        return v

    def contract(self, x, v):
        """A . v = sum_mu A_mu(x) v^mu as a float LieVector."""
        out = np.zeros(self.dim)
        for mu, vmu in enumerate(v):
            if vmu == 0:
                continue
            out += vmu * np.array([float(c) for c in self.sample(x, mu).coeffs])
        return LieVector(tuple(out))

    @staticmethod
    def constant(a):
        """A_0 = a, all other directions zero."""
        dim = len(a.coeffs)
        zero = LieVector((0.0,) * dim)
        return ConnectionSampler(dim, lambda x, mu: a if mu == 0 else zero)

    @staticmethod
    def abelian_zero(dim=1):
        zero = LieVector((0.0,) * dim)
        return ConnectionSampler(dim, lambda x, mu: zero)

    @staticmethod
    def wu_yang_monopole(q):
        """Northern-patch abelian monopole in spherical coordinates
        x = (r, theta, phi): A_phi = q (1 - cos theta), A_r = A_theta = 0."""

        def sample(x, mu):
            if mu == 2:
                return LieVector((q * (1.0 - math.cos(x[1])),))
            return LieVector((0.0,))

        return ConnectionSampler(1, sample)


@dataclass(frozen=True)
class CharacteristicState:
    """Integration state along one characteristic: arc parameter, base point,
    and the transported dual vector."""

    s: float
    x: tuple
    lam: DualVector

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.x):
            raise ValueError("non-finite base point")
        if not all(math.isfinite(float(v)) for v in self.lam.coeffs):
            raise ValueError("non-finite state")


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
    """Matrix M with (dlambda/ds)_a = M[a, c] lambda_c = -C^c_{ba} (A.v)^b lambda_c."""
    # M[a, c] = -sum_b C[b, a, c] * Av[b]
    return -np.einsum("bac,b->ac", _structure_tensor(g), _floats(A_dot_v))


def cartan_rhs(g, A_dot_v, lam):
    """(dlambda/ds)_a = -C^c_{ba} (A.v)^b lambda_c."""
    return DualVector(tuple(rhs_generator(g, A_dot_v) @ _floats(lam)))


def cfl_bound(g, A_dot_v):
    """ds_max = 1 / max_{a,b,c} |C^c_{ba} (A.v)^b|; +inf when the max is 0."""
    worst = np.max(np.abs(_structure_tensor(g) * _floats(A_dot_v)[:, None, None]))
    return math.inf if worst == 0.0 else 1.0 / worst


class PointGenerators:
    """A.v and the generator M = rhs_generator(g, A.v) at the base points of one
    characteristic, computed once per distinct point.

    One instance serves one run: `integrate` shares it across its steps, so
    the structure tensor is converted once, and a step's end point, which is
    bit for bit the next step's start point, is not contracted again. Only
    the last point is kept; RK4's two midpoint stages share their generator
    inside `step`.
    """

    def __init__(self, g, A, v):
        self.C = _structure_tensor(g)
        self.A = A
        self.v = np.array(v, dtype=float)
        self._x = None
        self._last = None

    def __call__(self, x):
        """(A.v(x), M(x)) as float arrays, for the base point x (a tuple)."""
        if x != self._x:
            Av = _floats(self.A.contract(x, self.v))
            self._x, self._last = x, (Av, rhs_generator(self.C, Av))
        return self._last


def step(g, state, A, v, ds, scheme="euler_paper", renormalize=False, generators=None):
    """Advance one characteristic step.

    euler_paper is the explicit first-order update
    lambda_a(s+ds) = lambda_a(s) - ds * C^c_{ba} (A.v)^b lambda_c(s);
    rk4 is the classical 4-stage scheme on the same right-hand side.
    renormalize rescales lambda back to its norm at step entry.
    generators is the run's PointGenerators(g, A, v), shared by consecutive
    steps; a fresh one is built when it is omitted.
    """
    if scheme not in ("euler_paper", "rk4"):
        raise ValueError(f"unknown scheme {scheme!r}")
    at = PointGenerators(g, A, v) if generators is None else generators
    x = np.array(state.x, dtype=float)
    v = np.array(v, dtype=float)
    lam = _floats(state.lam)
    Av0, M0 = at(tuple(x))
    bound = cfl_bound(at.C, Av0)
    if ds >= bound:
        raise CFLViolation(
            f"step size {ds} >= stability bound {bound} "
            "(ds * max|C^c_ba (A.v)^b| must stay below 1)"
        )

    x_end = tuple(x + ds * v)
    if scheme == "euler_paper":
        lam_new = lam + ds * (M0 @ lam)
    else:
        M_mid = at(tuple(x + ds / 2 * v))[1]
        k1 = M0 @ lam
        k2 = M_mid @ (lam + ds / 2 * k1)
        k3 = M_mid @ (lam + ds / 2 * k2)
        k4 = at(x_end)[1] @ (lam + ds * k3)
        lam_new = lam + ds / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    if renormalize:
        norm0 = np.linalg.norm(lam)
        norm1 = np.linalg.norm(lam_new)
        if norm1 > 0:
            lam_new = lam_new * (norm0 / norm1)
    if not np.all(np.isfinite(lam_new)):
        raise CFLViolation(f"non-finite state after the step to s={state.s + ds}")
    return CharacteristicState(state.s + ds, x_end, DualVector(tuple(lam_new)))


def _expm(M, tol=1e-14):
    """Scaling-and-squaring Taylor exponential, adequate for dim <= 4."""
    norm = np.linalg.norm(M, ord=np.inf)
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    A = M / (2**squarings)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    k = 1
    while np.linalg.norm(term, ord=np.inf) > tol and k < 60:
        term = term @ A / k
        out = out + term
        k += 1
    for _ in range(squarings):
        out = out @ out
    return out


def coadjoint_flow_exact(g, a, lam0, s):
    """Exact flow of the linear characteristic ODE with constant A.v = a, via
    the matrix exponential of s * M (test oracle)."""
    M = rhs_generator(g, a)
    lam = np.array([float(c) for c in lam0.coeffs])
    return DualVector(tuple(_expm(s * M) @ lam))


def integrate(g, lam0, A, v, ds, s_end, scheme="rk4", renormalize=False):
    """Integrate a characteristic from s=0 to s_end; returns the list of states
    (the final step is shortened to land on s_end exactly). Overflow is not
    reported by numpy here: step's finiteness check raises the gate."""
    generators = PointGenerators(g, A, v)
    state = CharacteristicState(0.0, (0.0,) * len(v), lam0)
    states = [state]
    n_full = int(s_end / ds)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_full):
            state = step(g, state, A, v, ds, scheme, renormalize, generators)
            states.append(state)
        rem = s_end - n_full * ds
        if rem > 1e-15 * max(1.0, abs(s_end)):
            state = step(g, state, A, v, rem, scheme, renormalize, generators)
            states.append(state)
    return states


def residual_profile(g, A, v, states):
    """Central-difference residual max_a |dlambda_a/ds - (M(x) lambda)_a| of the
    transport equation at each state of a characteristic, with M =
    rhs_generator(g, A.v(x)). It reads 0 at the two ends and at a state whose
    neighbours are not equally spaced in s (the final, shortened step);
    spacings that differ only by the rounding of s count as equal."""
    at = PointGenerators(g, A, v)
    s = [st.s for st in states]
    lams = np.array([st.lam.coeffs for st in states], dtype=float)
    resid = np.zeros(len(states))
    for n in range(1, len(states) - 1):
        h = s[n + 1] - s[n]
        hm = s[n] - s[n - 1]
        if h <= 0 or abs(h - hm) > 1e-12 * max(h, hm) + 2 * math.ulp(s[n + 1]):
            continue
        M = at(states[n].x)[1]
        dlam = (lams[n + 1] - lams[n - 1]) / (2 * h)
        resid[n] = np.max(np.abs(dlam - M @ lams[n]))
    return resid


def cartan_residual(g, A, lam_samples, h, v=(1.0,)):
    """Max-norm central-difference estimate of ||dlambda + ad*_omega lambda||
    on a 1-D grid of samples spaced h along the characteristic direction."""
    if h <= 0:
        raise ValueError("grid spacing must be positive")
    if len(lam_samples) < 3:
        raise ValueError("need at least 3 samples for central differences")
    v = np.array(v, dtype=float)
    states = [
        CharacteristicState(n * h, tuple(n * h * v), lam)
        for n, lam in enumerate(lam_samples)
    ]
    return float(np.max(residual_profile(g, A, v, states)))


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
    lam_arr = np.array([float(c) for c in lam.coeffs])
    om = np.array([float(c) for c in omega_val.coeffs])
    norm2 = float(lam_arr @ lam_arr)
    if norm2 == 0.0:
        raise ValueError("lambda must be nonzero")
    return float(lam_arr @ om) / norm2
