"""Symmetric tensor algebra over a Lie algebra, the two vertical differentials,
Chevalley-Eilenberg cohomology dimensions, and the Betti-number decomposition.

Everything here runs in exact rational arithmetic so "equals zero" claims are
exact, not tolerance-based.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import _exact
from .liealg import DimensionMismatch, is_semisimple


@dataclass(frozen=True)
class SymTensor:
    """Element of Sym^k(g): map from sorted basis multi-indices to coefficients."""

    dim: int
    degree: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for idx, coeff in self.terms.items():
            if len(idx) != self.degree:
                raise ValueError(f"multi-index {idx} has wrong length")
            if tuple(sorted(idx)) != tuple(idx):
                raise ValueError(f"multi-index {idx} is not sorted")
            if coeff != 0:
                clean[tuple(idx)] = coeff
        object.__setattr__(self, "terms", clean)

    def __add__(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise DimensionMismatch("tensors live in different spaces")
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            terms[idx] = terms.get(idx, 0) + c
        return SymTensor(self.dim, self.degree, terms)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return SymTensor(
            self.dim, self.degree, {i: scalar * c for i, c in self.terms.items()}
        )

    def max_norm(self):
        return max((abs(c) for c in self.terms.values()), default=Fraction(0))

    @staticmethod
    def monomial(dim, indices, coeff=Fraction(1)):
        return SymTensor(dim, len(indices), {tuple(sorted(indices)): coeff})

    @staticmethod
    def zero(dim, degree):
        return SymTensor(dim, degree, {})


def sym_space_dim(dim, degree):
    """dim Sym^k(g) = C(dim + k - 1, k)."""
    return comb(dim + degree - 1, degree)


def sym_basis(dim, degree):
    """Sorted multi-indices enumerating the degree-k monomial basis."""
    return list(itertools.combinations_with_replacement(range(dim), degree))


def sym_product(X, Y):
    """Symmetric product: merge and re-sort multi-indices, bilinear."""
    if X.dim != Y.dim:
        raise DimensionMismatch("factors over different algebras")
    terms = {}
    for ix, cx in X.terms.items():
        for iy, cy in Y.terms.items():
            idx = tuple(sorted(ix + iy))
            terms[idx] = terms.get(idx, 0) + cx * cy
    return SymTensor(X.dim, X.degree + Y.degree, terms)


def _replace_slot(indices, j, new_index):
    out = list(indices)
    out[j] = new_index
    return tuple(sorted(out))


def _derivation(ad_x, idx):
    """rho(x) on the Sym^k monomial idx as (monomial, value) pairs: slot j
    holding y becomes each c of [x, e_y] = sum over ad_x[y] of v e_c."""
    for j, y in enumerate(idx):
        for c, v in ad_x[y]:
            yield _replace_slot(idx, j, c), v


def spencer_delta_structural(g, X):
    """Degree-raising differential
    delta(X_1 ⊙ ... ⊙ X_k) = sum_i sum_j e_i ⊙ X_1 ⊙ ... ⊙ [e_i, X_j] ⊙ ... ⊙ X_k
    expanded over the monomial basis, i.e. sum_i e_i ⊙ rho(e_i)(X)."""
    if X.dim != g.dim:
        raise DimensionMismatch("tensor does not conform to the algebra")
    terms = {}
    for idx, coeff in X.terms.items():
        for i, ad_i in enumerate(g.ad):
            for mono, v in _derivation(ad_i, idx):
                new_idx = tuple(sorted(mono + (i,)))
                terms[new_idx] = terms.get(new_idx, 0) + coeff * v
    return SymTensor(g.dim, X.degree + 1, terms)


def spencer_delta_curvature(g, omega_comp, X):
    """Degree-preserving curvature-twisted differential
    delta_Omega(X) = sum_i ad_Omega(X_i) ⊙ (product of the other slots),
    i.e. rho(Omega)(X); the scalar 2-form factor is carried externally."""
    if X.dim != g.dim or len(omega_comp.coeffs) != g.dim:
        raise DimensionMismatch("tensor or curvature does not conform to the algebra")
    # [Omega, e_y] as the rows of every ad_{e_b}[y] weighted by omega_b and
    # concatenated in (b, c) order, so terms are met in the order of the sum
    ad_omega = [
        [(c, ob * v) for b, ob in enumerate(omega_comp.coeffs) if ob
         for c, v in g.ad[b][y]]
        for y in range(g.dim)
    ]
    terms = {}
    for idx, coeff in X.terms.items():
        for mono, v in _derivation(ad_omega, idx):
            terms[mono] = terms.get(mono, 0) + coeff * v
    return SymTensor(g.dim, X.degree, terms)


def nilpotency_report(g, max_degree):
    """Map degree -> exact max-norm of delta(delta(.)) over the monomial basis,
    for the structural differential."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    report = {}
    for k in range(1, max_degree + 1):
        worst = Fraction(0)
        for idx in sym_basis(g.dim, k):
            m = SymTensor.monomial(g.dim, idx)
            dd = spencer_delta_structural(g, spencer_delta_structural(g, m))
            worst = max(worst, dd.max_norm())
        report[k] = worst
    return report


# --- Chevalley-Eilenberg cohomology with coefficients in Sym^p(g) ---


def _module_action(ad_a, basis):
    """Derivation extension of ad_{e_a} on Sym^p(g): the sparse image
    {row: value} of each basis monomial."""
    index = {idx: i for i, idx in enumerate(basis)}
    cols = [{} for _ in basis]
    for col, idx in zip(cols, basis):
        for mono, v in _derivation(ad_a, idx):
            r = index[mono]
            col[r] = col.get(r, 0) + v
    return cols


def _ce_differential(g, p, q):
    """Sparse columns of d: Lambda^q g* (x) Sym^p g -> Lambda^{q+1} g* (x) Sym^p g,
      (d phi)(T) = sum_i (-1)^i rho(e_{T_i}) phi(T minus T_i)
                 + sum_{i<j} (-1)^{i+j} phi([e_{T_i}, e_{T_j}], T minus T_i, T_j).
    Column (S, m) is the image {row: value} of e^S (x) m; row (T, mm) is at
    row_of[T] * D + mm. Both terms are enumerated from S."""
    basis = sym_basis(g.dim, p)
    D = len(basis)
    pairs = [[] for _ in range(g.dim)]  # pairs[c] lists (a, b, C^c_{ab}) with a < b
    for a, b in itertools.combinations(range(g.dim), 2):
        for c, v in g.ad[a][b]:
            pairs[c].append((a, b, v))
    rho = [_module_action(ad_a, basis) for ad_a in g.ad]
    row_of = {T: i for i, T in enumerate(itertools.combinations(range(g.dim), q + 1))}
    cols = []
    for S in itertools.combinations(range(g.dim), q):
        ext = {}  # term 2 acts on the exterior factor alone: T -> coefficient
        for k, c in enumerate(S):
            rest = S[:k] + S[k + 1:]
            for a, b, v in pairs[c]:
                if a not in rest and b not in rest:
                    T = tuple(sorted(rest + (a, b)))
                    ext[T] = ext.get(T, 0) + (-1) ** (T.index(a) + T.index(b) + k) * v
        grow = []  # term 1: T = S + {t}, with t at position i of T
        for t in range(g.dim):
            if t not in S:
                i = sum(x < t for x in S)
                grow.append((t, i, row_of[S[:i] + (t,) + S[i:]]))
        for m in range(D):
            col = {row_of[T] * D + m: v for T, v in ext.items()}
            for t, i, r in grow:
                for mm, v in rho[t][m].items():
                    col[r * D + mm] = col.get(r * D + mm, 0) + (-1) ** i * v
            cols.append(col)
    return cols


def _full_complex_dims(g, p, max_q):
    """[dim H^q(g, Sym^p g) for q = 0..max_q], ranking each CE differential
    d_0 .. d_min(max_q, dim - 1) exactly once; d_{-1} and d_dim are zero."""
    ranks = [_exact.rank(_ce_differential(g, p, q)) for q in range(min(max_q + 1, g.dim))]
    ranks = [0] + ranks + [0] * (max_q + 1 - len(ranks))
    D = sym_space_dim(g.dim, p)
    return [comb(g.dim, q) * D - ranks[q + 1] - ranks[q] for q in range(max_q + 1)]


def ce_cohomology_dims(g, p, max_q):
    """[dim H^q(g, Sym^p g) for q = 0..max_q]. A semisimple g has H^q(g, V) = H^q(g) (x) V^g
    (Hochschild & Serre, Ann. Math. 57 (1953)): rank the p = 0 complex, count (Sym^p g)^g."""
    if p < 0 or max_q < 0:
        raise ValueError(f"degrees must be non-negative (p={p}, max_q={max_q})")
    if p > 0 and is_semisimple(g):
        invariants = invariant_subspace_dim(g, p)
        return [h * invariants for h in _full_complex_dims(g, 0, max_q)]
    return _full_complex_dims(g, p, max_q)


def ce_cohomology_dim(g, p, q):
    """dim H^q(g, Sym^p g) via exact ranks of the CE differentials."""
    return ce_cohomology_dims(g, p, q)[q]


def invariant_subspace_dim(g, p):
    """dim (Sym^p g)^g: the nullity D - rank of the module actions of every
    e_a stacked, one D-row block per a (independent of the CE differential path)."""
    basis = sym_basis(g.dim, p)
    D = len(basis)
    rows = [{} for _ in range(g.dim * D)]
    for a, ad_a in enumerate(g.ad):
        for m, col in enumerate(_module_action(ad_a, basis)):
            for r, v in col.items():
                rows[a * D + r][m] = v
    return D - _exact.rank(rows)


# --- Betti-number decomposition ---


def sym_dimension_factor(g, max_p=8):
    """f[p] = dim Sym^p(g) for p = 0..max_p; reproduces the reference Betti
    table exactly."""
    return tuple(sym_space_dim(g.dim, p) for p in range(max_p + 1))


def whitehead_factor(g, max_p=4):
    """f[p] = dim H^0(g, Sym^p g) = dim (Sym^p g)^g, the invariants of each
    symmetric power. Higher H^q need not vanish: Whitehead's lemmas give
    only H^1 = H^2 = 0 for semisimple g, and H^3(su2) = 1."""
    return tuple(invariant_subspace_dim(g, p) for p in range(max_p + 1))


def spencer_betti(base_betti, factor):
    """beta_k = sum_{p+q=k} base_betti[q] * f[p], truncated to len(base_betti);
    the factor tuple f reads 0 past its end."""
    if not base_betti:
        raise ValueError("base Betti numbers must be non-empty")
    f = list(factor) + [0] * len(base_betti)
    return [
        sum(base_betti[q] * f[k - q] for q in range(k + 1))
        for k in range(len(base_betti))
    ]
