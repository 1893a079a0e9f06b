"""Exact-arithmetic Lie algebra engine.

Structure constants follow the single convention [e_a, e_b] = sum_c C^c_{ab} e_c,
stored as C[a][b][c]. Antisymmetry in (a, b) is enforced at construction; the
Jacobi identity is *not* assumed, it is checkable via jacobi_residual.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import _exact, read_preset

PRESET_NAMES = ("su2", "so3", "sl2")


class DimensionMismatch(ValueError):
    pass


def _as_fraction(x):
    if isinstance(x, float):
        raise ValueError(f"exact input must be an int or Fraction, not the float {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Dimension, basis labels and exact structure constants of a Lie algebra.

    `ad[a][b]` holds the nonzero (c, C^c_{ab}) of [e_a, e_b], in increasing c.
    It is built in the same pass that checks antisymmetry, and every exact
    operation reads the constants through it."""

    dim: int
    basis_labels: tuple
    structure_constants: tuple  # C[a][b][c] as nested tuples of Fraction
    ad: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if len(self.basis_labels) != self.dim:
            raise ValueError("need one label per basis element")
        C = self.structure_constants
        if len(C) != self.dim or any(
            len(Ca) != self.dim or any(len(Cab) != self.dim for Cab in Ca) for Ca in C
        ):
            raise ValueError("structure constants must be dim x dim x dim")
        ad = [[[] for _ in range(self.dim)] for _ in range(self.dim)]
        for a in range(self.dim):
            for b in range(self.dim):
                for c in range(self.dim):
                    if C[a][b][c] != -C[b][a][c]:
                        raise ValueError(
                            "structure constants violate antisymmetry at "
                            f"({a},{b},{c})"
                        )
                    if C[a][b][c]:
                        ad[a][b].append((c, C[a][b][c]))
        object.__setattr__(self, "ad", tuple(tuple(map(tuple, row)) for row in ad))


def _freeze_constants(dim, entries):
    """Build the C[a][b][c] tuple from a dense nested list or sparse entries."""
    C = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for a, b, c, val in entries:
        C[a][b][c] = val
        C[b][a][c] = -val
    return tuple(tuple(tuple(row) for row in plane) for plane in C)


def make_algebra(dim, labels, sparse_entries):
    """Algebra from sparse entries [(a, b, c, value)] with a != b; the (b, a)
    mirror is filled automatically."""
    if type(dim) is not int or dim < 1:
        raise ValueError(f"dimension must be a positive int, not {dim!r}")
    seen = {}  # (a, b, c) with a < b -> the entry that set that coefficient
    for a, b, c, v in sparse_entries:
        if not all(type(i) is int and 0 <= i < dim for i in (a, b, c)):
            raise ValueError(f"constant at {(a, b, c)}: indices must be ints in 0..{dim - 1}")
        if a == b:
            raise ValueError("diagonal entries [e_a, e_a] are identically zero")
        key = (min(a, b), max(a, b), c)
        if key in seen:
            raise ValueError(
                f"constant {seen[key]} and constant {(a, b, c)} = {v} set the same "
                "coefficient; give each [e_a, e_b] coefficient once"
            )
        seen[key] = f"{(a, b, c)} = {v}"
    entries = [(a, b, c, _as_fraction(v)) for a, b, c, v in sparse_entries]
    return LieAlgebraSpec(dim, tuple(labels), _freeze_constants(dim, entries))


def from_json(doc):
    """Load a custom algebra from a parsed JSON document:
    {dim, labels, constants: [[a, b, c, numerator, denominator], ...]}."""
    if not isinstance(doc, dict):
        raise ValueError("algebra document must be a JSON object")
    allowed = {"dim", "labels", "constants"}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown keys in algebra document: {sorted(unknown)}")
    if set(doc) != allowed:
        raise ValueError(f"missing keys in algebra document: {sorted(allowed - set(doc))}")
    if not isinstance(doc["labels"], list) or not isinstance(doc["constants"], list):
        raise ValueError("algebra document: labels and constants must be lists")
    entries = []
    for entry in doc["constants"]:
        if not isinstance(entry, list) or len(entry) != 5:
            raise ValueError(f"constant {entry}: expected [a, b, c, numerator, denominator]")
        a, b, c, num, den = entry
        if type(num) is not int or type(den) is not int:
            raise ValueError(f"constant {entry}: numerator and denominator must be ints")
        if den == 0:
            raise ValueError(f"constant {entry}: zero denominator")
        entries.append((a, b, c, Fraction(num, den)))
    return make_algebra(doc["dim"], doc["labels"], entries)


def preset(name):
    """Algebra preset by name: su2, so3, sl2, or abelian<N> (e.g. abelian2)."""
    if name.startswith("abelian"):
        n = int(name[len("abelian"):])
        return make_algebra(n, [f"a{i+1}" for i in range(n)], [])
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown algebra preset: {name!r}")
    return from_json(read_preset(f"{name}.json"))


@dataclass(frozen=True)
class _Coordinates:
    """Coordinate tuple with the linear operations; each result has the type
    of the vector it was computed from."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def __add__(self, other):
        return type(self)(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return type(self)(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, scalar):
        return type(self)(tuple(scalar * a for a in self.coeffs))


class LieVector(_Coordinates):
    """Element of the algebra in basis coordinates."""


class DualVector(_Coordinates):
    """Element of the dual space; houses the distribution function."""


def basis_vector(g, a):
    coeffs = [Fraction(0)] * g.dim
    coeffs[a] = Fraction(1)
    return LieVector(tuple(coeffs))


def pairing(lam, X):
    """Natural pairing <lambda, X>."""
    return sum(l * x for l, x in zip(lam.coeffs, X.coeffs))


def _check_conforms(g, v):
    if len(v.coeffs) != g.dim:
        raise DimensionMismatch(
            f"vector of length {len(v.coeffs)} does not conform to dim {g.dim}"
        )


def bracket(g, X, Y):
    """[X, Y] = sum C^c_{ab} X^a Y^b e_c."""
    _check_conforms(g, X)
    _check_conforms(g, Y)
    out = [X.coeffs[0] * 0] * g.dim
    for xa, ad_a in zip(X.coeffs, g.ad):
        if xa == 0:
            continue
        for yb, ad_ab in zip(Y.coeffs, ad_a):
            if yb == 0:
                continue
            for c, v in ad_ab:
                out[c] += v * xa * yb
    return LieVector(tuple(out))


def jacobi_residual(g):
    """Max-norm over basis triples of [e_a,[e_b,e_c]] + cyclic, exact. The bracket is
    antisymmetric, so this sum is alternating and a < b < c covers every triple."""
    worst = Fraction(0)
    for a, b, c in itertools.combinations(range(g.dim), 3):
        total = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for w, v in g.ad[y][z]:
                for d, u in g.ad[x][w]:
                    total[d] = total.get(d, 0) + u * v
        worst = max([worst, *map(abs, total.values())])
    return worst


def ad_matrix(g, X):
    """Matrix of ad_X = [X, .]: column a is the coordinates of [X, e_a]."""
    _check_conforms(g, X)
    cols = [bracket(g, X, basis_vector(g, a)).coeffs for a in range(g.dim)]
    return [[cols[a][c] for a in range(g.dim)] for c in range(g.dim)]


def coad_apply(g, X, lam):
    """ad*_X lambda as a DualVector, with components sum_{b,c} C^c_{ab} X^b lam_c."""
    _check_conforms(g, X)
    _check_conforms(g, lam)
    out = []
    for ad_a in g.ad:
        out.append(sum(
            v * xb * lam.coeffs[c]
            for xb, ad_ab in zip(X.coeffs, ad_a) if xb
            for c, v in ad_ab
        ))
    return DualVector(tuple(out))


def killing_form(g):
    """B_{ab} = trace(ad_{e_a} ad_{e_b}) = sum_{y,c} C^c_{ay} C^y_{bc}."""
    ad = [[dict(ad_bc) for ad_bc in ad_b] for ad_b in g.ad]
    return [
        [sum((u * ad_b[c].get(y, 0) for y, ad_ay in enumerate(ad_a) for c, u in ad_ay),
             Fraction(0)) for ad_b in ad]
        for ad_a in g.ad
    ]


def is_semisimple(g):
    """Cartan's criterion on a bracket that satisfies Jacobi exactly."""
    B = killing_form(g)
    return jacobi_residual(g) == 0 and _exact.rank([dict(enumerate(r)) for r in B]) == g.dim


def stabilizer_subalgebra(g, lam):
    """Exact basis of {X : ad*_X lambda = 0}."""
    _check_conforms(g, lam)
    lam_exact = DualVector([_as_fraction(x) for x in lam.coeffs])
    # row (a): coefficient of X^b in (ad*_X lam)_a, read off ad*_{e_b} lam
    cols = [coad_apply(g, basis_vector(g, b), lam_exact).coeffs for b in range(g.dim)]
    rows = [{b: col[a] for b, col in enumerate(cols)} for a in range(g.dim)]
    return [LieVector(tuple(v)) for v in _exact.nullspace(rows, n_cols=g.dim)]


def integrability_check(g, omega_comp, lam):
    """True when ad*_Omega lambda vanishes identically."""
    return all(x == 0 for x in coad_apply(g, omega_comp, lam).coeffs)
