import random
from fractions import Fraction as F
from math import comb

import pytest

from spencerflow import liealg as la
from spencerflow import spencer as sp


@pytest.fixture(scope="module")
def su2():
    return la.preset("su2")


@pytest.fixture(scope="module")
def sl2():
    return la.preset("sl2")


@pytest.fixture(scope="module")
def ab2():
    return la.preset("abelian2")


def mono(dim, *indices):
    return sp.SymTensor.monomial(dim, indices)


def random_tensor(rng, dim, degree, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        idx = tuple(sorted(rng.randrange(dim) for _ in range(degree)))
        terms[idx] = terms.get(idx, 0) + F(rng.randint(-6, 6), rng.randint(1, 4))
    return sp.SymTensor(dim, degree, terms)


class TestStructuralDelta:
    def test_su2_degree_one_vanishes(self, su2):
        for a in range(3):
            assert sp.spencer_delta_structural(su2, mono(3, a)).terms == {}

    def test_abelian_vanishes(self, ab2):
        X = mono(2, 0, 1)
        assert sp.spencer_delta_structural(ab2, X).terms == {}

    def test_sl2_h(self, sl2):
        # basis order (h, e, f): delta(h) = -2 e⊙e + 2 f⊙f
        out = sp.spencer_delta_structural(sl2, mono(3, 0))
        assert out.terms == {(1, 1): -2, (2, 2): 2}

    def test_linearity(self, sl2):
        rng = random.Random(5)
        for _ in range(25):
            X = random_tensor(rng, 3, 2)
            Y = random_tensor(rng, 3, 2)
            a, b = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
            lhs = sp.spencer_delta_structural(sl2, a * X + b * Y)
            rhs = a * sp.spencer_delta_structural(sl2, X) + b * sp.spencer_delta_structural(sl2, Y)
            assert lhs == rhs


class TestCurvatureDelta:
    def test_bracket_with_self_vanishes(self, su2):
        om = la.basis_vector(su2, 0)
        assert sp.spencer_delta_curvature(su2, om, mono(3, 0)).terms == {}

    def test_single_bracket(self, su2):
        om = la.basis_vector(su2, 0)
        out = sp.spencer_delta_curvature(su2, om, mono(3, 1))
        assert out.terms == {(2,): 1}

    def test_two_slot_expansion(self, su2):
        om = la.basis_vector(su2, 0)
        out = sp.spencer_delta_curvature(su2, om, mono(3, 1, 2))
        assert out.terms == {(2, 2): 1, (1, 1): -1}

    @pytest.mark.parametrize("n", [2, 4], ids=["short", "long"])
    def test_omega_of_wrong_length_rejected(self, su2, n):
        om = la.LieVector((F(1),) * n)
        with pytest.raises(la.DimensionMismatch):
            sp.spencer_delta_curvature(su2, om, mono(3, 1))

    def test_linearity_in_tensor_and_omega(self, su2):
        rng = random.Random(9)
        for _ in range(25):
            X = random_tensor(rng, 3, 2)
            Y = random_tensor(rng, 3, 2)
            a, b = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
            om = la.LieVector(tuple(F(rng.randint(-3, 3)) for _ in range(3)))
            lhs = sp.spencer_delta_curvature(su2, om, a * X + b * Y)
            rhs = a * sp.spencer_delta_curvature(su2, om, X) + b * sp.spencer_delta_curvature(su2, om, Y)
            assert lhs == rhs


class TestNilpotency:
    def test_su2_all_zero_to_degree_three(self, su2):
        assert sp.nilpotency_report(su2, 3) == {1: 0, 2: 0, 3: 0}

    def test_so3_all_zero_to_degree_three(self):
        # delta vanishes on the monomial basis of the compact bases, so by
        # linearity delta^2 = 0 holds on every tensor of these degrees
        assert sp.nilpotency_report(la.preset("so3"), 3) == {1: 0, 2: 0, 3: 0}

    def test_abelian_all_zero(self, ab2):
        assert sp.nilpotency_report(ab2, 3) == {1: 0, 2: 0, 3: 0}

    def test_sl2_degree_one_frozen_oracle(self, sl2):
        # delta^2(h) = -8 h⊙e⊙e + 8 h⊙e⊙f - 8 h⊙f⊙f, brute-force expansion
        h = mono(3, 0)
        dd = sp.spencer_delta_structural(sl2, sp.spencer_delta_structural(sl2, h))
        assert dd.terms == {(0, 1, 1): -8, (0, 1, 2): 8, (0, 2, 2): -8}
        assert sp.nilpotency_report(sl2, 1)[1] == 8


class TestCECohomology:
    def test_su2_trivial_coeffs(self, su2):
        assert [sp.ce_cohomology_dim(su2, 0, q) for q in range(4)] == [1, 0, 0, 1]

    def test_abelian2_trivial_coeffs(self, ab2):
        assert [sp.ce_cohomology_dim(ab2, 0, q) for q in range(3)] == [1, 2, 1]

    def test_su2_sym2_invariant_is_killing_line(self, su2):
        assert sp.ce_cohomology_dim(su2, 2, 0) == 1

    def test_su2_invariant_dims(self, su2):
        assert [sp.ce_cohomology_dim(su2, p, 0) for p in range(3)] == [1, 0, 1]

    def test_q0_matches_independent_invariant_solver(self, su2, sl2, ab2):
        # also off the semisimple path: e(3), and su2 with [e1, e2] = e1 + e3,
        # which breaks Jacobi
        broken = la.make_algebra(
            3, ["e1", "e2", "e3"], [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1), (0, 1, 0, 1)]
        )
        for g in (su2, sl2, ab2, e3(), broken):
            for p in range(3):
                assert sp.ce_cohomology_dim(g, p, 0) == sp.invariant_subspace_dim(g, p)

    def test_whitehead_vanishing_q1(self, su2, sl2):
        for g in (su2, sl2):
            for p in range(3):
                assert sp.ce_cohomology_dim(g, p, 1) == 0

    def test_q_above_dim_is_zero(self, su2):
        assert sp.ce_cohomology_dim(su2, 0, 4) == 0


def so4_permuted():
    """so(4) = su2 + su2 with the six basis elements in a shuffled order."""
    perm = [3, 0, 5, 1, 4, 2]
    entries = [
        (perm[a + off], perm[b + off], perm[c + off], 1)
        for off in (0, 3)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ]
    return la.make_algebra(6, [f"x{i}" for i in range(6)], entries)


def sl3():
    """sl(3) in the basis E_ij (i != j), H1 = E11 - E22, H2 = E22 - E33, with
    the structure constants read off the matrix commutators."""
    off = [(i, j) for i in range(3) for j in range(3) if i != j]

    def unit(i, j):
        return [[int((r, c) == (i, j)) for c in range(3)] for r in range(3)]

    def diag(*d):
        return [[d[r] if r == c else 0 for c in range(3)] for r in range(3)]

    def mul(A, B):
        return [[sum(A[r][k] * B[k][c] for k in range(3)) for c in range(3)] for r in range(3)]

    def coords(M):  # x H1 + y H2 = diag(x, y - x, -y)
        return [M[i][j] for i, j in off] + [M[0][0], -M[2][2]]

    basis = [unit(i, j) for i, j in off] + [diag(1, -1, 0), diag(0, 1, -1)]
    entries = []
    for a in range(8):
        for b in range(a + 1, 8):
            AB, BA = mul(basis[a], basis[b]), mul(basis[b], basis[a])
            bracket = [[x - y for x, y in zip(r, s)] for r, s in zip(AB, BA)]
            entries += [(a, b, c, v) for c, v in enumerate(coords(bracket)) if v]
    return la.make_algebra(8, [f"x{i}" for i in range(8)], entries)


def e3():
    """e(3) = so(3) + R^3, the Euclidean algebra: [J_i, J_j] = eps_ijk J_k,
    [J_i, P_j] = eps_ijk P_k, [P_i, P_j] = 0. Not semisimple: R^3 is an ideal."""
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    entries = [(i, j, k, 1) for i, j, k in cyclic]
    entries += [(i, j + 3, k + 3, 1) for i, j, k in cyclic]
    entries += [(j, i + 3, k + 3, -1) for i, j, k in cyclic]
    return la.make_algebra(6, ["J1", "J2", "J3", "P1", "P2", "P3"], entries)


def ranks_taken(monkeypatch):
    """Patch _exact.rank to record the row count of every matrix it ranks."""
    ranked = []
    rank = sp._exact.rank
    monkeypatch.setattr(sp._exact, "rank", lambda rows: ranked.append(len(rows)) or rank(rows))
    return ranked


@pytest.fixture(scope="module")
def so4():
    return so4_permuted()


class TestCEDifferential:
    def test_square_is_zero(self, su2, sl2, so4):
        for g in (su2, sl2, so4):
            for p in range(3):
                d = [sp._ce_differential(g, p, q) for q in range(g.dim)]
                for q in range(g.dim - 1):
                    for col in d[q]:
                        image = {}
                        for r, x in col.items():
                            for rr, y in d[q + 1][r].items():
                                image[rr] = image.get(rr, 0) + x * y
                        assert all(v == 0 for v in image.values()), (g.basis_labels, p, q)

    def test_shape(self, so4):
        d2 = sp._ce_differential(so4, 2, 2)
        assert len(d2) == 15 * 21  # columns: Lambda^2 (x) Sym^2 of a dim-6 algebra
        assert max(max(col, default=0) for col in d2) < 20 * 21

    def test_each_differential_ranked_once(self, so4, monkeypatch):
        # the full path: d_0 .. d_5 of Lambda^q (x) Sym^2, each ranked once; on a
        # non-semisimple algebra it follows the one Killing-form rank
        ranked = ranks_taken(monkeypatch)
        full = [comb(6, q) * 21 for q in range(6)]
        sp._full_complex_dims(so4, 2, 6)
        assert ranked == full
        ranked.clear()
        sp.ce_cohomology_dims(e3(), 2, 6)
        assert ranked == [6] + full

    def test_factored_path_ranks_only_the_trivial_complex(self, so4, monkeypatch):
        # so(4) is semisimple: the Killing form, the 6 module actions on Sym^2
        # stacked (their nullity is dim (Sym^2 g)^g), then d_0 .. d_5 of Lambda^q alone
        ranked = ranks_taken(monkeypatch)
        assert sp.ce_cohomology_dims(so4, 2, 6) == [2, 0, 0, 4, 0, 0, 2]
        assert ranked == [6, 6 * 21] + [comb(6, q) for q in range(6)]

    @pytest.mark.parametrize("p", [1, 2])
    def test_sl3_factored_against_full(self, p):
        g = sl3()
        assert la.is_semisimple(g)
        assert sp.ce_cohomology_dims(g, p, 9) == sp._full_complex_dims(g, p, 9)

    def test_bracket_breaking_jacobi_keeps_the_full_complex(self, monkeypatch):
        # su2 with [e1, e2] = e1 + e3: antisymmetric, Killing form of rank 3, but
        # not a Lie algebra, so Hochschild-Serre does not apply
        bad = la.make_algebra(3, ["e1", "e2", "e3"],
                              [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1), (0, 1, 0, 1)])
        killing = [dict(enumerate(r)) for r in la.killing_form(bad)]
        assert la.jacobi_residual(bad) > 0 and sp._exact.rank(killing) == 3
        assert not la.is_semisimple(bad)
        ranked = ranks_taken(monkeypatch)
        for p in range(3):
            ranked.clear()
            dims = sp.ce_cohomology_dims(bad, p, 3)
            assert ranked == [comb(3, q) * sp.sym_space_dim(3, p) for q in range(3)]
            assert dims == sp._full_complex_dims(bad, p, 3)
        # and the shortcut would have changed the output
        factored = [h * sp.invariant_subspace_dim(bad, 2) for h in sp._full_complex_dims(bad, 0, 3)]
        assert sp.ce_cohomology_dims(bad, 2, 3) != factored

    def test_so4_permuted_sym2(self, so4):
        assert sp.ce_cohomology_dims(so4, 2, 6) == [2, 0, 0, 4, 0, 0, 2]

    def test_sl3_trivial_coeffs(self):
        assert sp.ce_cohomology_dims(sl3(), 0, 8) == [1, 0, 0, 1, 0, 1, 0, 0, 1]

    def test_sl3_adjoint_coeffs_vanish(self):
        # Whitehead: no cohomology with coefficients in the adjoint module
        assert sp.ce_cohomology_dims(sl3(), 1, 8) == [0] * 9

    def test_euler_characteristic(self, su2, sl2, ab2, so4):
        for g, max_p in ((su2, 2), (sl2, 2), (ab2, 2), (so4, 2), (sl3(), 1)):
            for p in range(max_p + 1):
                dims = sp.ce_cohomology_dims(g, p, g.dim)
                chains = [comb(g.dim, q) * sp.sym_space_dim(g.dim, p) for q in range(g.dim + 1)]
                assert sum((-1) ** q * h for q, h in enumerate(dims)) == sum(
                    (-1) ** q * c for q, c in enumerate(chains)
                )

    def test_max_q_beyond_dim_pads_zeros(self, su2):
        assert sp.ce_cohomology_dims(su2, 0, 5) == [1, 0, 0, 1, 0, 0]

    def test_negative_degrees_rejected(self, su2):
        with pytest.raises(ValueError, match="non-negative"):
            sp.ce_cohomology_dims(su2, 0, -1)
        with pytest.raises(ValueError, match="non-negative"):
            sp.ce_cohomology_dim(su2, -1, 0)


BETTI_TABLE = [
    # (base manifold Betti, algebra, expected)
    ([1, 2, 1], "abelian2", [1, 4, 8]),   # torus
    ([1, 0, 1], "abelian2", [1, 2, 4]),   # sphere
    ([1, 1, 1], "abelian2", [1, 3, 6]),   # projective plane, mod-2 convention
    ([1, 2, 1], "su2", [1, 5, 13]),
    ([1, 0, 1], "su2", [1, 3, 7]),
    ([1, 1, 1], "su2", [1, 4, 10]),
]


class TestBetti:
    @pytest.mark.parametrize("base,alg,expected", BETTI_TABLE)
    def test_reference_table_rows(self, base, alg, expected):
        g = la.preset(alg)
        assert sp.spencer_betti(base, sp.sym_dimension_factor(g)) == expected

    def test_identity_convolution(self):
        assert sp.spencer_betti([1], (1,)) == [1]

    def test_factor_reads_zero_past_its_end(self):
        assert sp.spencer_betti([1, 2, 1], (1,)) == [1, 2, 1]
        assert sp.spencer_betti([1, 2, 1], ()) == [0, 0, 0]

    def test_sym_factor_values(self, su2, ab2):
        assert sp.sym_dimension_factor(su2, max_p=2) == (1, 3, 6)
        assert sp.sym_dimension_factor(ab2, max_p=2) == (1, 2, 3)

    def test_whitehead_factor_su2(self, su2):
        assert sp.whitehead_factor(su2, max_p=2) == (1, 0, 1)

    def test_empty_base_rejected(self):
        with pytest.raises(ValueError):
            sp.spencer_betti([], ())

    def test_negative_base_rejected(self):
        # a Betti number counts dimensions; [-1, 2, -3] would give [-1, -1, -3] on su2
        with pytest.raises(ValueError, match="non-negative"):
            sp.spencer_betti([-1, 2, -3], (1, 3, 6))
