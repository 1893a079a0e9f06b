import random
from fractions import Fraction as F

import pytest

from spencerflow import _exact
from spencerflow import liealg as la


@pytest.fixture(scope="module")
def su2():
    return la.preset("su2")


@pytest.fixture(scope="module")
def sl2():
    return la.preset("sl2")


@pytest.fixture(scope="module")
def ab2():
    return la.preset("abelian2")


def e(g, i):
    return la.basis_vector(g, i)


def center_dim(g):
    """dim of the center {X : [e_b, X] = 0 for all b}, the nullity of every
    ad_{e_b} matrix stacked."""
    rows = [dict(enumerate(r)) for b in range(g.dim) for r in la.ad_matrix(g, e(g, b))]
    return g.dim - _exact.rank(rows)


class TestBracket:
    def test_su2_e1_e2(self, su2):
        assert la.bracket(su2, e(su2, 0), e(su2, 1)).coeffs == (0, 0, 1)

    def test_su2_cyclic_table(self, su2):
        assert la.bracket(su2, e(su2, 1), e(su2, 2)).coeffs == (1, 0, 0)
        assert la.bracket(su2, e(su2, 2), e(su2, 0)).coeffs == (0, 1, 0)

    def test_self_bracket_vanishes(self, su2):
        X = la.LieVector((F(2), F(-3), F(5)))
        assert la.bracket(su2, X, X).coeffs == (0, 0, 0)

    def test_bilinearity(self, su2):
        X = e(su2, 0) + e(su2, 1)
        assert la.bracket(su2, X, e(su2, 2)).coeffs == (1, -1, 0)

    def test_dimension_mismatch(self, su2):
        with pytest.raises(la.DimensionMismatch):
            la.bracket(su2, la.LieVector((1, 0)), e(su2, 0))


class TestJacobi:
    def test_su2_exact_zero(self, su2):
        assert la.jacobi_residual(su2) == 0

    def test_so3_exact_zero(self):
        assert la.jacobi_residual(la.preset("so3")) == 0

    def test_sl2_exact_zero(self, sl2):
        assert la.jacobi_residual(sl2) == 0

    def test_abelian_zero(self, ab2):
        assert la.jacobi_residual(ab2) == 0

    def test_corrupted_su2_nonzero(self):
        bad = la.make_algebra(
            3, ["e1", "e2", "e3"], [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 0, 1)]
        )
        assert la.jacobi_residual(bad) > 0


class TestAdCoad:
    def test_abelian_ad_zero(self, ab2):
        X = la.LieVector((F(3), F(7)))
        assert la.ad_matrix(ab2, X) == [[0, 0], [0, 0]]

    def test_su2_ad_e3(self, su2):
        # ad_{e3}: e1 -> e2, e2 -> -e1, e3 -> 0
        M = la.ad_matrix(su2, e(su2, 2))
        assert [row[0] for row in M] == [0, 1, 0]
        assert [row[1] for row in M] == [-1, 0, 0]
        assert [row[2] for row in M] == [0, 0, 0]

    def test_coad_is_negative_transpose_random(self, su2, sl2):
        # ad*_X lam == -ad_matrix(X)^T lam, exactly
        rng = random.Random(7)

        def rational():
            return F(rng.randint(-9, 9), rng.randint(1, 5))

        for g in (su2, sl2):
            for _ in range(50):
                X = la.LieVector(tuple(rational() for _ in range(3)))
                lam = la.DualVector(tuple(rational() for _ in range(3)))
                ad = la.ad_matrix(g, X)
                want = tuple(-sum(ad[c][a] * lam.coeffs[c] for c in range(3)) for a in range(3))
                assert la.coad_apply(g, X, lam).coeffs == want

    def test_pairing_identity_all_basis_pairs(self, su2):
        # <ad*_X lam, Y> + <lam, [X, Y]> == 0
        rng = random.Random(3)
        for _ in range(20):
            X = la.LieVector(tuple(F(rng.randint(-5, 5)) for _ in range(3)))
            lam = la.DualVector(tuple(F(rng.randint(-5, 5)) for _ in range(3)))
            for b in range(3):
                Y = e(su2, b)
                lhs = la.pairing(la.coad_apply(su2, X, lam), Y)
                rhs = la.pairing(lam, la.bracket(su2, X, Y))
                assert lhs + rhs == 0

    @pytest.mark.parametrize("n", [2, 4], ids=["short", "long"])
    def test_coad_rejects_lambda_of_wrong_length(self, su2, n):
        lam = la.DualVector((F(1),) * n)
        with pytest.raises(la.DimensionMismatch):
            la.coad_apply(su2, e(su2, 0), lam)


class TestKillingCenter:
    def test_su2_killing(self, su2):
        B = la.killing_form(su2)
        assert B == [[-2, 0, 0], [0, -2, 0], [0, 0, -2]]
        assert la.is_semisimple(su2)

    def test_killing_symmetric(self, sl2):
        B = la.killing_form(sl2)
        for a in range(3):
            for b in range(3):
                assert B[a][b] == B[b][a]

    def test_abelian_killing_zero(self, ab2):
        assert la.killing_form(ab2) == [[0, 0], [0, 0]]
        assert not la.is_semisimple(ab2)
        assert center_dim(ab2) == 2

    def test_sl2_semisimple_trivial_center(self, sl2):
        assert la.is_semisimple(sl2)
        assert center_dim(sl2) == 0

    def test_su2_trivial_center(self, su2):
        assert center_dim(su2) == 0


class TestStabilizer:
    def test_su2_z_axis(self, su2):
        lam = la.DualVector((F(0), F(0), F(1)))
        basis = la.stabilizer_subalgebra(su2, lam)
        assert len(basis) == 1
        assert basis[0].coeffs == (0, 0, 1)

    def test_zero_lambda_whole_algebra(self, su2):
        lam = la.DualVector((F(0), F(0), F(0)))
        assert len(la.stabilizer_subalgebra(su2, lam)) == 3

    def test_abelian_whole_algebra(self, ab2):
        lam = la.DualVector((F(4), F(-1)))
        assert len(la.stabilizer_subalgebra(ab2, lam)) == 2

    def test_stabilizer_vectors_annihilate(self, sl2):
        lam = la.DualVector((F(1), F(2), F(-3)))
        for X in la.stabilizer_subalgebra(sl2, lam):
            assert all(c == 0 for c in la.coad_apply(sl2, X, lam).coeffs)

    def test_float_lambda_rejected(self, su2):
        # a float has no exact rational meaning here; it used to be rounded
        # to a nearby fraction, so the "exact" basis was of another problem
        lam = la.DualVector((0.1, 0.0, 1.0))
        with pytest.raises(ValueError, match="float"):
            la.stabilizer_subalgebra(su2, lam)
        with pytest.raises(ValueError, match="float"):
            la.make_algebra(2, ["x", "y"], [(0, 1, 0, 0.5)])


class TestCurvatureAction:
    def test_su2_integrable_direction(self, su2):
        lam = la.DualVector((F(0), F(0), F(1)))
        out = la.coad_apply(su2, e(su2, 2), lam)
        assert out.coeffs == (0, 0, 0)
        assert la.integrability_check(su2, e(su2, 2), lam)

    def test_su2_non_integrable_direction(self, su2):
        lam = la.DualVector((F(0), F(0), F(1)))
        out = la.coad_apply(su2, e(su2, 0), lam)
        assert out.coeffs[1] == -1
        assert not la.integrability_check(su2, e(su2, 0), lam)

    def test_zero_lambda(self, su2):
        lam = la.DualVector((F(0), F(0), F(0)))
        out = la.coad_apply(su2, e(su2, 0), lam)
        assert out.coeffs == (0, 0, 0)


class TestConstruction:
    def test_antisymmetry_enforced(self):
        C = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
        C[0][1][0] = F(1)  # missing the (1, 0) mirror
        with pytest.raises(ValueError, match="antisymmetry"):
            la.LieAlgebraSpec(2, ("a", "b"), tuple(
                tuple(tuple(r) for r in p) for p in C
            ))

    @pytest.mark.parametrize(
        "entries",
        [[(0, 1, 0, 1), (1, 0, 0, 1)], [(0, 1, 0, 1), (0, 1, 0, 2)]],
        ids=["mirror", "repeat"],
    )
    def test_second_entry_for_one_coefficient_rejected(self, entries):
        with pytest.raises(ValueError, match=r"constant \(0, 1, 0\) = 1 and constant"):
            la.make_algebra(2, ["x", "y"], entries)

    def test_vector_types_stay_distinct(self):
        X, lam = la.LieVector((1, 2)), la.DualVector((1, 2))
        assert X != lam
        assert type(X + X) is la.LieVector and type(lam - lam) is la.DualVector
        assert type(3 * lam) is la.DualVector and (3 * X).coeffs == (3, 6)

    def test_from_json_roundtrip(self):
        doc = {
            "dim": 2,
            "labels": ["x", "y"],
            "constants": [[0, 1, 0, 1, 2]],
        }
        g = la.from_json(doc)
        assert la.bracket(g, e(g, 0), e(g, 1)).coeffs == (F(1, 2), 0)

    def test_from_json_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            la.from_json({"dim": 1, "labels": ["x"], "constants": [], "extra": 1})

    def test_abelian_n_preset(self):
        g = la.preset("abelian5")
        assert g.dim == 5
        assert la.jacobi_residual(g) == 0

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            la.preset("e8")
