import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spencerflow import cartan as ca
from spencerflow import liealg as la


@pytest.fixture(scope="module")
def su2():
    return la.preset("su2")


@pytest.fixture(scope="module")
def so3():
    return la.preset("so3")


@pytest.fixture(scope="module")
def ab2():
    return la.preset("abelian2")


E3 = la.LieVector((0.0, 0.0, 1.0))
LAM0 = la.DualVector((1.0, 0.0, 0.0))


class TestRhs:
    """d lambda/ds = M lambda with M = rhs_generator(g, A.v)."""

    def test_abelian_vanishes(self, ab2):
        out = ca.rhs_generator(ab2, la.LieVector((2.0, 3.0))) @ np.array([1.0, -1.0])
        assert out.tolist() == [0.0, 0.0]

    def test_su2_rotation_generator(self, su2):
        # d lam1/ds = -lam2, d lam2/ds = +lam1 at lam = (1, 0, 0)
        out = ca.rhs_generator(su2, E3) @ np.array(LAM0.coeffs)
        assert np.allclose(out, (0.0, 1.0, 0.0))

    def test_zero_lambda(self, su2):
        out = ca.rhs_generator(su2, E3) @ np.zeros(3)
        assert out.tolist() == [0.0, 0.0, 0.0]

    def test_so3_rigid_body_cross_product(self, so3):
        # dJ/ds = omega x J componentwise under this coadjoint sign convention
        rng = np.random.default_rng(1)
        for _ in range(10):
            w = rng.standard_normal(3)
            J = rng.standard_normal(3)
            out = ca.rhs_generator(so3, la.LieVector(tuple(w))) @ J
            assert np.allclose(out, np.cross(w, J), atol=1e-14)


class TestCFL:
    """ds_max = 1 / ||M||_inf for each generator M = rhs_generator(g, A.v)."""

    def test_abelian_unbounded(self, ab2):
        assert ca.cfl_bound(ca.rhs_generator(ab2, la.LieVector((1.0, 1.0)))) == math.inf

    def test_su2_unit(self, su2):
        assert ca.cfl_bound(ca.rhs_generator(su2, E3)) == 1.0

    def test_linear_scaling(self, su2):
        assert ca.cfl_bound(ca.rhs_generator(su2, la.LieVector((0.0, 0.0, 2.0)))) == 0.5

    def test_gate_rejects_before_mutation(self, su2):
        A = ca.ConnectionSampler.constant(E3)
        with pytest.raises(ca.CFLViolation):
            ca.integrate(su2, LAM0, A, (1.0,), 1.0, 1.0, "euler_paper")
        with pytest.raises(ca.CFLViolation):
            ca.integrate(su2, LAM0, A, (1.0,), 1.5, 1.5, "rk4")

    @pytest.mark.parametrize("name", ["su2", "sl2"])
    def test_batched_rows_match_the_per_point_formulas(self, name):
        g = la.preset(name)
        C = structure_tensor_loop(g)
        Av = np.random.default_rng(2).standard_normal((5, 3))
        M = ca.rhs_generator(g, Av)
        bound = ca.cfl_bound(M)
        for n in range(5):
            assert np.array_equal(M[n], -np.einsum("bac,b->ac", C, Av[n]))
            assert bound[n] == 1.0 / np.linalg.norm(M[n], np.inf)

    def test_base_point_overflow_is_gate(self):
        A = ca.ConnectionSampler.wu_yang_monopole(0.5)
        g, lam0 = la.preset("abelian1"), la.DualVector((1.0,))
        # x_phi = s * 1e308 passes the float64 maximum at the fourth step
        with pytest.raises(ca.CFLViolation, match=r"base point leaves float64 at s=2\.0$"):
            ca.integrate(g, lam0, A, (0.0, 1e308, 0.3), 0.5, 5.0)


def one_step(g, lam, ds, A, renormalize=False):
    """(s, lambda) after one euler_paper step of size ds along v = (1,)."""
    s, _, lams = ca.integrate(g, lam, A, (1.0,), ds, ds, "euler_paper", renormalize)
    assert len(s) == 2
    return s[-1], lams[-1]


class TestStep:
    def test_abelian_identity(self, ab2):
        A = ca.ConnectionSampler.abelian_zero(2)
        s, lam = one_step(ab2, la.DualVector((1.0, 2.0)), 0.3, A)
        assert lam.tolist() == [1.0, 2.0]
        assert s == pytest.approx(0.3)

    def test_euler_paper_update(self, su2):
        A = ca.ConnectionSampler.constant(E3)
        _, lam = one_step(su2, LAM0, 0.1, A)
        assert lam.tolist() == [1.0, 0.1, 0.0]

    def test_euler_paper_renormalized(self, su2):
        A = ca.ConnectionSampler.constant(E3)
        _, lam = one_step(su2, LAM0, 0.1, A, renormalize=True)
        expect = np.array([1.0, 0.1, 0.0]) / math.sqrt(1.01)
        assert np.allclose(lam, expect, atol=1e-15)

    def test_linearity_of_euler_step(self, su2):
        A = ca.ConnectionSampler.constant(E3)
        rng = np.random.default_rng(4)
        for _ in range(10):
            l1 = rng.standard_normal(3)
            l2 = rng.standard_normal(3)
            _, s1 = one_step(su2, l1, 0.05, A)
            _, s2 = one_step(su2, l2, 0.05, A)
            _, s12 = one_step(su2, l1 + l2, 0.05, A)
            assert np.allclose(s12, s1 + s2, atol=1e-12)

    def test_rk4_quarter_turn(self, su2):
        A = ca.ConnectionSampler.constant(E3)
        _, _, lam = ca.integrate(su2, LAM0, A, (1.0,), 1e-3, math.pi / 2, "rk4")
        assert np.allclose(lam[-1], (0.0, 1.0, 0.0), atol=1e-10)


class TestExactFlow:
    def test_s_zero_identity(self, su2):
        out = ca.coadjoint_flow_exact(su2, E3, LAM0, 0.0)
        assert np.allclose(out.coeffs, LAM0.coeffs)

    def test_quarter_turn(self, su2):
        out = ca.coadjoint_flow_exact(su2, E3, LAM0, math.pi / 2)
        assert np.allclose(out.coeffs, (0.0, 1.0, 0.0), atol=1e-13)

    def test_abelian_constant(self, ab2):
        lam = la.DualVector((3.0, -1.0))
        out = ca.coadjoint_flow_exact(ab2, la.LieVector((5.0, 2.0)), lam, 7.0)
        assert np.allclose(out.coeffs, lam.coeffs)

    def test_norm_preserved_compact(self, su2, so3):
        rng = np.random.default_rng(8)
        for g in (su2, so3):
            a = la.LieVector(tuple(rng.standard_normal(3)))
            lam = la.DualVector(tuple(rng.standard_normal(3)))
            for s in (0.5, 2.0, 10.0):
                out = ca.coadjoint_flow_exact(g, a, lam, s)
                assert abs(
                    np.linalg.norm(out.coeffs) - np.linalg.norm(lam.coeffs)
                ) < 1e-13


class TestConvergenceOrders:
    def test_rk4_long_run_accuracy_and_norm(self, su2):
        A = ca.ConnectionSampler.constant(E3)
        _, _, lam = ca.integrate(su2, LAM0, A, (1.0,), 1e-3, 2 * math.pi, "rk4")
        ref = ca.coadjoint_flow_exact(su2, E3, LAM0, 2 * math.pi)
        dev = np.max(np.abs(lam[-1] - np.array(ref.coeffs)))
        assert dev <= 1e-8
        drift = abs(np.linalg.norm(lam[-1]) - 1.0)
        assert drift <= 1e-10

    def test_euler_first_order(self, su2):
        A = ca.ConnectionSampler.constant(E3)
        errs = []
        for ds in (1e-3, 5e-4):
            _, _, lam = ca.integrate(su2, LAM0, A, (1.0,), ds, 1.0, "euler_paper")
            ref = ca.coadjoint_flow_exact(su2, E3, LAM0, 1.0)
            errs.append(np.max(np.abs(lam[-1] - np.array(ref.coeffs))))
        order = math.log2(errs[0] / errs[1])
        assert 0.9 <= order <= 1.1

    def test_rk4_fourth_order(self, su2):
        A = ca.ConnectionSampler.constant(E3)
        errs = []
        for ds in (0.05, 0.025):
            _, _, lam = ca.integrate(su2, LAM0, A, (1.0,), ds, 1.0, "rk4")
            ref = ca.coadjoint_flow_exact(su2, E3, LAM0, 1.0)
            errs.append(np.max(np.abs(lam[-1] - np.array(ref.coeffs))))
        order = math.log2(errs[0] / errs[1])
        assert order >= 3.7


class TestResidual:
    @staticmethod
    def _rotating_samples(h, n):
        return [
            la.DualVector((math.cos(k * h), math.sin(k * h), 0.0)) for k in range(n)
        ]

    def test_abelian_constant_zero(self, ab2):
        A = ca.ConnectionSampler.abelian_zero(2)
        samples = [la.DualVector((1.0, 2.0))] * 5
        assert ca.cartan_residual(ab2, A, samples, 0.1) <= 1e-14

    def test_second_order_on_exact_solution(self, su2):
        A = ca.ConnectionSampler.constant(E3)
        r1 = ca.cartan_residual(su2, A, self._rotating_samples(0.01, 101), 0.01)
        r2 = ca.cartan_residual(su2, A, self._rotating_samples(0.005, 201), 0.005)
        assert 3.6 <= r1 / r2 <= 4.4

    def test_wrong_constant_lambda(self, su2):
        A = ca.ConnectionSampler.constant(E3)
        samples = [la.DualVector((1.0, 0.0, 0.0))] * 5
        assert ca.cartan_residual(su2, A, samples, 0.1) == pytest.approx(1.0)

    def test_spacings_equal_up_to_rounding_of_s(self, su2):
        # s accumulated past 16 at ds = 1e-3: the two spacings of the point
        # after the binade change differ by an ulp of s, about 3.6e-15.
        A = ca.ConnectionSampler.constant(E3)
        s = [15.9]
        while s[-1] < 16.1:
            s.append(s[-1] + 1e-3)
        s.append(s[-1] + 4e-4)  # a final, shortened step
        s = np.array(s)
        lam = np.array([(math.cos(sn), math.sin(sn), 0.0) for sn in s])
        resid = ca.residual_profile(su2, A, (1.0,), s, s[:, None], lam)
        assert resid[0] == resid[-1] == resid[-2] == 0.0
        assert np.all(resid[1:-2] > 0.0)
        assert np.max(resid) <= 1e-6

    def test_long_uniform_grid_has_no_skipped_point(self, su2):
        # n * h rounds differently for each n; no sample may be dropped.
        A = ca.ConnectionSampler.constant(E3)
        h = 1e-3
        samples = self._rotating_samples(h, 20001)
        s = np.array([n * h for n in range(len(samples))])
        lam = np.array([sample.coeffs for sample in samples])
        resid = ca.residual_profile(su2, A, (1.0,), s, s[:, None], lam)
        assert np.all(resid[1:-1] > 0.0)
        assert ca.cartan_residual(su2, A, samples, h) == np.max(resid)

    def test_degenerate_grid_rejected(self, su2):
        A = ca.ConnectionSampler.constant(E3)
        with pytest.raises(ValueError):
            ca.cartan_residual(su2, A, [la.DualVector((1.0, 0.0, 0.0))] * 2, 0.1)

    def test_non_finite_sample_rejected(self, su2):
        A = ca.ConnectionSampler.constant(E3)
        samples = [LAM0, la.DualVector((math.nan, 0.0, 0.0)), LAM0]
        with pytest.raises(ValueError, match="non-finite"):
            ca.cartan_residual(su2, A, samples, 0.1)


class TestMonopole:
    def test_zero_charge(self):
        assert ca.monopole_radial_check(0.0, 1.0, 1e-4) == (0.0, 0.0, 0.0)

    def test_closed_form(self):
        _, exact, _ = ca.monopole_radial_check(1.0, 2.0, 1e-4)
        assert exact == pytest.approx(-0.25)

    def test_second_order_difference(self):
        _, _, diff = ca.monopole_radial_check(1.0, 1.0, 1e-4)
        assert diff <= 1e-7

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            ca.monopole_radial_check(1.0, 1e-5, 1e-4)

    def test_wu_yang_sampler(self):
        A = ca.ConnectionSampler.wu_yang_monopole(2.0)
        # at the equator theta = pi/2: A_phi = q
        val = A.sample(np.array([[1.0, math.pi / 2, 0.0]]), 2)
        assert val[0, 0] == pytest.approx(2.0)
        assert np.all(A.sample(np.array([[1.0, 0.5, 0.0]]), 0) == 0.0)

    def test_wrong_width_rejected(self, su2):
        A = ca.ConnectionSampler(3, lambda x, mu: np.zeros(2))
        with pytest.raises(ValueError, match="wrong dimension"):
            A.sample(np.zeros((1, 1)), 0)
        with pytest.raises(ValueError, match="wrong dimension"):
            ca.integrate(su2, LAM0, A, (1.0,), 0.1, 0.5)


def structure_tensor_loop(g):
    """The float tensor built entry by entry from the exact constants."""
    n = g.dim
    C = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                C[a, b, c] = float(g.structure_constants[a][b][c])
    return C


def rk4_generator(M0, M_mid, M_end, h):
    """One step's rk4 generator G, lambda(s+h) = lambda + h * (G @ lambda),
    product by product on single 3x3 matrices."""

    def mul(X, Y):
        return np.einsum("ij,jk->ik", X, Y)

    A2 = M_mid + mul(h / 2 * M_mid, M0)
    A3 = M_mid + mul(h / 2 * M_mid, A2)
    A4 = M_end + mul(h * M_end, A3)
    return (M0 + 2 * A2 + 2 * A3 + A4) / 6


def reference_step(C, lam, A, x, v, ds, scheme, renormalize, stages=False):
    """One step with a fresh single-point contraction at every stage. stages
    runs rk4 as the classical recursion k1..k4 instead of through its
    generator."""

    def M(sigma):
        Av = A.contract((x + sigma * v)[None, :], v)[0]
        return -np.einsum("bac,b->ac", C, Av)

    if scheme == "euler_paper":
        lam_new = lam + ds * (M(0.0) @ lam)
    elif stages:
        k1 = M(0.0) @ lam
        k2 = M(ds / 2) @ (lam + ds / 2 * k1)
        k3 = M(ds / 2) @ (lam + ds / 2 * k2)
        k4 = M(ds) @ (lam + ds * k3)
        lam_new = lam + ds / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    else:
        lam_new = lam + ds * (rk4_generator(M(0.0), M(ds / 2), M(ds), ds) @ lam)
    if renormalize:
        norm1 = np.linalg.norm(lam_new)
        if norm1 > 0:
            lam_new = lam_new * (np.linalg.norm(lam) / norm1)
    return lam_new


def reference_loop(g, lam0, A, v, ds, s_end, scheme, renormalize, stages=False):
    """integrate's recursion one state at a time, with a tensor built entry by
    entry and the base point advanced by repeated addition."""
    C = structure_tensor_loop(g)
    v = np.array(v, dtype=float)
    s, x, lam = [0.0], [np.zeros(len(v))], [np.array([float(c) for c in lam0.coeffs])]
    n_full = int(s_end / ds)
    rem = s_end - n_full * ds
    for h in [ds] * n_full + ([rem] if rem > 1e-15 * max(1.0, abs(s_end)) else []):
        lam.append(reference_step(C, lam[-1], A, x[-1], v, h, scheme, renormalize, stages))
        s.append(s[-1] + h)
        x.append(x[-1] + h * v)
    return np.array(s), np.array(x), np.array(lam)


def assert_matches_reference(got, want):
    """s and x bit for bit; lambda, which integrate scans where the reference
    steps, within 2 eps per step of max|lambda| (over 6000 random cases the
    gap stayed below 1.21 eps per step)."""
    (s, x, lam), (s_want, x_want, lam_want) = got, want
    assert np.array_equal(s, s_want) and np.array_equal(x, x_want)
    bound = 2 * np.finfo(float).eps * (len(lam) - 1) * np.max(np.abs(lam_want))
    assert np.max(np.abs(lam - lam_want)) <= bound


def unit(w):
    return tuple(np.array(w) / np.linalg.norm(w))


units = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda w: np.linalg.norm(w) > 0.1
).map(unit)


@pytest.mark.parametrize("name", ["su2", "so3", "sl2"])
def test_structure_tensor_matches_entrywise_conversion(name):
    g = la.preset(name)
    C = ca._structure_tensor(g)
    assert C.dtype == np.float64
    assert np.array_equal(C, structure_tensor_loop(g))
    assert ca._structure_tensor(C) is C


@given(
    st.sampled_from(["su2", "so3", "sl2", "monopole"]),
    st.sampled_from(["euler_paper", "rk4"]),
    st.booleans(),
    units,
    units,
    st.floats(1e-3, 0.2),
    st.integers(1, 12),
    st.floats(0.05, 0.95),
)
def test_integrate_matches_reference_loop(name, scheme, renorm, a, lam, ds, n, frac):
    if name == "monopole":
        g = la.preset("abelian1")
        A = ca.ConnectionSampler.wu_yang_monopole(a[0])
        lam0, v = la.DualVector(lam[:1]), (0.0, 1.0, 0.3)
    else:
        g = la.preset(name)
        A = ca.ConnectionSampler.constant(la.LieVector(a))
        lam0, v = la.DualVector(lam), (1.0,)
    s_end = (n + frac) * ds  # ends on a shortened step
    got = ca.integrate(g, lam0, A, v, ds, s_end, scheme, renorm)
    assert len(got[0]) == n + 2
    want = reference_loop(g, lam0, A, v, ds, s_end, scheme, renorm)
    assert_matches_reference(got, want)


@given(
    st.sampled_from(["su2", "so3", "sl2"]),
    st.booleans(),
    units,
    units,
    st.floats(1e-3, 0.2),
    st.integers(1, 12),
    st.floats(0.05, 0.95),
)
def test_rk4_matches_the_per_stage_recursion(name, renorm, a, lam, ds, n, frac):
    # The generator form and the chunk scan round differently from k1..k4;
    # over 6000 random cases the gap stayed below 1.05 eps per step of
    # max|lambda|.
    g, A = la.preset(name), ca.ConnectionSampler.constant(la.LieVector(a))
    s_end = (n + frac) * ds
    args = (g, la.DualVector(lam), A, (1.0,), ds, s_end, "rk4", renorm)
    _, _, got = ca.integrate(*args)
    _, _, want = reference_loop(*args, stages=True)
    steps = len(got) - 1
    eps = np.finfo(float).eps
    assert np.max(np.abs(got - want)) <= 2 * eps * steps * np.max(np.abs(want))


def test_rk4_generator_stays_finite_where_the_stages_do(su2):
    # |M| = 1e200 at a step the CFL gate allows: M @ M would overflow, while
    # (h M) @ M and the k1..k4 recursion stay finite
    A = ca.ConnectionSampler.constant(la.LieVector((0.0, 0.0, 1e200)))
    args = (su2, LAM0, A, (1.0,), 1e-201, 1e-199, "rk4", False)
    _, _, got = ca.integrate(*args)
    _, _, want = reference_loop(*args, stages=True)
    assert np.max(np.abs(got - want)) <= 2 * np.finfo(float).eps * (len(got) - 1)


@pytest.mark.parametrize("scheme", ca.SCHEMES)
def test_generators_take_and_return_stacks_of_steps(scheme):
    # (n, d, d) in, (d, d, n) out for the scan; euler_paper's generators are
    # a view of M's own rows, no copy
    rng = np.random.default_rng(5)
    M0, M_mid, M_end = rng.standard_normal((3, 7, 3, 3))
    h = rng.uniform(1e-3, 0.1, 7)
    G = ca._generators(h, M0, M_mid, M_end, scheme)
    assert G.shape == (3, 3, 7)
    if scheme == "euler_paper":
        assert np.shares_memory(G, M0) and np.array_equal(G, np.moveaxis(M0, 0, -1))
    else:
        assert G.flags.c_contiguous
        for n in range(7):
            assert np.array_equal(G[..., n], rk4_generator(M0[n], M_mid[n], M_end[n], h[n]))


@pytest.mark.parametrize("scheme", ["euler_paper", "rk4"])
def test_chunk_boundaries_keep_the_bits(su2, scheme):
    A = ca.ConnectionSampler.constant(la.LieVector(unit((0.3, -0.5, 0.8))))
    lam0 = la.DualVector(unit((1.0, 2.0, -0.5)))
    s_end = (2 * ca.CHUNK + 7.5) * 1e-3  # two full chunks and a partial one
    got = ca.integrate(su2, lam0, A, (1.0,), 1e-3, s_end, scheme, True)
    want = reference_loop(su2, lam0, A, (1.0,), 1e-3, s_end, scheme, True)
    assert len(got[0]) == 2 * ca.CHUNK + 9
    assert_matches_reference(got, want)


def residual_whole_path(g, A, v, s, x, lam):
    """residual_profile's per-row formulas, taken on the whole path at once."""
    h, hm = s[2:] - s[1:-1], s[1:-1] - s[:-2]
    tol = 1e-12 * np.maximum(h, hm) + 2 * np.spacing(np.abs(s[2:]))
    uneven = (h <= 0) | (np.abs(h - hm) > tol)
    M = ca.rhs_generator(g, A.contract(x[1:-1], v))
    dlam = (lam[2:] - lam[:-2]) / (2 * h[:, None])
    resid = np.zeros(len(s))
    resid[1:-1] = np.where(uneven, 0.0, np.max(np.abs(dlam - (M @ lam[1:-1, :, None])[..., 0]), 1))
    return resid


@pytest.mark.parametrize("states", [ca.CHUNK - 1, ca.CHUNK, ca.CHUNK + 1, 2 * ca.CHUNK + 3])
@pytest.mark.parametrize("scheme", ca.SCHEMES)
def test_residual_profile_keeps_the_bits_of_the_whole_path(states, scheme):
    # residual_profile takes the rows CHUNK at a time; each residual must be
    # the whole-path formula's, bit for bit, on either side of a chunk end,
    # at a state whose connection varies along two directions, and at the
    # shortened last step (which reads 0)
    g, lam0 = la.preset("sl2"), la.DualVector(unit((1.0, 2.0, -0.5)))
    a, b = np.array(unit((0.3, -0.5, 0.8))), np.array(unit((0.7, 0.2, -0.4)))
    A = ca.ConnectionSampler(3, lambda x, mu: a + b * np.sin(3 * x[:, mu : mu + 1]))
    v, ds = (1.0, 0.5), 1e-3
    s, x, lam = ca.integrate(g, lam0, A, v, ds, (states - 1.5) * ds, scheme)
    assert len(s) == states and s[-1] - s[-2] < 0.9 * ds
    want = residual_whole_path(g, A, v, s, x, lam)
    assert np.all(want[1:-2] > 0) and want[-2] == 0
    assert_same_bits(ca.residual_profile(g, A, v, s, x, lam), want)
    grid = np.arange(len(lam)) * ds
    want = np.max(residual_whole_path(g, A, (1.0,), grid, grid[:, None], lam))
    assert ca.cartan_residual(g, A, list(lam), ds) == want


def test_integrate_and_residual_allocate_little_beyond_their_outputs(su2):
    # 50 000 rk4 steps: the generators of a chunk are O(CHUNK d^2), so the
    # peak stays near the bytes of s, x, lambda and the residual; whole-path
    # (n, d, d) stacks of M and M_mid would take it to 4.5 times those bytes
    A = ca.ConnectionSampler.constant(la.LieVector(unit((0.3, -0.5, 0.8))))
    lam0, ds = la.DualVector(unit((1.0, 2.0, -0.5))), 2.0**-14
    tracemalloc.start()
    try:
        s, x, lam = ca.integrate(su2, lam0, A, (1.0,), ds, 50_000 * ds, "rk4")
        resid = ca.residual_profile(su2, A, (1.0,), s, x, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(s) == 50_001
    assert peak < 2 * (s.nbytes + x.nbytes + lam.nbytes + resid.nbytes)


def test_integrate_rejects_an_unknown_scheme_before_any_work(su2):
    calls = []

    def sample(x, mu):
        calls.append(mu)
        return np.array(E3.coeffs)

    with pytest.raises(ValueError, match="unknown scheme 'rk2'"):
        ca.integrate(su2, LAM0, ca.ConnectionSampler(3, sample), (1.0,), 0.1, 0.0, "rk2")
    assert calls == []


@pytest.mark.parametrize(
    "scheme, ds", [("euler_paper", 0.1), ("rk4", 0.01), ("euler_paper", 0.49), ("rk4", 0.49)]
)
def test_renormalize_holds_the_norm_where_lambda_would_overflow(scheme, ds):
    # lambda grows as e^(2s) on sl2 and, unrenormalized, leaves float64 near
    # s = 389; each step's rescale keeps every row on the sphere of radius sqrt(3).
    # At ds = 0.49, just under the bound 0.5, a chunk's rows grow by up to
    # 1e108 before their rescale.
    g = la.preset("sl2")
    A = ca.ConnectionSampler.constant(la.LieVector((1.0, 0.0, 0.0)))
    lam0 = la.DualVector((1.0, 1.0, 1.0))
    s, _, lam = ca.integrate(g, lam0, A, (1.0,), ds, 400.0, scheme, True)
    assert s[-1] == pytest.approx(400.0)
    drift = np.max(np.abs(np.linalg.norm(lam, axis=1) - math.sqrt(3)))
    assert drift <= 16 * np.finfo(float).eps


@pytest.mark.parametrize("scheme", ca.SCHEMES)
@pytest.mark.parametrize("ds", [0.1, 0.49])
def test_renormalize_holds_a_decaying_lambda_on_its_axis(scheme, ds):
    # on sl2 the e axis decays as e^(-2s), by 0.02 a step under euler_paper at
    # ds = 0.49; a row scanned from far larger ones would round to 0 or to a
    # sign-flipped +-1, so each row must be scanned from one of its own size
    g = la.preset("sl2")
    A = ca.ConnectionSampler.constant(la.LieVector((1.0, 0.0, 0.0)))
    _, _, lam = ca.integrate(g, la.DualVector((0.0, 1.0, 0.0)), A, (1.0,), ds, 400.0, scheme, True)
    assert np.max(np.abs(lam - (0.0, 1.0, 0.0))) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("scheme", ca.SCHEMES)
@pytest.mark.parametrize("ds", [0.1, 0.49])
def test_a_decaying_lambda_keeps_the_precision_of_each_row(scheme, ds):
    # unrenormalized, the same axis shrinks to 1e-104 by s = 30; each row
    # stays within 2 eps per step of itself, as the reference loop keeps it
    # (the gap measured 0.3 eps per step)
    g = la.preset("sl2")
    A = ca.ConnectionSampler.constant(la.LieVector((1.0, 0.0, 0.0)))
    args = (g, la.DualVector((0.0, 1.0, 0.0)), A, (1.0,), ds, 30.0, scheme, False)
    _, _, got = ca.integrate(*args)
    _, _, want = reference_loop(*args)
    steps = np.arange(len(want))[:, None]
    assert np.all(want[:, 1] > 0)
    assert np.all(np.abs(got - want) <= 2 * np.finfo(float).eps * steps * want[:, 1:2])


def axis_algebra(k):
    """[x_i, y] = y for i = 1..k. With A.v = sum a_i x_i, M is zero but for
    M_yy = -sum a_i, so y is the one moving mode: it decays where
    sum a_i > 0 and grows where sum a_i < 0."""
    return la.from_json({"dim": k + 1, "labels": [f"x{i}" for i in range(1, k + 1)] + ["y"],
                         "constants": [[i, k, k, 1, 1] for i in range(k)]})


@pytest.mark.parametrize("scheme", ca.SCHEMES)
@pytest.mark.parametrize("lam, renorm", [((1, 0, 0, 0, 0, 0), False), ((1, 0, 0, 0, 0, 1), True)])
def test_step_products_that_pass_float64_leave_lambda_finite(scheme, lam, renorm):
    # [x_i, y] = y for i = 1..5 and A.v = -9.9 sum x_i, so M_yy = 49.5. At
    # ds = 0.1, ds times the largest term |C^c_ba (A.v)^b| = 9.9 is 0.99, but
    # ds ||M||_inf is 4.95: rk4 would multiply y by 63 a step, and a chunk's
    # products would pass float64. The gate refuses that step; at
    # half its bound the scan follows the reference loop.
    g, a = axis_algebra(5), la.LieVector((-9.9,) * 5 + (0.0,))
    args = (g, la.DualVector(lam), ca.ConnectionSampler.constant(a), (1.0,))
    with pytest.raises(ca.CFLViolation, match=r"^step size 0\.1 >= stability bound 0\.0202"):
        ca.integrate(*args, 0.1, 30.0, scheme, renorm)
    ds = ca.cfl_bound(ca.rhs_generator(g, a)) / 2
    args = (*args, ds, 30.0, scheme, renorm)
    assert_matches_reference(ca.integrate(*args), reference_loop(*args))


@pytest.mark.parametrize("scheme", ca.SCHEMES)
def test_the_gate_judges_a_renormalized_run_on_a_decaying_axis(scheme):
    # the library run of the CLI's 11-dimensional decaying-axis config, which
    # the CLI refuses under renormalize because ad(x_i) is not skew:
    # ds ||M||_inf = 9.9, so the first step is refused before any rescale
    g, a = axis_algebra(10), la.LieVector((9.9,) * 10 + (0.0,))
    lam0 = la.DualVector((1.0,) + (0.0,) * 9 + (1.0,))
    with pytest.raises(ca.CFLViolation, match=(
        r"^step size 0\.1 >= stability bound 0\.0101010101010101 \(ds \* \|\|M\|\|_inf"
    )):
        ca.integrate(g, lam0, ca.ConnectionSampler.constant(a), (1.0,), 0.1, 30.0, scheme, True)


decaying_axis_runs = st.integers(1, 10).flatmap(lambda k: st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k).filter(lambda a: sum(a) >= 0.1),
    st.lists(st.floats(-1.0, 1.0), min_size=k + 1, max_size=k + 1),
))


@given(decaying_axis_runs, st.floats(0.05, 0.99), st.sampled_from(ca.SCHEMES))
def test_the_gate_keeps_a_decaying_axis_decaying(run, frac, scheme):
    # Inside the gate each step multiplies y by 1 - f (euler_paper) or
    # 1 - f + f^2/2 - f^3/6 + f^4/24 (rk4), both in (0, 1) for f = h |M_yy| < 1,
    # so |lambda| never grows and y keeps its sign. Over s_end = 40 / |M_yy|
    # both factors fall below e^-39, as the exact flow's does, and the x axes
    # do not move, so the final lambda is the exact one to rounding. A gate
    # on the largest term |C^y_(x_i y) a_i| = |a_i| of M_yy lets f reach
    # sum a_i / max|a_i|.
    a, lam0 = run
    g, a = axis_algebra(len(a)), la.LieVector((*a, 0.0))
    bound = ca.cfl_bound(ca.rhs_generator(g, a))
    ds, s_end = frac * bound, 40 * bound
    A, lam0 = ca.ConnectionSampler.constant(a), la.DualVector(lam0)
    _, _, lam = ca.integrate(g, lam0, A, (1.0,), ds, s_end, scheme)
    norms = np.linalg.norm(lam, axis=1)
    assert np.all(norms[1:] <= norms[:-1])
    assert np.all(lam[:, -1] * lam[0, -1] >= 0)
    exact = ca.coadjoint_flow_exact(g, a, lam0, s_end).coeffs
    eps = np.finfo(float).eps
    assert np.max(np.abs(lam[-1] - exact)) <= (len(lam) - 1) * eps * np.max(np.abs(lam[0]))


@given(
    st.sampled_from(ca.SCHEMES),
    st.integers(1, 6),
    st.integers(1, 8),
    st.floats(0.0, 0.999),
    st.floats(0.0, 20.0),
    st.integers(0, 2**32 - 1),
)
def test_gated_generators_keep_a_window_inside_float64(scheme, d, n, x_max, diag, seed):
    # The gate keeps x = h ||M||_inf < 1 at each step's start, midpoint and
    # end. rk4's G then has h ||G||_inf <= x + x^2/2 + x^3/6 + x^4/24 < e - 1
    # for x the largest of the three (a positive multiple of I reaches it),
    # and euler_paper's G is M0, so a window of CHUNK steps has
    # ||E||_inf < e^CHUNK. diag shifts M towards such a multiple of I.
    rng = np.random.default_rng(seed)
    h = rng.uniform(1e-3, 1.0, n)
    M = rng.standard_normal((3, n, d, d)) + diag * np.eye(d)
    norms = np.linalg.norm(M, np.inf, axis=(2, 3))  # (3, n)
    M *= (rng.uniform(0.0, x_max, (3, n)) / (h * norms))[..., None, None]
    x = h * np.max(np.linalg.norm(M, np.inf, axis=(2, 3)), axis=0)
    assert np.all(x < 1)
    G = ca._generators(h, *M, scheme)
    hG = h * np.linalg.norm(np.moveaxis(G, -1, 0), np.inf, axis=(1, 2))
    if scheme == "euler_paper":
        assert np.all(hG < 1)
    else:
        eps = np.finfo(float).eps
        assert np.all(hG <= (x + x**2 / 2 + x**3 / 6 + x**4 / 24) * (1 + 8 * d * eps))
        assert np.all(hG < math.e - 1)


def product_scan(lam, h, G, norm):
    """_advance with the scan taken on the step propagators P = I + h G
    themselves, each level rounding a product of two 1 + O(h) matrices."""
    P = np.eye(len(lam[0]))[..., None] + G * h
    span = 1
    while span < len(h):
        P[..., span:] = ca._mul(P[..., span:], P[..., :-span])
        span *= 2
    lam[1:] = sum(P[:, j] * lam[0][j] for j in range(len(lam[0]))).T


def test_rk4_holds_the_norm_to_rounding_over_a_fine_turn(monkeypatch, su2):
    # ds = 1e-4 over 2 pi is 62832 steps, and rk4's truncation moves the norm
    # by y^6/72 ~ 1e-26 a step, so the drift is all rounding. The increment
    # scan rounds each chunk once relative to its rows (2.5 eps here); a
    # per-step loop drifted 41 eps, and a scan of the propagators themselves
    # 7511 eps.
    A = ca.ConnectionSampler.constant(la.LieVector(unit((0.3, -0.5, 0.8))))
    args = (su2, la.DualVector(unit((1.0, 2.0, -0.5))), A, (1.0,), 1e-4, 2 * math.pi, "rk4")
    eps = np.finfo(float).eps

    def drift():
        _, _, lam = ca.integrate(*args)
        return np.max(np.abs(np.linalg.norm(lam, axis=1) - np.linalg.norm(lam[0])))

    assert drift() <= 16 * eps
    monkeypatch.setattr(ca, "_advance", product_scan)
    assert drift() > 16 * eps


@given(
    st.sampled_from(["su2", "so3"]),
    units,
    units,
    st.floats(1e-3, 0.05),
    st.floats(0.5, 2.0),
)
def test_rk4_stays_on_the_coadjoint_orbit(name, a, lam, ds, s_end):
    # M is skew with eigenvalues 0 and +-i omega. On each rotating mode rk4
    # multiplies by R(i y), y = h omega, with |R(i y)|^2 = 1 - y^6/72 + y^8/576,
    # so each step moves the norm by at most y^6/72 (y <= 0.05 here), and
    # |e^(i y) - R(i y)| <= y^5/120 bounds each step's error against the exact
    # flow, which |R| <= 1 does not amplify. Rounding is allowed eps a step.
    g, a, lam0 = la.preset(name), la.LieVector(a), la.DualVector(lam)
    A = ca.ConnectionSampler.constant(a)
    _, _, out = ca.integrate(g, lam0, A, (1.0,), ds, s_end, "rk4")
    n = len(out) - 1
    y = ds * np.linalg.norm(ca.rhs_generator(g, a), 2)
    eps = np.finfo(float).eps
    drift = np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0))
    assert drift <= n * (y**6 / 72 + eps)
    exact = ca.coadjoint_flow_exact(g, a, lam0, s_end).coeffs
    assert np.max(np.abs(out[-1] - exact)) <= n * (y**5 / 120 + eps)


@pytest.mark.parametrize("scheme", ["euler_paper", "rk4"])
def test_integrate_step_and_sample_counts(monkeypatch, su2, scheme):
    # integrate samples the connection once per direction at the origin (the
    # first step's gate), then takes the steps CHUNK at a time: each chunk
    # samples once per direction at its states, and once more at rk4's
    # midpoints, and builds its step generators. No call sees more than
    # CHUNK + 1 rows, so no array spans the whole path.
    chunks, calls = [], []
    real_generators = ca._generators

    def counting_generators(h, *args):
        chunks.append(len(h))
        return real_generators(h, *args)

    def sample(x, mu):
        calls.append(x.copy())
        return np.array(E3.coeffs)

    monkeypatch.setattr(ca, "_generators", counting_generators)
    v, k, ds = (1.0, 0.5), 7, 2.0**-10  # ds and s_end exact: no shortened step
    A = ca.ConnectionSampler(3, sample)
    s, x, _ = ca.integrate(su2, LAM0, A, v, ds, (2 * ca.CHUNK + k) * ds, scheme)
    assert len(s) == 2 * ca.CHUNK + k + 1
    assert chunks == [ca.CHUNK, ca.CHUNK, k]
    per_chunk = len(v) * (1 + (scheme == "rk4"))
    assert len(calls) == len(v) + 3 * per_chunk
    for points in calls[: len(v)]:
        assert np.array_equal(points, np.zeros((1, len(v))))
    states, midpoints = [], []
    for c in range(3):
        group = calls[len(v) + c * per_chunk : len(v) + (c + 1) * per_chunk]
        assert all(len(points) <= ca.CHUNK + 1 for points in group)
        for points in group[1 : len(v)]:  # every direction sees the same rows
            assert np.array_equal(points, group[0])
        states.append(group[0])
        midpoints += group[len(v) : len(v) + 1]
    # each chunk starts at the last state of the one before, and together
    # they cover every state and every midpoint in path order
    for before, after in zip(states, states[1:]):
        assert np.array_equal(before[-1], after[0])
    assert np.array_equal(np.concatenate([states[0]] + [c[1:] for c in states[1:]]), x)
    if scheme == "rk4":
        assert np.allclose(np.concatenate(midpoints), (x[:-1] + x[1:]) / 2, rtol=0, atol=1e-15)


def late_violation_sampler(x_b):
    """A.v = (c, 0, 0) on sl2, where M = diag(0, -2c, 2c): c = 1 below the
    base point x_b and 100 x from x_b on, so the CFL bound 1 / (200 x) of each
    step past x_b is smaller than that of the step before."""
    return ca.ConnectionSampler(
        3, lambda x, mu: np.where(x[:, :1] >= x_b, 100 * x[:, :1], 1.0) * np.array([1.0, 0, 0])
    )


@pytest.mark.parametrize("scheme", ca.SCHEMES)
def test_a_late_violation_is_gated_after_lambda_leaves_float64(scheme):
    # lambda_f = 1e306 grows as e^(2s) and leaves float64 in the first chunk,
    # and the first step past its bound lies in the third. The chunk that
    # holds that step raises the gate before its lambda recursion, with the
    # message of a gate taken on the whole path before any lambda work: the
    # first violating step's bound, not a later one's and not the non-finite
    # state.
    g, ds, lam0 = la.preset("sl2"), 1 / 128, la.DualVector((0.0, 0.0, 1e306))
    x_b = (2 * ca.CHUNK + 40) * ds
    A = late_violation_sampler(x_b)
    with pytest.raises(ca.CFLViolation, match=r"^non-finite state after the step to s="):
        ca.integrate(g, lam0, A, (1.0,), ds, ca.CHUNK * ds, scheme)
    with pytest.raises(ca.CFLViolation) as info:
        ca.integrate(g, lam0, A, (1.0,), ds, 3 * ca.CHUNK * ds, scheme)
    assert str(info.value) == (
        f"step size {ds} >= stability bound {1 / (200 * x_b)} (ds * ||M||_inf must stay "
        "below 1); rerun with --auto-ds or a smaller ds"
    )


def test_a_first_step_past_the_bound_is_gated_before_the_path_is_built(su2):
    # ds = 2 against the bound 1 over 1e6 steps: the gate judges the first
    # step at the origin, so the connection is sampled at one row, not at
    # every state of a path that is never taken.
    rows = []

    def sample(x, mu):
        rows.append(len(x))
        return np.array(E3.coeffs)

    A = ca.ConnectionSampler(3, sample)
    with pytest.raises(ca.CFLViolation, match=r"^step size 2\.0 >= stability bound 1\.0 "):
        ca.integrate(su2, LAM0, A, (1.0,), 2.0, 2e6, "rk4")
    assert rows == [1]


def extreme_stack(rng, shape, share):
    """Normal entries, a share of them replaced by +-0.0 or +-1e300, so that a
    fused multiply-add, a reordered sum or a lost signed zero shows."""
    X = rng.standard_normal(shape)
    special = rng.random(shape) < share
    X[special] = rng.choice([0.0, -0.0, 1e300, -1e300], np.count_nonzero(special))
    return X


def assert_same_bits(got, want):
    """Equal values and equal signs, zeros included; a nan's sign is not
    compared, as the arithmetic does not define it."""
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got) & ~np.isnan(got), np.signbit(want) & ~np.isnan(want))


@pytest.mark.parametrize("d", [1, 2, 3, 8, 11])
@pytest.mark.parametrize("w", [1, 7, 256])
def test_stack_products_keep_the_bits_of_the_ordered_sum(d, w):
    # _mul and _apply are einsums; their bits must stay those of whole-array
    # passes over j = 0, 1, ... summed from zero, which the scan was written
    # as. A numpy whose einsum fuses multiply-add, or sums over j as a SIMD
    # dot product (what a unit-stride u gives at w = 1), fails here.
    rng = np.random.default_rng(100 * d + w)
    with np.errstate(over="ignore", invalid="ignore"):
        for share in (0.0, 0.0, 0.05, 0.05, 0.25, 0.25):
            X, Y, u = (extreme_stack(rng, shape, share) for shape in ((d, d, w), (d, d, w), d))
            assert_same_bits(ca._mul(X, Y), sum(X[:, j, None] * Y[None, j] for j in range(d)))
            assert_same_bits(ca._apply(X, u), u[:, None] + sum(X[:, j] * u[j] for j in range(d)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("row", [0, 4, 9])
@pytest.mark.parametrize("shape", [(10,), (10, 1), (10, 3)])
def test_finite_gate_names_the_first_row_that_leaves_float64(bad, row, shape):
    s = np.linspace(0.0, 0.9, 10)
    values = np.ones(shape)
    values.reshape(10, -1)[row:, -1] = bad  # every row from row on, in the last column
    message = "non-finite state after the step to s={s}"
    with pytest.raises(ca.CFLViolation) as info:
        ca.finite_gate(values, s, message)
    assert str(info.value) == message.format(s=s[row])
    values[row:] = 1.0
    ca.finite_gate(values, s, message)


@pytest.mark.parametrize("d", [3, 8, 11])
@pytest.mark.parametrize("w", [1, 2, 7])
def test_window_row_squares_keep_the_bits_of_the_ordered_sum(d, w):
    # _advance ends a window at its first row whose squared norm falls below
    # SHRINK^2 |u|^2; the squares must be summed over i = 0, 1, ... at every
    # window width. np.einsum("ij,ij->j") does so from w = 2 up, but sums a
    # one-step window (w = 1) as a SIMD dot product, which fails here.
    rng = np.random.default_rng(10 * d + w)
    for _ in range(500):
        rows = rng.standard_normal((d, w))
        assert_same_bits(ca._squares(rows), sum(rows[i] * rows[i] for i in range(d)))
