"""Hypothesis properties of the Euler spectral core and of the exact layer."""

from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from test_spencer import sl3, so4_permuted

from spencerflow import _exact
from spencerflow import euler2d as eu
from spencerflow import invariants as inv
from spencerflow import liealg as la
from spencerflow import spencer as sp

sizes = st.sampled_from([16, 32, 64])
seeds = st.integers(0, 2**32 - 1)
amplitudes = st.floats(1e-3, 1e3)
lengths = st.floats(0.1, 100.0)


def band_limited(N, seed, amp):
    """Random vorticity with only the modes the 2/3 rule keeps."""
    grid = eu.GridSpec(N)
    raw = amp * np.random.default_rng(seed).standard_normal((N, N))
    vals = np.fft.irfft2(np.fft.rfft2(raw) * eu._spectral_ops(grid)[3])
    return eu.VorticityField(grid, vals)


# div_max is |k . u_hat| over max |u_hat|, so it carries units of 1/L: the
# bound is stated on the default L = 2 pi.
@given(sizes, seeds, amplitudes)
def test_band_limited_velocity_is_divergence_free(N, seed, amp):
    u = eu.velocity_from_vorticity(band_limited(N, seed, amp))
    assert inv.divergence_residual(u) <= 1e-13


@given(sizes, seeds, amplitudes)
def test_rk4_step_conserves_total_vorticity(N, seed, amp):
    zeta = band_limited(N, seed, amp)
    after, _ = eu.rk4_step(zeta, 0.5 * eu.velocity_from_vorticity(zeta).cfl_dt())
    scale = float(np.sum(np.abs(zeta.values))) * zeta.grid.dx**2
    assert abs(inv.total_vorticity(after) - inv.total_vorticity(zeta)) <= 1e-14 * scale


@given(sizes, lengths)
def test_operator_set_is_shared_and_read_only(N, L):
    a, b = eu.GridSpec(N, L), eu.GridSpec(N, L)
    assert a is not b
    ops = eu._spectral_ops(a)
    assert ops is eu._spectral_ops(b)
    kx, ky, inv_k2, _ = ops
    assert a.wavenumbers()[0] is kx and b.wavenumbers()[1] is ky
    k2 = (kx**2 + ky**2).ravel()
    assert inv_k2[0, 0] == 0.0 and np.array_equal(inv_k2.ravel()[1:], 1.0 / k2[1:])
    for arr in ops:
        assert not arr.flags.writeable


def band_spectra(grid, rng, count):
    """count random rfft2 spectra of real fields inside the 2/3 band, each
    with its corner modes (kx, ky) = (+-(n-1), n-1) set to a nonzero value."""
    n = grid.N // 3 + 1
    spectra = []
    for _ in range(count):
        f = np.fft.rfft2(rng.standard_normal((grid.N, grid.N))) * eu._spectral_ops(grid)[3]
        f[[n - 1, -(n - 1)], n - 1] = grid.N * (rng.standard_normal(2) + 1j)
        spectra.append(f)
    return spectra


def direct_sum(grid, fhat, points):
    """The same values as a plain complex sum over the full (kx, ky) band,
    with exp of the whole phase at each point: no folding, no recurrence."""
    N = grid.N
    k = 2.0 * np.pi * np.fft.fftfreq(N, d=grid.dx)
    band = np.abs(np.fft.fftfreq(N, d=1.0 / N)) <= N / 3.0
    k = k[band]
    phase = np.exp(1j * (points[:, 0, None, None] * k[:, None] + points[:, 1, None, None] * k))
    out = []
    for f in fhat:
        full = np.fft.fft2(np.fft.irfft2(f, s=(N, N)))[np.ix_(band, band)] / N**2
        out.append((np.real(np.sum(phase * full, axis=(1, 2))), np.sum(np.abs(full))))
    return out


@given(
    sizes,
    lengths,
    seeds,
    st.integers(1, 3),
    st.sampled_from([0, 1, eu.BLOCK - 1, eu.BLOCK, eu.BLOCK + 1]),
)
def test_point_values_match_the_direct_sum(N, L, seed, count, P):
    grid = eu.GridSpec(N, L)
    rng = np.random.default_rng(seed)
    fhat = band_spectra(grid, rng, count)
    points = rng.uniform(-2.0 * L, 3.0 * L, size=(P, 2))
    values = eu.point_values(grid, fhat, points)
    assert values.shape == (P, count)
    for col, (ref, scale) in zip(values.T, direct_sum(grid, fhat, points)):
        assert np.max(np.abs(col - ref), initial=0.0) <= 1e-12 * scale


# --- exact layer: each operation against a dense formula read from the
# structure constants g.structure_constants[a][b][c] = C^c_{ab} ---

ALGEBRAS = {name: la.preset(name) for name in ("su2", "so3", "sl2")}
ALGEBRAS.update(so4=so4_permuted(), sl3=sl3())
algebras = st.sampled_from(sorted(ALGEBRAS)).map(ALGEBRAS.get)
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def vectors(dim):
    return st.lists(rationals, min_size=dim, max_size=dim).map(tuple)


def tensors(dim):
    """Sym^1 to Sym^3 tensors of up to four terms."""
    def of_degree(k):
        index = st.lists(st.integers(0, dim - 1), min_size=k, max_size=k)
        terms = st.dictionaries(index.map(lambda i: tuple(sorted(i))), rationals, max_size=4)
        return terms.map(lambda t: sp.SymTensor(dim, k, t))
    return st.integers(1, 3).flatmap(of_degree)


def dense_coad(g, X, lam):
    n, C = range(g.dim), g.structure_constants
    return tuple(
        sum(C[a][b][c] * X.coeffs[b] * lam.coeffs[c] for b in n for c in n) for a in n
    )


def dense_rho(g, a, X):
    """rho(e_a) X: every slot y of every monomial replaced by [e_a, e_y]."""
    C, terms = g.structure_constants, {}
    for idx, coeff in X.terms.items():
        for j in range(len(idx)):
            for c in range(g.dim):
                new = tuple(sorted(idx[:j] + (c,) + idx[j + 1:]))
                terms[new] = terms.get(new, 0) + coeff * C[a][idx[j]][c]
    return sp.SymTensor(g.dim, X.degree, terms)


@given(algebras, st.data())
def test_coadjoint_action_matches_the_dense_sum(g, data):
    X = la.LieVector(data.draw(vectors(g.dim)))
    lam = la.DualVector(data.draw(vectors(g.dim)))
    want = dense_coad(g, X, lam)
    assert la.coad_apply(g, X, lam).coeffs == want
    assert la.integrability_check(g, X, lam) == (not any(want))


@given(algebras, st.data())
def test_curvature_delta_is_rho_of_omega(g, data):
    omega = la.LieVector(data.draw(vectors(g.dim)))
    X = data.draw(tensors(g.dim))
    want = sp.SymTensor.zero(g.dim, X.degree)
    for a, w in enumerate(omega.coeffs):
        want = want + w * dense_rho(g, a, X)
    assert sp.spencer_delta_curvature(g, omega, X) == want


@given(algebras, st.data())
def test_structural_delta_matches_the_dense_triple_loop(g, data):
    X = data.draw(tensors(g.dim))
    C, terms = g.structure_constants, {}
    for idx, coeff in X.terms.items():
        for i in range(g.dim):
            for j in range(len(idx)):
                for c in range(g.dim):
                    new = tuple(sorted(idx[:j] + (c, i) + idx[j + 1:]))
                    terms[new] = terms.get(new, 0) + coeff * C[i][idx[j]][c]
    want = sp.SymTensor(g.dim, X.degree + 1, terms)
    assert sp.spencer_delta_structural(g, X) == want


@given(algebras, st.data())
def test_stabilizer_is_the_kernel_of_the_dense_coadjoint_matrix(g, data):
    lam = la.DualVector(data.draw(vectors(g.dim)))
    n, C = range(g.dim), g.structure_constants
    dense = [{b: sum(C[a][b][c] * lam.coeffs[c] for c in n) for b in n} for a in n]
    basis = la.stabilizer_subalgebra(g, lam)
    assert len(basis) == g.dim - _exact.rank(dense)
    for X in basis:
        assert not any(dense_coad(g, X, lam))


@given(st.integers(1, 5), st.data())
def test_ad_table_holds_the_nonzero_structure_constants(dim, data):
    if dim == 1:
        entries = []
    else:
        pair = st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True)
        key = st.tuples(pair, st.integers(0, dim - 1))
        chosen = data.draw(st.dictionaries(key.map(lambda k: (*k[0], k[1])), rationals))
        # one entry per unordered (a, b) and c: make_algebra refuses a second
        entries = list({(min(a, b), max(a, b), c): (a, b, c, v)
                        for (a, b, c), v in chosen.items()}.values())
    g = la.make_algebra(dim, [f"x{i}" for i in range(dim)], entries)
    C = g.structure_constants
    assert g.ad == tuple(
        tuple(tuple((c, v) for c, v in enumerate(C[a][b]) if v) for b in range(dim))
        for a in range(dim)
    )
