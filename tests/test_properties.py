"""Hypothesis properties of the Euler spectral core and of the exact layer."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
    return eu.VorticityField.from_spectrum(grid, eu.VorticityField(grid, raw).spectrum())


@given(sizes, seeds, amplitudes)
def test_band_limited_velocity_is_divergence_free(N, seed, amp):
    u = eu.velocity_from_vorticity(band_limited(N, seed, amp))
    assert inv.divergence_residual(u, eu.Workspace(u.grid)) <= 1e-13


@given(sizes, seeds, amplitudes)
def test_rk4_step_conserves_total_vorticity(N, seed, amp):
    zeta = band_limited(N, seed, amp)
    after, _ = eu.rk4_step(zeta, 0.5 * eu.velocity_from_vorticity(zeta).cfl_dt())
    scale = float(np.sum(np.abs(zeta.values))) * zeta.grid.dx**2
    assert abs(inv.total_vorticity(after) - inv.total_vorticity(zeta)) <= 1e-14 * scale


@given(st.sampled_from([16, 32, 64, 128]), seeds, amplitudes)
def test_stage_tendency_keeps_enstrophy_and_energy(N, seed, amp):
    """The 2/3-rule product is alias-free, so for a band-limited zeta the
    tendency T is orthogonal to zeta (enstrophy) and to psi (energy) in exact
    arithmetic. In float64 each cosine is a rounding residue: over 3600 white-
    noise fields at N = 16-128 both stayed below 0.6 eps. With one of the two
    Basdevant terms negated (negating the kx ky term is swapping u_x and u_y),
    the smallest cosine over those fields was 1.3e-6; with the two multipliers
    swapped, 4.5e-5."""
    zeta = band_limited(N, seed, amp)
    zhat = zeta.spectrum()
    ws = eu.Workspace(zeta.grid)
    T = np.fft.irfft2(eu.stage(zeta.grid, zhat, eu.NO_POINTS, ws)[0], s=(N, N))
    psi = np.fft.irfft2(zhat * ws.inv_k2, s=(N, N))
    for f in (zeta.values, psi):
        cosine = abs(np.sum(f * T)) / (np.linalg.norm(f) * np.linalg.norm(T))
        assert cosine <= 4 * np.finfo(float).eps


EPS = np.finfo(float).eps


@given(st.sampled_from([16, 32, 64, 128]), seeds, amplitudes)
def test_stage_tendency_is_the_advective_form(N, seed, amp):
    """For divergence-free u the stage's Basdevant tendency equals
    -(u . grad) zeta, formed here from the two zeta-gradient transforms and
    dealiased with the mean mode pinned to zero. Over 3600 white-noise fields
    at N = 16-128 (amplitudes 1e-3-1e3) the two differed by at most 5.5 eps of
    max|T|. With one Basdevant term negated, u_x and u_y swapped or the two
    multipliers swapped, the smallest difference over those fields was
    0.7 max|T|."""
    zeta = band_limited(N, seed, amp)
    grid, zhat = zeta.grid, zeta.spectrum()
    kx, ky = grid.wavenumbers()
    ky, mask = ky[:, : grid.band], grid.kept_rows
    T, u, _ = eu.stage(grid, zhat, eu.NO_POINTS, eu.Workspace(grid))
    s = (N, N)
    advective = (u.values[0] * np.fft.irfft2(1j * kx * zhat, s=s)
                 + u.values[1] * np.fft.irfft2(1j * ky * zhat, s=s))
    want = -np.fft.rfft2(advective)[:, : grid.band] * mask
    want[0, 0] = 0.0
    want = np.fft.irfft2(want, s=(N, N))
    got = np.fft.irfft2(T, s=(N, N))
    assert np.max(np.abs(got - want)) <= 8 * EPS * np.max(np.abs(want))


def check_torus_symmetry(zeta, points, field_map, point_map, vector_map, tendency_eps, marker_eps):
    """The stage commutes with a symmetry of the square torus: for the mapped
    vorticity and marker points, the tendency is the mapped tendency (it
    transforms like zeta) and the marker velocities are the mapped velocities
    (vector_map, the linear part of point_map). Tendency errors are measured
    against max|T|, marker-velocity errors against max|u| on the grid."""
    grid = zeta.grid

    def run(values, pts):
        T, u, p = eu.stage(grid, np.fft.rfft2(values)[:, : grid.band], pts, eu.Workspace(grid))
        umax = np.max(np.abs(u.values))
        return np.fft.irfft2(T, s=(grid.N, grid.N)), p, umax

    T, p, umax = run(zeta.values, points)
    T_mapped, p_mapped, _ = run(field_map(zeta.values), point_map(points))
    assert np.max(np.abs(T_mapped - field_map(T))) <= tendency_eps * EPS * np.max(np.abs(T))
    assert np.max(np.abs(p_mapped - vector_map(p))) <= marker_eps * EPS * umax


torus_sizes = st.sampled_from([16, 32, 64, 128])
marker_counts = st.integers(1, 2 * eu.BLOCK + 1)


def marker_points(grid, seed, P):
    return np.random.default_rng(seed + 1).uniform(0.0, grid.L, (P, 2))


def swap_xy(v):
    return v[:, ::-1]


def mirror_x(v):
    return v * np.array([-1.0, 1.0])


# Bounds of the three torus properties, in eps. Over 5000 white-noise draws of
# each at N = 16-128 (1-129 markers, amplitudes 1e-3-1e3) the worst tendency
# error was 7.3 eps of max|T| (the bound is 12 for all three). The marker sums
# build exp(i m x) from the rounded coordinates, so their error grows with N:
# the worst was 5.5 eps of max|u| for the diagonal reflection (coordinates only
# swap; bound 10), 44 eps for the mirror (bound 80) and 83 eps for the shift
# (bound 160), both at N = 128. With kx and ky swapped in _velocity_spectrum
# (u = (d psi/dx, -d psi/dy)) the mirror property fails for every draw; the
# diagonal reflection maps that wrong formula to itself, and the shift holds
# for any translation-invariant stage, so those two catch other faults.


@given(torus_sizes, seeds, amplitudes, marker_counts, st.integers(0, 127), st.integers(0, 127))
def test_stage_commutes_with_a_shift_by_whole_cells(N, seed, amp, P, sx, sy):
    """zeta shifted by (sx, sy) cells, the markers by (sx, sy) dx: their velocities stay."""
    zeta = band_limited(N, seed, amp)
    sx, sy = sx % N, sy % N
    check_torus_symmetry(
        zeta, marker_points(zeta.grid, seed, P),
        lambda f: np.roll(f, (sx, sy), axis=(0, 1)),
        lambda pts: pts + zeta.grid.dx * np.array([sx, sy]),
        lambda v: v,
        tendency_eps=12, marker_eps=160,
    )


@given(torus_sizes, seeds, amplitudes, marker_counts)
def test_stage_commutes_with_the_diagonal_reflection(N, seed, amp, P):
    """zeta(x, y) -> -zeta(y, x): a reflection flips the sign of the vorticity
    and swaps the components of every point and velocity."""
    zeta = band_limited(N, seed, amp)
    check_torus_symmetry(
        zeta, marker_points(zeta.grid, seed, P), lambda f: -f.T, swap_xy, swap_xy,
        tendency_eps=12, marker_eps=10,
    )


@given(torus_sizes, seeds, amplitudes, marker_counts)
def test_stage_commutes_with_the_mirror_in_x(N, seed, amp, P):
    """zeta(x, y) -> -zeta(-x, y), with the points and velocities mirrored:
    grid index i goes to -i mod N."""
    zeta = band_limited(N, seed, amp)
    check_torus_symmetry(
        zeta, marker_points(zeta.grid, seed, P),
        lambda f: -np.roll(f[::-1], 1, axis=0), mirror_x, mirror_x,
        tendency_eps=12, marker_eps=80,
    )


@given(sizes, seeds, st.sampled_from([0.0, 1e-310, 1e-160, 1.0, 1e150, 1e300]), st.integers(0, 64))
def test_max_speed_has_the_bits_of_the_hypot_max(N, seed, scale, ties):
    """Against the plain max(hypot(u_x, u_y)), with `ties` points moved onto the
    circle of the largest speed, where u_x² + u_y² and hypot round differently."""
    rng = np.random.default_rng(seed)
    values = scale * rng.standard_normal((2, N, N))
    u_x, u_y = values
    r = np.max(np.hypot(u_x, u_y))
    angle = rng.uniform(0.0, 2.0 * np.pi, ties)
    at = rng.integers(0, N, (2, ties))
    u_x[tuple(at)], u_y[tuple(at)] = r * np.cos(angle), r * np.sin(angle)
    u = eu.VelocityField(eu.GridSpec(N), values)
    assert u.max_speed() == float(np.max(np.hypot(u_x, u_y)))


@given(sizes, lengths)
def test_workspace_operators_are_the_band_wavenumbers(N, L):
    """Each operator of a Workspace equals its half-plane wavenumber
    expression on the kept band modes and is 0 at k = 0 and, but for the
    (1, band) row i ky, on the rows |kx| > N/3."""
    grid = eu.GridSpec(N, L)
    ws = eu.Workspace(grid)
    kx, ky = grid.wavenumbers()
    ky = ky[:, : grid.band]
    k2 = kx**2 + ky**2
    k2[0, 0] = 1.0  # 1/k^2 is compared away from k = 0
    cut = np.abs(np.fft.fftfreq(N, 1.0 / N)) > N // 3
    wants = {"iky": 1j * ky, "minus_ikx": -1j * kx, "inv_k2": 1.0 / k2,
             "diff": kx**2 - ky**2, "cross": kx * ky}
    assert ws.iky.shape == (1, grid.band) and np.array_equal(ws.iky, wants.pop("iky"))
    for name, want in wants.items():
        got, want = (np.broadcast_to(a, (N, grid.band)) for a in (getattr(ws, name), want))
        assert got[0, 0] == 0 and not np.any(got[cut]), name
        assert np.array_equal(got[~cut].ravel()[1:], want[~cut].ravel()[1:]), name


def band_spectra(grid, rng, count):
    """count random band spectra of real fields inside the 2/3 band, each
    with its corner modes (kx, ky) = (+-(n-1), n-1) set to a nonzero value."""
    n = grid.N // 3 + 1
    spectra = []
    for _ in range(count):
        f = eu.VorticityField(grid, rng.standard_normal((grid.N, grid.N))).spectrum()
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
    buf = np.empty((grid.band, 2, count, grid.band), complex)
    values = eu._MarkerSum(grid, fhat, points, buf).values()
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


def dense_killing_form(g):
    n, C = range(g.dim), g.structure_constants
    return [[sum(C[a][y][c] * C[b][c][y] for y in n for c in n) for b in n] for a in n]


def dense_jacobi_residual(g):
    """Max over every ordered triple of the coordinates of
    [e_a, [e_b, e_c]] + [e_b, [e_c, e_a]] + [e_c, [e_a, e_b]]."""
    n, C = range(g.dim), g.structure_constants

    def nested(a, b, c, d):  # coordinate d of [e_a, [e_b, e_c]]
        return sum(C[b][c][w] * C[a][w][d] for w in n)

    return max(
        abs(nested(a, b, c, d) + nested(b, c, a, d) + nested(c, a, b, d))
        for a in n for b in n for c in n for d in n
    )


KILLING_AND_JACOBI_CASES = dict(
    ALGEBRAS, abelian1=la.preset("abelian1"), abelian3=la.preset("abelian3")
)
KILLING_AND_JACOBI_CASES["su2_broken"] = la.make_algebra(  # [e1, e2] = e1 + e3 breaks Jacobi
    3, ["e1", "e2", "e3"], [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1), (0, 1, 0, 1)]
)


@pytest.mark.parametrize("name", sorted(KILLING_AND_JACOBI_CASES))
def test_sparse_killing_form_and_jacobi_residual_match_the_dense_sums(name):
    g = KILLING_AND_JACOBI_CASES[name]
    assert la.killing_form(g) == dense_killing_form(g)
    assert la.jacobi_residual(g) == dense_jacobi_residual(g)
    assert (la.jacobi_residual(g) == 0) == (name != "su2_broken")


def change_of_basis(g, P):
    """g in the basis f_a = sum_i P[i][a] e_i: [f_a, f_b] = sum_ij P[i][a] P[j][b] [e_i, e_j],
    read back in the f basis by solving P x = w (the one nullspace vector of [P | -w])."""
    n, C = range(g.dim), g.structure_constants
    entries = []
    for a, b in itertools.combinations(n, 2):
        w = [sum(P[i][a] * P[j][b] * C[i][j][k] for i in n for j in n) for k in n]
        (x,) = _exact.nullspace([{**dict(enumerate(P[k])), g.dim: -w[k]} for k in n], g.dim + 1)
        entries += [(a, b, c, v) for c, v in enumerate(x[:g.dim]) if v]
    return la.make_algebra(g.dim, g.basis_labels, entries)


@st.composite
def basis_changes(draw, dim):
    """P = D S_1 S_2 ...: a nonzero rational diagonal, then up to three shears
    (column j += r column i), each invertible; a few shears keep the full
    complex of so(4) at p = 2 under a second."""
    nonzero = rationals.filter(bool)
    P = [[draw(nonzero) if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]
    pairs = st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True)
    for i, j in draw(st.lists(pairs, max_size=3 if dim == 3 else 2)):
        r = draw(rationals)
        for row in P:
            row[j] += r * row[i]
    return P


SEMISIMPLE = {name: ALGEBRAS[name] for name in ("sl2", "so3", "so4")}
SEMISIMPLE_DIMS = {
    name: [sp._full_complex_dims(g, p, g.dim) for p in range(3)] for name, g in SEMISIMPLE.items()
}


@settings(max_examples=30)
@given(st.sampled_from(sorted(SEMISIMPLE)), st.data())
def test_factored_dims_match_the_full_complex_in_any_basis(name, data):
    g = SEMISIMPLE[name]
    h = change_of_basis(g, data.draw(basis_changes(g.dim)))
    assert la.is_semisimple(h)
    for p in range(3):
        dims = sp.ce_cohomology_dims(h, p, g.dim)
        assert dims == sp._full_complex_dims(h, p, g.dim) == SEMISIMPLE_DIMS[name][p]
