"""Hypothesis properties of the Euler spectral core."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from spencerflow import euler2d as eu
from spencerflow import invariants as inv

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
