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
