"""The mirror-pair filtered back-projection against the per-angle
affine-index oracle: odd and even X grids, odd and even angle counts, and
output windows narrower than the default or past the padded window."""

import numpy as np
import pytest
from conftest import HBAR
from fbp_oracle import inverse_radon_affine
from hypothesis import given, settings
from hypothesis import strategies as st

from symtomo import (
    GaussianState,
    Grid1D,
    compute_tomogram_set,
    gaussian_wavefunction,
    inverse_radon,
    make_grid,
)

ORACLE_TOL = 1e-12


def _sweep(n, n_angles, half_width=12.0, sxx=0.8, sxp=0.3):
    """Sweep of a Gaussian on the centered X grid of n points (odd n allowed)
    over [-half_width, half_width)."""
    state_grid = make_grid(-half_width, half_width, 256, HBAR)
    psi = gaussian_wavefunction(GaussianState.from_position_data(sxx, sxp, HBAR), state_grid)
    x = (np.arange(n) - n / 2) * (2 * half_width / n)
    return compute_tomogram_set(psi, n_angles, x_grid=x)


def _assert_matches_oracle(tomos, x_grid, p_grid=None):
    got = inverse_radon(tomos, x_grid, p_grid=p_grid)
    want = inverse_radon_affine(tomos, x_grid, p_grid=p_grid)
    assert got.p_grid == want.p_grid
    assert np.max(np.abs(got.values - want.values)) <= ORACLE_TOL


@pytest.mark.parametrize("n_angles", [8, 63, 64, 180])
@pytest.mark.parametrize("n", [255, 256, 512])
def test_matches_affine_oracle(n, n_angles):
    x_grid = make_grid(-12.0, 12.0, 512 if n == 512 else 256, HBAR)
    _assert_matches_oracle(_sweep(n, n_angles), x_grid)


@pytest.mark.parametrize("n", [255, 256])
def test_narrow_p_window(n):
    _assert_matches_oracle(_sweep(n, 64), make_grid(-12.0, 12.0, 256, HBAR),
                           make_grid(-3.0, 3.0, 128, HBAR))


@settings(max_examples=15, deadline=None)
@given(n=st.sampled_from([31, 32, 63, 64]), n_angles=st.integers(8, 40),
       nx=st.sampled_from([16, 32, 64]), n_p=st.sampled_from([16, 32, 64]),
       x_half=st.floats(1.0, 50.0), p_half=st.floats(1.0, 50.0))
def test_matches_affine_oracle_on_random_windows(n, n_angles, nx, n_p, x_half, p_half):
    # The padded window reaches |X| = 64, so the widest corners fall past it.
    tomos = _sweep(n, n_angles, half_width=8.0, sxx=0.7, sxp=-0.2)
    _assert_matches_oracle(tomos, make_grid(-x_half, x_half, nx, HBAR),
                           Grid1D(-p_half, n_p, 2 * p_half / n_p, HBAR))
