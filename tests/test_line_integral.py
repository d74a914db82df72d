"""The affine-index line integral against the interpolator oracle, and its
homogeneity, on small grids."""

import numpy as np
import pytest
from conftest import HBAR, random_gaussian_state
from hypothesis import given, settings
from hypothesis import strategies as st
from line_oracle import radon_line_integral_reference

from symtomo import (
    GaussianState,
    Grid1D,
    gaussian_wavefunction,
    make_grid,
    radon_line_integral,
    wigner_transform,
)

ORACLE_TOL = 1e-13
DIRECTIONS = [(1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (-1.0, 0.0), (0.6, -1.1),
              (-0.8, 0.5), (-1.3, -0.4), (1.0, 2.0)]


def _map(window, n=128, lo=-12.0, hi=12.0, sxx=1.1, sxp=-0.3):
    """Wigner map of a Gaussian on [lo, hi) with n points; ``square`` uses the
    position grid as momentum window (dp = dx), ``default`` the alias-free
    window (dp != dx)."""
    grid = make_grid(lo, hi, n, HBAR)
    psi = gaussian_wavefunction(GaussianState.from_position_data(sxx, sxp, HBAR), grid)
    return wigner_transform(psi, p_grid=grid if window == "square" else None)


@pytest.fixture(scope="module", params=["square", "default"])
def wmap(request):
    return _map(request.param)


@pytest.mark.parametrize("mu, nu", DIRECTIONS)
@pytest.mark.parametrize("step_fraction", [0.25, 0.5, 1.0])
def test_matches_interpolator_oracle(wmap, mu, nu, step_fraction):
    got = radon_line_integral(wmap, mu, nu, step_fraction=step_fraction)
    want = radon_line_integral_reference(wmap, mu, nu, step_fraction=step_fraction)
    assert np.array_equal(got.x, want.x)
    assert got.accuracy_warning == want.accuracy_warning
    assert np.max(np.abs(got.values - want.values)) <= ORACLE_TOL


@pytest.mark.parametrize("mu, nu", [(1.0, 0.0), (0.0, 1.0), (0.7, -0.9)])
def test_x_grid_past_the_map(wmap, mu, nu):
    # X reaches four times past the map, so the outer lines miss it entirely.
    x_grid = Grid1D(-80.0, 64, 2.5, HBAR)
    got = radon_line_integral(wmap, mu, nu, x_grid=x_grid)
    want = radon_line_integral_reference(wmap, mu, nu, x_grid=x_grid).values
    assert np.max(np.abs(got.values - want)) <= ORACLE_TOL
    assert np.all(got.values[:8] == 0.0) and np.all(got.values[-8:] == 0.0)


@pytest.mark.parametrize("window", ["square", "default"])
def test_off_centre_grid(window):
    w = _map(window, lo=-12.0, hi=20.0)
    for mu, nu in DIRECTIONS:
        got = radon_line_integral(w, mu, nu)
        want = radon_line_integral_reference(w, mu, nu).values
        assert np.max(np.abs(got.values - want)) <= ORACLE_TOL, (mu, nu)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), square=st.booleans(),
       theta=st.floats(-np.pi, np.pi), lam=st.floats(0.3, 3.0), scale=st.floats(0.25, 4.0))
def test_oracle_and_homogeneity_on_random_states(seed, square, theta, lam, scale):
    rng = np.random.default_rng(seed)
    # Wide enough that every state of the envelope decays at the edges, so
    # no map dips below the tomograms' negative floor.
    grid = make_grid(-16.0, 16.0, 128, HBAR)
    psi = gaussian_wavefunction(random_gaussian_state(rng), grid)
    w = wigner_transform(psi, p_grid=grid if square else None)
    mu, nu = lam * np.cos(theta), lam * np.sin(theta)
    t = radon_line_integral(w, mu, nu)
    want = radon_line_integral_reference(w, mu, nu).values
    assert np.max(np.abs(t.values - want)) <= ORACLE_TOL
    # R(sX; s*mu, s*nu) = R(X; mu, nu)/s, on the scaled X grid.
    x_grid = Grid1D(scale * t.x[0], len(t.x), scale * t.dx, HBAR)
    ts = radon_line_integral(w, scale * mu, scale * nu, x_grid=x_grid)
    assert np.max(np.abs(scale * ts.values - t.values)) <= 1e-12
