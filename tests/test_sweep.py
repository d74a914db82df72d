"""The batched angle sweep against the per-angle oracle, the closed form
and the single-angle routes; the array-backed TomogramSet."""

import numpy as np
import pytest
from conftest import HBAR
from sweep_oracle import tomogram_set_reference

from symtomo import (
    ConfigError,
    DomainError,
    GaussianState,
    TomogramSet,
    compute_tomogram_set,
    gaussian_wavefunction,
    make_grid,
    radon_chirp_fft,
    radon_metaplectic,
)

SWEEPS = {(256, 64): (-12.0, 12.0), (1024, 360): (-16.0, 16.0)}


@pytest.fixture(scope="module", params=list(SWEEPS), ids=lambda p: f"n{p[0]}-A{p[1]}")
def sweep_case(request):
    n, n_angles = request.param
    state = GaussianState.from_position_data(0.8, 0.3, HBAR)
    psi = gaussian_wavefunction(state, make_grid(*SWEEPS[n, n_angles], n, HBAR))
    return state, psi, n_angles


@pytest.mark.parametrize("route", ["metaplectic", "chirp-fft"])
def test_sweep_matches_per_angle_oracle_and_closed_form(sweep_case, route):
    state, psi, n_angles = sweep_case
    ts = compute_tomogram_set(psi, n_angles, route=route)
    ref, routes = tomogram_set_reference(psi, n_angles, route)
    assert ts.routes == tuple(routes)
    assert np.max(np.abs(ts.values - ref)) <= 1e-9
    mu, nu = np.cos(ts.angles)[:, None], np.sin(ts.angles)[:, None]
    var = mu**2 * state.sigma_xx + 2 * mu * nu * state.sigma_xp + nu**2 * state.sigma_pp
    closed = np.exp(-ts.x**2 / (2 * var)) / np.sqrt(2 * np.pi * var)
    assert np.max(np.abs(ts.values - closed)) <= 1e-12


@pytest.fixture(scope="module")
def psi(grid):
    return gaussian_wavefunction(GaussianState.from_position_data(1.0, 0.3, HBAR), grid)


def test_single_angle_routes_match_sweep_rows(psi):
    n_angles = 64
    meta = compute_tomogram_set(psi, n_angles)
    chirp = compute_tomogram_set(psi, n_angles, route="chirp-fft")
    assert {"metaplectic", "chirp-fft"} <= set(chirp.routes)
    # the axis, split rotations on both sides of it, and direct rotations
    for k in (0, 3, 16, 32, 50, 63):
        mu, nu = np.cos(meta.angles[k]), np.sin(meta.angles[k])
        single = radon_metaplectic(psi, mu, nu)
        assert np.max(np.abs(single.values - meta.values[k])) <= 1e-13
        if chirp.routes[k] == "chirp-fft":
            single = radon_chirp_fft(psi, mu, nu)
            assert np.max(np.abs(single.values - chirp.values[k])) <= 1e-13


def test_set_indexing_yields_tomogram_slices(psi):
    ts = compute_tomogram_set(psi, 8, route="chirp-fft")
    items = list(ts)
    assert len(items) == len(ts) == 8
    for k, t in enumerate(items):
        assert (t.mu, t.nu) == (np.cos(ts.angles[k]), np.sin(ts.angles[k]))
        assert t.route == ts.routes[k] and t.hbar == ts.hbar
        assert np.array_equal(t.values, ts.values[k]) and np.array_equal(t.x, ts.x)
    back = TomogramSet.from_tomograms(items)
    assert np.allclose(back.angles, ts.angles, rtol=0, atol=1e-15)
    assert np.array_equal(back.values, ts.values) and back.routes == ts.routes


def _set_args(n_angles=8, n=16):
    x = np.linspace(-4.0, 4.0, n, endpoint=False)
    angles = np.pi * np.arange(n_angles) / n_angles
    return angles, x, np.tile(np.exp(-x**2), (n_angles, 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_set_rejects_non_finite_values(bad):
    angles, x, values = _set_args()
    values[5, 3] = bad
    with pytest.raises(ConfigError, match="finite"):
        TomogramSet(angles, x, values)


def test_set_floor_and_clip_per_row():
    angles, x, values = _set_args()
    values[2, 0] = -0.5e-10  # within the floor: clipped
    ts = TomogramSet(angles, x, values)
    assert ts.values.min() == 0.0
    values[6, 0] = -1e-9
    with pytest.raises(DomainError, match="floor"):
        TomogramSet(angles, x, values)


@pytest.mark.parametrize("edit, match", [
    (lambda a, x, v: (a[::-1].copy(), x, v), "increasing"),
    (lambda a, x, v: (a * 1.5, x, v), r"\[0, pi\)"),
    (lambda a, x, v: (np.r_[a[:-1], a[-1] - 0.1], x, v), "equispaced"),
    (lambda a, x, v: (a, x ** 3, v), "uniform"),
    (lambda a, x, v: (a, x, v[:-1]), "one row"),
    (lambda a, x, v: (np.r_[a[:-1], np.nan], x, v), r"\[0, pi\)"),
], ids=["decreasing", "beyond_pi", "not_equispaced", "non_uniform_x", "missing_row",
        "nan_angle"])
def test_set_rejects_bad_layout(edit, match):
    with pytest.raises(ConfigError, match=match):
        TomogramSet(*edit(*_set_args()))


def test_set_rejects_route_count_mismatch():
    with pytest.raises(ConfigError, match="one route"):
        TomogramSet(*_set_args(), routes=("metaplectic",) * 3)


@pytest.mark.parametrize("route", ["metaplectic", "chirp-fft"])
def test_threads_take_whole_blocks(psi, route):
    one = compute_tomogram_set(psi, 100, route=route, threads=1)
    three = compute_tomogram_set(psi, 100, route=route, threads=3)
    assert np.array_equal(one.values, three.values) and one.routes == three.routes
