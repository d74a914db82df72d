"""The batched angle sweep against the per-angle oracle, the closed form
and the single-angle routes; the array-backed TomogramSet."""

import json

import numpy as np
import pytest
from conftest import HBAR
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sweep_oracle import resampled_rotation, tomogram_set_reference

import symtomo.grids
import symtomo.radon
from symtomo import (
    ConfigError,
    DomainError,
    GaussianState,
    SampledWavefunction,
    TomogramSet,
    compute_tomogram_set,
    gaussian_wavefunction,
    make_grid,
    radon_chirp_fft,
    radon_metaplectic,
)
from symtomo.cli import main
from symtomo.serialization import load_tomogram_set, save_tomogram_set

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


@pytest.mark.parametrize("half_width, flagged", [(12.0, False), (4.0, True)])
def test_edge_decay_flags_match_single_angles(half_width, flagged):
    # On [-4, 4) the state's edge decay is about 2e-2, above EDGE_DECAY_FLAG.
    grid = make_grid(-half_width, half_width, 64, HBAR)
    psi = gaussian_wavefunction(GaussianState.from_position_data(1.0, 0.3, HBAR), grid)
    for route in ("metaplectic", "chirp-fft"):
        ts = compute_tomogram_set(psi, 16, route=route)
        for k, t in enumerate(ts):
            single = radon_metaplectic if t.route == "metaplectic" else radon_chirp_fft
            assert ts.warnings[k] == single(psi, t.mu, t.nu).accuracy_warning
            assert ts.warnings[k] == (flagged and t.route == "metaplectic")


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


def _set_args(n_angles=8, n=16):
    x = np.linspace(-4.0, 4.0, n, endpoint=False)
    return x, np.tile(np.exp(-x**2), (n_angles, 1))


def test_set_angles_are_the_sweep():
    ts = TomogramSet(*_set_args(n_angles=12))
    assert np.array_equal(ts.angles, np.pi * np.arange(12) / 12)
    assert not ts.angles.flags.writeable
    with pytest.raises(TypeError):
        TomogramSet(*_set_args(), angles=ts.angles)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_set_rejects_non_finite_values(bad):
    x, values = _set_args()
    values[5, 3] = bad
    with pytest.raises(ConfigError, match="finite"):
        TomogramSet(x, values)


def test_set_floor_and_clip_per_row():
    x, values = _set_args()
    values[2, 0] = -0.5e-10  # within the floor: clipped
    ts = TomogramSet(x, values)
    assert ts.values.min() == 0.0
    values[6, 0] = -1e-9
    with pytest.raises(DomainError, match="floor"):
        TomogramSet(x, values)


def _one_point_x(doc, out):
    doc["x"]["values"] = [0.0]
    np.ones(len(doc["angles"])).tofile(out / doc["data_file"])


def _drop_row(doc, out):
    block = out / doc["data_file"]
    np.fromfile(block)[:-len(doc["x"]["values"])].tofile(block)


@pytest.mark.parametrize("edit, match", [
    (lambda d, out: d.update(angles=d["angles"][::-1]), "sweep"),
    (lambda d, out: d.update(angles=[1.5 * a for a in d["angles"]]), "sweep"),
    (lambda d, out: d["angles"].__setitem__(-1, d["angles"][-1] - 0.1), "sweep"),
    (lambda d, out: d["x"].update(values=[v**3 for v in d["x"]["values"]]), "uniform"),
    (_drop_row, "size mismatch"),
    (lambda d, out: d["angles"].__setitem__(-1, float("nan")), "sweep"),
    (lambda d, out: d.update(angles=[0.5 * a for a in d["angles"]]), "sweep"),
    (lambda d, out: d.update(angles=[a + 1e-6 for a in d["angles"]]), "sweep"),
    (lambda d, out: d["angles"].__setitem__(3, float("inf")), "sweep"),
    (lambda d, out: d.update(angles=d["angles"][:-1]), "lengths"),
    (lambda d, out: d["x"].pop("values"), "missing key"),
    (lambda d, out: d.pop("routes"), "missing key"),
    (lambda d, out: d.pop("warnings"), "missing key"),
    (_one_point_x, "2 points"),
], ids=["decreasing", "beyond_pi", "not_equispaced", "non_uniform_x", "missing_row",
        "nan_angle", "partial_arc", "offset", "inf_angle", "short_angles", "no_x_values",
        "no_routes", "no_warnings", "one_point_x"])
def test_set_rejects_bad_layout(tmp_path, edit, match):
    """A set enters the program from outside only through a manifest: every
    breach of the set's layout, its angles included, is a ConfigError there,
    and ``symtomo invert`` exits 2 without writing anything."""
    out = tmp_path / "set"
    manifest = save_tomogram_set(TomogramSet(*_set_args()), out)
    doc = json.loads(manifest.read_text())
    edit(doc, out)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=match):
        load_tomogram_set(manifest)
    assert main(["invert", "--set", str(manifest), "--out", str(tmp_path / "rec")]) == 2
    assert not (tmp_path / "rec").exists()


def test_set_rejects_route_count_mismatch():
    with pytest.raises(ConfigError, match="one route"):
        TomogramSet(*_set_args(), routes=("metaplectic",) * 3)


@pytest.mark.parametrize("route", ["metaplectic", "chirp-fft"])
def test_threads_take_whole_blocks(psi, route):
    one = compute_tomogram_set(psi, 100, route=route, threads=1)
    three = compute_tomogram_set(psi, 100, route=route, threads=3)
    assert np.array_equal(one.values, three.values) and one.routes == three.routes


def _sweep_directions(n_angles):
    """(mu, nu) of each sweep row: (cos, sin) of theta_k up to pi/2, and the
    exact mirror (-mu, nu) of angle n_angles - k beyond."""
    theta = np.pi * np.arange(n_angles) / n_angles
    mu, nu = np.cos(theta), np.sin(theta)
    for k in range(n_angles // 2 + 1, n_angles):
        mu[k], nu[k] = -mu[n_angles - k], nu[n_angles - k]
    return mu, nu


def _displaced_state(grid, sigma_xx, sigma_xp, x0, p0):
    """A Gaussian of covariances sigma_xx, sigma_xp moved to (x0, p0) in
    phase space, so that no parity maps its tomograms onto one another."""
    x = grid.points - x0
    values = np.exp(-x**2 * (1.0 - 2j * sigma_xp / HBAR) / (4.0 * sigma_xx)
                    + 1j * p0 * grid.points / HBAR)
    return SampledWavefunction(grid, values).normalize()


def _window(grid, kind):
    """An X grid of the given kind for a state grid: the state grid itself
    (None), 1.3 times wider, 0.6 times narrower, or shifted off centre."""
    start, step, n = grid.x_min, grid.dx, grid.n_points
    return {None: None,
            "wider": 1.3 * start + 1.3 * step * np.arange(n + 5),
            "narrower": 0.6 * start + 0.6 * step * np.arange(n - 3),
            "off-centre": start + 3.1 + step * np.arange(n - 9)}[kind]


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([64, 128, 256]), n_angles=st.integers(1, 72),
       offset=st.floats(0.05, 0.95), window=st.sampled_from([None, "wider", "narrower",
                                                           "off-centre"]),
       seed=st.integers(0, 2**32 - 1))
@example(n=64, n_angles=1, offset=0.5, window=None, seed=0)
@example(n=128, n_angles=2, offset=0.3, window="off-centre", seed=1)
@example(n=256, n_angles=3, offset=0.7, window="wider", seed=2)
def test_paired_sweep_matches_oracle_and_single_angles(n, n_angles, offset, window, seed):
    """Mirror pairs, odd and even sweeps: the sweep against the per-angle
    oracle, each row against its single-angle route in the row's exact
    direction, and whole blocks per worker thread.  The state grid's x_min
    is off the dx lattice.  Its x and p windows are equally wide
    (half-width sqrt(pi*n/2)), and the state sits up to 0.4 off the origin
    in x and in p.  The oracle resamples each rotated state, chirp
    included, from the state grid: on the 64-point grid that holds 1e-9
    for sigma_xx in [0.6, 0.86] and |sigma_xp| <= 0.1, not for the whole
    envelope of the other tests."""
    rng = np.random.default_rng(seed)
    half = np.sqrt(np.pi * n / 2.0)
    shift = offset * 2.0 * half / n
    grid = make_grid(shift - half, shift + half, n, HBAR)
    psi = _displaced_state(grid, float(np.exp(rng.uniform(-0.5, -0.15))),
                           float(rng.uniform(-0.1, 0.1)), *rng.uniform(-0.4, 0.4, 2))
    x = _window(psi.grid, window)
    mu, nu = _sweep_directions(n_angles)
    for route in ("metaplectic", "chirp-fft"):
        ts = compute_tomogram_set(psi, n_angles, route=route, x_grid=x)
        ref, routes = tomogram_set_reference(psi, n_angles, route, x)
        assert ts.routes == tuple(routes)
        assert np.max(np.abs(ts.values - ref)) <= 1e-9
        for k in range(n_angles):
            single = radon_metaplectic if ts.routes[k] == "metaplectic" else radon_chirp_fft
            row = single(psi, mu[k], nu[k], x_grid=ts.x).values
            assert np.max(np.abs(row - ts.values[k])) <= 1e-13
        three = compute_tomogram_set(psi, n_angles, route=route, x_grid=x, threads=3)
        assert np.array_equal(three.values, ts.values)


@pytest.mark.parametrize("lam", [1.0, 1.7])
@pytest.mark.parametrize("window", [(-15.0, 15.0, 255), (-12.0, 12.0, 512),
                                    (-20.0, 20.0, 300)], ids=["255", "512", "wide300"])
def test_metaplectic_rows_match_resampled_rotation(lam, window):
    """The metaplectic route evaluates its last quadratic Fourier transform
    on the X grid; the reference rotates onto the state grid and resamples."""
    lo, hi, count = window
    x = np.linspace(lo, hi, count)
    psi = _displaced_state(make_grid(-12.0, 12.0, 256, HBAR), 0.8, 0.3, 1.2, -0.7)
    # the axes, split rotations on both sides of the x axis, direct ones
    for theta in (0.0, 0.3, np.pi / 4 + 0.1, np.pi / 2, 2.0, 2.9, np.pi):
        mu, nu = lam * np.cos(theta), lam * np.sin(theta)
        got = radon_metaplectic(psi, mu, nu, x_grid=x).values
        want = resampled_rotation(psi, mu, nu, x[0], x[1] - x[0], count)
        assert np.max(np.abs(got - want)) <= 1e-13


def test_no_metaplectic_row_resamples(psi, monkeypatch):
    def no_resample(*args):
        raise AssertionError("a tomogram row must not resample a rotated state")

    monkeypatch.setattr(symtomo.grids, "sample_uniform", no_resample)
    assert not hasattr(symtomo.radon, "sample_uniform")
    for route in ("metaplectic", "chirp-fft"):
        assert len(compute_tomogram_set(psi, 360, route=route)) == 360
    for mu, nu in ((1.0, 0.0), (0.8, 0.3), (0.3, -0.8)):
        radon_metaplectic(psi, mu, nu, x_grid=np.linspace(-9.0, 9.0, 101))
