import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import HBAR, random_direction
from fbp_oracle import inverse_radon_affine, inverse_radon_reference

from symtomo import (
    ConfigError,
    DomainError,
    GaussianState,
    Grid1D,
    Tomogram,
    TomogramSet,
    UnsupportedOperation,
    compute_tomogram_set,
    gaussian_wavefunction,
    gaussian_wigner_at,
    inverse_radon,
    make_grid,
    radon_chirp_fft,
    radon_line_integral,
    radon_metaplectic,
    wigner_transform,
)
from symtomo.checks import CONTRACT
from symtomo.serialization import load_tomogram_set, save_tomogram_set


def closed_form_density(x, state, mu, nu):
    var = (mu**2 * state.sigma_xx + 2 * mu * nu * state.sigma_xp
           + nu**2 * state.sigma_pp)
    return np.exp(-x**2 / (2 * var)) / np.sqrt(2 * np.pi * var)


@pytest.fixture(scope="module")
def state():
    return GaussianState.from_position_data(1.0, 0.3, HBAR)


@pytest.fixture(scope="module")
def psi(grid, state):
    return gaussian_wavefunction(state, grid)


class TestMetaplecticRoute:
    def test_position_axis(self, psi):
        t = radon_metaplectic(psi, 1.0, 0.0)
        assert np.max(np.abs(t.values - psi.probability_density())) < 1e-7

    def test_momentum_axis(self, psi, state):
        t = radon_metaplectic(psi, 0.0, 1.0)
        want = closed_form_density(t.x, state, 0.0, 1.0)
        assert np.max(np.abs(t.values - want)) < 1e-7

    def test_delta_scaling(self, psi, state):
        # oracle: delta-function scaling makes R(X; 2, 0) = |psi(X/2)|^2 / 2
        t = radon_metaplectic(psi, 2.0, 0.0)
        dens = closed_form_density(t.x / 2, state, 1.0, 0.0)
        assert np.max(np.abs(t.values - 0.5 * dens)) < 1e-9

    def test_zero_direction_rejected(self, psi):
        with pytest.raises(DomainError):
            radon_metaplectic(psi, 0.0, 0.0)

    def test_mass_is_one(self, psi):
        rng = np.random.default_rng(21)
        for _ in range(5):
            mu, nu = random_direction(rng, min_angle=0.0)
            t = radon_metaplectic(psi, mu, nu)
            assert abs(t.mass() - 1.0) < 1e-7


class TestChirpRoute:
    def test_momentum_axis_reduces_to_fourier_density(self, psi, state):
        t = radon_chirp_fft(psi, 0.0, 1.0)
        want = closed_form_density(t.x, state, 0.0, 1.0)
        assert np.max(np.abs(t.values - want)) < 1e-7

    def test_diagonal_of_ground_state(self, ground):
        # sigma_X = sigma_xx + sigma_pp = 1 at (1, 1), so R = N(0, 1)
        t = radon_chirp_fft(ground, 1.0, 1.0)
        want = np.exp(-t.x**2 / 2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(t.values - want)) < 1e-8

    def test_nu_zero_unsupported(self, psi):
        with pytest.raises(UnsupportedOperation):
            radon_chirp_fft(psi, 1.0, 0.0)

    def test_warning_outside_envelope(self, psi):
        t = radon_chirp_fft(psi, 30.0, 1.0)
        assert t.accuracy_warning


class TestRouteEquivalence:
    def test_metaplectic_vs_chirp(self, psi):
        rng = np.random.default_rng(22)
        for _ in range(20):
            mu, nu = random_direction(rng)
            a = radon_metaplectic(psi, mu, nu)
            b = radon_chirp_fft(psi, mu, nu)
            assert np.max(np.abs(a.values - b.values)) < 1e-7, (mu, nu)

    @pytest.mark.parametrize("mu, nu", [(0.3, 0.9), (-0.7, 0.7), (0.9, -1.3), (0.0, 2.0)])
    def test_direct_rows_are_the_chirp_rows(self, psi, mu, nu):
        # For |nu| >= |mu| the rotation's last quadratic Fourier transform
        # has Q = mu/nu and L/lambda = 1/nu: the chirp-FFT formula itself.
        a = radon_metaplectic(psi, mu, nu)
        b = radon_chirp_fft(psi, mu, nu)
        assert np.array_equal(a.values, b.values)

    def test_vs_line_integral(self, grid, psi):
        w = wigner_transform(psi, p_grid=grid)  # square window
        rng = np.random.default_rng(23)
        for _ in range(5):
            mu, nu = random_direction(rng)
            a = radon_metaplectic(psi, mu, nu)
            c = radon_line_integral(w, mu, nu)
            assert np.max(np.abs(a.values - c.values)) < 5e-4, (mu, nu)

    def test_line_integral_chirped_direction(self, grid):
        # the two routes agree to rounding; assert a bound with margin below
        # the 5e-4 route-equivalence contract
        st = GaussianState.from_position_data(1.0, 0.3, HBAR)
        sample = gaussian_wavefunction(st, grid)
        w = wigner_transform(sample, p_grid=grid)
        a = radon_metaplectic(sample, 1.0, 2.0)
        c = radon_line_integral(w, 1.0, 2.0)
        assert np.max(np.abs(a.values - c.values)) < 1e-4

    def test_line_integral_axes_on_ground_state(self, ground, grid):
        w = wigner_transform(ground, p_grid=grid)
        for mu, nu in [(1.0, 0.0), (0.0, 1.0)]:
            t = radon_line_integral(w, mu, nu)
            want = np.exp(-t.x**2) / np.sqrt(np.pi)
            assert np.max(np.abs(t.values - want)) < 5e-4

    def test_line_integral_3_4_direction(self, ground, grid):
        w = wigner_transform(ground, p_grid=grid)
        t = radon_line_integral(w, 3.0, 4.0)
        ref = radon_metaplectic(ground, 3.0, 4.0)
        assert np.max(np.abs(t.values - ref.values)) < 5e-4


class TestHomogeneity:
    def test_scaling_relation(self, psi):
        t = radon_metaplectic(psi, 1.0, 1.0)
        for s in (0.5, 2.0, 3.0):
            ts = radon_metaplectic(psi, s, s)
            # default grids: ts.x == s * t.x elementwise
            assert np.allclose(ts.x, s * t.x, rtol=0, atol=1e-12)
            assert np.max(np.abs(ts.values - t.values / s)) < 1e-7


@settings(max_examples=25, deadline=None)
@given(log_sxx=st.floats(-0.7, 0.7), sxp=st.floats(-0.6, 0.6),
       theta=st.floats(0.0, np.pi, exclude_max=True), lam=st.floats(0.5, 2.0))
@example(log_sxx=0.7, sxp=0.6, theta=0.0, lam=2.0)
@example(log_sxx=-0.7, sxp=-0.6, theta=np.pi / 2, lam=0.5)
@pytest.mark.parametrize("name", ["tomogram_mass", "tomogram_homogeneity"])
def test_contract_holds_over_envelope(grid, name, log_sxx, sxp, theta, lam):
    """Unit mass and homogeneity of the rotation route within their contract
    tolerances, over the states the checks draw, any angle in [0, pi) (the
    axes included) and lengths lambda in [0.5, 2]."""
    state = GaussianState.from_position_data(float(np.exp(log_sxx)) * HBAR, sxp * HBAR, HBAR)
    psi = gaussian_wavefunction(state, grid)
    inv = CONTRACT[name]
    assert inv.measure(psi, lam * np.cos(theta), lam * np.sin(theta)) <= inv.tol


class TestTomogramType:
    def test_negative_floor_rejected(self):
        x = np.linspace(-1, 1, 16)
        with pytest.raises(DomainError):
            Tomogram(1.0, 0.0, x, np.full(16, -1e-6), HBAR)

    def test_small_negative_clipped(self):
        x = np.linspace(-1, 1, 16)
        t = Tomogram(1.0, 0.0, x, np.full(16, -1e-12), HBAR)
        assert np.all(t.values == 0.0)

    def test_nonuniform_grid_rejected(self):
        x = np.array([0.0, 1.0, 3.0])
        with pytest.raises(Exception):
            Tomogram(1.0, 0.0, x, np.zeros(3), HBAR)

    def test_one_point_grid_rejected(self):
        # one point has no spacing: mass() and the FBP would index x[1]
        with pytest.raises(ConfigError, match="2 points"):
            Tomogram(1.0, 0.0, [0.0], [1.0], HBAR)
        with pytest.raises(ConfigError, match="2 points"):
            TomogramSet([0.0], np.ones((8, 1)), HBAR)

    @pytest.mark.parametrize("hbar", [-1.0, 0.0, np.nan, np.inf])
    def test_hbar_must_be_positive_and_finite(self, hbar):
        with pytest.raises(ConfigError, match="hbar"):
            Tomogram(1.0, 0.0, np.linspace(-1, 1, 16), np.zeros(16), hbar)


def _with_angles(ts, angles, tmp_path):
    """The manifest of ``ts`` saved with its angles replaced by ``angles``."""
    manifest = save_tomogram_set(ts, tmp_path)
    doc = json.loads(manifest.read_text())
    doc["angles"] = list(angles)
    manifest.write_text(json.dumps(doc))
    return manifest


class TestTomogramSet:
    def test_sweep_properties(self, psi):
        ts = compute_tomogram_set(psi, 16)
        assert len(ts) == 16
        assert np.allclose(np.diff(ts.angles), np.pi / 16)

    def test_rejects_non_equispaced(self, psi, tmp_path):
        # angles enter from outside only through a manifest
        manifest = _with_angles(compute_tomogram_set(psi, 3), [0.0, 0.3, 1.5], tmp_path)
        with pytest.raises(ConfigError, match="sweep"):
            load_tomogram_set(manifest)

    def test_chirp_route_falls_back_near_axis(self, psi):
        ts = compute_tomogram_set(psi, 180, route="chirp-fft")
        routes = {t.route for t in ts}
        assert "metaplectic" in routes  # near-axis fallback engaged
        assert "chirp-fft" in routes
        assert not any(t.accuracy_warning for t in ts)

    def test_threads_give_identical_results(self, psi):
        a = compute_tomogram_set(psi, 12, threads=1)
        b = compute_tomogram_set(psi, 12, threads=4)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.values, tb.values)

    def test_environment_is_not_read(self, psi, monkeypatch):
        want = compute_tomogram_set(psi, 8)
        monkeypatch.setenv("TOMO_THREADS", "abc")
        assert np.array_equal(compute_tomogram_set(psi, 8).values, want.values)

    def test_thread_count_below_one_rejected(self, psi):
        with pytest.raises(ConfigError, match="at least 1"):
            compute_tomogram_set(psi, 12, threads=0)


class TestInverseRadon:
    def test_round_trip_ground_state(self, ground, grid):
        tomos = compute_tomogram_set(ground, 360)
        recon = inverse_radon(tomos, grid)
        xs, ps = np.meshgrid(recon.x_grid.points, recon.p_grid.points, indexing="ij")
        want = np.exp(-(xs**2 + ps**2) / HBAR) / (np.pi * HBAR)
        assert np.max(np.abs(recon.values - want)) < 1e-3

    def test_round_trip_correlated_state(self, grid):
        st = GaussianState.from_position_data(1.0, 0.5, HBAR)
        sample = gaussian_wavefunction(st, grid)
        tomos = compute_tomogram_set(sample, 360)
        recon = inverse_radon(tomos, grid)
        xs, ps = np.meshgrid(recon.x_grid.points, recon.p_grid.points, indexing="ij")
        assert np.max(np.abs(recon.values - gaussian_wigner_at(st, xs, ps))) < 1e-3

    def test_linearity(self, grid):
        a = gaussian_wavefunction(GaussianState.from_position_data(0.8, 0.2, HBAR), grid)
        b = gaussian_wavefunction(GaussianState.from_position_data(1.5, -0.3, HBAR), grid)
        n_ang = 180
        ta = compute_tomogram_set(a, n_ang)
        tb = compute_tomogram_set(b, n_ang)
        mixed = TomogramSet(ta.x, 0.5 * (ta.values + tb.values), HBAR)
        recon = inverse_radon(mixed, grid)
        ra = inverse_radon(ta, grid)
        rb = inverse_radon(tb, grid)
        assert np.max(np.abs(recon.values - 0.5 * (ra.values + rb.values))) < 2e-3

    def test_too_few_angles(self, psi, grid):
        tomos = compute_tomogram_set(psi, 4)
        with pytest.raises(DomainError):
            inverse_radon(tomos, grid)

    def test_off_center_x_grid_rejected(self, psi, grid):
        x = np.linspace(0, 10, 64)
        tomos = TomogramSet(x, np.tile(np.exp(-x**2), (16, 1)), HBAR)
        with pytest.raises(DomainError):
            inverse_radon(tomos, grid)

    @pytest.mark.parametrize("n, n_angles", [(256, 64), (512, 180)])
    def test_matches_reference_fbp(self, n, n_angles):
        grid = make_grid(-12.0, 12.0, n, HBAR)
        st = GaussianState.from_position_data(0.8, 0.3, HBAR)
        tomos = compute_tomogram_set(gaussian_wavefunction(st, grid), n_angles)
        recon = inverse_radon(tomos, grid)
        ref = inverse_radon_reference(tomos, grid)
        assert np.max(np.abs(recon.values - ref.values)) <= 1e-8

    def test_p_grid_beyond_padded_window(self):
        grid = make_grid(-12.0, 12.0, 256, HBAR)
        st = GaussianState.from_position_data(1.2, -0.2, HBAR)
        tomos = compute_tomogram_set(gaussian_wavefunction(st, grid), 64)
        # The ramp filter pads the 24-wide X window eightfold, to |X| <= 96.
        p_grid = Grid1D(-200.0, 256, 400.0 / 256, HBAR)
        recon = inverse_radon(tomos, grid, p_grid=p_grid)
        ref = inverse_radon_reference(tomos, grid, p_grid=p_grid)
        assert np.max(np.abs(recon.values - ref.values)) <= 1e-8
        assert np.all(np.isfinite(recon.values))
        affine = inverse_radon_affine(tomos, grid, p_grid=p_grid)
        assert np.max(np.abs(recon.values - affine.values)) <= 1e-12

    @pytest.mark.parametrize("window", ["x", "p"])
    def test_off_centre_window_rejected(self, window):
        grid = make_grid(-12.0, 12.0, 64, HBAR)
        tomos = compute_tomogram_set(gaussian_wavefunction(GaussianState.ground_state(HBAR), grid), 16)
        shifted = make_grid(-10.0, 14.0, 64, HBAR)
        x_grid, p_grid = (shifted, None) if window == "x" else (grid, shifted)
        with pytest.raises(DomainError, match="centered at zero"):
            inverse_radon(tomos, x_grid, p_grid=p_grid)

    def test_partial_arc_rejected(self, psi, tmp_path):
        # a set is always the full sweep, so the arc is refused when loaded
        manifest = _with_angles(compute_tomogram_set(psi, 8), np.linspace(0.0, 0.7, 8), tmp_path)
        with pytest.raises(ConfigError, match="sweep"):
            load_tomogram_set(manifest)

    def test_wrong_constant_breaks_round_trip(self, ground):
        # the negative control of ``symtomo check --debug-break-fbp``
        assert CONTRACT["fbp_round_trip"].measure(ground, wigner_transform(ground), 1.05) > 1e-2
