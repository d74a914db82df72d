import numpy as np
import pytest

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
from symtomo.radon import mix_tomograms


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


class TestMixing:
    def test_single_weight_identity(self, psi):
        t = radon_metaplectic(psi, 1.0, 1.0)
        m = mix_tomograms([1.0], [t])
        assert np.array_equal(m.values, t.values)

    def test_equal_mix_of_identical(self, psi):
        t = radon_metaplectic(psi, 1.0, 1.0)
        m = mix_tomograms([0.5, 0.5], [t, t])
        assert np.max(np.abs(m.values - t.values)) < 1e-15

    def test_mass_preserved_with_displaced_partner(self, grid, ground):
        from symtomo import SampledWavefunction

        displaced = SampledWavefunction(
            grid, (np.pi * HBAR) ** (-0.25) * np.exp(-(grid.points - 2.0) ** 2 / (2 * HBAR)))
        ta = radon_metaplectic(ground, 1.0, 1.0)
        tb = radon_metaplectic(displaced, 1.0, 1.0)
        m = mix_tomograms([0.3, 0.7], [ta, tb])
        assert abs(m.mass() - 1.0) < 1e-9

    def test_invalid_weights(self, psi):
        t = radon_metaplectic(psi, 1.0, 1.0)
        with pytest.raises(DomainError):
            mix_tomograms([0.4, 0.4], [t, t])
        with pytest.raises(DomainError):
            mix_tomograms([-0.5, 1.5], [t, t])

    def test_mismatched_directions(self, psi):
        t1 = radon_metaplectic(psi, 1.0, 1.0)
        t2 = radon_metaplectic(psi, 1.0, 2.0)
        with pytest.raises(DomainError):
            mix_tomograms([0.5, 0.5], [t1, t2])


class TestTomogramSet:
    def test_sweep_properties(self, psi):
        ts = compute_tomogram_set(psi, 16)
        assert len(ts) == 16
        assert np.allclose(np.diff(ts.angles), np.pi / 16)

    def test_rejects_non_equispaced(self, psi):
        t0 = radon_metaplectic(psi, 1.0, 0.0)
        t1 = radon_metaplectic(psi, np.cos(0.3), np.sin(0.3))
        t2 = radon_metaplectic(psi, np.cos(1.5), np.sin(1.5))
        with pytest.raises(Exception):
            TomogramSet.from_tomograms((t0, t1, t2))

    def test_rejects_non_unit_direction(self, psi):
        t0 = radon_metaplectic(psi, 2.0, 0.0)
        with pytest.raises(Exception):
            TomogramSet.from_tomograms((t0,))

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
        mixed = TomogramSet.from_tomograms(tuple(
            mix_tomograms([0.5, 0.5], [x, y]) for x, y in zip(ta, tb)))
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
        tms = tuple(
            Tomogram(np.cos(th), np.sin(th), x, np.exp(-x**2), HBAR)
            for th in np.pi * np.arange(16) / 16
        )
        with pytest.raises(DomainError):
            inverse_radon(TomogramSet.from_tomograms(tms), grid)

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

    def test_partial_arc_rejected(self, psi, grid):
        tms = tuple(radon_metaplectic(psi, np.cos(th), np.sin(th))
                    for th in np.linspace(0.0, 0.7, 8))
        with pytest.raises(DomainError, match="full sweep"):
            inverse_radon(TomogramSet.from_tomograms(tms), grid)

    def test_wrong_constant_breaks_round_trip(self, ground, grid):
        tomos = compute_tomogram_set(ground, 90)
        recon = inverse_radon(tomos, grid, constant_scale=1.05)
        ref = wigner_transform(ground, p_grid=recon.p_grid)
        assert np.max(np.abs(recon.values - ref.values)) > 1e-2
