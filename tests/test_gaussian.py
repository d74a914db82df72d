import warnings

import numpy as np
import pytest

from conftest import HBAR, random_direction, random_gaussian_state

from symtomo import (
    AccuracyWarning,
    AmbiguousSignError,
    ConfigError,
    DomainError,
    GaussianState,
    ModelMismatchError,
    Tomogram,
    chord_matches_tomogram_variance,
    ellipse_chord,
    gaussian_tomogram,
    gaussian_wavefunction,
    gaussian_wigner,
    make_grid,
    marginals,
    pauli_reconstruct,
    radon_chirp_fft,
    radon_metaplectic,
    tomogram_variance,
    wigner_transform,
)
from symtomo.grids import hbar_fourier


class TestGaussianState:
    def test_saturation_enforced(self):
        with pytest.raises(ModelMismatchError):
            GaussianState(1.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_rejected(self, slot, bad):
        args = [1.0, 0.25, 0.0, 1.0]
        args[slot] = bad
        with pytest.raises(ConfigError, match="finite"):
            GaussianState(*args)
        if slot in (0, 2):
            with pytest.raises(ConfigError, match="finite"):
                GaussianState.from_position_data(bad if slot == 0 else 1.0,
                                                 bad if slot == 2 else 0.0)

    def test_from_position_data(self):
        st = GaussianState.from_position_data(1.0, 0.3, 1.0)
        assert np.isclose(st.sigma_pp, 0.34)

    def test_ground_state(self):
        st = GaussianState.ground_state(1.0)
        assert st.sigma_xx == 0.5 and st.sigma_pp == 0.5 and st.sigma_xp == 0.0


class TestGaussianWavefunction:
    def test_ground_state_matches_phi0(self, grid, ground):
        st = GaussianState(0.5, 0.5, 0.0, HBAR)
        psi = gaussian_wavefunction(st, grid)
        assert np.max(np.abs(psi.values - ground.values)) == 0.0

    def test_normalized(self, grid):
        rng = np.random.default_rng(30)
        for _ in range(5):
            psi = gaussian_wavefunction(random_gaussian_state(rng), grid)
            assert abs(psi.norm() - 1.0) < 1e-10

    def test_position_variance(self, grid):
        st = GaussianState.from_position_data(1.3, -0.2, HBAR)
        psi = gaussian_wavefunction(st, grid)
        dens = psi.probability_density()
        var = np.sum(grid.points**2 * dens) / np.sum(dens)
        assert abs(var - st.sigma_xx) < 1e-8

    def test_momentum_variance_via_fourier(self, grid):
        # oracle: second moment of |hbar-FT|^2
        st = GaussianState.from_position_data(0.8, 0.4, HBAR)
        psi = gaussian_wavefunction(st, grid)
        ft = hbar_fourier(psi)
        dens = ft.probability_density()
        p = ft.grid.points
        var = np.sum(p**2 * dens) / np.sum(dens)
        assert abs(var - st.sigma_pp) < 1e-7

    def test_small_grid_warns(self):
        g = make_grid(-4, 4, 64, HBAR)
        with pytest.warns(AccuracyWarning):
            gaussian_wavefunction(GaussianState.from_position_data(4.0, 0.0, HBAR), g)

    def test_off_centre_grid_warns(self):
        # Wide, but it starts at the state's centre: half the state is cut.
        with pytest.warns(AccuracyWarning):
            psi = gaussian_wavefunction(GaussianState.ground_state(HBAR),
                                        make_grid(0.0, 32.0, 1024, HBAR))
        assert psi.norm() < 0.72 and psi.edge_decay() == 1.0

    @pytest.mark.parametrize("lo, hi", [(-16.0, 16.0), (-2.9, 2.9), (-12.0, 20.0)])
    def test_grid_reaching_4_sigma_each_side_is_quiet(self, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            gaussian_wavefunction(GaussianState.ground_state(HBAR), make_grid(lo, hi, 64, HBAR))


class TestGaussianTomogram:
    def test_axis_variances(self):
        st = GaussianState.from_position_data(1.2, 0.3, HBAR)
        assert np.isclose(tomogram_variance(st, 1, 0), st.sigma_xx)
        assert np.isclose(tomogram_variance(st, 0, 1), st.sigma_pp)

    def test_mixed_direction_value(self):
        st = GaussianState(1.0, 0.5, 0.5, HBAR)
        assert np.isclose(tomogram_variance(st, 1, 1), 2.5)

    def test_closed_form_matches_numerical_route(self, grid):
        rng = np.random.default_rng(31)
        for _ in range(5):
            st = random_gaussian_state(rng)
            psi = gaussian_wavefunction(st, grid)
            mu, nu = random_direction(rng)
            num = radon_chirp_fft(psi, mu, nu)
            ref = gaussian_tomogram(st, mu, nu, x_grid=num.x)
            assert np.max(np.abs(num.values - ref.values)) < 1e-6

    def test_unit_mass(self):
        st = GaussianState.from_position_data(0.7, -0.5, HBAR)
        t = gaussian_tomogram(st, 2.0, -1.0)
        assert abs(t.mass() - 1.0) < 1e-9

    def test_zero_direction_rejected(self):
        st = GaussianState.ground_state(HBAR)
        with pytest.raises(DomainError):
            gaussian_tomogram(st, 0.0, 0.0)


class TestGaussianWigner:
    def test_ground_state_peak_and_form(self, grid):
        st = GaussianState.ground_state(HBAR)
        w = gaussian_wigner(st, grid)
        xs, ps = np.meshgrid(w.x_grid.points, w.p_grid.points, indexing="ij")
        want = np.exp(-(xs**2 + ps**2) / HBAR) / (np.pi * HBAR)
        assert np.max(np.abs(w.values - want)) < 1e-15
        assert abs(w.values.max() - 1 / (np.pi * HBAR)) < 1e-12

    def test_matches_grid_wigner(self, grid):
        rng = np.random.default_rng(32)
        st = random_gaussian_state(rng)
        num = wigner_transform(gaussian_wavefunction(st, grid))
        ref = gaussian_wigner(st, grid, num.p_grid)
        assert np.max(np.abs(num.values - ref.values)) < 1e-6

    def test_map_is_the_pointwise_form_on_the_mesh(self, grid):
        # The quadratic form of the map as written out before it evaluated
        # through gaussian_wigner_at; the two must agree bit for bit.
        st = GaussianState.from_position_data(1.3, -0.4, HBAR)
        p_grid = make_grid(-3.0, 5.0, 256, HBAR)
        w = gaussian_wigner(st, grid, p_grid)
        cov_inv = np.linalg.inv(st.covariance_matrix)
        xs, ps = np.meshgrid(grid.points, p_grid.points, indexing="ij")
        quad = cov_inv[0, 0] * xs**2 + 2 * cov_inv[0, 1] * xs * ps + cov_inv[1, 1] * ps**2
        det = np.linalg.det(st.covariance_matrix)
        assert np.array_equal(w.values, np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(det)))

    def test_marginal_variances(self, grid):
        st = GaussianState.from_position_data(1.1, 0.25, HBAR)
        w = gaussian_wigner(st, grid)
        pos, mom = marginals(w)
        x, p = w.x_grid.points, w.p_grid.points
        assert abs(np.sum(x**2 * pos) * w.x_grid.dx - st.sigma_xx) < 1e-8
        assert abs(np.sum(p**2 * mom) * w.p_grid.dx - st.sigma_pp) < 1e-8
        assert abs(w.mass() - 1.0) < 1e-8


class TestEllipseChord:
    def geometric_half_width(self, st, mu, nu):
        # oracle: dense scan of the membership condition along the line
        cov_inv = np.linalg.inv(st.covariance_matrix)
        if nu != 0.0:
            t = np.linspace(-6, 6, 2_000_001)
            x, p = t, -mu * t / nu
        else:
            t = np.linspace(-6, 6, 2_000_001)
            x, p = np.zeros_like(t), t
        inside = (cov_inv[0, 0] * x**2 + 2 * cov_inv[0, 1] * x * p
                  + cov_inv[1, 1] * p**2) <= 2.0
        return np.abs(t[inside]).max()

    def test_axis_cases_against_geometry(self):
        st = GaussianState.from_position_data(1.5, 0.45, HBAR)
        for mu, nu in [(0.0, 1.0), (1.0, 0.0)]:
            chord = ellipse_chord(st, mu, nu)
            assert abs(chord.half_width - self.geometric_half_width(st, mu, nu)) < 1e-5

    def test_axis_closed_forms(self):
        st = GaussianState.from_position_data(1.5, 0.45, HBAR)
        # x-axis chord (mu, nu) = (0, 1), parametrized by x
        assert np.isclose(ellipse_chord(st, 0.0, 1.0).half_width,
                          HBAR / np.sqrt(2 * st.sigma_pp))
        # p-axis chord (mu, nu) = (1, 0), parametrized by p
        assert np.isclose(ellipse_chord(st, 1.0, 0.0).half_width,
                          HBAR / np.sqrt(2 * st.sigma_xx))

    def test_oblique_against_geometry(self):
        st = GaussianState.from_position_data(0.9, -0.35, HBAR)
        rng = np.random.default_rng(33)
        for _ in range(5):
            mu, nu = random_direction(rng)
            chord = ellipse_chord(st, mu, nu)
            assert abs(chord.half_width - self.geometric_half_width(st, mu, nu)) < 1e-5

    def test_ground_state_diagonal(self):
        st = GaussianState.ground_state(HBAR)
        chord = ellipse_chord(st, 1.0, 1.0)
        # coefficient sigma_pp + sigma_xx = hbar
        assert np.isclose(chord.half_width, HBAR / np.sqrt(2 * HBAR))

    def test_chord_variance_identity(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            st = random_gaussian_state(rng)
            mu, nu = random_direction(rng)
            assert chord_matches_tomogram_variance(st, mu, nu)


class TestPauliReconstruction:
    def make_tomograms(self, st, grid, oblique=(1.0, 1.0)):
        psi = gaussian_wavefunction(st, grid)
        return (
            radon_metaplectic(psi, 1.0, 0.0),
            radon_metaplectic(psi, 0.0, 1.0),
            radon_chirp_fft(psi, *oblique),
        )

    def test_symmetric_state_sign_moot(self, grid):
        st = GaussianState.ground_state(HBAR)
        rec = pauli_reconstruct(*self.make_tomograms(st, grid))
        assert rec.sign_moot
        assert abs(rec.state.sigma_xp) < 1e-3

    def test_known_sign_case(self, grid):
        # sigma_xx = 1, sigma_pp = 0.5, |sigma_xp| = 0.5; candidates 2.5 / 0.5
        st = GaussianState(1.0, 0.5, 0.5, HBAR)
        t_x, t_p, t_e = self.make_tomograms(st, grid)
        rec = pauli_reconstruct(t_x, t_p, t_e)
        assert abs(rec.state.sigma_xp - 0.5) < 1e-5
        assert rec.sign_margin > 1e-1

    def test_negative_sign_recovered(self, grid):
        st = GaussianState.from_position_data(1.0, -0.3, HBAR)
        rec = pauli_reconstruct(*self.make_tomograms(st, grid))
        assert abs(rec.state.sigma_xp - (-0.3)) < 1e-4

    def test_full_covariance_recovery(self, grid):
        rng = np.random.default_rng(35)
        for _ in range(10):
            st = random_gaussian_state(rng, sxp_min=0.05)
            mu, nu = random_direction(rng, min_angle=0.35)
            rec = pauli_reconstruct(*self.make_tomograms(st, grid, oblique=(mu, nu)))
            assert abs(rec.state.sigma_xx - st.sigma_xx) < 1e-4
            assert abs(rec.state.sigma_pp - st.sigma_pp) < 1e-4
            assert abs(rec.state.sigma_xp - st.sigma_xp) < 1e-4

    def test_twin_states_share_axis_tomograms(self, grid):
        st = GaussianState.from_position_data(1.0, 0.4, HBAR)
        twin = GaussianState(st.sigma_xx, st.sigma_pp, -st.sigma_xp, HBAR)
        a = self.make_tomograms(st, grid)
        b = self.make_tomograms(twin, grid)
        assert np.max(np.abs(a[0].values - b[0].values)) < 1e-10
        assert np.max(np.abs(a[1].values - b[1].values)) < 1e-10
        assert np.max(np.abs(a[2].values - b[2].values)) > 1e-2

    def test_non_gaussian_rejected(self, grid):
        # two-peak density violates the uncertainty floor scaling
        x = grid.points
        bimodal = 0.5 * (np.exp(-(x - 3) ** 2 / 0.01) + np.exp(-(x + 3) ** 2 / 0.01))
        bimodal /= bimodal.sum() * grid.dx
        narrow = np.exp(-x**2 / 0.001)
        narrow /= narrow.sum() * grid.dx
        t_x = Tomogram(1.0, 0.0, x, bimodal, HBAR)
        t_p = Tomogram(0.0, 1.0, x, narrow, HBAR)
        t_e = Tomogram(1.0, 1.0, x, bimodal, HBAR)
        with pytest.raises(ModelMismatchError):
            pauli_reconstruct(t_x, t_p, t_e)

    def test_oblique_residual_mismatch(self, grid):
        st = GaussianState.from_position_data(1.0, 0.4, HBAR)
        t_x, t_p, _ = self.make_tomograms(st, grid)
        other = GaussianState.from_position_data(0.6, -0.1, HBAR)
        t_e = radon_chirp_fft(gaussian_wavefunction(other, grid), 1.0, 1.0)
        with pytest.raises(ModelMismatchError):
            pauli_reconstruct(t_x, t_p, t_e)

    def test_axis_direction_validation(self, grid):
        st = GaussianState.from_position_data(1.0, 0.2, HBAR)
        t_x, t_p, t_e = self.make_tomograms(st, grid)
        with pytest.raises(DomainError):
            pauli_reconstruct(t_p, t_x, t_e)  # swapped axes
        with pytest.raises(DomainError):
            pauli_reconstruct(t_x, t_p, t_p)  # extra not oblique
