import numpy as np
import pytest

from conftest import (
    random_direction,
    random_free_pair,
    random_free_symplectic,
    random_gaussian_state,
)

from symtomo import (
    DomainError,
    FreeSymplectic,
    NotFreeError,
    RotationParams,
    UnsupportedOperation,
    gaussian_wavefunction,
    gaussian_wigner_at,
    inner_product,
    is_symplectic,
    metaplectic_rotation,
    quadratic_fourier,
    rotation_from_mu_nu,
    standard_symplectic_form,
    wigner_transform,
)
from symtomo.grids import hbar_fourier, sample_uniform
from symtomo.metaplectic import matrix_from_generating_form, rotation_form

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestIsSymplectic:
    def test_standard_form(self):
        assert is_symplectic(J2, 1e-12)

    def test_identity(self):
        assert is_symplectic(np.eye(2), 1e-12)

    def test_diag_2_1_fails(self):
        res = is_symplectic(np.diag([2.0, 1.0]), 1e-12)
        assert not res
        assert "AtD_CtB_identity" in res.failures

    def test_odd_dimension_rejected(self):
        with pytest.raises(DomainError):
            is_symplectic(np.eye(3), 1e-12)

    def test_agrees_with_sjs_oracle(self):
        rng = np.random.default_rng(0)
        from scipy.linalg import expm

        for _ in range(50):
            h = rng.uniform(-1, 1, size=(2, 2))
            s = expm(J2 @ (h + h.T) / 2)
            assert np.max(np.abs(s @ J2 @ s.T - J2)) < 1e-10
            assert is_symplectic(s, 1e-10)
            assert not is_symplectic(s + 0.01 * np.array([[1, 0], [0, 0]]), 1e-6)


class TestRotationMatrix:
    def test_identity(self):
        assert np.allclose(rotation_from_mu_nu(1, 0).matrix, np.eye(2))

    def test_quarter_turn(self):
        assert np.allclose(rotation_from_mu_nu(0, 1).matrix, J2)

    def test_three_four_five(self):
        m = rotation_from_mu_nu(3, 4).matrix
        assert np.allclose(m, [[0.6, 0.8], [-0.8, 0.6]])
        assert np.allclose(m @ m.T, np.eye(2), atol=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            rotation_from_mu_nu(0, 0)
        with pytest.raises(DomainError):
            RotationParams(0.0, 0.0)


class TestGeneratingForm:
    def test_quarter_turn_coefficients(self):
        fs = FreeSymplectic.from_matrix(J2)
        P, L, Q = fs.P, fs.L, fs.Q
        assert P[0, 0] == 0.0 and L[0, 0] == 1.0 and Q[0, 0] == 0.0

    def test_rotation_coefficients_match_phase(self):
        mu, nu = 1.0, 2.0
        lam = np.hypot(mu, nu)
        fs = FreeSymplectic.from_matrix(rotation_from_mu_nu(mu, nu))
        P, L, Q = fs.P, fs.L, fs.Q
        assert np.isclose(P[0, 0], mu / nu)
        assert np.isclose(L[0, 0], lam / nu)
        assert np.isclose(Q[0, 0], mu / nu)

    def test_not_free(self):
        with pytest.raises(NotFreeError):
            FreeSymplectic.from_matrix(np.eye(2))

    @pytest.mark.parametrize("s", [5e-13, -5e-13, 2e-12, -2e-12])
    def test_det_b_threshold_shared_with_closed_form(self, s):
        # rotation_from_mu_nu(1, s) has B = s exactly (lambda rounds to 1)
        if abs(s) < 1e-12:
            with pytest.raises(NotFreeError):
                FreeSymplectic.from_matrix(rotation_from_mu_nu(1.0, s))
            with pytest.raises(NotFreeError):
                rotation_form(1.0, s)
        else:
            fs = FreeSymplectic.from_matrix(rotation_from_mu_nu(1.0, s))
            assert rotation_form(1.0, s)[1][0] == fs.L[0, 0]

    @pytest.mark.parametrize("defect, ok", [(0.5e-10, True), (2e-10, False)])
    def test_symplectic_threshold(self, defect, ok):
        # a rotation scaled so that A^T D - C^T B - 1 equals ``defect``
        m = np.sqrt(1.0 + defect) * rotation_from_mu_nu(1.0, 1.0).matrix
        assert bool(is_symplectic(m, 1e-10)) is ok
        if ok:
            FreeSymplectic.from_matrix(m)
        else:
            with pytest.raises(DomainError, match="not symplectic"):
                FreeSymplectic.from_matrix(m)

    @pytest.mark.parametrize("mu, nu", [(5e-324, 5e-324), (np.nan, 1.0)])
    def test_symplectic_check_shared_with_closed_form(self, mu, nu):
        # The closed form normalizes (mu, nu), so only a direction whose
        # normalization fails (a subnormal length, a non-finite entry)
        # reaches its symplectic check; the matrix route rejects it too.
        with pytest.raises(DomainError, match="not symplectic"):
            rotation_form(mu, nu)
        with pytest.raises(DomainError, match="not symplectic"):
            FreeSymplectic.from_matrix(rotation_from_mu_nu(mu, nu))

    def test_closed_form_rotation_data_matches_matrix_route(self):
        rng = np.random.default_rng(8)
        theta = np.r_[rng.uniform(-np.pi, np.pi, 40), 0.5 * np.pi, -0.5 * np.pi, np.pi / 4]
        lam = rng.uniform(0.3, 3.0, len(theta))
        mu, nu = lam * np.cos(theta), lam * np.sin(theta)
        P, L, Q, maslov = rotation_form(mu, nu)
        for k in range(len(theta)):
            fs = FreeSymplectic.from_matrix(rotation_from_mu_nu(mu[k], nu[k]))
            assert np.allclose([P[k], L[k], Q[k]], [fs.P[0, 0], fs.L[0, 0], fs.Q[0, 0]],
                               rtol=1e-14, atol=1e-14)
            assert maslov[k] == fs.maslov_index
        with pytest.raises(NotFreeError):
            rotation_form([1.0, 0.5], [0.3, 0.0])

    def test_gradient_relations_reconstruct_matrix(self):
        # oracle: push random (x', p') through the gradient relations
        # p = P x - L x', p' = L x - Q x' and compare with the matrix action
        rng = np.random.default_rng(4)
        cov = np.diag([1.0, 0.25])
        for _ in range(20):
            fs = random_free_symplectic(rng, cov)
            P, L, Q = (float(m[0, 0]) for m in (fs.P, fs.L, fs.Q))
            for _ in range(5):
                xp, pp = rng.normal(size=2)
                x = (pp + Q * xp) / L
                p = P * x - L * xp
                got = fs.base.matrix @ np.array([xp, pp])
                assert np.max(np.abs(got - np.array([x, p]))) < 1e-10

    def test_projection_round_trip(self):
        rng = np.random.default_rng(6)
        cov = np.diag([1.0, 0.25])
        for _ in range(20):
            fs = random_free_symplectic(rng, cov)
            rebuilt = matrix_from_generating_form(fs.P, fs.L, fs.Q)
            assert np.max(np.abs(rebuilt.matrix - fs.base.matrix)) < 1e-10

    def test_symmetry_forced(self):
        rng = np.random.default_rng(8)
        fs = random_free_symplectic(rng, np.eye(2) * 0.5)
        P, Q = fs.P, fs.Q
        assert np.max(np.abs(P - P.T)) < 1e-12
        assert np.max(np.abs(Q - Q.T)) < 1e-12


class TestQuadraticFourier:
    def test_quarter_turn_is_phased_fourier(self, ground):
        fs = FreeSymplectic.from_matrix(J2)
        got = quadratic_fourier(ground, fs)
        want = hbar_fourier(ground)
        direct = sample_uniform(want, got.grid.x_min, got.grid.dx, got.grid.n_points)
        assert np.max(np.abs(got.values - np.exp(-1j * np.pi / 4) * direct)) < 1e-9

    def test_ground_state_eigenfunction(self, ground):
        fs = FreeSymplectic.from_matrix(J2)
        got = quadratic_fourier(ground, fs)
        assert np.max(np.abs(np.abs(got.values) - np.abs(ground.values))) < 1e-9

    def test_unitarity_random_free(self, grid):
        rng = np.random.default_rng(12)
        state = random_gaussian_state(rng)
        psi = gaussian_wavefunction(state, grid)
        for _ in range(10):
            fs = random_free_symplectic(rng, state.covariance_matrix)
            out = quadratic_fourier(psi, fs)
            assert abs(out.norm() - 1.0) < 1e-8

    def test_wigner_covariance_random_free(self, grid):
        # oracle: the closed-form Gaussian Wigner map with covariance S cov S^T
        rng = np.random.default_rng(13)
        state = random_gaussian_state(rng)
        psi = gaussian_wavefunction(state, grid)
        for _ in range(3):
            fs = random_free_symplectic(rng, state.covariance_matrix)
            out = quadratic_fourier(psi, fs)
            w = wigner_transform(out)
            xs, ps = np.meshgrid(w.x_grid.points, w.p_grid.points, indexing="ij")
            ref = gaussian_wigner_at(state.rotated(fs.base.matrix), xs, ps)
            assert np.max(np.abs(w.values - ref)) < 1e-6

    def test_n2_unsupported(self, ground):
        from scipy.linalg import expm

        h = np.eye(4) * 0.3
        s4 = expm(standard_symplectic_form(2) @ h)
        fs = FreeSymplectic.from_matrix(s4)
        with pytest.raises(UnsupportedOperation):
            quadratic_fourier(ground, fs)


class TestMetaplecticRotation:
    def test_identity_direction(self, ground):
        out = metaplectic_rotation(ground, RotationParams(1.0, 0.0))
        assert np.max(np.abs(out.probability_density() - ground.probability_density())) == 0.0

    def test_quarter_turn_gives_momentum_density(self, grid):
        rng = np.random.default_rng(14)
        state = random_gaussian_state(rng)
        psi = gaussian_wavefunction(state, grid)
        out = metaplectic_rotation(psi, RotationParams(0.0, 1.0))
        ft = hbar_fourier(psi)
        ft_vals = sample_uniform(ft, out.grid.x_min, out.grid.dx, out.grid.n_points)
        assert np.max(np.abs(out.probability_density() - np.abs(ft_vals) ** 2)) < 1e-9

    def test_parity_direction(self, grid):
        psi = gaussian_wavefunction(random_gaussian_state(np.random.default_rng(15)), grid)
        out = metaplectic_rotation(psi, RotationParams(-2.0, 0.0))
        assert abs(out.norm() - 1.0) < 1e-10
        got = out.probability_density()
        want = np.roll(psi.probability_density()[::-1], 1)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_ground_state_rotation_invariance(self, ground):
        out = metaplectic_rotation(ground, RotationParams(1.0, 1.0))
        assert np.max(np.abs(out.probability_density() - ground.probability_density())) < 1e-9

    def test_unitary_across_branches(self, grid):
        psi = gaussian_wavefunction(random_gaussian_state(np.random.default_rng(16)), grid)
        for mu, nu in [(1, 1), (1, -1), (-1, 1), (2, 0.3), (-2, 0.3), (2, -0.3), (0.3, 2)]:
            out = metaplectic_rotation(psi, RotationParams(mu, nu))
            assert abs(out.norm() - 1.0) < 1e-8, (mu, nu)

    def test_small_nu_branch_matches_direct(self, grid):
        # reduced composition vs direct factorization, compared projectively
        psi = gaussian_wavefunction(random_gaussian_state(np.random.default_rng(17)), grid)
        for mu, nu in [(1.0, 0.5), (-1.0, 0.5), (1.0, -0.5)]:
            composed = metaplectic_rotation(psi, RotationParams(mu, nu))
            direct = quadratic_fourier(
                psi, FreeSymplectic.from_matrix(rotation_from_mu_nu(mu, nu)))
            overlap = inner_product(direct, composed)
            assert abs(abs(overlap) - 1.0) < 1e-8, (mu, nu)


class TestComposition:
    def test_projective_group_law(self, grid):
        rng = np.random.default_rng(18)
        state = random_gaussian_state(rng)
        psi = gaussian_wavefunction(state, grid)
        for _ in range(8):
            s1, s2 = random_free_pair(rng, state.covariance_matrix)
            direct = quadratic_fourier(
                psi, FreeSymplectic.from_matrix(s1.base.matrix @ s2.base.matrix))
            composed = quadratic_fourier(quadratic_fourier(psi, s2), s1)
            assert abs(composed.norm() - 1.0) < 1e-8
            assert abs(abs(inner_product(direct, composed)) - 1.0) < 1e-7

    def test_rotation_covariance_random_angles(self, grid):
        rng = np.random.default_rng(19)
        state = random_gaussian_state(rng)
        psi = gaussian_wavefunction(state, grid)
        for _ in range(5):
            mu, nu = random_direction(rng, min_angle=0.0)
            out = metaplectic_rotation(psi, RotationParams(mu, nu))
            w = wigner_transform(out)
            u = rotation_from_mu_nu(mu, nu).matrix
            xs, ps = np.meshgrid(w.x_grid.points, w.p_grid.points, indexing="ij")
            ref = gaussian_wigner_at(state.rotated(u), xs, ps)
            assert np.max(np.abs(w.values - ref)) < 1e-6
