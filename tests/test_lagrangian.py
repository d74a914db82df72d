import numpy as np
import pytest
from scipy.linalg import expm

from symtomo import (
    DomainError,
    FramePair,
    is_lagrangian_frame,
    is_symplectic,
    standard_symplectic_form,
)


def random_symplectic(rng, n):
    h = rng.uniform(-1, 1, size=(2 * n, 2 * n))
    h = 0.5 * (h + h.T)
    return expm(standard_symplectic_form(n) @ h)


class TestLagrangianFrame:
    def test_position_hyperplanes(self):
        assert is_lagrangian_frame(FramePair(np.eye(2), np.zeros((2, 2))))

    def test_momentum_hyperplanes(self):
        assert is_lagrangian_frame(FramePair(np.zeros((2, 2)), np.eye(2)))

    def test_nonsymmetric_product_fails(self):
        # oracle: A B^T = [[0, 0], [1, 0]] by direct arithmetic
        a = np.eye(2)
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(a @ b.T, [[0, 0], [1, 0]])
        res = is_lagrangian_frame(FramePair(a, b))
        assert not res
        assert "ABt_symmetry" in res.failures

    def test_rank_deficient_fails(self):
        res = is_lagrangian_frame(FramePair(np.zeros((2, 2)), np.zeros((2, 2))))
        assert not res
        assert "rank" in res.failures

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            FramePair(np.eye(2), np.eye(3))

    def test_left_multiplication_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            s = random_symplectic(rng, n)
            a, b = s[:n, :n], s[:n, n:]
            while True:
                m = rng.normal(size=(n, n))
                if abs(np.linalg.det(m)) > 0.1:
                    break
            assert is_lagrangian_frame(FramePair(a, b))
            assert is_lagrangian_frame(FramePair(m @ a, m @ b))

    def test_alternative_reading_reported(self):
        res = is_lagrangian_frame(FramePair(np.eye(2), np.eye(2)))
        assert "AtB_asymmetry_alternative" in res.residuals


class TestSymplecticNd:
    def test_standard_form_4x4(self):
        assert is_symplectic(standard_symplectic_form(2), 1e-10)

    def test_block_diag_rotations(self):
        th1, th2 = 0.3, 1.1
        r1 = np.array([[np.cos(th1), np.sin(th1)], [-np.sin(th1), np.cos(th1)]])
        r2 = np.array([[np.cos(th2), np.sin(th2)], [-np.sin(th2), np.cos(th2)]])
        s = np.zeros((4, 4))
        # xxpp ordering: rotation acts on (x_i, p_i) pairs
        s[0, 0], s[0, 2] = r1[0, 0], r1[0, 1]
        s[2, 0], s[2, 2] = r1[1, 0], r1[1, 1]
        s[1, 1], s[1, 3] = r2[0, 0], r2[0, 1]
        s[3, 1], s[3, 3] = r2[1, 0], r2[1, 1]
        j = standard_symplectic_form(2)
        assert np.max(np.abs(s @ j @ s.T - j)) < 1e-14  # oracle
        assert is_symplectic(s, 1e-10)

    def test_diag_2211_fails(self):
        assert not is_symplectic(np.diag([2.0, 2.0, 1.0, 1.0]), 1e-10)

    def test_odd_dimension(self):
        with pytest.raises(DomainError):
            is_symplectic(np.eye(3), 1e-10)


class TestOracleAgreement:
    def test_validators_agree_with_sjs_oracle(self):
        rng = np.random.default_rng(7)
        disagreements = 0
        for _ in range(200):
            n = int(rng.integers(1, 4))
            s = random_symplectic(rng, n)
            j = standard_symplectic_form(n)
            oracle = np.max(np.abs(s @ j @ s.T - j)) <= 1e-8
            block = bool(is_symplectic(s, 1e-8))
            frame = bool(is_lagrangian_frame(FramePair(s[:n, :n], s[:n, n:])))
            if not (oracle and block and frame):
                disagreements += 1
        assert disagreements == 0

    def test_perturbed_matrices_rejected_consistently(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            s = random_symplectic(rng, n)
            s[0, 0] += 0.05
            j = standard_symplectic_form(n)
            oracle = np.max(np.abs(s @ j @ s.T - j)) <= 1e-8
            block = bool(is_symplectic(s, 1e-8))
            assert oracle == block
