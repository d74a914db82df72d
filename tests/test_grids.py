import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtomo import (
    ConfigError,
    DomainError,
    SampledWavefunction,
    inner_product,
    make_grid,
    scale,
)
from symtomo.grids import (
    Grid1D,
    _trig_resample,
    bluestein_czt,
    chirp_multiply,
    hbar_fourier,
    sample_uniform,
)

HBAR = 1.0


def phi0(x, hbar=HBAR):
    return (np.pi * hbar) ** (-0.25) * np.exp(-x**2 / (2 * hbar))


class TestMakeGrid:
    def test_dx(self):
        g = make_grid(-16, 16, 1024, 1.0)
        assert g.dx == 0.03125
        assert g.x_max == 16.0

    def test_dual_spacing(self):
        g = make_grid(-16, 16, 1024, 1.0)
        assert np.isclose(g.dp, 2 * np.pi / (1024 * 0.03125), rtol=1e-15)
        assert np.isclose(g.dp, 0.19635, atol=1e-5)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            make_grid(0, 1, 100, 1.0)

    def test_rejects_small_and_bad_params(self):
        with pytest.raises(ConfigError):
            make_grid(0, 1, 4, 1.0)
        with pytest.raises(ConfigError):
            make_grid(1, 0, 16, 1.0)
        with pytest.raises(ConfigError):
            make_grid(0, 1, 16, -1.0)

    @pytest.mark.parametrize("field", ["x_min", "dx", "hbar"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, bad):
        args = {"x_min": -1.0, "n_points": 16, "dx": 0.125, "hbar": 1.0, field: bad}
        with pytest.raises(ConfigError, match="finite"):
            Grid1D(**args)

    def test_momentum_grid_centered(self):
        g = make_grid(-16, 16, 1024, 1.0)
        dual = g.momentum_grid()
        assert np.isclose(dual.x_min, -0.5 * 1024 * g.dp)
        assert dual.points[512] == 0.0


class TestWavefunction:
    def test_normalize(self, grid):
        psi = SampledWavefunction(grid, np.exp(-grid.points**2))
        n = psi.normalize()
        assert abs(n.norm() - 1.0) < 1e-12

    def test_values_immutable(self, ground):
        with pytest.raises(ValueError):
            ground.values[0] = 1.0

    def test_shape_mismatch(self, grid):
        with pytest.raises(ConfigError):
            SampledWavefunction(grid, np.zeros(10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_samples(self, grid, bad):
        values = np.exp(-grid.points**2).astype(np.complex128)
        values[100] = bad
        with pytest.raises(ConfigError, match="finite"):
            SampledWavefunction(grid, values)


class TestHbarFourier:
    def test_gaussian_fixed_point(self, ground):
        out = hbar_fourier(ground)
        assert np.max(np.abs(out.values - phi0(out.grid.points))) < 1e-10

    def test_unitarity(self, grid):
        rng = np.random.default_rng(3)
        vals = np.exp(-0.4 * grid.points**2) * (
            rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points))
        psi = SampledWavefunction(grid, vals).normalize()
        assert abs(hbar_fourier(psi).norm() - 1.0) < 1e-10

    def test_round_trip(self, grid):
        psi = SampledWavefunction(
            grid, np.exp(-(0.3 + 0.2j) * grid.points**2 + 0.1 * grid.points))
        back = hbar_fourier(hbar_fourier(psi, "forward"), "inverse")
        assert back.grid.close_to(grid)
        assert np.max(np.abs(back.values - psi.values)) < 1e-10

    def test_against_direct_quadrature(self, grid):
        # oracle: Riemann sum of the kernel integral on an independent,
        # twice-as-fine, twice-as-wide sampling of the same function
        a, b = 0.25, 1.0 / 3.0
        psi = SampledWavefunction(grid, np.exp(-(a + 1j * b) * grid.points**2 / HBAR))
        out = hbar_fourier(psi)
        xf = -32.0 + (64.0 / 8192) * np.arange(8192)
        fine = np.exp(-(a + 1j * b) * xf**2 / HBAR)
        kernel = np.exp(-1j * np.outer(out.grid.points, xf) / HBAR)
        oracle = (64.0 / 8192 / np.sqrt(2 * np.pi * HBAR)) * kernel @ fine
        assert np.max(np.abs(out.values - oracle)) < 1e-8

    def test_bad_direction(self, ground):
        with pytest.raises(DomainError):
            hbar_fourier(ground, "sideways")


class TestChirp:
    def test_zero_is_identity(self, ground):
        out = chirp_multiply(ground, 0.0)
        assert np.array_equal(out.values, ground.values)

    def test_unimodular(self, ground):
        out = chirp_multiply(ground, 2.7)
        diff = np.abs(out.values) - np.abs(ground.values)
        assert np.max(np.abs(diff)) <= 1e-15 * np.max(np.abs(ground.values))

    def test_pointwise_value(self, ground):
        out = chirp_multiply(ground, 1.0)
        j = np.argmin(np.abs(ground.grid.points - 1.0))
        assert ground.grid.points[j] == 1.0
        ratio = out.values[j] / ground.values[j]
        assert abs(ratio - np.exp(0.5j)) < 1e-14


class TestScale:
    def test_identity(self, ground):
        out = scale(ground, 1.0)
        assert np.max(np.abs(out.values - ground.values)) < 1e-10

    def test_closed_form(self, ground):
        out = scale(ground, 2.0)
        want = np.sqrt(2) * phi0(2 * ground.grid.points)
        assert np.max(np.abs(out.values - want)) < 1e-10
        assert abs(out.norm() - 1.0) < 1e-8

    def test_parity(self, grid):
        psi = SampledWavefunction(
            grid, np.exp(-(grid.points - 1.0) ** 2)).normalize()
        out = scale(psi, -1.0)
        assert abs(out.norm() - 1.0) < 1e-8
        want = np.exp(-(-grid.points - 1.0) ** 2)
        want = want / np.sqrt(grid.dx * np.sum(want**2))
        assert np.max(np.abs(out.values - want)) < 1e-9

    def test_zero_rejected(self, ground):
        with pytest.raises(DomainError):
            scale(ground, 0.0)


class TestSampleUniform:
    def test_matches_analytic_at_offgrid_points(self, grid):
        psi = SampledWavefunction(
            grid, np.exp(-(0.3 - 0.2j) * grid.points**2 + 0.05 * grid.points))
        got = sample_uniform(psi, -5.03, 0.0171, 600)
        pts = -5.03 + 0.0171 * np.arange(600)
        want = np.exp(-(0.3 - 0.2j) * pts**2 + 0.05 * pts)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_outside_window_is_zero(self, ground):
        got = sample_uniform(ground, 20.0, 1.0, 5)
        assert np.all(got == 0)

    def test_own_grid_is_a_copy(self, ground):
        g = ground.grid
        got = sample_uniform(ground, g.x_min, g.dx, g.n_points)
        assert np.array_equal(got, ground.values) and got is not ground.values

    def test_rows_match_one_row_calls(self, grid):
        rng = np.random.default_rng(5)
        rows = np.exp(-(grid.points[None, :] - rng.uniform(-2, 2, (3, 1))) ** 2)
        start = np.array([grid.x_min, -3.0, 1.5])
        step = np.array([grid.dx, 0.02, -0.01])
        n = grid.n_points
        got = _trig_resample(rows, grid.x_min, grid.dx, start, step, n)
        for r in range(3):
            one = _trig_resample(rows[r], grid.x_min, grid.dx, start[r], step[r], n)
            assert np.max(np.abs(got[r] - one)) <= 1e-15
        assert np.array_equal(got[0], rows[0])  # its own grid: copied


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 48), m=st.integers(1, 48), rows=st.integers(1, 4),
       beta=st.floats(-np.pi, np.pi), per_row=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_bluestein_czt_matches_direct_sum(n, m, rows, beta, per_row, seed):
    """y[r, k] = sum_j x[r, j] exp(1j*beta_r*j*k), to 1e-12 of sum_j |x[r, j]|."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
    betas = beta * rng.uniform(-1.0, 1.0, rows) if per_row else np.full(rows, beta)
    got = bluestein_czt(x, m, betas if per_row else beta)
    jk = np.outer(np.arange(n), np.arange(m))
    want = np.stack([x[r] @ np.exp(1j * betas[r] * jk) for r in range(rows)])
    scale_ = np.abs(x).sum(axis=1, keepdims=True)
    assert got.shape == (rows, m)
    assert np.max(np.abs(got - want) / scale_) <= 1e-12


def test_inner_product_across_grids(ground):
    shifted = hbar_fourier(ground)  # same function, different grid
    val = inner_product(ground, shifted)
    assert abs(val - 1.0) < 1e-9
