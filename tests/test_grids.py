import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symtomo import (
    ConfigError,
    DomainError,
    SampledWavefunction,
    inner_product,
    make_grid,
    scale,
)
import symtomo.grids
from symtomo.grids import (
    SPECTRUM_CACHE_BYTES,
    Grid1D,
    _bluestein_plan,
    _chirp_z_rows,
    _quadratic_phase,
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

    def test_closed_form_to_rounding(self, grid):
        """A chirped Gaussian on 1024 points, at 1000 off-grid points and
        rescaled by 0.7 and 1.4, within 1e-14 of the closed form: the
        phase ramps and the chirp-z chirp are exact at any size (rounded
        at full size they left 1.5e-13 to 3.1e-13)."""
        sxx, sxp = 1.1, -0.3

        def closed_form(x):
            return ((2 * np.pi * sxx) ** -0.25 * np.exp(-x**2 / (4 * sxx))
                    * np.exp(1j * sxp * x**2 / (2 * HBAR * sxx)))

        psi = SampledWavefunction(grid, closed_form(grid.points))
        got = sample_uniform(psi, -10.3, 0.017, 1000)
        assert np.max(np.abs(got - closed_form(-10.3 + 0.017 * np.arange(1000)))) <= 1e-14
        for s in (0.7, 1.4):
            want = np.sqrt(s) * closed_form(s * grid.points)
            assert np.max(np.abs(scale(psi, s).values - want)) <= 1e-14, s

    def test_outside_window_is_zero(self, ground):
        got = sample_uniform(ground, 20.0, 1.0, 5)
        assert np.all(got == 0)

    def test_own_grid_is_a_copy(self, ground):
        g = ground.grid
        got = sample_uniform(ground, g.x_min, g.dx, g.n_points)
        assert np.array_equal(got, ground.values) and got is not ground.values

    @pytest.mark.parametrize("start, step", [(np.nan, 0.1), (np.inf, 0.1), (-5.0, np.nan),
                                             (-5.0, -np.inf)])
    def test_non_finite_points_rejected(self, ground, start, step):
        with pytest.raises(DomainError, match="finite"):
            sample_uniform(ground, start, step, 10)

    def test_negative_count_rejected(self, ground):
        with pytest.raises(DomainError, match="count"):
            sample_uniform(ground, -5.0, 0.1, -3)

    def test_zero_count_is_empty(self, ground):
        got = sample_uniform(ground, -5.0, 0.1, 0)
        assert got.shape == (0,) and got.dtype == np.complex128


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 48), m=st.integers(1, 48), rows=st.integers(1, 4),
       beta=st.floats(-np.pi, np.pi), alpha=st.floats(-np.pi, np.pi),
       center=st.sampled_from([0.0, 1.5, -8.0, 16.0]), per_row=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_bluestein_czt_matches_direct_sum(n, m, rows, beta, alpha, center, per_row, seed):
    """y[r, k] = sum_j x[r, j] exp(1j*(alpha_r + beta_r*k)*(j - center_r)),
    to 1e-12 of sum_j |x[r, j]|, with one beta, alpha and center for all
    rows or one of each per row."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
    if per_row:
        betas, alphas = (v * rng.uniform(-1.0, 1.0, rows) for v in (beta, alpha))
        centers = center * rng.integers(-1, 2, rows)
        got = bluestein_czt(x, m, betas, alphas, centers)
    else:
        betas, alphas, centers = (np.full(rows, v) for v in (beta, alpha, center))
        got = bluestein_czt(x, m, beta, alpha, center)
    j, k = np.arange(n)[:, None], np.arange(m)
    want = np.stack([x[r] @ np.exp(1j * (alphas[r] + betas[r] * k) * (j - centers[r]))
                     for r in range(rows)])
    scale_ = np.abs(x).sum(axis=1, keepdims=True)
    assert got.shape == (rows, m)
    assert np.max(np.abs(got - want) / scale_) <= 1e-12


@pytest.mark.parametrize("beta, alpha, center", [
    (np.nan, 0.0, 0.0), (-np.inf, 0.0, 0.0), (0.1, np.nan, 0.0), (0.1, np.inf, 0.0),
    (0.1, 0.0, np.nan), (0.1, 0.0, -np.inf), (np.array([0.1, np.nan]), 0.0, 0.0),
    (0.1, np.array([0.2, np.inf]), 0.0), (0.1, 0.0, np.array([4.0, np.nan]))])
def test_bluestein_czt_rejects_non_finite_inputs(beta, alpha, center):
    x = np.ones((2, 8), dtype=np.complex128)
    with pytest.raises(DomainError, match="finite"):
        bluestein_czt(x, 5, beta, alpha, center)


def test_bluestein_czt_rejects_negative_count():
    with pytest.raises(DomainError, match="count"):
        bluestein_czt(np.ones(8), -3, 0.1)


def test_bluestein_czt_zero_count_is_empty():
    """No output points: an empty row per input row, also for one beta per
    row; no input points: rows of empty sums, zero."""
    x = np.ones((3, 8), dtype=np.complex128)
    for beta in (0.1, np.array([0.1, 0.2, 0.3])):
        got = bluestein_czt(x, 0, beta, 0.5, 4.0)
        assert got.shape == (3, 0) and got.dtype == np.complex128
        assert np.array_equal(bluestein_czt(x[:, :0], 5, beta, 0.5, 4.0), np.zeros((3, 5)))


PI_40 = Decimal("3.141592653589793238462643383279502884197")
ULP = 2.0**-52


def _reference_phase(a: float, b: float, c: float, m: int) -> complex:
    """exp(1j*(a*m^2 + b*m + c)) in stdlib arithmetic: the exact phase of
    the float coefficients as a Fraction, reduced mod 2*pi with a 40-digit
    pi, then math.cos and math.sin of the reduced phase."""
    phase = Fraction(a) * m * m + Fraction(b) * m + Fraction(c)
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(phase.numerator) / Decimal(phase.denominator)
        reduced = float(x - 2 * PI_40 * (x / (2 * PI_40)).to_integral_value())
    return complex(math.cos(reduced), math.sin(reduced))


@pytest.mark.parametrize("n, m", [(1024, 1024), (1500, 700), (600, 1300)])
def test_bluestein_czt_exact_at_large_phases(n, m):
    """Chirp phases 0.5*beta*j^2 up to 1e4 rad, start angles alpha*j up to
    4e3 rad and index origins center, one of each for all rows or one per
    row: every output within 2 ulps of sum_j |x_j| of the sum whose
    phases (alpha + beta*k)*(j - center) are exact (the stdlib reference
    on the exact coefficients).  Chirps rounded at their full size missed
    by 100 to 350 ulps."""
    rng = np.random.default_rng(n)
    beta = 2e4 / (max(n, m) - 1) ** 2
    x = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    per_row = (np.array([beta, -beta / 3]), np.array([-0.7, 2.9]), np.array([0.0, 1024.0]))
    for coef in ((beta, 0.0, 0.0), (beta, 2.9, 512.0), per_row):
        got = bluestein_czt(x, m, *coef)
        assert got.shape == (2, m)
        for r, (b, a, c) in enumerate(zip(*np.broadcast_arrays(np.zeros(2), *coef)[1:])):
            for k in {0, 1, m - 1, *rng.integers(0, m, 9).tolist()}:
                start = Fraction(a) + Fraction(b) * k
                terms = x[r] * np.array([_reference_phase(0.0, start, -start * Fraction(c), j)
                                         for j in range(n)])
                want = complex(math.fsum(terms.real), math.fsum(terms.imag))
                assert abs(got[r, k] - want) <= 2 * ULP * np.abs(x[r]).sum(), (coef, r, k)


signed_magnitude = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-7.0, 0.2)).map(
    lambda t: t[0] * 10.0 ** t[1])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 4200), a=signed_magnitude, b=st.floats(-4.0, 4.0),
       c=st.one_of(st.just(0.0), signed_magnitude.map(lambda v: 1e4 * v)),
       seed=st.integers(0, 2**32 - 1))
@example(n=1024, a=1.5e-3, b=0.7, c=-128.0, seed=0)   # a 1024-point sweep row
@example(n=4200, a=-1.58, b=-3.1, c=0.0, seed=1)    # phases near 2.8e7
def test_quadratic_phase_matches_exact_reference(n, a, b, c, seed):
    """The phase generator within 8 ulps of 1 of the stdlib reference, over
    the coefficients that sweep rows (|a| ~ 1e-3, |b| ~ 1, |c| ~ 1e2),
    their kernel chirps and Wigner windows (|a| = |beta|/2 up to pi/2)
    produce.  cis of the rounded phase a*m^2 + b*m + c misses by 4e-13 on
    the sweep row below and by 5e-9 on the 4200-point one."""
    got = _quadratic_phase([a], [b], [c], n)
    assert got.shape == (1, n)
    rng = np.random.default_rng(seed)
    for m in {0, n - 1, *rng.integers(0, n, 24).tolist()}:
        assert abs(got[0, m] - _reference_phase(a, b, c, m)) <= 8 * ULP, m


def test_quadratic_phase_rows_are_independent():
    """A row's bits depend only on its own coefficients, not on the rows
    beside it in a call."""
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-2e-3, 2e-3, 9), rng.uniform(-1.0, 1.0, 9)
    c = rng.uniform(-300.0, 300.0, 9)
    both = _quadratic_phase(a, b, c, 1024)
    for r in range(9):
        assert np.array_equal(_quadratic_phase(a[r], b[r], c[r], 1024)[0], both[r])
    assert np.array_equal(_quadratic_phase(a[3:7], b[3:7], c[3:7], 1024), both[3:7])


def _bits(a):
    return np.asarray(a).view(np.uint64)


def _spectrum_of(n, m, b):
    """The kernel spectrum row of beta = b, built with no rows kept."""
    symtomo.grids._SPECTRA.clear()
    row = _bluestein_plan(n, m, np.array([b]))[0]
    symtomo.grids._SPECTRA.clear()
    return row


@pytest.fixture
def spectra():
    """The kept kernel spectra, cleared before and after the test."""
    symtomo.grids._SPECTRA.clear()
    yield symtomo.grids._SPECTRA
    symtomo.grids._SPECTRA.clear()


def test_kept_spectra_are_keyed_by_the_bits_of_beta(spectra):
    """Repeats take one row and -0.0 and 0.0 two, with one row kept
    before the call, and with all of them kept: each row has the bits of
    its own uncached build."""
    n, m, b = 1025, 1024, -0.0123
    beta = np.array([b, -0.0, 0.0, b])
    want = np.stack([_spectrum_of(n, m, v) for v in beta])
    assert np.array_equal(_bits(_bluestein_plan(n, m, b)), _bits(want[0]))
    spectrum = _bluestein_plan(n, m, beta[:, None])
    assert spectrum.shape == (4, 1, 2048)
    assert np.array_equal(_bits(spectrum[:, 0]), _bits(want))
    assert spectra.nbytes == 3 * want[0].nbytes
    for kept in (1, 3):
        spectra.clear()
        _bluestein_plan(n, m, beta[:kept])
        for _ in range(2):
            assert np.array_equal(_bits(_bluestein_plan(n, m, beta)), _bits(want))
            assert spectra.nbytes == 3 * want[0].nbytes


def test_non_finite_beta_is_never_kept(spectra):
    with np.errstate(invalid="ignore"):
        _bluestein_plan(64, 64, np.array([np.nan, np.inf, -np.inf]))
    assert spectra.nbytes == 0


def test_kept_spectra_stay_under_the_cap(spectra):
    """Filled past the cap, the kept rows hold no more bytes than it, the
    least recently used rows are the ones evicted, and an evicted row
    comes back with the bits it had."""
    n = m = 1024
    row_bytes = 2048 * 16
    rows = SPECTRUM_CACHE_BYTES // row_bytes
    betas = 1e-3 * (1.0 + np.arange(rows + 20))
    first = _bluestein_plan(n, m, betas[:30])
    _bluestein_plan(n, m, betas[:10])  # now the most recently used
    _bluestein_plan(n, m, betas[30:])
    assert spectra.nbytes <= SPECTRUM_CACHE_BYTES
    assert spectra.nbytes == rows * row_bytes
    kept = {key[2] for key in spectra._rows}
    assert set(_bits(betas[:10]).tolist()) <= kept
    assert not set(_bits(betas[10:30]).tolist()) & kept
    assert np.array_equal(_bits(_bluestein_plan(n, m, betas[10:30])), _bits(first[10:]))
    assert spectra.nbytes <= SPECTRUM_CACHE_BYTES


@pytest.mark.parametrize("mirror", [0, 1, -1])
def test_chirp_fourier_densities_match_rows(mirror):
    """Each row of a batched call, and each mirror row (chirp -c at
    p*mirror), against an unmirrored one-row call, as densities
    dx^2/(2*pi*hbar)*|y|^2, on an off-lattice grid and a window reaching
    past the dual window at both ends."""
    grid = make_grid(-9.7, 10.3, 128, HBAR)
    rng = np.random.default_rng(3)
    f = np.exp(-(grid.points - 0.4) ** 2 / 3.0 + 1j * rng.uniform(-1, 1) * grid.points)
    c = np.array([0.7, -1.3, 0.05])
    start = np.array([-21.0, -6.0, 2.0])
    step = np.array([0.31, 0.07, -0.13])
    count = 141

    def density(y):
        return grid.dx**2 / (2 * np.pi * HBAR) * np.abs(y) ** 2

    got = density(_chirp_z_rows(f, grid, c, start, step, count, mirror))
    assert got.shape == (3, 2 if mirror else 1, count)
    for r in range(3):
        calls = [(c[r], 1.0)] + ([(-c[r], float(mirror))] if mirror else [])
        for i, (cr, sign) in enumerate(calls):
            want = density(_chirp_z_rows(f, grid, cr, sign * start[r], sign * step[r], count))
            assert np.max(np.abs(got[r, i] - want[0, 0])) <= 1e-14
            assert np.array_equal(got[r, i] == 0.0, want[0, 0] == 0.0)


def test_inner_product_across_grids(ground):
    shifted = hbar_fourier(ground)  # same function, different grid
    val = inner_product(ground, shifted)
    assert abs(val - 1.0) < 1e-9
