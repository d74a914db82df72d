import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import HBAR, random_gaussian_state
from wigner_oracle import wigner_reference

from symtomo import (
    ConfigError,
    GaussianState,
    Grid1D,
    SampledWavefunction,
    WignerMap,
    default_momentum_window,
    gaussian_wavefunction,
    make_grid,
    marginals,
    wigner_transform,
)
from symtomo.grids import hbar_fourier, sample_uniform


def test_ground_state_closed_form(ground):
    w = wigner_transform(ground)
    xs, ps = np.meshgrid(w.x_grid.points, w.p_grid.points, indexing="ij")
    want = np.exp(-(xs**2 + ps**2) / HBAR) / (np.pi * HBAR)
    assert np.max(np.abs(w.values - want)) < 1e-7
    assert np.max(np.abs(wigner_reference(ground).imag)) < 1e-10


def test_total_mass(grid):
    rng = np.random.default_rng(11)
    for _ in range(3):
        state = random_gaussian_state(rng)
        w = wigner_transform(gaussian_wavefunction(state, grid))
        assert abs(w.mass() - 1.0) < 1e-8


def test_chirped_gaussian_vs_brute_force_quadrature(grid):
    # oracle: direct 2-d quadrature of the defining integral at scattered
    # points, with the state evaluated analytically at off-grid arguments
    state = GaussianState.from_position_data(1.0, 0.3, HBAR)
    psi = gaussian_wavefunction(state, grid)
    w = wigner_transform(psi)

    def psi_exact(x):
        return (2 * np.pi * state.sigma_xx) ** (-0.25) * np.exp(
            -x**2 / (4 * state.sigma_xx)
            + 1j * state.sigma_xp * x**2 / (2 * HBAR * state.sigma_xx))

    y = np.linspace(-24, 24, 6001)
    dy = y[1] - y[0]
    rng = np.random.default_rng(5)
    for _ in range(25):
        i = int(rng.integers(300, 724))
        j = int(rng.integers(300, 724))
        x0, p0 = w.x_grid.points[i], w.p_grid.points[j]
        kernel = psi_exact(x0 + y / 2) * np.conj(psi_exact(x0 - y / 2))
        val = (dy / (2 * np.pi * HBAR)) * np.sum(np.exp(-1j * p0 * y / HBAR) * kernel)
        assert abs(w.values[i, j] - val.real) < 1e-6
        assert abs(val.imag) < 1e-9


def test_marginals_ground_state(ground):
    w = wigner_transform(ground)
    pos, mom = marginals(w)
    want_x = (np.pi * HBAR) ** (-0.5) * np.exp(-w.x_grid.points**2 / HBAR)
    want_p = (np.pi * HBAR) ** (-0.5) * np.exp(-w.p_grid.points**2 / HBAR)
    assert np.max(np.abs(pos - want_x)) < 1e-7
    assert np.max(np.abs(mom - want_p)) < 1e-7


def test_marginals_against_state(grid):
    state = GaussianState.from_position_data(1.0, 0.5, HBAR)
    psi = gaussian_wavefunction(state, grid)
    w = wigner_transform(psi)
    pos, mom = marginals(w)
    assert np.max(np.abs(pos - psi.probability_density())) < 1e-7
    # position marginal of this state is N(0, 1)
    want = (2 * np.pi) ** (-0.5) * np.exp(-w.x_grid.points**2 / 2)
    assert np.max(np.abs(pos - want)) < 1e-7
    # momentum density from the Fourier route, on the Wigner momentum window
    ft = hbar_fourier(psi)
    ft_vals = sample_uniform(ft, w.p_grid.x_min, w.p_grid.dx, w.p_grid.n_points)
    assert np.max(np.abs(mom - np.abs(ft_vals) ** 2)) < 1e-7


def test_momentum_variance_saturation(grid):
    # sigma_pp = (hbar^2/4 + sigma_xp^2) / sigma_xx = 0.5 for this state
    state = GaussianState.from_position_data(1.0, 0.5, HBAR)
    psi = gaussian_wavefunction(state, grid)
    _, mom = marginals(wigner_transform(psi))
    p = wigner_transform(psi).p_grid.points
    var = np.sum(p**2 * mom) / np.sum(mom)
    assert abs(var - 0.5) < 1e-7
    assert abs(var - state.sigma_pp) < 1e-7


def test_parity_covariance(grid):
    rng = np.random.default_rng(2)
    decay = np.exp(-0.3 * grid.points**2)
    vals = decay * (rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points))
    psi = SampledWavefunction(grid, vals).normalize()
    flipped = SampledWavefunction(grid, np.roll(psi.values[::-1], 1))
    w = wigner_transform(psi).values
    wf = wigner_transform(flipped).values
    # W(-x, -p): reverse both axes; index 0 has no mirror partner on an
    # FFT-convention grid, so compare the interior block
    assert np.max(np.abs(wf[1:, 1:] - w[1:, 1:][::-1, ::-1])) < 1e-10


def test_reality_for_generic_state(grid):
    rng = np.random.default_rng(9)
    decay = np.exp(-0.25 * grid.points**2)
    vals = decay * (rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points))
    psi = SampledWavefunction(grid, vals).normalize()
    # The per-row transform is real to rounding: the premise on which the
    # library carries two rows through one complex transform.
    assert np.max(np.abs(wigner_reference(psi).imag)) < 1e-10


def test_edge_decay_warning():
    g = make_grid(-3, 3, 128, HBAR)
    psi = SampledWavefunction(g, np.exp(-g.points**2 / 4))
    w = wigner_transform(psi)
    assert w.accuracy_warning
    ok = wigner_transform(gaussian_wavefunction(GaussianState.ground_state(HBAR),
                                                make_grid(-16, 16, 1024, HBAR)))
    assert not ok.accuracy_warning


def test_window_past_the_alias_free_band_flagged():
    # |p| <= pi*hbar/(2*dx) = pi here; the square window reaches 16 and
    # folds periodic replicas into the map (mass 5).
    grid = make_grid(-16, 16, 64, HBAR)
    psi = gaussian_wavefunction(GaussianState.ground_state(HBAR), grid)
    assert psi.edge_decay() < 1e-12
    w = wigner_transform(psi, p_grid=grid)
    assert abs(w.mass() - 5.0) < 1e-3
    assert w.accuracy_warning
    # The default window ends exactly on the band edge.
    assert not wigner_transform(psi).accuracy_warning
    inside = make_grid(-np.pi, np.pi, 64, HBAR)
    assert not wigner_transform(psi, p_grid=inside).accuracy_warning


def _wigner_scipy_czt(psi, p_grid):
    """The map as computed with ``scipy.signal.czt`` before the library
    had its own Bluestein transform."""
    from scipy.signal import czt

    from symtomo.wigner import _autocorrelation

    g = psi.grid
    n, dx, hbar = g.n_points, g.dx, g.hbar
    pre = np.exp(-2j * p_grid.x_min * np.arange(n) * dx / hbar)
    w = czt(_autocorrelation(psi.values) * pre[None, :], m=p_grid.n_points,
            w=np.exp(-2j * p_grid.dx * dx / hbar), a=1.0 + 0.0j, axis=1)
    post = np.exp(1j * p_grid.points * n * dx / hbar)
    return (w * post[None, :] * (dx / (np.pi * hbar))).real


@pytest.mark.parametrize("window", ["default", "square"])
def test_matches_scipy_czt_map(grid, window):
    psi = gaussian_wavefunction(GaussianState.from_position_data(1.3, -0.4, HBAR), grid)
    w = wigner_transform(psi, p_grid=None if window == "default" else grid)
    assert np.max(np.abs(w.values - _wigner_scipy_czt(psi, w.p_grid))) <= 1e-10


def _autocorrelation_by_index(values):
    """The autocorrelation gathered by fancy indexing, as the library built
    it before it used strided windows."""
    n = len(values)
    j = np.arange(n)
    off = j[None, :] - n // 2
    idx1 = j[:, None] + off
    idx2 = j[:, None] - off
    ok = (idx1 >= 0) & (idx1 < n) & (idx2 >= 0) & (idx2 < n)
    return np.where(
        ok, values[idx1.clip(0, n - 1)] * np.conj(values[idx2.clip(0, n - 1)]), 0.0
    )


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_autocorrelation_matches_index_gather(n):
    from symtomo.wigner import _autocorrelation

    rng = np.random.default_rng(n)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.array_equal(_autocorrelation(values), _autocorrelation_by_index(values))
    for odd in (values[:-1], values[:-3]):
        assert np.array_equal(_autocorrelation(odd), _autocorrelation_by_index(odd))


def _wigner_bluestein(psi, p_grid):
    """The map with every window evaluated by ``bluestein_czt``."""
    from symtomo.grids import bluestein_czt
    from symtomo.wigner import _autocorrelation

    g = psi.grid
    n, dx, hbar = g.n_points, g.dx, g.hbar
    pre = np.exp(-2j * p_grid.x_min * np.arange(n) * dx / hbar)
    w = bluestein_czt(_autocorrelation(psi.values) * pre, p_grid.n_points,
                      -2.0 * p_grid.dx * dx / hbar)
    post = np.exp(1j * p_grid.points * n * dx / hbar)
    return (w * post * (dx / (np.pi * hbar))).real


@pytest.mark.parametrize("n", [64, 1024])
def test_default_window_fft_matches_bluestein(n, monkeypatch):
    import symtomo.wigner

    g = make_grid(-16.0, 16.0, n, HBAR)
    psi = gaussian_wavefunction(GaussianState.from_position_data(1.3, -0.4, HBAR), g)
    want = _wigner_bluestein(psi, default_momentum_window(g))

    def no_czt(*args):
        raise AssertionError("the default window must not need a chirp-z transform")

    monkeypatch.setattr(symtomo.wigner, "bluestein_czt", no_czt)
    w = wigner_transform(psi)
    assert np.max(np.abs(w.values - want)) <= 1e-12


def _assert_matches_oracle(psi, p_grid):
    """The packed map equals the real part of the per-row oracle to 1e-13
    of the state's peak |W| (taken over the alias-free band), and carries
    the flag of the edge-decay and band rules."""
    peak = np.max(np.abs(wigner_reference(psi).real))
    want = wigner_reference(psi, p_grid)
    w = wigner_transform(psi, p_grid)
    assert np.max(np.abs(w.values - want.real)) <= 1e-13 * peak
    band = np.pi * HBAR / (2.0 * psi.grid.dx)
    reach = max(-w.p_grid.x_min, w.p_grid.x_max - w.p_grid.dx)
    assert w.accuracy_warning == (psi.edge_decay() > 1e-12 or reach > band * (1.0 + 1e-12))
    return w


def _window(grid, kind):
    band = np.pi * HBAR / (2.0 * grid.dx)
    m = max(8, grid.n_points // 2)
    return {
        "default": None,
        "square": grid,
        "narrow": Grid1D(-0.35 * band, m, 0.9 * band / m, HBAR),
        "past": make_grid(-4.0 * grid.x_max, 4.0 * grid.x_max, grid.n_points, HBAR),
    }[kind]


@pytest.mark.parametrize("kind", ["default", "square", "narrow", "past"])
@pytest.mark.parametrize("n, half_width", [(8, 8.0), (64, 16.0), (1024, 16.0)])
def test_packed_rows_match_per_row_oracle(n, half_width, kind):
    grid = make_grid(-half_width, half_width, n, HBAR)
    psi = gaussian_wavefunction(GaussianState.from_position_data(1.3, -0.4, HBAR), grid)
    w = _assert_matches_oracle(psi, _window(grid, kind))
    if kind == "past":
        assert w.accuracy_warning


@pytest.mark.parametrize("kind", ["default", "square", "narrow", "past"])
@pytest.mark.parametrize("n", [8, 64])
def test_packed_rows_match_oracle_on_undecayed_state(n, kind):
    # Random complex samples up to the grid edge.  At n = 1024 the oracle's
    # own real part is off an extended-precision sum by ~1e-13 of this
    # flat map's small peak, so the comparison stops at n = 64.
    grid = make_grid(-8.0, 8.0, n, HBAR)
    rng = np.random.default_rng(n)
    psi = SampledWavefunction(grid, rng.normal(size=n) + 1j * rng.normal(size=n)).normalize()
    assert psi.edge_decay() > 1e-12
    assert _assert_matches_oracle(psi, _window(grid, kind)).accuracy_warning


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log2_m=st.integers(3, 8),
       lo=st.floats(-1.0, 0.95), span=st.floats(0.01, 1.0))
@example(seed=3, log2_m=3, lo=-1.0, span=1.0)
def test_packed_rows_match_oracle_on_random_windows(seed, log2_m, lo, span):
    # Any window inside the alias-free band, on the Gaussian envelope of
    # the library's random states.  The example is a coarse window, 8
    # points across the band, whose Bluestein chirp phases 0.5*beta*j**2
    # reach 2.5e4 rad.
    grid = make_grid(-16.0, 16.0, 256, HBAR)
    psi = gaussian_wavefunction(random_gaussian_state(np.random.default_rng(seed)), grid)
    band = np.pi * HBAR / (2.0 * grid.dx)
    m = 2**log2_m
    window = Grid1D(lo * band, m, span * (1.0 - lo) * band / m, HBAR)
    assert not _assert_matches_oracle(psi, window).accuracy_warning


def _edge_decay_by_abs(values):
    """The edge decay as computed from |W| of the whole map."""
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return 0.0
    border = max(np.max(np.abs(values[0, :])), np.max(np.abs(values[-1, :])),
                 np.max(np.abs(values[:, 0])), np.max(np.abs(values[:, -1])))
    return float(border / peak)


@pytest.mark.parametrize("kind", ["signed", "negative", "zero"])
def test_edge_decay_matches_abs_formula(kind):
    grid = make_grid(-4.0, 4.0, 16, HBAR)
    rng = np.random.default_rng(7)
    values = {"signed": rng.normal(size=(16, 16)),
              "negative": -rng.uniform(0.1, 2.0, size=(16, 16)),
              "zero": np.zeros((16, 16))}[kind]
    got = WignerMap(grid, grid, values, HBAR).edge_decay()
    assert got == _edge_decay_by_abs(values)
    if kind == "zero":
        assert got == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected(bad):
    grid = make_grid(-4.0, 4.0, 8, HBAR)
    values = np.zeros((8, 8))
    values[3, 5] = bad
    with pytest.raises(ConfigError, match="finite"):
        WignerMap(grid, grid, values, HBAR)


def test_caller_array_is_copied():
    grid = make_grid(-4.0, 4.0, 8, HBAR)
    values = np.random.default_rng(2).normal(size=(8, 8))
    keep = values.copy()
    w = WignerMap(grid, grid, values, HBAR)
    values[2, 3] = 99.0
    assert np.array_equal(w.values, keep)
    assert not w.values.flags.writeable
    # a read-only view of a writable array is copied as well
    view = values.view()
    view.setflags(write=False)
    w = WignerMap(grid, grid, view, HBAR)
    values[4, 1] = -99.0
    assert w.values[4, 1] != -99.0


def test_transform_hands_over_its_own_array(ground):
    w = wigner_transform(ground)
    assert not w.values.flags.writeable and w.values.flags.owndata
    again = WignerMap(w.x_grid, w.p_grid, w.values, w.hbar)
    assert again.values is w.values
