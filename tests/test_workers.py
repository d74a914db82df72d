"""The block workers of the forward and phase-space kernels: neither the
worker count nor the kept Bluestein kernel spectra (cleared, kept or
evicted) change a sweep, a Wigner map, a line integral, a chirp-z
transform or a filtered back-projection, and a failing block stops every
worker and reaches the caller once."""

import sys
import threading
import time

import numpy as np
import pytest
from conftest import HBAR

import symtomo.grids
from symtomo import (
    GaussianState,
    Grid1D,
    compute_tomogram_set,
    gaussian_wavefunction,
    inverse_radon,
    make_grid,
    radon_line_integral,
    wigner_transform,
)
from symtomo.grids import (
    SPECTRUM_CACHE_BYTES,
    _bluestein_plan,
    _run_blocks,
    bluestein_czt,
    sample_uniform,
)

# One worker, two, more than the blocks of a short stage, and eight that
# switch every microsecond.
COUNTS = (1, 2, 5, 8)


@pytest.fixture
def usable_cpus(monkeypatch):
    """Sets the number of CPUs the worker helper sees."""
    def use(count):
        monkeypatch.setattr(symtomo.grids, "_usable_cpus", lambda: count)
    return use


def _under_counts(compute, usable_cpus):
    """compute() once for each worker count of COUNTS."""
    results = []
    for count in COUNTS:
        usable_cpus(count)
        interval = sys.getswitchinterval()
        if count == 8:
            sys.setswitchinterval(1e-6)
        try:
            results.append(compute())
        finally:
            sys.setswitchinterval(interval)
    return results


@pytest.fixture(autouse=True)
def no_kept_spectra():
    """Each test starts with no kept kernel spectra, so that the order of
    the tests cannot hide a fault of the cold path."""
    symtomo.grids._SPECTRA.clear()
    yield
    symtomo.grids._SPECTRA.clear()


def _evict_kept_spectra():
    """Fills the kept spectra with rows that no test uses, which evicts
    every other row."""
    nfft = 8192  # rows of 4096 points onto 4096
    filler = 10.0 + np.arange(SPECTRUM_CACHE_BYTES // (16 * nfft) + 1)
    _bluestein_plan(4096, 4096, filler)
    assert symtomo.grids._SPECTRA.nbytes == SPECTRUM_CACHE_BYTES


def _cold_warm_evicted(compute):
    """compute, made to return its result with no kept spectra, with its
    own kept, and with them evicted."""
    def states():
        symtomo.grids._SPECTRA.clear()
        cold, warm = compute(), compute()
        _evict_kept_spectra()
        return cold, warm, compute()
    return states


def _assert_all_equal(compute, usable_cpus):
    """compute() is the same array cold, warm and after eviction, under
    every worker count of COUNTS; returns it."""
    results = _under_counts(_cold_warm_evicted(compute), usable_cpus)
    one = results[0][0]
    for count, states in zip(COUNTS, results):
        for state, values in zip(("cold", "warm", "evicted"), states):
            assert np.array_equal(values, one), (count, state)
    return one


@pytest.fixture(scope="module")
def psi():
    grid = make_grid(-16.0, 16.0, 1024, HBAR)
    return gaussian_wavefunction(GaussianState.from_position_data(1.3, -0.4, HBAR), grid)


@pytest.fixture(scope="module")
def square_map(psi):
    return wigner_transform(psi, p_grid=psi.grid)


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("n_angles", [359, 360])
@pytest.mark.parametrize("route", ["metaplectic", "chirp-fft"])
def test_sweep_is_the_same_for_any_worker_count(route, n_angles, n, usable_cpus):
    """Blocks of 128 rows (n = 256) and of 32 (n = 1024), an odd and an
    even angle count."""
    span = 12.0 if n == 256 else 16.0
    state = GaussianState.from_position_data(0.8, 0.3, HBAR)
    psi = gaussian_wavefunction(state, make_grid(-span, span, n, HBAR))
    _assert_all_equal(lambda: compute_tomogram_set(psi, n_angles, route=route).values,
                      usable_cpus)


@pytest.mark.parametrize("window", ["default", "square", "narrow"])
def test_wigner_map_is_the_same_for_any_worker_count(psi, window, usable_cpus):
    """The default window (a plain FFT) and two Bluestein windows, one of
    n points and one of n/2."""
    band = np.pi * HBAR / (2.0 * psi.grid.dx)
    p_grid = {"default": None, "square": psi.grid,
              "narrow": Grid1D(-0.35 * band, 512, 0.9 * band / 512, HBAR)}[window]
    _assert_all_equal(lambda: wigner_transform(psi, p_grid).values, usable_cpus)


@pytest.mark.parametrize("mu, nu", [(0.6, -1.1), (0.5, 1.0), (1.1, 0.6), (-1.3, 0.4)],
                         ids=["b=nu<0", "b=nu>0", "b=mu>0", "b=mu<0"])
def test_line_integral_is_the_same_for_any_worker_count(square_map, mu, nu, usable_cpus):
    """Rows along p (|nu| >= |mu| on the square map) and the transposed
    map's rows along x, each with b > 0 and b < 0."""
    one = _assert_all_equal(lambda: radon_line_integral(square_map, mu, nu).values,
                            usable_cpus)
    assert np.count_nonzero(one) > 0


def test_chirp_z_transforms_are_the_same_for_any_worker_count(psi, usable_cpus):
    """bluestein_czt with one beta, start angle and index origin, and with
    one of each per row, and sample_uniform, which takes one chirp-z
    transform."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 1025)) + 1j * rng.normal(size=(3, 1025))
    beta = np.array([0.0123, -0.0, -0.0123])
    alpha = np.array([0.7, -2.1, 0.0])
    center = np.array([512.0, 0.0, 1024.0])

    def compute():
        return np.concatenate([bluestein_czt(x, 1024, 0.0123, 0.7, 512.0).ravel(),
                               bluestein_czt(x, 700, beta, alpha, center).ravel(),
                               sample_uniform(psi, -7.3, 0.0131, 1000)])

    _assert_all_equal(compute, usable_cpus)


@pytest.mark.parametrize("n_angles, window", [(64, "default"), (37, "default"),
                                               (36, "past")])
def test_back_projection_is_the_same_for_any_worker_count(n_angles, window, usable_cpus):
    """An even and an odd angle count, each with more pairs than one group
    of tables, and a momentum window that reaches past the fine grid of
    the filtered projections (tables clipped, zero off their range)."""
    grid = make_grid(-8.0, 8.0, 128, HBAR)
    psi = gaussian_wavefunction(GaussianState.from_position_data(0.9, 0.3, HBAR), grid)
    tomos = compute_tomogram_set(psi, n_angles)
    # The padded X window spans PAD_FACTOR * 16 = 128; this one reaches 160.
    p_grid = None if window == "default" else Grid1D(-160.0, 128, 2.5, HBAR)
    one, *others = _under_counts(lambda: inverse_radon(tomos, grid, p_grid).values,
                                 usable_cpus)
    assert np.count_nonzero(one) > 0
    for count, values in zip(COUNTS[1:], others):
        assert np.array_equal(values, one), count


def test_default_count_is_every_usable_cpu(usable_cpus):
    """Three usable CPUs give three workers, which all hold a block at once."""
    usable_cpus(3)
    meet = threading.Barrier(3, timeout=10.0)
    threads = set()

    def run(block):
        threads.add(threading.get_ident())
        meet.wait()

    _run_blocks(run, range(3))
    assert len(threads) == 3


def test_no_blocks_run_nothing():
    _run_blocks(lambda block: pytest.fail("no block to run"), range(0))


@pytest.mark.parametrize("where", ["caller", "helper"])
def test_failing_block_stops_every_worker(where, usable_cpus):
    """A block that fails in the calling thread, or in a helper, stops the
    other workers after the block each holds: they take none of the blocks
    left, and the caller gets the block's own exception."""
    usable_cpus(4)
    caller = threading.get_ident()
    failure = RuntimeError("block failed")
    taken, lock, failed = [], threading.Lock(), []

    def run(block):
        mine = (threading.get_ident() == caller) == (where == "caller")
        with lock:
            taken.append(block)
            fail = mine and not failed
            if fail:
                failed.append(block)
        if fail:
            raise failure
        time.sleep(0.005)

    with pytest.raises(RuntimeError) as err:
        _run_blocks(run, range(400))
    assert err.value is failure
    assert len(taken) < 40


def test_first_failure_reaches_the_caller_once(usable_cpus):
    """Every block fails, block 0 at once and the others later: each worker
    runs at most one block, and the caller gets block 0's exception, with
    none of the others chained to it."""
    usable_cpus(4)
    failures = [ValueError(f"block {k}") for k in range(100)]
    taken, lock = [], threading.Lock()

    def run(block):
        with lock:
            taken.append(block)
        if block:
            time.sleep(0.02)
        raise failures[block]

    with pytest.raises(ValueError) as err:
        _run_blocks(run, range(100))
    assert err.value is failures[0]
    assert err.value.__context__ is None and err.value.__cause__ is None
    assert 0 in taken and len(taken) <= 4
