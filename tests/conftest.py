import numpy as np
import pytest

from symtomo import (
    GaussianState,
    TomogramSet,
    gaussian_wavefunction,
    make_grid,
    radon_chirp_fft,
    radon_metaplectic,
)
# The draw helpers that ``symtomo check`` uses too, re-exported for the tests.
from symtomo.checks import random_direction, random_free_symplectic  # noqa: F401

HBAR = 1.0


@pytest.fixture(scope="session")
def grid():
    return make_grid(-16.0, 16.0, 1024, HBAR)


@pytest.fixture(scope="session")
def ground(grid):
    return gaussian_wavefunction(GaussianState.ground_state(HBAR), grid)


def flagged_chirp_set():
    """Eight angles on a 64-point grid with warnings [F, T, F, F, F, F, F, T]:
    the chirp of the two angles nearest the x axis exceeds the Nyquist
    rate, so the chirp-FFT route flags them (theta = 0 is taken by the
    rotation route, which needs no chirp)."""
    psi = gaussian_wavefunction(GaussianState.ground_state(HBAR), make_grid(-8, 8, 64, HBAR))
    angles = np.pi * np.arange(8) / 8
    tms = [radon_metaplectic(psi, 1.0, 0.0)]
    tms += [radon_chirp_fft(psi, np.cos(t), np.sin(t)) for t in angles[1:]]
    return TomogramSet(angles, tms[0].x, [t.values for t in tms], HBAR,
                       [t.route for t in tms], [t.accuracy_warning for t in tms])


def random_gaussian_state(rng, sxp_min=0.0):
    """Pure Gaussian with sigma_xx in [0.5, 2] and |sigma_xp| in [sxp_min, 0.6]."""
    sigma_xx = float(np.exp(rng.uniform(-0.7, 0.7)))
    mag = rng.uniform(sxp_min, 0.6)
    sigma_xp = float(rng.choice([-1.0, 1.0]) * mag)
    return GaussianState.from_position_data(sigma_xx, sigma_xp, HBAR)


def random_free_pair(rng, cov):
    while True:
        s2 = random_free_symplectic(rng, cov)
        mid = s2.base.matrix @ cov @ s2.base.matrix.T
        s1 = random_free_symplectic(rng, mid)
        prod = s1.base.matrix @ s2.base.matrix
        c = prod @ cov @ prod.T
        if 0.25 <= abs(prod[0, 1]) and max(c[0, 0], c[1, 1]) <= 2.6:
            return s1, s2
