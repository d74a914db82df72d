import numpy as np
import pytest
from scipy.linalg import expm

from symtomo import (
    FreeSymplectic,
    GaussianState,
    TomogramSet,
    gaussian_wavefunction,
    make_grid,
    radon_chirp_fft,
    radon_metaplectic,
    standard_symplectic_form,
)

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
    tms = [radon_metaplectic(psi, 1.0, 0.0)]
    tms += [radon_chirp_fft(psi, np.cos(t), np.sin(t)) for t in np.pi * np.arange(1, 8) / 8]
    return TomogramSet.from_tomograms(tms)


def random_gaussian_state(rng, sxp_min=0.0):
    """Pure Gaussian with sigma_xx in [0.5, 2] and |sigma_xp| in [sxp_min, 0.6]."""
    sigma_xx = float(np.exp(rng.uniform(-0.7, 0.7)))
    mag = rng.uniform(sxp_min, 0.6)
    sigma_xp = float(rng.choice([-1.0, 1.0]) * mag)
    return GaussianState.from_position_data(sigma_xx, sigma_xp, HBAR)


def random_direction(rng, min_angle=0.2, lam_range=(0.5, 2.0)):
    """(mu, nu) with the angle bounded away from the axes so every forward
    route stays inside its conditioning envelope on the session grid."""
    theta = rng.uniform(min_angle, np.pi - min_angle)
    lam = rng.uniform(*lam_range)
    return float(lam * np.cos(theta)), float(lam * np.sin(theta))


def random_free_symplectic(rng, cov, b_range=(0.4, 2.5), spread_limit=2.6):
    """Free symplectic matrix keeping S cov S^T representable on the grid."""
    while True:
        h = rng.uniform(-0.8, 0.8, size=(2, 2))
        h = 0.5 * (h + h.T)
        s = expm(standard_symplectic_form(1) @ h)
        c = s @ cov @ s.T
        if b_range[0] <= abs(s[0, 1]) <= b_range[1] and max(c[0, 0], c[1, 1]) <= spread_limit:
            return FreeSymplectic.from_matrix(s)


def random_free_pair(rng, cov):
    while True:
        s2 = random_free_symplectic(rng, cov)
        mid = s2.base.matrix @ cov @ s2.base.matrix.T
        s1 = random_free_symplectic(rng, mid)
        prod = s1.base.matrix @ s2.base.matrix
        c = prod @ cov @ prod.T
        if 0.25 <= abs(prod[0, 1]) and max(c[0, 0], c[1, 1]) <= 2.6:
            return s1, s2
