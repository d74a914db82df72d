"""Reference implementation of the forward angle sweep, kept as a test oracle.

``tomogram_set_reference`` is the earlier per-angle sweep.  Every angle runs
its own chirp -> hbar-Fourier -> resample pipeline for each quadratic
Fourier transform (a split rotation recomputes the quarter turn), every
resample is a separate ``scipy.signal.czt`` call, and the rotated state is
resampled once more onto the X grid.  The library evaluates the last
quadratic Fourier transform directly on the X grid as a density, so the two
agree to rounding on states resolved on their grids.

``resampled_rotation`` is the library's earlier metaplectic row: the
rotated state on the state grid (``metaplectic_rotation``), resampled onto
X/lambda by the library's band-limited resampling (``sample_uniform``).  It
is the sharper reference for a single row: the per-angle oracle's
``scipy.signal.czt`` resamples lose about 1e-12 of a unit peak.
"""

import numpy as np
from fbp_oracle import czt_resample

from symtomo.grids import sample_uniform
from symtomo.metaplectic import (FreeSymplectic, RotationParams, metaplectic_rotation,
                                 rotation_from_mu_nu)
from symtomo.radon import chirp_resolvable, sweep_angles


def _chirp(values, grid, c):
    return np.exp(1j * c * grid.points**2 / (2.0 * grid.hbar)) * values


def _fourier(values, grid):
    """Forward hbar-Fourier transform; returns (values, dual grid)."""
    dual = grid.momentum_grid()
    k = np.arange(grid.n_points)
    pre = np.exp(-1j * dual.x_min * grid.points / grid.hbar)
    post = np.exp(-1j * (k * dual.dx) * grid.x_min / grid.hbar)
    c = grid.dx / np.sqrt(2.0 * np.pi * grid.hbar)
    return c * post * np.fft.fft(pre * values), dual


def _quadratic_fourier(values, grid, mu, nu):
    s = FreeSymplectic.from_matrix(rotation_from_mu_nu(mu, nu))
    P, L, Q = s.P[0, 0], s.L[0, 0], s.Q[0, 0]
    ft, dual = _fourier(_chirp(values, grid, Q), grid)
    vals = np.sqrt(abs(L)) * czt_resample(ft, dual.x_min, dual.dx, L * grid.x_min,
                                          L * grid.dx, grid.n_points)
    phase = np.exp(1j * np.pi * s.maslov_index / 2) * np.exp(-1j * np.pi / 4)
    return vals * np.exp(1j * P * grid.points**2 / (2.0 * grid.hbar)) * phase


def _rotate(values, grid, mu, nu):
    if nu == 0.0:
        return values if mu > 0 else np.roll(values[::-1], 1)
    if abs(nu) >= abs(mu):
        return _quadratic_fourier(values, grid, mu, nu)
    return _quadratic_fourier(_quadratic_fourier(values, grid, 0.0, 1.0), grid, nu, -mu)


def tomogram_set_reference(psi, n_angles, route="metaplectic", x=None):
    """(values[A, N], routes) of the per-angle sweep over the uniform X
    grid ``x`` (default: the state grid)."""
    g = psi.grid
    rows, routes = [], []
    for theta in sweep_angles(n_angles):
        mu, nu = float(np.cos(theta)), float(np.sin(theta))
        lam = float(np.hypot(mu, nu))
        if x is None:
            start, step, count = lam * g.x_min, lam * g.dx, g.n_points
        else:
            start, step, count = x[0], x[1] - x[0], len(x)
        if route == "chirp-fft" and nu != 0.0 and chirp_resolvable(psi, mu, nu):
            ft, dual = _fourier(_chirp(psi.values, g, mu / nu), g)
            vals = czt_resample(ft, dual.x_min, dual.dx, start / nu, step / nu, count)
            rows.append(np.abs(vals) ** 2 / abs(nu))
            routes.append("chirp-fft")
        else:
            vals = czt_resample(_rotate(psi.values, g, mu, nu), g.x_min, g.dx,
                                start / lam, step / lam, count)
            rows.append(np.abs(vals) ** 2 / lam)
            routes.append("metaplectic")
    return np.array(rows), routes


def resampled_rotation(psi, mu, nu, start, step, count):
    """|U_(mu,nu) psi(X/lambda)|^2 / lambda at X = start + k*step, by the
    library's earlier path: rotate onto the state grid, then resample."""
    lam = float(np.hypot(mu, nu))
    vals = sample_uniform(metaplectic_rotation(psi, RotationParams(mu, nu)),
                          start / lam, step / lam, count)
    return np.abs(vals) ** 2 / lam
