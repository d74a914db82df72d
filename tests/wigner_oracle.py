"""Reference implementation of the Wigner transform, kept as a test oracle.

``wigner_reference`` is the earlier per-row transform: each position row
of the autocorrelation goes through its own complex FFT (default window)
or ``bluestein_czt`` (any other window), and the whole complex map is
returned.  Its imaginary part is rounding, because every pre-phased
autocorrelation row is Hermitian; that is the premise that lets the
library carry two real rows through one complex transform.
"""

import numpy as np
import scipy.fft

from symtomo.grids import bluestein_czt
from symtomo.wigner import _autocorrelation, default_momentum_window


def wigner_reference(psi, p_grid=None):
    """Complex map (n, p_grid.n_points) of ``psi``, one transform per row."""
    g = psi.grid
    n, dx, hbar = g.n_points, g.dx, g.hbar
    if p_grid is None:
        p_grid = default_momentum_window(g)
    acorr = _autocorrelation(psi.values)
    acorr *= np.exp(-2j * p_grid.x_min * np.arange(n) * dx / hbar)
    beta = -2.0 * p_grid.dx * dx / hbar
    if p_grid.n_points == n and abs(beta * n / (2.0 * np.pi) + 1.0) < 1e-14:
        w = scipy.fft.fft(acorr, axis=1, overwrite_x=True)
    else:
        w = bluestein_czt(acorr, p_grid.n_points, beta)
    w *= np.exp(1j * p_grid.points * n * dx / hbar) * (dx / (np.pi * hbar))
    return w
