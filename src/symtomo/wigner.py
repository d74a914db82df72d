"""Wigner transform of a sampled pure state and its marginals.

The transform is computed per position row as an hbar-scaled Fourier
integral of the autocorrelation slice psi(x+u)*conj(psi(x-u)); the
substitution y = 2u keeps the slice on the native grid.  Momentum values
are only alias-free for |p| <= pi*hbar/(2*dx), so the default momentum
window covers exactly that band at spacing pi*hbar/(n*dx).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError
from .grids import Grid1D, SampledWavefunction, bluestein_czt

__all__ = ["WignerMap", "wigner_transform", "marginals", "default_momentum_window"]

EDGE_DECAY_LIMIT = 1e-12


@dataclass(frozen=True)
class WignerMap:
    """Real phase-space map W(x, p) sampled on x_grid x p_grid (row-major)."""

    x_grid: Grid1D
    p_grid: Grid1D
    values: np.ndarray = field(repr=False)
    hbar: float = 1.0
    accuracy_warning: bool = False
    max_imag: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.x_grid.n_points, self.p_grid.n_points):
            raise ConfigError(
                f"values shape {v.shape} does not match grids "
                f"({self.x_grid.n_points}, {self.p_grid.n_points})"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def mass(self) -> float:
        """Total integral dx * dp * sum(values)."""
        return float(self.x_grid.dx * self.p_grid.dx * self.values.sum())

    def edge_decay(self) -> float:
        peak = float(np.max(np.abs(self.values)))
        if peak == 0.0:
            return 0.0
        border = max(
            np.max(np.abs(self.values[0, :])),
            np.max(np.abs(self.values[-1, :])),
            np.max(np.abs(self.values[:, 0])),
            np.max(np.abs(self.values[:, -1])),
        )
        return float(border / peak)


def default_momentum_window(grid: Grid1D) -> Grid1D:
    """Alias-free momentum window: n points at spacing pi*hbar/(n*dx)."""
    dpw = np.pi * grid.hbar / (grid.n_points * grid.dx)
    return Grid1D(-0.5 * grid.n_points * dpw, grid.n_points, dpw, grid.hbar)


def _autocorrelation(values: np.ndarray) -> np.ndarray:
    """A[j, m] = psi[j + (m - n/2)] * conj(psi[j - (m - n/2)]), zero off-grid.

    Both factors are strided windows of ``padded``, psi with n//2 zeros in
    front and zeros behind: row j of the first is padded[j : j+n], and row
    j of the second is padded[j+lag : j+lag+n] read backwards (lag = 1 for
    even n).  The off-grid products meet a padding zero, and no index array
    is built."""
    n = len(values)
    half = n // 2
    padded = np.zeros(2 * n, dtype=np.complex128)
    padded[half:half + n] = values
    windows = sliding_window_view(padded, n)
    lag = 2 * half - n + 1
    # A contiguous first factor keeps numpy on its contiguous multiply loop,
    # which rounds like the product of the two factors gathered by index
    # (the loop for overlapping rows fuses differently in the last bit).
    acorr = windows[:n].copy()
    acorr *= np.conj(windows[lag:lag + n, ::-1])
    return acorr


def wigner_transform(psi: SampledWavefunction, p_grid: Grid1D | None = None) -> WignerMap:
    """Wigner map of a pure state.

    Parameters
    ----------
    psi : SampledWavefunction
        State sampled on a uniform grid, decayed below ~1e-12 at the edges
        (otherwise the result carries ``accuracy_warning=True``).
    p_grid : Grid1D, optional
        Momentum window.  Defaults to :func:`default_momentum_window`; any
        uniform window inside the alias-free band |p| <= pi*hbar/(2*dx) is
        valid and is evaluated by chirp-z quadrature of the y-integral.  A
        window with a point past that band holds periodic replicas of the
        map and carries ``accuracy_warning=True``.

    Each position row is one chirp-z transform of its autocorrelation
    slice (see :func:`_autocorrelation`) with kernel exp(i*beta*j*k),
    beta = -2*dp*dx/hbar.  For the default window, n points at
    dp = pi*hbar/(n*dx), beta is -2*pi/n and the transform is a plain
    length-n FFT; every other window goes through :func:`bluestein_czt`.
    """
    g = psi.grid
    n, dx, hbar = g.n_points, g.dx, g.hbar
    if p_grid is None:
        p_grid = default_momentum_window(g)
    if abs(p_grid.hbar - hbar) > 1e-12 * hbar:
        raise ConfigError("p_grid hbar differs from state hbar")
    p_reach = max(-p_grid.x_min, p_grid.x_max - p_grid.dx)
    warn = (psi.edge_decay() > EDGE_DECAY_LIMIT
            or p_reach > np.pi * hbar / (2.0 * dx) * (1.0 + 1e-12))

    acorr = _autocorrelation(psi.values)
    m = np.arange(n)
    acorr *= np.exp(-2j * p_grid.x_min * m * dx / hbar)
    beta = -2.0 * p_grid.dx * dx / hbar
    # The default window has beta = -2*pi/n up to rounding: a plain DFT.
    if p_grid.n_points == n and abs(beta * n / (2.0 * np.pi) + 1.0) < 1e-14:
        w = scipy.fft.fft(acorr, axis=1, overwrite_x=True)
    else:
        w = bluestein_czt(acorr, p_grid.n_points, beta)
    # phase from u_m = (m - n/2)*dx starting at -n/2*dx
    post = np.exp(1j * p_grid.points * n * dx / hbar)
    w *= post * (dx / (np.pi * hbar))
    max_imag = float(np.max(np.abs(w.imag)))
    return WignerMap(g, p_grid, w.real, hbar, accuracy_warning=warn, max_imag=max_imag)


def marginals(w: WignerMap) -> tuple[np.ndarray, np.ndarray]:
    """(position density, momentum density) from dp- and dx-weighted sums."""
    pos = w.values.sum(axis=1) * w.p_grid.dx
    mom = w.values.sum(axis=0) * w.x_grid.dx
    return pos, mom
