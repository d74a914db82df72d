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
    """A[j, m] = psi[j + (m - n/2)] * conj(psi[j - (m - n/2)]), zero off-grid."""
    n = len(values)
    j = np.arange(n)
    off = j[None, :] - n // 2
    idx1 = j[:, None] + off
    idx2 = j[:, None] - off
    ok = (idx1 >= 0) & (idx1 < n) & (idx2 >= 0) & (idx2 < n)
    return np.where(
        ok, values[idx1.clip(0, n - 1)] * np.conj(values[idx2.clip(0, n - 1)]), 0.0
    )


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
        valid and is evaluated by chirp-z quadrature of the y-integral.
    """
    g = psi.grid
    n, dx, hbar = g.n_points, g.dx, g.hbar
    if p_grid is None:
        p_grid = default_momentum_window(g)
    if abs(p_grid.hbar - hbar) > 1e-12 * hbar:
        raise ConfigError("p_grid hbar differs from state hbar")
    warn = psi.edge_decay() > EDGE_DECAY_LIMIT

    acorr = _autocorrelation(psi.values)
    m = np.arange(n)
    pre = np.exp(-2j * p_grid.x_min * m * dx / hbar)
    w = bluestein_czt(acorr * pre[None, :], p_grid.n_points, -2.0 * p_grid.dx * dx / hbar)
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
