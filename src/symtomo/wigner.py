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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError
from .grids import Grid1D, SampledWavefunction, bluestein_czt, cis

__all__ = ["WignerMap", "wigner_transform", "marginals", "default_momentum_window"]

EDGE_DECAY_LIMIT = 1e-12


@dataclass(frozen=True)
class WignerMap:
    """Real phase-space map W(x, p) sampled on x_grid x p_grid (row-major).

    ``values`` is copied into a read-only array, unless it already is a
    read-only float array that owns its memory, as the package's own
    transforms hand over: no caller can write to the map through its input.
    """

    x_grid: Grid1D
    p_grid: Grid1D
    values: np.ndarray = field(repr=False)
    hbar: float = 1.0
    accuracy_warning: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.x_grid.n_points, self.p_grid.n_points):
            raise ConfigError(
                f"values shape {v.shape} does not match grids "
                f"({self.x_grid.n_points}, {self.p_grid.n_points})"
            )
        if not np.isfinite(v).all():
            raise ConfigError("Wigner map values must be finite")
        if not 0 < self.hbar < np.inf:
            raise ConfigError(f"hbar must be positive and finite, got {self.hbar}")
        for name, g in (("x_grid", self.x_grid), ("p_grid", self.p_grid)):
            if abs(g.hbar - self.hbar) > 1e-12 * self.hbar:
                raise ConfigError(f"{name} hbar {g.hbar} differs from the map's hbar {self.hbar}")
        if v.flags.writeable or not v.flags.owndata:
            v = v.copy()
            v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def mass(self) -> float:
        """Total integral dx * dp * sum(values)."""
        return float(self.x_grid.dx * self.p_grid.dx * self.values.sum())

    def edge_decay(self) -> float:
        """Largest border |W| over the largest |W| (0.0 for the zero map)."""
        v = self.values
        peak = max(v.max(), -v.min())
        if peak == 0.0:
            return 0.0
        border = max(np.abs(edge).max() for edge in (v[0], v[-1], v[:, 0], v[:, -1]))
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
    # A contiguous product keeps numpy on its contiguous multiply loop, which
    # rounds like the product of the two factors gathered by index (the loop
    # for overlapping rows fuses differently in the last bit).  Conjugation
    # only flips signs, so conj(conj(a)*b) is a*conj(b) bit for bit, and the
    # second factor needs no conjugated (n, n) copy.
    acorr = np.conj(windows[:n])
    acorr *= windows[lag:lag + n, ::-1]
    return np.conjugate(acorr, out=acorr)


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
    Every output row is real, so rows j and j + n/2 share one complex
    transform of A_j + i*A_(j+n/2): its real part is row j and its
    imaginary part row j + n/2.
    """
    g = psi.grid
    n, dx, hbar = g.n_points, g.dx, g.hbar
    if p_grid is None:
        p_grid = default_momentum_window(g)
    p_reach = max(-p_grid.x_min, p_grid.x_max - p_grid.dx)
    warn = (psi.edge_decay() > EDGE_DECAY_LIMIT
            or p_reach > np.pi * hbar / (2.0 * dx) * (1.0 + 1e-12))

    half = n // 2
    acorr = _autocorrelation(psi.values)
    z = acorr[:half]
    z.real -= acorr[half:].imag
    z.imag += acorr[half:].real
    # A pre-phase odd in m - n/2 keeps each row exactly Hermitian about
    # m = n/2, and the post-phase exp(-i*beta*k*n/2) uses the kernel's own
    # beta ((-1)**k for the FFT): a phase rounding would leak into the partner.
    z *= cis(-2.0 * p_grid.x_min * dx / hbar * (np.arange(n) - half))
    beta = -2.0 * p_grid.dx * dx / hbar
    k = np.arange(p_grid.n_points)
    # The default window has beta = -2*pi/n up to rounding: a plain DFT.
    if p_grid.n_points == n and abs(beta * n / (2.0 * np.pi) + 1.0) < 1e-14:
        w = np.fft.fft(z, axis=1, out=z)
        post = 1.0 - 2.0 * (k % 2)
    else:
        w = bluestein_czt(z, p_grid.n_points, beta)
        post = cis(-0.5 * beta * n * k)
    w *= post * (dx / (np.pi * hbar))
    values = np.concatenate((w.real, w.imag))
    values.setflags(write=False)
    return WignerMap(g, p_grid, values, hbar, accuracy_warning=warn)


def marginals(w: WignerMap) -> tuple[np.ndarray, np.ndarray]:
    """(position density, momentum density) from dp- and dx-weighted sums."""
    pos = w.values.sum(axis=1) * w.p_grid.dx
    mom = w.values.sum(axis=0) * w.x_grid.dx
    return pos, mom
