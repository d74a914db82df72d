"""Wigner transform of a sampled pure state and its marginals.

The transform is computed per position row as an hbar-scaled Fourier
integral of the autocorrelation slice psi(x+u)*conj(psi(x-u)); the
substitution y = 2u keeps the slice on the native grid.  Momentum values
are only alias-free for |p| <= pi*hbar/(2*dx), so the default momentum
window covers exactly that band at spacing pi*hbar/(n*dx).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError
from .grids import (
    EDGE_DECAY_FLAG,
    Grid1D,
    SampledWavefunction,
    _run_blocks,
    bluestein_czt,
    cis,
)

__all__ = ["WignerMap", "wigner_transform", "marginals", "default_momentum_window"]

# Row pairs (j, j + n/2) per block of a Wigner transform: a block's
# autocorrelation rows and transform buffers take about 4 MiB at n = 1024.
WIGNER_BLOCK = 64


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
        """Largest border |W| over the largest |W| (0.0 for the zero map),
        computed once per map: its values are read-only."""
        return self._edge_decay

    @cached_property
    def _edge_decay(self) -> float:
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


def _autocorrelation(values: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """Rows ``rows`` of A[j, m] = psi[j + (m - n/2)] * conj(psi[j - (m - n/2)]),
    zero off-grid.

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
    lo, hi, _ = rows.indices(n)
    # A contiguous product keeps numpy on its contiguous multiply loop, which
    # rounds like the product of the two factors gathered by index (the loop
    # for overlapping rows fuses differently in the last bit).  Conjugation
    # only flips signs, so conj(conj(a)*b) is a*conj(b) bit for bit, and the
    # second factor needs no conjugated copy.
    acorr = np.conj(windows[lo:hi])
    acorr *= windows[lo + lag:hi + lag, ::-1]
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
    slice (see :func:`_autocorrelation`): the sum over m of A[j, m] *
    exp(i*(alpha + beta*k)*(m - n/2)) with beta = -2*dp*dx/hbar and
    alpha = -2*p_min*dx/hbar, times dx/(pi*hbar).  For the default
    window, n points at dp = pi*hbar/(n*dx), beta is -2*pi/n and the
    transform is a plain length-n FFT; every other window goes through
    :func:`bluestein_czt` with that alpha and the index origin n/2, whose
    kernel spectrum the process keeps.  Every output row is real, so rows
    j and j + n/2 share one complex transform of A_j + i*A_(j+n/2): its
    real part is row j and its imaginary part row j + n/2.

    The rows run in blocks of WIGNER_BLOCK such pairs, each block from its
    own autocorrelation rows, on every usable CPU (the calling thread is
    one of the workers).  A block writes only its own rows, so the map is
    bit-identical for any worker count.  No step calls BLAS, whose own
    threads would keep spinning on the CPUs that the workers need.
    """
    g = psi.grid
    n, dx, hbar = g.n_points, g.dx, g.hbar
    if p_grid is None:
        p_grid = default_momentum_window(g)
    p_reach = max(-p_grid.x_min, p_grid.x_max - p_grid.dx)
    warn = (psi.edge_decay() > EDGE_DECAY_FLAG
            or p_reach > np.pi * hbar / (2.0 * dx) * (1.0 + 1e-12))

    half, m = n // 2, p_grid.n_points
    alpha, beta = -2.0 * p_grid.x_min * dx / hbar, -2.0 * p_grid.dx * dx / hbar
    scale = dx / (np.pi * hbar)
    # The default window has beta = -2*pi/n up to rounding: a plain DFT.
    # There a pre-phase odd in m - n/2 keeps each row exactly Hermitian
    # about m = n/2, and the exact post-phase (-1)**k = exp(-i*beta*k*n/2)
    # lets no phase rounding leak into the partner row.
    fft = m == n and abs(beta * n / (2.0 * np.pi) + 1.0) < 1e-14
    if fft:
        pre = cis(alpha * (np.arange(n) - half))
        post = (1.0 - 2.0 * (np.arange(m) % 2)) * scale
    values = np.empty((n, m))

    def run(lo):
        rows = slice(lo, min(lo + WIGNER_BLOCK, half))
        z = _autocorrelation(psi.values, rows)
        upper = _autocorrelation(psi.values, slice(rows.start + half, rows.stop + half))
        z.real -= upper.imag
        z.imag += upper.real
        if fft:
            z *= pre
            w = np.fft.fft(z, axis=1, out=z)
            w *= post
        else:
            w = bluestein_czt(z, m, beta, alpha, half)
            w *= scale
        values[rows] = w.real
        values[rows.start + half:rows.stop + half] = w.imag

    _run_blocks(run, range(0, half, WIGNER_BLOCK))
    values.setflags(write=False)
    return WignerMap(g, p_grid, values, hbar, accuracy_warning=warn)


def marginals(w: WignerMap) -> tuple[np.ndarray, np.ndarray]:
    """(position density, momentum density) from dp- and dx-weighted sums."""
    pos = w.values.sum(axis=1) * w.p_grid.dx
    mom = w.values.sum(axis=0) * w.x_grid.dx
    return pos, mom
