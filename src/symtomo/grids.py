"""Uniform grids, sampled wavefunctions and the elementary unitary operators.

Everything downstream is built from three operations on complex samples:
the hbar-scaled Fourier transform, multiplication by a quadratic phase
("chirp"), and argument rescaling with band-limited resampling.  The
Fourier transform is realized with explicit phase ramps around an FFT so
that it is the continuum kernel (2*pi*hbar)**(-1/2) * exp(-i*x*x'/hbar)
that is discretized, not the raw DFT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import ConfigError, DomainError

__all__ = [
    "Grid1D",
    "SampledWavefunction",
    "make_grid",
    "hbar_fourier",
    "chirp_multiply",
    "scale",
    "sample_uniform",
    "bluestein_czt",
    "cis",
    "inner_product",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid1D:
    """Uniform coordinate grid with points ``x_min + k*dx``, k = 0..n_points-1.

    The grid length ``n_points`` must be a power of two (>= 8) so the FFT
    realization of the Fourier transform is exact and fast.  ``hbar`` scales
    the dual (momentum) grid: ``dp = 2*pi*hbar / (n_points*dx)``.
    """

    x_min: float
    n_points: int
    dx: float
    hbar: float = 1.0

    def __post_init__(self):
        if not _is_power_of_two(self.n_points) or self.n_points < 8:
            raise ConfigError(
                f"n_points must be a power of two >= 8, got {self.n_points}"
            )
        if not np.isfinite(self.x_min):
            raise ConfigError(f"x_min must be finite, got {self.x_min}")
        if not 0 < self.dx < np.inf:
            raise ConfigError(f"dx must be positive and finite, got {self.dx}")
        if not 0 < self.hbar < np.inf:
            raise ConfigError(f"hbar must be positive and finite, got {self.hbar}")

    @property
    def x_max(self) -> float:
        return self.x_min + self.n_points * self.dx

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @property
    def dp(self) -> float:
        """Spacing of the dual (momentum) grid."""
        return 2.0 * np.pi * self.hbar / (self.n_points * self.dx)

    def momentum_grid(self) -> "Grid1D":
        """Dual grid, centered at zero."""
        return Grid1D(-0.5 * self.n_points * self.dp, self.n_points, self.dp, self.hbar)

    def close_to(self, other: "Grid1D", tol: float = 1e-12) -> bool:
        return (
            self.n_points == other.n_points
            and abs(self.x_min - other.x_min) <= tol * max(1.0, abs(self.x_min))
            and abs(self.dx - other.dx) <= tol * self.dx
            and abs(self.hbar - other.hbar) <= tol * self.hbar
        )


def make_grid(x_min: float, x_max: float, n_points: int, hbar: float = 1.0) -> Grid1D:
    """Build a grid spanning [x_min, x_max) with n_points samples."""
    if not x_max > x_min:
        raise ConfigError(f"x_max must exceed x_min, got [{x_min}, {x_max}]")
    return Grid1D(x_min, n_points, (x_max - x_min) / n_points, hbar)


@dataclass(frozen=True)
class SampledWavefunction:
    """Complex samples of a wavefunction on a :class:`Grid1D`.

    Values are immutable after construction; all operations return new
    instances, so instances are safe to share between threads.
    """

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n_points,):
            raise ConfigError(
                f"values shape {v.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.isfinite(v).all():
            raise ConfigError("wavefunction samples must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def norm(self) -> float:
        """L2 norm, computed as sqrt(dx * sum |values|^2)."""
        return float(np.sqrt(self.grid.dx * np.sum(np.abs(self.values) ** 2)))

    def normalize(self) -> "SampledWavefunction":
        n = self.norm()
        if n == 0.0:
            raise DomainError("cannot normalize the zero wavefunction")
        return SampledWavefunction(self.grid, self.values / n)

    def edge_decay(self) -> float:
        """Max of |values| at the two grid edges, relative to the global max."""
        peak = float(np.max(np.abs(self.values)))
        if peak == 0.0:
            return 0.0
        return float(max(abs(self.values[0]), abs(self.values[-1])) / peak)

    def probability_density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def hbar_fourier(psi: SampledWavefunction, direction: str = "forward") -> SampledWavefunction:
    """hbar-scaled unitary Fourier transform.

    Forward kernel: (2*pi*hbar)**(-1/2) * exp(-i*p*x/hbar); inverse kernel has
    the conjugate phase.  The output is sampled on the dual grid (centered at
    zero), reinterpreted as a coordinate axis.  For a grid centered at zero
    the inverse transform returns to the exact original grid, and the round
    trip is the identity to machine precision.
    """
    if direction not in ("forward", "inverse"):
        raise DomainError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    g, hbar = psi.grid, psi.grid.hbar
    dual = g.momentum_grid()
    sign = -1j if direction == "forward" else 1j
    pre = np.exp(sign * dual.x_min * g.points / hbar)
    post = g.dx / np.sqrt(2.0 * np.pi * hbar) * np.exp(
        sign * (np.arange(g.n_points) * dual.dx) * g.x_min / hbar)
    if direction == "forward":
        out = post * np.fft.fft(pre * psi.values)
    else:
        out = post * g.n_points * np.fft.ifft(pre * psi.values)
    return SampledWavefunction(dual, out)


def chirp_multiply(psi: SampledWavefunction, c: float) -> SampledWavefunction:
    """Multiply by the unimodular quadratic phase exp(i*c*x**2 / (2*hbar))."""
    x = psi.grid.points
    phase = np.exp(1j * c * x**2 / (2.0 * psi.grid.hbar))
    return SampledWavefunction(psi.grid, phase * psi.values)


def scale(psi: SampledWavefunction, s: float) -> SampledWavefunction:
    """Rescale the argument: output(x) = sqrt(|s|) * psi(s*x), on the same grid.

    Uses band-limited (trigonometric) resampling, so the operation is
    norm-preserving to ~1e-12 for states that have decayed below ~1e-12 at
    the grid edges and remain resolved after compression.
    """
    if s == 0.0:
        raise DomainError("scale factor must be nonzero")
    g = psi.grid
    vals = np.sqrt(abs(s)) * sample_uniform(psi, s * g.x_min, s * g.dx, g.n_points)
    return SampledWavefunction(g, vals)


def cis(phase) -> np.ndarray:
    """exp(1j*phase) of a real array, by one cosine and one sine (the
    complex exp would also evaluate exp(0) for every element)."""
    phase = np.asarray(phase, dtype=np.float64)
    out = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _bluestein_rows(x: np.ndarray, m: int, beta) -> np.ndarray:
    """:func:`bluestein_czt` without its output chirp exp(0.5j*beta*k^2),
    which a caller that takes |y| does not need.  ``beta`` broadcasts
    against ``x.shape[:-1]``: rows that share a beta share one kernel FFT."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    beta = np.asarray(beta, dtype=np.float64)[..., None]
    nfft = 1 << int(n + m - 2).bit_length()
    j = np.arange(max(n, m), dtype=np.float64)
    chirp = cis(0.5 * beta * j * j)
    kernel = np.zeros(chirp.shape[:-1] + (nfft,), dtype=np.complex128)
    kernel[..., :m] = chirp[..., :m].conj()
    kernel[..., nfft - n + 1:] = chirp[..., n - 1:0:-1].conj()
    # scipy.fft is numpy's pocketfft; its overwrite_x lets each transform
    # reuse a buffer of ours (the zero-padded input, the kernel, the
    # product) instead of allocating another.
    y = np.zeros(np.broadcast_shapes(x.shape[:-1], chirp.shape[:-1]) + (nfft,),
                 dtype=np.complex128)
    np.multiply(x, chirp[..., :n], out=y[..., :n])
    y = scipy.fft.fft(y, overwrite_x=True)
    y *= scipy.fft.fft(kernel, overwrite_x=True)
    y = scipy.fft.ifft(y, overwrite_x=True)
    return y[..., :m]


def bluestein_czt(x: np.ndarray, m: int, beta) -> np.ndarray:
    """Chirp z-transform y[..., k] = sum_j x[..., j] * exp(1j*beta*j*k),
    k = 0..m-1, of the rows (last axis) of ``x``.

    ``beta`` is a scalar or has one entry per row (the shape of
    ``x.shape[:-1]``).  Bluestein's identity j*k = (j^2 + k^2 - (k-j)^2)/2
    turns the sum into a linear convolution with the chirp
    exp(0.5j*beta*j^2), done by power-of-two FFTs of length >= n + m - 1
    (Rabiner, Schafer & Rader, 1969).  The chirp is the exponential of a
    real phase, so its error grows only with the rounding of beta*j^2.
    """
    k = np.arange(m, dtype=np.float64)
    chirp = cis(0.5 * np.asarray(beta, dtype=np.float64)[..., None] * k * k)
    return _bluestein_rows(x, m, beta) * chirp


def sample_uniform(psi: SampledWavefunction, start: float, step: float, count: int) -> np.ndarray:
    """Band-limited evaluation of psi at the uniform points start + k*step
    (k = 0..count-1): the trigonometric interpolant of the samples, zero
    outside the sample window.  Exact for band-limited content;
    O((n+count) log).  Sampled at its own grid (start == x_min,
    step == dx, count == n), psi's values are copied, because the
    interpolant at the samples is the samples."""
    if step == 0.0:
        raise DomainError("sample step must be nonzero")
    g, n = psi.grid, psi.grid.n_points
    if start == g.x_min and step == g.dx and count == n:
        return psi.values.copy()
    shift = start - g.x_min
    alpha = 2.0 * np.pi / (n * g.dx)
    fhat = np.fft.fftshift(np.fft.fft(psi.values))
    out = bluestein_czt(fhat * cis(alpha * np.arange(n) * shift), count, alpha * step)
    k = np.arange(count)
    out *= cis(-alpha * (n / 2) * (shift + k * step)) / n
    pts = start + k * step
    out[(pts < g.x_min - 0.5 * g.dx) | (pts > g.x_min + (n - 0.5) * g.dx)] = 0.0
    return out


def _chirp_z_rows(f: np.ndarray, grid: Grid1D, c, start, step, count: int,
                  mirror: int = 0) -> np.ndarray:
    """The chirp-z sums y_k of the hbar-Fourier transform
    F[exp(i*c*x^2/(2*hbar)) * f](p_k) =
    dx/sqrt(2*pi*hbar) * exp(-i*(p_k*x_min + step*dx*k^2/2)/hbar) * y_k at
    p_k = start + k*step (k < count), for one state ``f`` on ``grid`` and
    one row per entry of ``c``, ``start`` and ``step``; zero where p lies
    outside the window of the dual grid.  For a state that has decayed at
    the grid edges this is the band-limited interpolant of
    :func:`hbar_fourier` at p.

    A nonzero ``mirror`` adds to each row the row of chirp -c at p*mirror,
    from the same chirp-z kernel spectrum.  At p its input is the row's
    with the chirp conjugated; at -p it is, by conjugation of the whole
    sum, the row of conj(f) at c and p.  Returns (R, 1 or 2, count).
    """
    c, start, step = (np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (c, start, step))
    g, hbar = grid, grid.hbar
    # p*x_m = p*x_min + start*m*dx + (k*m)*step*dx; the last term is the chirp-z kernel.
    shift = cis(np.multiply.outer(-start * g.dx / hbar, np.arange(g.n_points)))
    chirp = cis(np.multiply.outer(c / (2.0 * hbar), g.points**2))
    rows = np.empty((len(c), 2 if mirror else 1, g.n_points), dtype=np.complex128)
    if mirror == 1:
        shift *= f
        np.multiply(shift, chirp, out=rows[:, 0])
        np.multiply(shift, np.conjugate(chirp, out=chirp), out=rows[:, 1])
    else:
        shift *= chirp
        np.multiply(f, shift, out=rows[:, 0])
        if mirror:
            np.multiply(np.conj(f), shift, out=rows[:, 1])
    y = _bluestein_rows(rows, count, -step[:, None] * g.dx / hbar)
    p = start[:, None, None] + step[:, None, None] * np.arange(count)
    if mirror:
        p = p * np.array([1.0, mirror])[:, None]
    dual = g.momentum_grid()
    outside = (p < dual.x_min - 0.5 * dual.dx) | (p > dual.x_max - 0.5 * dual.dx)
    y[np.broadcast_to(outside, y.shape)] = 0.0
    return y


def inner_product(f: SampledWavefunction, g: SampledWavefunction) -> complex:
    """L2 inner product <f, g> = integral conj(f) g dx.

    When the grids differ, g is band-limited resampled onto the grid of f;
    both states must be well resolved on the finer of the two grids.
    """
    values = g.values
    if not f.grid.close_to(g.grid):
        values = sample_uniform(g, f.grid.x_min, f.grid.dx, f.grid.n_points)
    return complex(f.grid.dx * np.sum(np.conj(f.values) * values))
