"""Uniform grids, sampled wavefunctions and the elementary unitary operators.

Everything downstream is built from three operations on complex samples:
the hbar-scaled Fourier transform, multiplication by a quadratic phase
("chirp"), and argument rescaling with band-limited resampling.  The
Fourier transform is realized with explicit phase ramps around an FFT so
that it is the continuum kernel (2*pi*hbar)**(-1/2) * exp(-i*x*x'/hbar)
that is discretized, not the raw DFT.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

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


# 2*pi in three parts (Cody & Waite): the first two have at most 26
# significant bits, so k*part is exact for integers |k| < 2**27, and the
# three sum to 2*pi within 6e-33.
_TWO_PI_PARTS = (float.fromhex("0x1.921fb58p+2"), float.fromhex("-0x1.dde974p-25"),
                 float.fromhex("0x1.1a62633145c07p-52"))


@lru_cache(maxsize=16)
def _phase_plan(n: int) -> tuple[int, int, int, np.ndarray]:
    """The tables of :func:`_quadratic_phase` for rows of n points, m =
    M*q + r: (Q, M, L, ints).  Row i of ``ints`` holds the integer
    multipliers of a, b and c (i = 0, 1, 2) for each table entry: the Q
    coarse phases (m = M*q), the M fine phases (m = r < M), and the cross
    phases 2*M*k*r for k = 2^l, l < L, Q <= 2^L."""
    fine = 1 << max((n.bit_length() - 2) // 2, 0)
    coarse = -(-n // fine)
    levels = (coarse - 1).bit_length()
    q, r = np.arange(coarse, dtype=np.float64), np.arange(fine, dtype=np.float64)
    ints = np.zeros((3, coarse + fine * (1 + levels)))
    ints[:, :coarse] = (fine * q) ** 2, fine * q, np.ones(coarse)
    ints[:2, coarse:coarse + fine] = r * r, r
    ints[0, coarse + fine:] = (2.0 * fine * np.ldexp(1.0, np.arange(levels))[:, None] * r).ravel()
    ints.setflags(write=False)
    return coarse, fine, levels, ints


def _quadratic_phase(a, b, c, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """exp(1j*(a*m^2 + b*m + c)) for m = 0..n-1: one row of n per entry of
    the 1-d coefficient arrays ``a``, ``b`` and ``c``, each within a few
    ulps of the exact phase of those float coefficients, at any size of
    that phase.

    With m = M*q + r (M a power of two near sqrt(n), r < M) the phase is a
    coarse part in q, a*M^2*q^2 + b*M*q + c, a fine part a*r^2 + b*r and a
    cross part 2*a*M*q*r, each a*A + b*B + c*C for integers A, B, C
    (:func:`_phase_plan`).  Every row splits a, b and c into heads, on a
    grid 2^e coarse enough that the heads' phase is an exact float, and
    small tails.  The head phase is reduced mod 2*pi in the parts of
    ``_TWO_PI_PARTS`` before the tail joins it, so only the O(sqrt(n)
    log n) table phases of a row take a cosine and a sine.  The cross part
    exp(2j*a*M*q*r) is the product of the tables exp(2j*a*M*k*r), k = 2^l,
    over the bits of q: rows q in [k, 2k) are rows [0, k) times the table
    of k (log-depth doubling, not a sequential product).  A row's result
    depends only on its own coefficients.

    Returns out[:, :n].  ``out`` (default: a new array) holds one row per
    coefficient, each contiguous and at least n rounded up to a multiple
    of M long, and its entries from n up to that multiple are overwritten
    too.  For n a power of two that multiple is n."""
    coarse, fine, levels, ints = _phase_plan(n)
    coef = np.array([a, b, c], dtype=np.float64).reshape(3, -1)
    rows = coef.shape[1]
    bound = np.abs(coef[0]) * ints[0].max() + np.abs(coef[1]) * ints[1].max() + np.abs(coef[2])
    # Heads are multiples of 2^e and the head phase of every entry stays
    # below 2^(e+53), so each product and partial sum of heads is exact.
    e = np.frexp(bound)[1] - 52
    heads = np.ldexp(np.rint(np.ldexp(coef, -e)), e)
    tails = coef - heads
    phase = heads.T @ ints
    tail = tails[0, :, None] * ints[0]
    tail[:, :coarse + fine] += tails[1, :, None] * ints[1, :coarse + fine]
    tail[:, :coarse] += tails[2, :, None]
    turns = phase * (0.5 / np.pi)
    np.rint(turns, out=turns)
    part = turns * _TWO_PI_PARTS[0]
    phase -= part
    phase -= np.multiply(turns, _TWO_PI_PARTS[1], out=part)
    tail -= np.multiply(turns, _TWO_PI_PARTS[2], out=part)
    phase += tail
    tables = cis(phase)
    # The doubling runs over the first axis of a (q, row, r) array: its
    # slices [0, k) and [k, 2k) are disjoint blocks, which numpy multiplies
    # without the copy it makes for interleaved views of one array.
    cross = np.empty((coarse, rows, fine), dtype=np.complex128)
    cross[0] = tables[:, coarse:coarse + fine]
    seeds = tables[:, coarse + fine:].reshape(rows, levels, fine)
    for level in range(levels):
        lo = 1 << level
        hi = min(2 * lo, coarse)
        np.multiply(cross[:hi - lo], seeds[:, level], out=cross[lo:hi])
    cross *= tables[:, :coarse].T[:, :, None]
    if out is None:
        out = np.empty((rows, coarse * fine), dtype=np.complex128)
    # A plain copy into (row, q, r) order: a multiply that wrote there would
    # buffer its strided operands.
    np.copyto(out[:, :coarse * fine].reshape(rows, coarse, fine), cross.transpose(1, 0, 2))
    return out[:, :n]


def _bluestein_length(n: int, m: int) -> int:
    """The FFT length of Bluestein's convolution for chirp-z transforms of
    rows of n points onto m points: the power of two >= n + m - 1."""
    return 1 << int(n + m - 2).bit_length()


def _chirp_convolve(y: np.ndarray, spectrum: np.ndarray, m: int) -> np.ndarray:
    """Bluestein's convolution, in place: y holds the pre-chirped rows,
    zero-padded to a power of two >= n + m - 1, and ``spectrum`` the FFT
    of the conjugate chirp exp(-0.5j*beta*j^2) laid out for a circular
    convolution (j at index j for j < m, at index nfft - j for 0 < j < n,
    zero between), one row per row of y or broadcasting against them.
    Returns y[..., :m]."""
    # Each transform writes into a buffer of ours (out=) instead of
    # allocating another.
    np.fft.fft(y, out=y)
    y *= spectrum
    np.fft.ifft(y, out=y)
    return y[..., :m]


# Bytes of kernel spectrum rows that :func:`_bluestein_plan` keeps per
# process.  The metaplectic and chirp-FFT sweeps of one 1024-point state
# take 251 rows of 2048 points, 7.8 MiB.
SPECTRUM_CACHE_BYTES = 16 << 20


class _SpectrumCache:
    """The kernel spectrum rows of :func:`_bluestein_plan`, keyed by
    (n, m, the bits of beta), so that 0.0 and -0.0 never share a row: at
    most SPECTRUM_CACHE_BYTES of them, the least recently used evicted
    first.  A row of a non-finite beta is never kept.  Rows are built and
    copied outside the lock, and a kept row is never written, so a row
    taken stays valid after its eviction."""

    def __init__(self):
        self._rows = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()
            self.nbytes = 0

    def take(self, n: int, m: int, beta: np.ndarray, build) -> np.ndarray:
        """The spectrum rows of the entries of the 1-d float array
        ``beta``, shape (len(beta), nfft): the kept rows, and
        ``build(index)`` for the rows of beta[index] not kept."""
        keys = [(n, m, bits) for bits in beta.view(np.uint64).tolist()]
        with self._lock:
            found = [self._rows.get(key) for key in keys]
            for key, row in zip(keys, found):
                if row is not None:
                    self._rows.move_to_end(key)
        missing = [r for r, row in enumerate(found) if row is None]
        if found and not missing:
            return np.stack(found)
        built = build(np.array(missing, dtype=np.intp))
        finite = np.isfinite(beta)
        kept = [(keys[r], row.copy()) for r, row in zip(missing, built)
                if finite[r] and row.nbytes <= SPECTRUM_CACHE_BYTES]
        with self._lock:
            for key, row in kept:
                if key not in self._rows:
                    row.setflags(write=False)
                    self._rows[key] = row
                    self.nbytes += row.nbytes
            while self.nbytes > SPECTRUM_CACHE_BYTES:
                self.nbytes -= self._rows.popitem(last=False)[1].nbytes
        if len(missing) == len(keys):
            return built
        for r, row in zip(missing, built):
            found[r] = row
        return np.stack(found)


_SPECTRA = _SpectrumCache()


def _bluestein_plan(n: int, m: int, beta) -> np.ndarray:
    """The kernel spectrum of :func:`_chirp_convolve` for chirp-z
    transforms of rows of n points onto m points, one row per entry of
    ``beta`` (a scalar or an array; shape beta.shape + (nfft,)): the FFT
    of the conjugate chirp exp(-0.5j*beta*j^2), j < max(n, m), which
    :func:`_quadratic_phase` writes within a few ulps of the exact phase
    at any size of it, laid out for the circular convolution.  Its rows
    are kept per process (``_SPECTRA``), so a later call on the same n, m
    and beta skips the phase generator and the FFT, with the same bits."""
    beta = np.asarray(beta, dtype=np.float64)
    flat = beta.ravel()
    nfft = _bluestein_length(n, m)

    def build(rows):
        kernel = np.empty((len(rows), nfft), dtype=np.complex128)
        zero = np.zeros(len(rows))
        _quadratic_phase(-0.5 * flat[rows], zero, zero, int(max(n, m)), out=kernel)
        kernel[:, nfft - n + 1:] = kernel[:, n - 1:0:-1]
        kernel[:, m:nfft - n + 1] = 0.0
        return np.fft.fft(kernel, out=kernel)

    spectrum = _SPECTRA.take(n, m, flat, build)
    return spectrum.reshape(beta.shape + (nfft,))


def bluestein_czt(x: np.ndarray, m: int, beta, alpha=0.0, center=0.0) -> np.ndarray:
    """Chirp z-transform y[..., k] = sum_j x[..., j] *
    exp(1j*(alpha + beta*k)*(j - center)), k = 0..m-1, of the rows (last
    axis) of ``x``: the transform of Rabiner, Schafer & Rader (1969) with
    start point exp(1j*alpha), step exp(1j*beta) and index origin
    ``center``.

    ``beta``, ``alpha`` and ``center`` are scalars or have one entry per
    row (broadcasting against ``x.shape[:-1]``).  Bluestein's identity
    j*k = (j^2 + k^2 - (k-j)^2)/2 turns the sum into a linear convolution
    with the chirp exp(0.5j*beta*j^2), done by power-of-two FFTs of length
    >= n + m - 1, between the input phase 0.5*beta*j^2 + alpha*(j - center)
    and the output phase 0.5*beta*k^2 - beta*center*k.  Both phases are
    within a few ulps of the exact phase of the float coefficients at any
    size (:func:`_quadratic_phase`; alpha*center and beta*center are exact
    for a center that is a power of two or zero), so the error stays a few
    ulps of sum_j |x[..., j]| however large the phases grow.  A
    non-finite beta, alpha or center, or a negative m, raises DomainError;
    m = 0 gives empty rows, and rows of no points give zeros.
    """
    coef = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (beta, alpha, center)))
    if not all(np.isfinite(v).all() for v in coef):
        raise DomainError("chirp-z beta, alpha and center must be finite")
    if m < 0:
        raise DomainError(f"chirp-z output count must be >= 0, got {m}")
    x = np.asarray(x, dtype=np.complex128)
    n, shape = x.shape[-1], np.broadcast_shapes(x.shape[:-1], coef[0].shape)
    if m == 0 or n == 0:
        return np.zeros(shape + (m,), dtype=np.complex128)
    b, a, c = (v.ravel() for v in coef)
    size = int(max(n, m))
    phase = _quadratic_phase(np.concatenate([0.5 * b, 0.5 * b]), np.concatenate([a, -b * c]),
                             np.concatenate([-a * c, np.zeros_like(c)]), size)
    phase = phase.reshape((2,) + coef[0].shape + (size,))
    y = np.zeros(shape + (_bluestein_length(n, m),), dtype=np.complex128)
    np.multiply(x, phase[0, ..., :n], out=y[..., :n])
    return _chirp_convolve(y, _bluestein_plan(n, m, beta), m) * phase[1, ..., :m]


def sample_uniform(psi: SampledWavefunction, start: float, step: float, count: int) -> np.ndarray:
    """Band-limited evaluation of psi at the uniform points start + k*step
    (k = 0..count-1): the trigonometric interpolant of the samples, zero
    outside the sample window.  Exact for band-limited content;
    O((n+count) log).  It is one chirp-z transform of the centered
    spectrum: the term of frequency index j - n/2 at output k has the
    phase (ramp + beta*k)*(j - n/2), where ramp and beta are start - x_min
    and step times the frequency spacing 2*pi/(n*dx).  Sampled at its own
    grid (start == x_min, step == dx, count == n), psi's values are
    copied, because the interpolant at the samples is the samples.  A
    non-finite start or step, a zero step or a negative count raises
    DomainError."""
    if not (np.isfinite(start) and np.isfinite(step)):
        raise DomainError(f"sample start and step must be finite, got {start}, {step}")
    if step == 0.0:
        raise DomainError("sample step must be nonzero")
    if count < 0:
        raise DomainError(f"sample count must be >= 0, got {count}")
    g, n = psi.grid, psi.grid.n_points
    if start == g.x_min and step == g.dx and count == n:
        return psi.values.copy()
    unit = 2.0 * np.pi / (n * g.dx)
    fhat = np.fft.fftshift(np.fft.fft(psi.values))
    out = bluestein_czt(fhat, count, unit * step, unit * (start - g.x_min), n / 2)
    out /= n
    pts = start + np.arange(count) * step
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
    g, hbar, n = grid, grid.hbar, grid.n_points
    # p*x_m = p*x_min + start*m*dx + (k*m)*step*dx; the last term is the
    # chirp-z kernel.  The input phase of a row, the linear shift
    # -start*dx*m/hbar, the chirp c*x_m^2/(2*hbar) and Bluestein's pre-chirp
    # -step*dx*m^2/(2*hbar), is one quadratic in m: pre + chirp, and
    # pre - chirp for the mirror row of chirp -c.
    pre = np.array([-0.5 * step * g.dx / hbar, -start * g.dx / hbar, np.zeros_like(c)])
    chirp = np.array([c * g.dx**2 / (2.0 * hbar), c * g.x_min * g.dx / hbar,
                      c * g.x_min**2 / (2.0 * hbar)])
    # The generator writes the input phases straight into the FFT buffer.
    nfft = _bluestein_length(n, count)
    y = np.zeros((len(c), 2 if mirror else 1, nfft), dtype=np.complex128)
    if mirror == 1:
        coef = np.stack([pre + chirp, pre - chirp], axis=-1).reshape(3, -1)
        _quadratic_phase(*coef, n, out=y.reshape(-1, nfft))
        y[..., :n] *= f
    else:
        _quadratic_phase(*(pre + chirp), n, out=y[:, 0])
        if mirror:
            np.multiply(np.conj(f), y[:, 0, :n], out=y[:, 1, :n])
        y[:, 0, :n] *= f
    # The kernel is the plan's for beta = 2*pre[0] = -step*dx/hbar, whose
    # -beta/2 is -pre[0] to the bit.  The input phase holds the pre-chirp
    # and the output chirp is not applied, so the rows need no chirp.
    y = _chirp_convolve(y, _bluestein_plan(n, count, 2.0 * pre[0])[:, None], count)
    dual = g.momentum_grid()
    lo, hi = dual.x_min - 0.5 * dual.dx, dual.x_max - 0.5 * dual.dx
    # p_k rounds monotonically in k, so a row whose two ends lie inside
    # [lo, hi] lies inside.
    ends = start[:, None] + step[:, None] * np.array([0.0, count - 1])
    for j, sign in enumerate((1.0, float(mirror))[:y.shape[1]]):
        if np.any((sign * ends < lo) | (sign * ends > hi)):
            p = sign * (start[:, None] + step[:, None] * np.arange(count))
            y[:, j][(p < lo) | (p > hi)] = 0.0
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


def _usable_cpus() -> int:
    """The CPUs this process may run on (all CPUs where the OS does not say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_blocks(run, blocks, workers: int | None = None) -> None:
    """Call ``run(block)`` once for every entry of the sequence ``blocks``,
    on ``workers`` threads (default: every usable CPU), at most one per
    block.  The calling thread is one of the workers (each thread that
    allocates block temporaries keeps a malloc arena of them resident), and
    every worker takes whole blocks from one shared queue, so a ``run``
    that writes only its own block's output gives the same bits for any
    worker count.

    If a block raises, no worker takes another block, and the first
    exception is raised here once the other workers have finished the
    block they hold.  ``run`` is called from other threads than the
    caller's: it must not rely on thread-local state."""
    todo, done = iter(blocks), object()
    taking = threading.Lock()
    errors = []

    def drain():
        try:
            while True:
                with taking:
                    block = done if errors else next(todo, done)
                if block is done:
                    return
                run(block)
        except BaseException as exc:
            with taking:
                errors.append(exc)

    count = min(len(blocks), _usable_cpus() if workers is None else workers)
    helpers = [threading.Thread(target=drain) for _ in range(count - 1)]
    for helper in helpers:
        helper.start()
    drain()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
