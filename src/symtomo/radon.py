"""Forward quadrature tomograms by three routes and ramp-filtered back-projection.

A tomogram R(X; mu, nu) is the probability density of the observable
mu*x + nu*p.  The three forward routes — rotation operator, chirp-FFT and
phase-space line integral — are mathematically identical and serve as
cross-validation for one another.  The inverse is a filtered
back-projection over angles in [0, pi): each tomogram is ramp-filtered
(|r| in the hbar-frequency domain of X) and accumulated along
x*cos(theta) + p*sin(theta), with overall constant 1/(2*pi*hbar).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import ConfigError, DomainError, UnsupportedOperation
from .grids import (
    Grid1D,
    SampledWavefunction,
    chirp_multiply,
    hbar_fourier,
    sample_uniform,
)
from .metaplectic import RotationParams, metaplectic_rotation
from .wigner import WignerMap, default_momentum_window

__all__ = [
    "Tomogram",
    "TomogramSet",
    "radon_metaplectic",
    "radon_chirp_fft",
    "radon_line_integral",
    "chirp_resolvable",
    "inverse_radon",
    "mix_tomograms",
    "compute_tomogram_set",
    "sweep_angles",
]

NEGATIVE_FLOOR = 1e-10
MIN_ANGLES = 8
# Filtered back-projection: zero-padding of each projection before the ramp
# filter, upsampling of the filtered projection before linear interpolation,
# start of the ramp's raised-cosine rolloff as a fraction of Nyquist, and
# output samples per back-projection block.
PAD_FACTOR = 8
UPSAMPLE = 4
TAPER_START = 0.8
GATHER_BLOCK = 32768


@dataclass(frozen=True)
class Tomogram:
    """One Radon slice: density over X for the direction (mu, nu)."""

    mu: float
    nu: float
    x: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    hbar: float = 1.0
    route: str = ""
    accuracy_warning: bool = False

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if x.ndim != 1 or x.shape != v.shape:
            raise ConfigError("x and values must be 1-d arrays of equal length")
        if len(x) > 1:
            steps = np.diff(x)
            if not np.allclose(steps, steps[0], rtol=1e-12, atol=0):
                raise ConfigError("tomogram X grid must be uniform")
        floor = -NEGATIVE_FLOOR * max(1.0, float(np.max(v, initial=0.0)))
        if float(v.min(initial=0.0)) < floor:
            raise DomainError(
                f"tomogram values dip to {v.min():.3e}, below the numerical floor"
            )
        v = np.clip(v, 0.0, None)
        x.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)

    @property
    def lam(self) -> float:
        return float(np.hypot(self.mu, self.nu))

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def mass(self) -> float:
        return float(self.values.sum() * self.dx)

    def moments(self, truncate_sigmas: float = 6.0) -> tuple[float, float]:
        """(mean, variance) with quadrature truncated at ``truncate_sigmas``
        estimated standard deviations, to suppress tail-noise amplification."""
        w = self.values
        m0 = w.sum() * self.dx
        if m0 <= 0:
            raise DomainError("tomogram has no mass")
        mean = float((self.x * w).sum() * self.dx / m0)
        var = float(((self.x - mean) ** 2 * w).sum() * self.dx / m0)
        sd = np.sqrt(var)
        keep = np.abs(self.x - mean) <= truncate_sigmas * sd
        m0 = w[keep].sum() * self.dx
        mean = float((self.x[keep] * w[keep]).sum() * self.dx / m0)
        var = float(((self.x[keep] - mean) ** 2 * w[keep]).sum() * self.dx / m0)
        return mean, var


def _resolve_x_grid(x_grid, lam: float, base: Grid1D) -> tuple[float, float, int]:
    """Normalize an X-grid spec to (start, step, count).

    Default: the state grid scaled by lambda, so tomograms of any length
    (mu, nu) keep their full mass on the window.
    """
    if x_grid is None:
        return lam * base.x_min, lam * base.dx, base.n_points
    if isinstance(x_grid, Grid1D):
        return x_grid.x_min, x_grid.dx, x_grid.n_points
    pts = np.asarray(x_grid, dtype=np.float64)
    if pts.ndim != 1 or len(pts) < 2:
        raise ConfigError("x_grid must be a Grid1D or a 1-d array of >= 2 points")
    steps = np.diff(pts)
    if not np.allclose(steps, steps[0], rtol=1e-12, atol=0):
        raise ConfigError("x_grid must be uniform")
    return float(pts[0]), float(steps[0]), len(pts)


def radon_metaplectic(psi: SampledWavefunction, mu: float, nu: float,
                      x_grid=None) -> Tomogram:
    """Tomogram via the rotation-operator identity
    R(X) = |U_(mu,nu) psi(X/lambda)|^2 / lambda."""
    params = RotationParams(mu, nu)
    lam = params.lam
    rotated = metaplectic_rotation(psi, params)
    start, step, count = _resolve_x_grid(x_grid, lam, psi.grid)
    vals = sample_uniform(rotated, start / lam, step / lam, count)
    return Tomogram(mu, nu, start + step * np.arange(count),
                    np.abs(vals) ** 2 / lam, psi.grid.hbar, route="metaplectic")


def chirp_resolvable(psi: SampledWavefunction, mu: float, nu: float,
                     safety: float = 0.9) -> bool:
    """Whether the chirp exp(i*mu*x^2/(2*hbar*nu)) stays below the Nyquist
    rate of the state grid over the grid extent."""
    g = psi.grid
    x_edge = max(abs(g.x_min), abs(g.x_max))
    return abs(mu / nu) * x_edge / g.hbar <= safety * np.pi / g.dx


def radon_chirp_fft(psi: SampledWavefunction, mu: float, nu: float,
                    x_grid=None) -> Tomogram:
    """Tomogram via chirp multiplication and a single Fourier transform:
    R(X) = |F[exp(i*mu*x'^2/(2*hbar*nu)) psi](X/nu)|^2 / |nu|.

    Requires nu != 0; accuracy additionally requires the chirped state to
    remain band-limited (see :func:`chirp_resolvable`), which bounds |mu/nu|
    in terms of the grid Nyquist rate.  Callers wanting arbitrary
    directions should fall back to :func:`radon_metaplectic`.
    """
    if nu == 0.0:
        raise UnsupportedOperation("chirp-FFT route requires nu != 0; use radon_metaplectic")
    params = RotationParams(mu, nu)
    lam = params.lam
    warn = not chirp_resolvable(psi, mu, nu)
    chirped = chirp_multiply(psi, mu / nu)
    transformed = hbar_fourier(chirped, "forward")
    start, step, count = _resolve_x_grid(x_grid, lam, psi.grid)
    vals = sample_uniform(transformed, start / nu, step / nu, count)
    return Tomogram(mu, nu, start + step * np.arange(count),
                    np.abs(vals) ** 2 / abs(nu), psi.grid.hbar,
                    route="chirp-fft", accuracy_warning=warn)


def radon_line_integral(w: WignerMap, mu: float, nu: float, x_grid=None,
                        step_fraction: float = 0.5) -> Tomogram:
    """Tomogram as 1/lambda times the unit-speed line integral of the Wigner
    map along mu*x + nu*p = X.

    Composite trapezoid quadrature with bilinear sampling of the map (zero
    outside its window); accuracy is limited by the bilinear stencil, so
    expect agreement with the operator routes at the ~(grid spacing)^2
    level rather than at spectral accuracy.
    """
    params = RotationParams(mu, nu)
    lam = params.lam
    gx, gp = w.x_grid, w.p_grid
    base = Grid1D(gx.x_min, gx.n_points, gx.dx, w.hbar)
    start, step, count = _resolve_x_grid(x_grid, lam, base)
    x_out = start + step * np.arange(count)

    ds = step_fraction * min(gx.dx, gp.dx)
    half_diag = 0.5 * np.hypot(gx.x_max - gx.x_min, gp.x_max - gp.x_min)
    n_s = int(np.ceil(2 * half_diag / ds)) + 1
    s = np.linspace(-half_diag, half_diag, n_s)

    interp = RegularGridInterpolator(
        (gx.points, gp.points), w.values, method="linear",
        bounds_error=False, fill_value=0.0,
    )
    values = np.empty(count)
    block = max(1, int(4e6 / n_s))
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        xs = (mu * x_out[lo:hi, None] / lam**2) - (nu / lam) * s[None, :]
        ps = (nu * x_out[lo:hi, None] / lam**2) + (mu / lam) * s[None, :]
        vals = interp(np.stack([xs, ps], axis=-1))
        values[lo:hi] = np.trapezoid(vals, dx=s[1] - s[0], axis=1) / lam
    warn = w.accuracy_warning or w.edge_decay() > 1e-10
    return Tomogram(mu, nu, x_out, values, w.hbar,
                    route="line-integral", accuracy_warning=warn)


@dataclass(frozen=True)
class TomogramSet:
    """Tomograms at strictly increasing, equispaced angles in [0, pi) with
    (mu, nu) = (cos theta, sin theta) and a common X grid."""

    tomograms: tuple[Tomogram, ...]

    def __post_init__(self):
        tms = tuple(self.tomograms)
        if not tms:
            raise ConfigError("empty tomogram set")
        first = tms[0]
        angles = []
        for t in tms:
            if abs(t.lam - 1.0) > 1e-12:
                raise ConfigError("tomogram set entries must have unit (mu, nu)")
            if t.x.shape != first.x.shape or not np.allclose(t.x, first.x, rtol=0, atol=1e-12):
                raise ConfigError("tomogram set entries must share one X grid")
            if abs(t.hbar - first.hbar) > 1e-12 * first.hbar:
                raise ConfigError("tomogram set entries must share hbar")
            theta = np.arctan2(t.nu, t.mu)
            if theta < -1e-12 or theta >= np.pi - 1e-12:
                raise ConfigError("tomogram angles must lie in [0, pi)")
            angles.append(theta)
        angles = np.asarray(angles)
        if len(angles) > 1:
            d = np.diff(angles)
            if np.any(d <= 0):
                raise ConfigError("tomogram angles must be strictly increasing")
            if not np.allclose(d, d[0], rtol=1e-9, atol=1e-12):
                raise ConfigError("tomogram angles must be equispaced")
        object.__setattr__(self, "tomograms", tms)

    def __len__(self) -> int:
        return len(self.tomograms)

    def __iter__(self):
        return iter(self.tomograms)

    @property
    def angles(self) -> np.ndarray:
        return np.array([np.arctan2(t.nu, t.mu) for t in self.tomograms])

    @property
    def x(self) -> np.ndarray:
        return self.tomograms[0].x

    @property
    def hbar(self) -> float:
        return self.tomograms[0].hbar


def sweep_angles(n_angles: int) -> np.ndarray:
    """Equispaced angles theta_k = k*pi/n covering [0, pi)."""
    if n_angles < 1:
        raise ConfigError("need at least one angle")
    return np.pi * np.arange(n_angles) / n_angles


def compute_tomogram_set(psi: SampledWavefunction, n_angles: int,
                         route: str = "metaplectic", x_grid=None,
                         threads: int | None = None) -> TomogramSet:
    """Tomograms of one state at an equispaced angle sweep over [0, pi).

    ``route`` selects the forward algorithm; the chirp-FFT route falls back
    to the rotation-operator route for angles where it is undefined
    (nu = 0) or where the chirp would exceed the grid Nyquist rate.
    ``threads`` defaults to the TOMO_THREADS environment variable (1 if
    unset); tomograms at different angles are computed independently.
    """
    if route not in ("metaplectic", "chirp-fft"):
        raise ConfigError(f"unknown sweep route {route!r}")
    angles = sweep_angles(n_angles)
    if threads is None:
        raw = os.environ.get("TOMO_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError as exc:
            raise ConfigError(f"TOMO_THREADS must be an integer, got {raw!r}") from exc

    def one(theta: float) -> Tomogram:
        mu, nu = float(np.cos(theta)), float(np.sin(theta))
        if route == "chirp-fft" and nu != 0.0 and chirp_resolvable(psi, mu, nu):
            return radon_chirp_fft(psi, mu, nu, x_grid=x_grid)
        return radon_metaplectic(psi, mu, nu, x_grid=x_grid)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tms = list(pool.map(one, angles))
    else:
        tms = [one(t) for t in angles]
    return TomogramSet(tuple(tms))


def mix_tomograms(weights, tomograms) -> Tomogram:
    """Convex combination of tomograms taken at one common (mu, nu) and grid."""
    weights = np.asarray(weights, dtype=np.float64)
    tms = list(tomograms)
    if len(weights) != len(tms) or len(tms) == 0:
        raise DomainError("need one weight per tomogram")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise DomainError("weights must be nonnegative and sum to 1")
    first = tms[0]
    for t in tms[1:]:
        if abs(t.mu - first.mu) > 1e-12 or abs(t.nu - first.nu) > 1e-12:
            raise DomainError("tomograms must share (mu, nu)")
        if t.x.shape != first.x.shape or not np.allclose(t.x, first.x, rtol=0, atol=1e-12):
            raise DomainError("tomograms must share the X grid")
        if abs(t.hbar - first.hbar) > 1e-12 * first.hbar:
            raise DomainError("tomograms must share hbar")
    values = sum(w * t.values for w, t in zip(weights, tms))
    return Tomogram(first.mu, first.nu, first.x, values, first.hbar, route="mixture",
                    accuracy_warning=any(t.accuracy_warning for t in tms))


def _tapered_ramp(n_pad: int, dx: float, hbar: float) -> np.ndarray:
    """|r| at the rfft frequencies r_q = q*dr (q = 0..n_pad/2) of a grid with
    spacing ``dx``, with a raised-cosine rolloff above TAPER_START of the
    Nyquist frequency.  The rolloff reaches exactly 0 at Nyquist."""
    dr = 2.0 * np.pi * hbar / (n_pad * dx)
    r = dr * np.arange(n_pad // 2 + 1)
    r_max = r[-1]
    ramp = r.copy()
    hi = r > TAPER_START * r_max
    ramp[hi] *= 0.5 * (1 + np.cos(np.pi * (r[hi] - TAPER_START * r_max)
                                  / ((1 - TAPER_START) * r_max)))
    return ramp


def _back_project(out: np.ndarray, fine: np.ndarray, ux: np.ndarray, up: np.ndarray):
    """out[i, j] += linear interpolation of ``fine`` at the fractional index
    u = ux[i] + up[j]; zero where u falls outside [0, len(fine) - 1].

    Works through row blocks of about GATHER_BLOCK samples, so the
    temporaries stay in cache whatever the map size."""
    last = len(fine) - 1
    slope = np.diff(fine, append=0.0)
    # u is affine in (i, j), so its extremes over the map are the sums of
    # the extremes of ux and up.
    inside = ux.min() + up.min() >= 0.0 and ux.max() + up.max() <= last
    rows = max(1, GATHER_BLOCK // len(up))
    for lo in range(0, len(ux), rows):
        u = np.add.outer(ux[lo:lo + rows], up)
        if not inside:
            outside = (u < 0.0) | (u > last)
            np.clip(u, 0.0, last, out=u)
        k = np.floor(u)
        u -= k
        k = k.astype(np.intp)
        u *= slope.take(k)
        u += fine.take(k)
        if not inside:
            u[outside] = 0.0
        out[lo:lo + rows] += u


def inverse_radon(tomos: TomogramSet, x_grid: Grid1D, p_grid: Grid1D | None = None,
                  constant_scale: float = 1.0) -> WignerMap:
    """Filtered back-projection reconstruction of the Wigner map.

    Each tomogram is zero-padded PAD_FACTOR-fold: the ramp kernel has
    slowly decaying 1/t^2 tails, and padding both prevents their circular
    wrap-around and retains them over the wider support that
    back-projection samples.  One real FFT, the tapered |r| ramp (see
    :func:`_tapered_ramp`) and one inverse real FFT of UPSAMPLE times the
    length give the filtered projection on a UPSAMPLE-fold finer grid:
    zero-padding the spectrum evaluates its trigonometric interpolant, and
    the ramp vanishes at Nyquist, so that interpolant is unambiguous.  The
    fine samples beyond x0 + (n_pad - 1/2)*dX are zeroed, and the map
    accumulates their linear interpolation along x*cos(theta) +
    p*sin(theta), with zero outside the padded window.

    Parameters
    ----------
    tomos : TomogramSet
        At least 8 tomograms at the full sweep theta_k = k*pi/A; accuracy
        targets assume A >= 64.  The common X grid must be centered at zero
        (FFT layout) and edge-decayed.
    x_grid, p_grid : Grid1D
        Output window.  ``p_grid`` defaults to the alias-free momentum
        window of ``x_grid``.
    constant_scale : float
        Multiplies the analytically derived overall constant
        1/(2*pi*hbar).  Leave at 1; exists as a negative-control hook for
        the self-check suite.
    """
    n_angles = len(tomos)
    if n_angles < MIN_ANGLES:
        raise DomainError(f"need at least {MIN_ANGLES} angles, got {n_angles}")
    angles = tomos.angles
    if not np.allclose(angles, sweep_angles(n_angles), rtol=0, atol=1e-9):
        raise DomainError(
            f"back-projection needs the full sweep theta_k = k*pi/{n_angles}; "
            f"got angles {angles[0]:.6g}..{angles[-1]:.6g}")
    if p_grid is None:
        p_grid = default_momentum_window(x_grid)
    hbar = tomos.hbar
    x = tomos.x
    n = len(x)
    dX = float(x[1] - x[0])
    if abs(x[0] + x[-1] + dX) > 1e-9 * max(1.0, abs(x[0])):
        raise DomainError("tomogram X grid must be centered at zero")

    n_pad = PAD_FACTOR * n
    lead = (n_pad - n) // 2
    n_fine = UPSAMPLE * n_pad
    fine_dx = dX / UPSAMPLE
    # irfft onto n_fine points divides by n_fine, not n_pad.
    ramp = UPSAMPLE * _tapered_ramp(n_pad, dX, hbar)
    padded = np.zeros(n_pad)
    # Fractional fine-grid index of a point (x, p) along angle theta:
    # u = x_idx*cos(theta) + p_idx*sin(theta) - origin.
    origin = (float(x[0]) - lead * dX) / fine_dx
    x_idx = x_grid.points / fine_dx
    p_idx = p_grid.points / fine_dx

    out = np.zeros((x_grid.n_points, p_grid.n_points))
    for theta, t in zip(angles, tomos):
        padded[lead:lead + n] = t.values
        fine = np.fft.irfft(np.fft.rfft(padded) * ramp, n=n_fine)
        fine[n_fine - UPSAMPLE // 2 + 1:] = 0.0
        _back_project(out, fine, x_idx * np.cos(theta) - origin, p_idx * np.sin(theta))
    out *= constant_scale * (np.pi / n_angles) / (2.0 * np.pi * hbar)
    warn = any(t.accuracy_warning for t in tomos)
    return WignerMap(x_grid, p_grid, out, hbar, accuracy_warning=warn)
