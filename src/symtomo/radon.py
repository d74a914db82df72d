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

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, UnsupportedOperation
from .grids import (
    Grid1D,
    SampledWavefunction,
    _bluestein_length,
    _chirp_z_rows,
    _run_blocks,
    bluestein_czt,
    cis,
)
from .grids import hbar_fourier  # noqa: F401  (perfbench's tracer patches it here too)
from .metaplectic import RotationParams, quarter_turn
from .wigner import WignerMap, default_momentum_window

__all__ = [
    "Tomogram",
    "TomogramSet",
    "radon_metaplectic",
    "radon_chirp_fft",
    "radon_line_integral",
    "chirp_resolvable",
    "inverse_radon",
    "compute_tomogram_set",
    "sweep_angles",
]

NEGATIVE_FLOOR = 1e-10
# Edge decay (border over peak) above which a route flags its tomogram: of
# the Wigner map for the line integral, of psi for the rotation route.
EDGE_DECAY_FLAG = 1e-10
MIN_ANGLES = 8
# Rows per row block of a sweep (half of them lead rows, half their mirror
# rows): about ROW_SAMPLES complex samples of the block's (rows, nfft) FFT
# buffer, and never fewer than ROW_BLOCK rows.  That is 128 rows for
# n = 256, 32 for n = 1024 and 16 for n = 4096 (x grid = state grid).
# Smaller blocks spend their time in short numpy calls that pass the GIL
# between the workers; larger ones gained nothing and hold more
# temporaries per worker.  Both routes on two workers of a 2-core host:
# 256 points, 180 angles: 17.4, 13.4, 10.7, 10.5 ms at 32, 64, 128, 256 rows;
# 1024 points, 360 angles: 63.2, 45.6, 45.2 ms at 16, 32, 64 rows;
# 4096 points, 360 angles: 186, 159, 160 ms at 8, 16, 32 rows.
ROW_SAMPLES = 1 << 16
ROW_BLOCK = 16
# Map rows per block of a line integral: bounds a block's F rows and phase
# table, about 1 MiB each for n_pad = 2048.
LINE_BLOCK = 64
# Filtered back-projection: zero-padding of each projection before the ramp
# filter, upsampling of the filtered projection before linear interpolation,
# start of the ramp's raised-cosine rolloff as a fraction of Nyquist, angle
# pairs per FFT call of the ramp filter, and angle pairs whose tables one
# gather takes (a multiple of PAIR_CHUNK, which keeps the FFT calls the same
# and bounds the tables held at once).  GATHER_BLOCK is the number of real
# samples per row block of a gather (half as many complex ones).
PAD_FACTOR = 8
UPSAMPLE = 4
TAPER_START = 0.8
PAIR_CHUNK = 4
PAIR_GROUP = 16
GATHER_BLOCK = 32768
CHIRP_SAFETY = 0.9  # fraction of the Nyquist rate a resolvable chirp may reach
MOMENT_SIGMAS = 6.0  # standard deviations kept by Tomogram.moments


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
        if np.ndim(self.values) != 1:
            raise ConfigError("x and values must be 1-d arrays of equal length")
        x, v = _checked_samples(self.x, self.values)
        if not 0 < self.hbar < np.inf:
            raise ConfigError(f"hbar must be positive and finite, got {self.hbar}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def mass(self) -> float:
        return float(self.values.sum() * self.dx)

    def moments(self) -> tuple[float, float]:
        """(mean, variance) with quadrature truncated at MOMENT_SIGMAS
        estimated standard deviations, to suppress tail-noise amplification."""
        w = self.values
        m0 = w.sum() * self.dx
        if m0 <= 0:
            raise DomainError("tomogram has no mass")
        mean = float((self.x * w).sum() * self.dx / m0)
        var = float(((self.x - mean) ** 2 * w).sum() * self.dx / m0)
        sd = np.sqrt(var)
        keep = np.abs(self.x - mean) <= MOMENT_SIGMAS * sd
        m0 = w[keep].sum() * self.dx
        mean = float((self.x[keep] * w[keep]).sum() * self.dx / m0)
        var = float(((self.x[keep] - mean) ** 2 * w[keep]).sum() * self.dx / m0)
        return mean, var


def _uniform(x: np.ndarray) -> bool:
    """Whether each point of the 1-d grid ``x`` of two or more points lies
    within 1e-12 of the step plus 8 ulps of max |x| of x_0 + k*step, step =
    (x_(n-1) - x_0)/(n - 1).  The ulps admit a grid rounded point by point,
    as start + k*step is: its points and the line through its ends each lie
    within 4 ulps of the exact grid."""
    step = (x[-1] - x[0]) / (len(x) - 1)
    tol = 1e-12 * abs(step) + 8.0 * np.spacing(np.max(np.abs(x)))
    return bool(np.all(np.abs(x - (x[0] + step * np.arange(len(x)))) <= tol))


def _checked_samples(x, values) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float arrays of an X grid and of the densities on it (the
    last axis of ``values``), after the rules every tomogram obeys: finite
    samples, a uniform X grid of two or more points, and no value below
    -NEGATIVE_FLOOR times max(1, the row's peak).  Values in that floor are
    clipped to 0.  ``x`` is copied, and so is ``values`` unless it already
    is a read-only float64 array that owns its memory and has no sign bit
    to clip, as a sweep hands it over."""
    x = np.array(x, dtype=np.float64)
    adopt = (isinstance(values, np.ndarray) and values.dtype == np.float64
             and values.flags.owndata and not values.flags.writeable)
    v = values if adopt else np.array(values, dtype=np.float64)
    if x.ndim != 1 or v.shape[-1:] != x.shape:
        raise ConfigError("x and values must be 1-d arrays of equal length")
    if len(x) < 2:
        raise ConfigError(f"a tomogram X grid needs at least 2 points, got {len(x)}")
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise ConfigError("tomogram X grid and values must be finite")
    if not _uniform(x):
        raise ConfigError("tomogram X grid must be uniform")
    low = v.min(axis=-1, initial=0.0)
    dips = low < -NEGATIVE_FLOOR * np.maximum(1.0, v.max(axis=-1, initial=0.0))
    if np.any(dips):
        raise DomainError(
            f"tomogram values dip to {np.min(low):.3e}, below the numerical floor")
    if not adopt or np.signbit(v).any():
        v = v.copy() if adopt else v
        np.clip(v, 0.0, None, out=v)
    x.setflags(write=False)
    v.setflags(write=False)
    return x, v


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
    if not _uniform(pts):
        raise ConfigError("x_grid must be uniform")
    return float(pts[0]), float(pts[1] - pts[0]), len(pts)


def _density_rows(psi: SampledWavefunction, mu: np.ndarray, nu: np.ndarray, split: bool,
                  start: float, step: float, count: int,
                  quarter: np.ndarray | None = None, mirror: bool = False) -> np.ndarray:
    """Densities R(X) at X = start + k*step, one row per direction (mu, nu):
    shape (R, 1, count), or with ``mirror`` (R, 2, count), whose second row
    is the direction (-mu, nu).

    Each row is |s|*dx^2/(2*pi*hbar)*|y|^2, where y are the chirp-z sums of
    F[exp(i*Q*x^2/(2*hbar)) f] at p = s*X (:func:`_chirp_z_rows`).  A direct
    row takes f = psi, Q = mu/nu and s = 1/nu: the chirp-FFT formula, and
    the last quadratic Fourier transform of U_(mu,nu) (see
    :func:`metaplectic_rotation`), whose generating data are Q and
    L/lambda = s.  A ``split`` row takes the rotation (nu, -mu) of the
    quarter turn f = U_(0,1) psi (``quarter``, computed here when not
    given), Q = -nu/mu and s = -1/mu, which also covers the axis nu = 0.
    The output chirp and Maslov phase, which |.|^2 discards, are not
    computed.  The mirror direction negates Q, and for a split row also s."""
    f, a, d = psi.values, mu, nu  # Q = a/d and s = 1/d
    if split:
        f = quarter_turn(psi) if quarter is None else quarter
        a, d = nu, -mu
    out = _chirp_z_rows(f, psi.grid, a / d, start / d, step / d, count,
                        (-1 if split else 1) if mirror else 0)
    dens = np.square(out.real)
    dens += np.square(out.imag)
    dens *= (psi.grid.dx ** 2 / (2.0 * np.pi * psi.grid.hbar) / np.abs(d))[:, None, None]
    return dens


def _direct_tomogram(psi: SampledWavefunction, mu: float, nu: float, x_grid, split: bool,
                     route: str, warn: bool) -> Tomogram:
    """The one tomogram of :func:`radon_metaplectic` and :func:`radon_chirp_fft`:
    a direct or ``split`` row of :func:`_density_rows` on ``x_grid``."""
    start, step, count = _resolve_x_grid(x_grid, RotationParams(mu, nu).lam, psi.grid)
    values = _density_rows(psi, np.array([mu], dtype=np.float64),
                           np.array([nu], dtype=np.float64), split, start, step, count)
    return Tomogram(mu, nu, start + step * np.arange(count), values[0, 0],
                    psi.grid.hbar, route=route, accuracy_warning=warn)


def radon_metaplectic(psi: SampledWavefunction, mu: float, nu: float,
                      x_grid=None) -> Tomogram:
    """Tomogram via the rotation-operator identity
    R(X) = |U_(mu,nu) psi(X/lambda)|^2 / lambda.

    Flagged (``accuracy_warning``) when psi's edge decay exceeds
    EDGE_DECAY_FLAG: the rotation treats the sampled state as periodic."""
    return _direct_tomogram(psi, mu, nu, x_grid, abs(nu) < abs(mu), "metaplectic",
                            psi.edge_decay() > EDGE_DECAY_FLAG)


def chirp_resolvable(psi: SampledWavefunction, mu: float, nu: float) -> bool:
    """Whether the chirp exp(i*mu*x^2/(2*hbar*nu)) stays below CHIRP_SAFETY
    times the Nyquist rate of the state grid over the grid extent
    (elementwise for arrays of directions)."""
    g = psi.grid
    x_edge = max(abs(g.x_min), abs(g.x_max))
    return abs(mu / nu) * x_edge / g.hbar <= CHIRP_SAFETY * np.pi / g.dx


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
    return _direct_tomogram(psi, mu, nu, x_grid, False, "chirp-fft",
                            not chirp_resolvable(psi, mu, nu))


def _next_fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n (n >= 1): a length that pocketfft
    transforms fast, as scipy.fft.next_fast_len(n, real=True) picks it."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def radon_line_integral(w: WignerMap, mu: float, nu: float, x_grid=None,
                        step_fraction: float = 0.5) -> Tomogram:
    """Tomogram R(X) = integral of W over the line mu*x + nu*p = X (1/lambda
    times its unit-speed line integral), by the Fourier slice theorem: R's
    characteristic function is the map's 2-D Fourier transform along
    k*(mu, nu), R^(k) = dx*dp * sum_ij W_ij exp(-i*k*(mu*x_i + nu*p_j)).

    b is the coefficient of the axis along which the line advances fastest
    in index units (nu when |nu|*dp >= |mu|*dx, else mu), with spacing d_b
    and first point b_0; a is the other one, with points y_i and spacing
    d_a.  One real FFT F of the rows along b, zero-padded to n_pad points,
    holds k_q = q*dk (q = 0..n_pad/2, dk = 2*pi/(|b|*n_pad*d_b)), where
    |k_q*a| stays below the a axis's Nyquist rate.  Then R^(k_q) =
    d_a*d_b*exp(-i*k_q*b*b_0) * sum_i exp(-i*k_q*a*y_i)*F_iq (F conjugated
    for b < 0), and one chirp-z transform gives R(X) =
    (dk/pi)*Re sum_q R^(k_q)*exp(i*k_q*X), half weight at q = 0 and
    Nyquist; its start angle dk*(X_0 - b*b_0), X_0 the first output
    point, carries the phases exp(i*k_q*(X_0 - b*b_0)).  That sums each
    row's trigonometric interpolant where the line crosses it: the line
    integral to rounding on a map resolved on its grid.  Its period
    |b|*n_pad*d_b in X covers the projected support [lo, hi] of the map's
    samples; X outside it is exactly 0.
    ``step_fraction`` is ignored.

    The rows run in blocks of LINE_BLOCK on every usable CPU (the calling
    thread is one of the workers).  A block takes its rows of F (of the
    transposed map, copied block by block, when b is mu) and their share
    of the sums over i, and the blocks' partial sums add up in block
    order, so the tomogram is bit-identical for any worker count and no
    (n, n_pad/2 + 1) array of F is held.  The sums are einsum reductions,
    not BLAS products: a BLAS call would wake BLAS's own threads, which
    keep spinning on the CPUs that the workers need after it returns.

    A map that is flagged, or whose edge decay exceeds EDGE_DECAY_FLAG,
    gives a flagged tomogram with its negative truncation ripples clipped
    to zero; on any other map a dip below the tomogram floor raises
    DomainError.
    """
    lam = RotationParams(mu, nu).lam
    gx, gp = w.x_grid, w.p_grid
    base = Grid1D(gx.x_min, gx.n_points, gx.dx, w.hbar)
    start, step, count = _resolve_x_grid(x_grid, lam, base)
    x_out = start + step * np.arange(count)
    corners = np.add.outer(mu * gx.points[[0, -1]], nu * gp.points[[0, -1]])
    lo, hi = corners.min(), corners.max()
    # Points rounded just past an end, as by a grid rebuilt as start + k*step,
    # count as inside: the period exceeds hi - lo by 2*|b|*d_b, so none aliases.
    edge = 1e-12 * (hi - lo)
    inside = np.flatnonzero((x_out >= lo - edge) & (x_out <= hi + edge))

    values = np.zeros(count)
    if len(inside):
        (a, ga), (b, gb) = (mu, gx), (nu, gp)
        transposed = abs(nu) * gp.dx < abs(mu) * gx.dx
        if transposed:
            (a, ga), (b, gb) = (nu, gp), (mu, gx)
        half = _next_fast_len(int(np.ceil(0.5 * (hi - lo) / (abs(b) * gb.dx))) + 1)
        dk = np.pi / (abs(b) * half * gb.dx)
        # A block's rows of exp(-i*k_q*a*y_i) are coarse[i, Q]*fine[i, r] at
        # q = Q*block + r: cis on every (i, q) costs more than these two
        # small tables and their product.
        block = int(np.sqrt(half)) + 1
        coarse_q, fine_q = block * np.arange(half // block + 1), np.arange(block)
        phase = -dk * a * ga.points
        partial = np.empty((-(-ga.n_points // LINE_BLOCK), half + 1), dtype=np.complex128)

        def run(first_row):
            rows = slice(first_row, first_row + LINE_BLOCK)
            # numpy's rfft of strided rows is slower than a contiguous copy
            # and its rfft (25-35% on the 1024^2 map).
            f = np.fft.rfft(np.ascontiguousarray(w.values[:, rows].T) if transposed
                            else w.values[rows], 2 * half, axis=1)
            if b < 0:
                np.conjugate(f, out=f)
            p = phase[rows, None]
            twiddle = cis(p * coarse_q)[:, :, None] * cis(p * fine_q)[:, None, :]
            partial[first_row // LINE_BLOCK] = np.einsum(
                "ij,ij->j", f, twiddle.reshape(len(f), -1)[:, :half + 1])

        _run_blocks(run, range(0, ga.n_points, LINE_BLOCK))
        spec = partial.sum(axis=0)
        spec[[0, -1]] *= 0.5
        first, last = inside[0], inside[-1] + 1
        spec *= ga.dx * gb.dx * dk / np.pi
        values[first:last] = bluestein_czt(spec, last - first, dk * step,
                                           dk * (x_out[first] - b * gb.x_min)).real
    warn = w.accuracy_warning or w.edge_decay() > EDGE_DECAY_FLAG
    if warn:
        # A flagged map carries truncation ripples that may dip below the
        # negative floor; the flag already marks the values as approximate.
        np.clip(values, 0.0, None, out=values)
    return Tomogram(mu, nu, x_out, values, w.hbar,
                    route="line-integral", accuracy_warning=warn)


@dataclass(frozen=True)
class TomogramSet:
    """The tomograms of a full sweep, stored as arrays: ``values[k]`` is the
    density over the common X grid ``x`` at theta_k = k*pi/A, A =
    len(values), in the direction (mu, nu) = (cos theta_k, sin theta_k),
    computed by ``routes[k]`` and flagged by ``warnings[k]``.  ``angles``
    holds the sweep :func:`sweep_angles` (A), read-only.  Indexing and
    iteration yield :class:`Tomogram` slices.  Every row obeys the
    :class:`Tomogram` rules."""

    angles: np.ndarray = field(init=False)
    x: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    hbar: float = 1.0
    routes: tuple[str, ...] | None = None
    warnings: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if np.ndim(self.values) != 2 or len(self.values) == 0:
            raise ConfigError("values must be a 2-d array of one or more rows")
        x, values = _checked_samples(self.x, self.values)
        if not 0 < self.hbar < np.inf:
            raise ConfigError(f"hbar must be positive and finite, got {self.hbar}")
        n_angles = len(values)
        angles = sweep_angles(n_angles)
        routes = ("",) * n_angles if self.routes is None else tuple(self.routes)
        warnings = (np.zeros(n_angles, dtype=bool) if self.warnings is None
                    else np.array(self.warnings, dtype=bool))
        if len(routes) != n_angles or warnings.shape != (n_angles,):
            raise ConfigError(f"need one route and one warning for each of the {n_angles} "
                              f"rows, got lengths routes={len(routes)}, warnings={warnings.size}")
        angles.setflags(write=False)
        warnings.setflags(write=False)
        for name, value in (("angles", angles), ("x", x), ("values", values),
                            ("hbar", float(self.hbar)), ("routes", routes),
                            ("warnings", warnings)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.angles)

    def __getitem__(self, k: int) -> Tomogram:
        theta = self.angles[k]
        return Tomogram(float(np.cos(theta)), float(np.sin(theta)), self.x, self.values[k],
                        self.hbar, route=self.routes[k],
                        accuracy_warning=bool(self.warnings[k]))

    def __iter__(self):
        return (self[k] for k in range(len(self)))


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
    (nu = 0) or where the chirp would exceed the grid Nyquist rate.  The
    angles run through the row kernel of :func:`radon_chirp_fft` and
    :func:`radon_metaplectic`, which differ only in the rows they split;
    the split rows share one quarter turn of the state.  Angle theta_k
    pairs with pi - theta_k, which takes the exact mirror direction
    (-mu_k, nu_k): the pair shares |nu|, its p grid and one chirp-z kernel
    spectrum, and only the pre-chirp or the state is conjugated.  A block
    holds half as many pairs as its rows (see ROW_SAMPLES).  ``x_grid`` is
    the common X grid (default: the state grid).  ``threads`` is the
    number of worker threads, at least 1 (ConfigError otherwise); by
    default, every CPU the process may use, at most one per block.  Each
    worker takes whole blocks and writes their rows into the set's array,
    so the result is bit-identical for any count.  The rotation-route rows
    carry the flag of :func:`radon_metaplectic`, and the chirp-FFT rows,
    all resolvable, carry none.
    """
    if route not in ("metaplectic", "chirp-fft"):
        raise ConfigError(f"unknown sweep route {route!r}")
    angles = sweep_angles(n_angles)
    if threads is not None and threads < 1:
        raise ConfigError(f"the thread count must be at least 1, got {threads}")
    mu, nu = np.cos(angles), np.sin(angles)
    # Angle k leads the pair with angle n_angles - k, whose row the kernels
    # compute for (-mu_k, nu_k); the mirror rows of theta = 0 and pi/2 are
    # no angles of the sweep and are dropped.
    lead = np.arange(n_angles // 2 + 1)
    paired = (lead > 0) & (2 * lead < n_angles)
    start, step, count = _resolve_x_grid(x_grid, 1.0, psi.grid)
    chirp = np.zeros(n_angles, dtype=bool)
    if route == "chirp-fft":
        off_axis = lead[nu[lead] != 0.0]
        chirp[off_axis] = chirp_resolvable(psi, mu[off_axis], nu[off_axis])
        chirp[n_angles - lead[paired]] = chirp[lead[paired]]
    split = ~chirp[lead] & (np.abs(nu[lead]) < np.abs(mu[lead]))
    quarter = quarter_turn(psi)  # theta = 0 is always a split row
    values = np.empty((n_angles, count))

    def run(block):
        rows, is_split = block
        dens = _density_rows(psi, mu[rows], nu[rows], is_split, start, step, count,
                             quarter, mirror=True)
        values[rows] = dens[:, 0]
        pair = paired[rows]
        values[n_angles - rows[pair]] = dens[pair, 1]

    size = max(ROW_BLOCK, ROW_SAMPLES // _bluestein_length(psi.grid.n_points, count)) // 2
    blocks = []
    for is_split in (False, True):
        rows = lead[split == is_split]
        blocks += [(rows[lo:lo + size], is_split) for lo in range(0, len(rows), size)]
    _run_blocks(run, blocks, threads)
    values.setflags(write=False)
    routes = tuple("chirp-fft" if c else "metaplectic" for c in chirp)
    warnings = ~chirp & (psi.edge_decay() > EDGE_DECAY_FLAG)
    return TomogramSet(start + step * np.arange(count), values, psi.grid.hbar, routes,
                       warnings)


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


def _back_project_pairs(acc: np.ndarray, tables: np.ndarray, ux: np.ndarray,
                        up: np.ndarray, lo: int, hi: int):
    """For each table g: acc[0, i, j] += linear interpolation of table g at
    the fractional index u = ux[g, i] + up[g, j], and acc[1, i, j] += that
    of its reversal at the same u.  ``tables[0]`` holds the tables and
    ``tables[1]`` their reversals, each as (values, slopes) with slopes[m]
    = values[m + 1] - values[m] (minus the last value at the end).  Each is
    zero where u falls outside the range its values come from: [lo, hi] for
    the table, and the mirror image of that range for the reversal.

    Row blocks of about GATHER_BLOCK/2 complex samples run on every usable
    CPU (the calling thread is one of the workers).  A block takes every
    table in order while its slice of ``acc`` stays in cache, and no other
    block writes that slice, so every sample gets the same additions in the
    same order for any worker count."""
    last = tables.shape[-1] - 1
    valid = ((lo, hi), (last - hi, last - lo))
    # u is affine in (i, j), so its extremes over the map are the sums of
    # the extremes of ux and up.
    u_min, u_max = ux.min(axis=1) + up.min(axis=1), ux.max(axis=1) + up.max(axis=1)
    inside = np.all([(a <= u_min) & (u_max <= b) for a, b in valid], axis=0)
    rows = max(1, GATHER_BLOCK // (2 * up.shape[1]))

    def run(start):
        block = slice(start, start + rows)
        block_acc = acc[:, block]
        for g in range(len(ux)):
            u = np.add.outer(ux[g, block], up[g])
            if not inside[g]:
                outside = [(u < a) | (u > b) for a, b in valid]
                np.clip(u, 0.0, last, out=u)
            # u >= 0 here (inside [lo, hi] with lo >= 0, or clipped), so
            # truncation is the floor.
            k = u.astype(np.intp)
            u -= k
            for j, (values, slope) in enumerate(tables):
                v = slope[g].take(k)
                v *= u
                v += values[g].take(k)
                if not inside[g]:
                    v[outside[j]] = 0.0
                block_acc[j] += v

    _run_blocks(run, range(0, ux.shape[1], rows))


def inverse_radon(tomos: TomogramSet, x_grid: Grid1D, p_grid: Grid1D | None = None) -> WignerMap:
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

    The gather uses the symmetries of the line set: x -> -x maps the line
    of theta onto that of pi - theta, and (x, p) -> (-x, -p) maps X to -X.
    Angles theta and pi - theta are filtered together, PAIR_CHUNK pairs per
    FFT call, into one complex table f_theta + i*f_(pi-theta) that spans
    only the X range the map reaches.  Over the half plane p >= 0 of the
    rows x and -x, one fractional index and two complex interpolations
    (the table and its reversal) give the samples at (x, p), (-x, p),
    (-x, -p) and (x, -p); two half-plane accumulators fold into the map
    once at the end.

    Both stages run on every usable CPU, PAIR_GROUP pairs at a time.  The
    group's chunks of PAIR_CHUNK pairs are filtered on the workers, each
    into its own rows of one reused buffer of tables, reversals and
    slopes; then :func:`_back_project_pairs` gathers the whole group in
    row blocks of the map on the workers.  Every accumulator sample takes
    the same additions in the same (pair) order for any worker count, so
    the map is bit-identical for any count, and the tables held at once
    stay bounded by the group.

    Parameters
    ----------
    tomos : TomogramSet
        At least 8 tomograms (a set is a full sweep); accuracy targets
        assume A >= 64.  The common X grid must be centered at zero
        (FFT layout) and edge-decayed.
    x_grid, p_grid : Grid1D
        Output window, each mirror-symmetric about zero (x_min = -n*dx/2,
        as from ``make_grid(-L, L, n)``); DomainError otherwise.
        ``p_grid`` defaults to the alias-free momentum window of
        ``x_grid``.
    """
    n_angles = len(tomos)
    if n_angles < MIN_ANGLES:
        raise DomainError(f"need at least {MIN_ANGLES} angles, got {n_angles}")
    if p_grid is None:
        p_grid = default_momentum_window(x_grid)
    for name, g in (("x_grid", x_grid), ("p_grid", p_grid)):
        if abs(g.x_min + g.x_max) > 1e-9 * max(1.0, abs(g.x_min)):
            raise DomainError(f"{name} must be centered at zero (x_min = -n*dx/2), "
                              f"got [{g.x_min:.6g}, {g.x_max:.6g})")
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
    # Rows x_r = (r - nx/2)*dx, r = 0..nx, hold x and -x of every map row;
    # columns p_c = c*dp, c = 0..hp, span the half plane p >= 0.
    nx, hp = x_grid.n_points, p_grid.n_points // 2
    x_idx = (np.arange(nx + 1) - nx // 2) * (x_grid.dx / fine_dx)
    p_idx = np.arange(hp + 1) * (p_grid.dx / fine_dx)
    # Fine sample m sits at X = (m - centre)*fine_dx, an integer centre for
    # a centered X grid.  The table holds X/fine_dx in [-width, width] at
    # index width + X/fine_dx, zero off the fine grid, so X -> -X is its
    # reversal.  The width covers |x*cos(theta) + p*sin(theta)| <=
    # hypot(x, p) over the map, or the whole fine grid when the map reaches
    # past the fine samples or their mirror images.
    centre = UPSAMPLE // 2 * (n + 2 * lead)
    reach = float(np.hypot(np.abs(x_idx).max(), p_idx.max()))
    if reach < min(centre, n_fine - 1 - centre):
        width = int(reach) + 2
    else:
        width = max(centre, n_fine - 1 - centre)
    first = width - centre
    lo, hi = max(0, first), min(2 * width, first + n_fine - 1)

    acc = np.zeros((2, nx + 1, hp + 1), dtype=np.complex128)
    # Angle k pairs with pi - theta_k, which is angle n_angles - k;
    # theta = 0 and pi/2 stand alone.
    pairs = np.arange(n_angles // 2 + 1)
    theta = tomos.angles[pairs]
    ux = np.outer(np.cos(theta), x_idx) + width
    up = np.outer(np.sin(theta), p_idx)
    # One buffer of a group's tables and reversals, values and slopes; the
    # tables stay zero outside [lo, hi].
    group_tables = np.zeros((2, 2, min(PAIR_GROUP, len(pairs)), 2 * width + 1),
                            dtype=np.complex128)

    def filter_chunk(chunk):
        row, ks = chunk
        partners = n_angles - ks
        paired = (ks < partners) & (partners < n_angles)
        padded = np.zeros((len(ks), 2, n_pad))
        padded[:, 0, lead:lead + n] = tomos.values[ks]
        padded[paired, 1, lead:lead + n] = tomos.values[partners[paired]]
        fine = np.fft.irfft(np.fft.rfft(padded) * ramp, n=n_fine)
        fine[..., n_fine - UPSAMPLE // 2 + 1:] = 0.0
        (table, table_slope), (mirror, mirror_slope) = group_tables[:, :, row:row + len(ks)]
        table.real[:, lo:hi + 1] = fine[:, 0, lo - first:hi + 1 - first]
        table.imag[:, lo:hi + 1] = fine[:, 1, lo - first:hi + 1 - first]
        mirror[:] = table[:, ::-1]
        table_slope[:] = np.diff(table, axis=1, append=0.0)
        mirror_slope[:] = np.diff(mirror, axis=1, append=0.0)

    for start in range(0, len(pairs), PAIR_GROUP):
        group = slice(start, start + PAIR_GROUP)
        ks = pairs[group]
        _run_blocks(filter_chunk, [(c, ks[c:c + PAIR_CHUNK])
                                   for c in range(0, len(ks), PAIR_CHUNK)])
        _back_project_pairs(acc, group_tables[:, :, :len(ks)], ux[group], up[group], lo, hi)
    # Table t = f_theta + i*f_(pi-theta) at u = x*cos(theta) + p*sin(theta)
    # feeds (x, p) and (-x, p); its reversal, t at -u, feeds (-x, -p) and
    # (x, -p).  The p = 0 column takes only t.
    t, r = acc
    out = np.empty((nx, 2 * hp))
    out[:, hp:] = t.real[:nx, :hp] + t.imag[nx:0:-1, :hp]
    out[:, :hp] = r.real[nx:0:-1, hp:0:-1] + r.imag[:nx, hp:0:-1]
    out *= (np.pi / n_angles) / (2.0 * np.pi * hbar)
    warn = bool(tomos.warnings.any())
    return WignerMap(x_grid, p_grid, out, hbar, accuracy_warning=warn)
