"""Closed-form machinery for centered pure Gaussian states.

A pure Gaussian is fixed by its covariances (sigma_xx, sigma_xp, sigma_pp),
which saturate sigma_xx*sigma_pp - sigma_xp**2 = hbar**2/4.  Its tomogram in
any direction is the centered normal density with variance

    sigma_X = mu^2 sigma_xx + 2 mu nu sigma_xp + nu^2 sigma_pp,

its Wigner function is the bivariate normal with covariance matrix
[[sigma_xx, sigma_xp], [sigma_xp, sigma_pp]], and the chords that the
covariance ellipse cuts on measurement lines carry the same quadratic form.
These closed forms act as oracles for the grid routes, and conversely: the
two axis tomograms leave the sign of sigma_xp invisible, and one oblique
tomogram restores it — that asymmetry is made executable here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyWarning,
    AmbiguousSignError,
    ConfigError,
    DomainError,
    ModelMismatchError,
)
from .grids import Grid1D, SampledWavefunction
from .metaplectic import RotationParams
from .radon import Tomogram
from .wigner import WignerMap, default_momentum_window

__all__ = [
    "GaussianState",
    "EllipseChord",
    "gaussian_wavefunction",
    "tomogram_variance",
    "gaussian_tomogram",
    "gaussian_wigner",
    "gaussian_wigner_at",
    "ellipse_chord",
    "chord_matches_tomogram_variance",
    "PauliReconstruction",
    "pauli_reconstruct",
]

SATURATION_RTOL = 1e-10
CHORD_RTOL = 1e-12
# pauli_reconstruct, all relative: the uncertainty floor, the oblique
# variance misfit, and the |sigma_xp| below which its sign is moot.
PAULI_SATURATION_TOL = 1e-6
PAULI_RESIDUAL_TOL = 1e-3
PAULI_MOOT_TOL = 1e-3


@dataclass(frozen=True)
class GaussianState:
    """Covariance data of a centered pure Gaussian state."""

    sigma_xx: float
    sigma_pp: float
    sigma_xp: float
    hbar: float = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.sigma_xx, self.sigma_pp, self.sigma_xp, self.hbar])):
            raise ConfigError("covariances and hbar must be finite")
        if self.sigma_xx <= 0 or self.sigma_pp <= 0:
            raise ConfigError("sigma_xx and sigma_pp must be positive")
        if self.hbar <= 0:
            raise ConfigError("hbar must be positive")
        target = 0.25 * self.hbar**2
        defect = self.sigma_xx * self.sigma_pp - self.sigma_xp**2 - target
        if abs(defect) > SATURATION_RTOL * target:
            raise ModelMismatchError(
                "covariances do not saturate the purity condition "
                f"sigma_xx*sigma_pp - sigma_xp^2 = hbar^2/4 (defect {defect:.3e})"
            )

    @classmethod
    def from_position_data(cls, sigma_xx: float, sigma_xp: float,
                           hbar: float = 1.0) -> "GaussianState":
        """Complete (sigma_xx, sigma_xp) to a pure state via saturation."""
        if sigma_xx <= 0:
            raise ConfigError("sigma_xx must be positive")
        sigma_pp = (0.25 * hbar**2 + sigma_xp**2) / sigma_xx
        return cls(sigma_xx, sigma_pp, sigma_xp, hbar)

    @classmethod
    def ground_state(cls, hbar: float = 1.0) -> "GaussianState":
        return cls(0.5 * hbar, 0.5 * hbar, 0.0, hbar)

    @property
    def covariance_matrix(self) -> np.ndarray:
        return np.array([[self.sigma_xx, self.sigma_xp],
                         [self.sigma_xp, self.sigma_pp]])

    def rotated(self, matrix: np.ndarray) -> "GaussianState":
        """State with covariance matrix S Sigma S^T (S linear symplectic)."""
        c = matrix @ self.covariance_matrix @ matrix.T
        return GaussianState(float(c[0, 0]), float(c[1, 1]), float(c[0, 1]), self.hbar)


def gaussian_wavefunction(state: GaussianState, grid: Grid1D) -> SampledWavefunction:
    """Sample (2 pi sigma_xx)^(-1/4) exp(-x^2/(4 sigma_xx))
    * exp(i sigma_xp x^2 / (2 hbar sigma_xx)) on the grid."""
    if abs(grid.hbar - state.hbar) > 1e-12 * state.hbar:
        raise ConfigError("grid hbar differs from state hbar")
    x = grid.points
    amp = (2 * np.pi * state.sigma_xx) ** (-0.25) * np.exp(-x**2 / (4 * state.sigma_xx))
    phase = np.exp(1j * state.sigma_xp * x**2 / (2 * state.hbar * state.sigma_xx))
    psi = SampledWavefunction(grid, amp * phase)
    # Distance from the state's centre x = 0 to the nearer grid edge
    # (negative when the grid misses x = 0).
    reach = min(-grid.x_min, grid.x_max)
    if reach < 4 * np.sqrt(state.sigma_xx):
        warnings.warn(
            "grid reaches less than 4 sqrt(sigma_xx) from x = 0; sampled state is truncated",
            AccuracyWarning,
            stacklevel=2,
        )
    return psi


def tomogram_variance(state: GaussianState, mu: float, nu: float) -> float:
    """Variance of the quadrature mu*x + nu*p: the quadratic form of the
    covariance matrix on (mu, nu), a direction of :class:`RotationParams`."""
    RotationParams(mu, nu)
    return (mu**2 * state.sigma_xx + 2 * mu * nu * state.sigma_xp
            + nu**2 * state.sigma_pp)


def gaussian_tomogram(state: GaussianState, mu: float, nu: float,
                      x_grid=None) -> Tomogram:
    """Closed-form tomogram: the normal density N(0, sigma_X)."""
    var = tomogram_variance(state, mu, nu)
    if x_grid is None:
        half = 12.0 * np.sqrt(var)
        n = 1024
        x = -half + (2 * half / n) * np.arange(n)
    elif isinstance(x_grid, Grid1D):
        x = x_grid.points
    else:
        x = np.asarray(x_grid, dtype=np.float64)
    values = np.exp(-x**2 / (2 * var)) / np.sqrt(2 * np.pi * var)
    return Tomogram(mu, nu, x, values, state.hbar, route="closed-form")


def gaussian_wigner(state: GaussianState, x_grid: Grid1D,
                    p_grid: Grid1D | None = None) -> WignerMap:
    """Closed-form Wigner map: bivariate normal with the state's covariance
    matrix (total mass 1, peak 1/(pi*hbar))."""
    if p_grid is None:
        p_grid = default_momentum_window(x_grid)
    xs, ps = np.meshgrid(x_grid.points, p_grid.points, indexing="ij")
    return WignerMap(x_grid, p_grid, gaussian_wigner_at(state, xs, ps), state.hbar)


def gaussian_wigner_at(state: GaussianState, x, p) -> np.ndarray:
    """Closed-form Wigner values at arbitrary phase-space points."""
    cov_inv = np.linalg.inv(state.covariance_matrix)
    x = np.asarray(x, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    quad = cov_inv[0, 0] * x**2 + 2 * cov_inv[0, 1] * x * p + cov_inv[1, 1] * p**2
    det = np.linalg.det(state.covariance_matrix)
    return np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(det))


@dataclass(frozen=True)
class EllipseChord:
    """Half-width of the covariance-ellipse chord cut by mu*x + nu*p = 0.

    For nu != 0 the chord is parametrized by x and the half-width refers to
    that variable; for nu = 0 it is parametrized by p.
    """

    mu: float
    nu: float
    half_width: float

    def __post_init__(self):
        if not self.half_width > 0:
            raise ConfigError("half_width must be positive")


def _chord_coefficient(state: GaussianState, mu: float, nu: float) -> float:
    """Coefficient c in the chord condition c * t^2 <= hbar^2 / 2."""
    if nu != 0.0:
        r = mu / nu
        return state.sigma_pp + 2 * r * state.sigma_xp + r**2 * state.sigma_xx
    return state.sigma_xx


def ellipse_chord(state: GaussianState, mu: float, nu: float) -> EllipseChord:
    """Chord of the covariance ellipse (1/2) z^T Sigma^-1 z <= 1 along the
    central measurement line mu*x + nu*p = 0.

    The x^2 coefficient of the chord condition equals sigma_X / nu^2, the
    tomogram variance rescaled by the parametrization — the geometric face
    of the variance formula (see
    :func:`chord_matches_tomogram_variance`).  (mu, nu) is a direction of
    :class:`RotationParams`.
    """
    RotationParams(mu, nu)
    coeff = _chord_coefficient(state, mu, nu)
    if coeff <= 0:
        raise ModelMismatchError("chord coefficient must be positive for a valid state")
    return EllipseChord(mu, nu, float(state.hbar / np.sqrt(2.0 * coeff)))


def chord_matches_tomogram_variance(state: GaussianState, mu: float, nu: float) -> bool:
    """Named predicate: chord coefficient == tomogram variance / nu^2 (nu != 0)
    within CHORD_RTOL."""
    if nu == 0.0:
        raise DomainError("the x-parametrized chord requires nu != 0")
    coeff = _chord_coefficient(state, mu, nu)
    var = tomogram_variance(state, mu, nu)
    scale = max(abs(coeff), abs(var) / nu**2)
    return abs(coeff - var / nu**2) <= CHORD_RTOL * max(1.0, scale)


@dataclass(frozen=True)
class PauliReconstruction:
    """Result of :func:`pauli_reconstruct`: the recovered state plus the
    evidence used for the sign decision.

    ``state.sigma_pp`` is re-saturated from (sigma_xx, sigma_xp);
    ``sigma_pp_measured`` keeps the raw second moment of the momentum
    tomogram for comparison.
    """

    state: GaussianState
    sign_margin: float
    best_residual: float
    alternative_residual: float
    sigma_pp_measured: float
    sign_moot: bool


def _axis_variance(t: Tomogram, expect_axis: str) -> float:
    if expect_axis == "x":
        if t.nu != 0.0 or t.mu == 0.0:
            raise DomainError("t_x must be taken at (mu, 0)")
        return t.moments()[1] / t.mu**2
    if t.mu != 0.0 or t.nu == 0.0:
        raise DomainError("t_p must be taken at (0, nu)")
    return t.moments()[1] / t.nu**2


def pauli_reconstruct(t_x: Tomogram, t_p: Tomogram, t_extra: Tomogram) -> PauliReconstruction:
    """Recover (sigma_xx, sigma_pp, sigma_xp) of a pure Gaussian from three
    tomograms.

    The axis tomograms fix sigma_xx and sigma_pp through their second
    moments; purity saturation fixes |sigma_xp|; the oblique tomogram
    (mu*nu != 0) selects the sign by comparing its measured variance with
    the two candidate closed-form variances.

    Raises
    ------
    ModelMismatchError
        If sigma_xx*sigma_pp falls below hbar^2/4 beyond PAULI_SATURATION_TOL
        (relative), or the best candidate misfits the oblique variance by
        more than PAULI_RESIDUAL_TOL (relative) — the data is then not a
        pure Gaussian.
    AmbiguousSignError
        If both signs fit equally within tolerance while |sigma_xp| is
        significant (cannot occur for mu*nu != 0 and clean data).
    """
    hbar = t_x.hbar
    if abs(t_p.hbar - hbar) > 1e-12 * hbar or abs(t_extra.hbar - hbar) > 1e-12 * hbar:
        raise DomainError("tomograms must share hbar")
    mu, nu = t_extra.mu, t_extra.nu
    if mu == 0.0 or nu == 0.0:
        raise DomainError("t_extra must be taken at mu*nu != 0")

    sigma_xx = _axis_variance(t_x, "x")
    sigma_pp = _axis_variance(t_p, "p")
    target = 0.25 * hbar**2
    gap = sigma_xx * sigma_pp - target
    if gap < -PAULI_SATURATION_TOL * target:
        raise ModelMismatchError(
            f"axis variances violate the uncertainty floor by {-gap:.3e}; "
            "input is not a pure Gaussian"
        )
    magnitude = float(np.sqrt(max(gap, 0.0)))

    measured = t_extra.moments()[1]
    base = mu**2 * sigma_xx + nu**2 * sigma_pp
    cross = 2 * mu * nu * magnitude
    res_plus = abs(base + cross - measured)
    res_minus = abs(base - cross - measured)
    margin = abs(res_plus - res_minus)
    if res_plus <= res_minus:
        sign, best, alt = 1.0, res_plus, res_minus
    else:
        sign, best, alt = -1.0, res_minus, res_plus
    moot = magnitude <= PAULI_MOOT_TOL * np.sqrt(sigma_xx * sigma_pp)
    if not moot and margin <= 1e-12 * measured:
        raise AmbiguousSignError("both covariance signs fit the oblique tomogram")
    if best > PAULI_RESIDUAL_TOL * measured:
        raise ModelMismatchError(
            f"oblique tomogram variance misfits the pure-Gaussian model "
            f"(relative residual {best / measured:.3e})"
        )
    sigma_xp = sign * magnitude
    # re-saturate exactly so the state constructor accepts roundoff-level defects
    sigma_pp_exact = (target + sigma_xp**2) / sigma_xx
    state = GaussianState(sigma_xx, sigma_pp_exact, sigma_xp, hbar)
    return PauliReconstruction(state, float(margin), float(best), float(alt),
                               float(sigma_pp), bool(moot))
