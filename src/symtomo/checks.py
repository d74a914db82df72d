"""The package's accuracy contract and the invariant suite behind ``check``.

:data:`CONTRACT` is the one ordered table of invariants (name, tolerance,
measurement).  A measurement maps already-drawn inputs (a state, a
direction, a symplectic pair; a list of draws for a count) to a deviation,
which may not exceed the tolerance; each ties two or more routes together.
:func:`run_checks` (the ``check`` CLI command) and the acceptance tests
take every tolerance and measurement from the table and draw their inputs
from their own seeded generators.  Where the two compare against
different references, the reference is an input of the measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gaussian import (
    GaussianState,
    chord_matches_tomogram_variance,
    gaussian_wavefunction,
    gaussian_wigner,
    pauli_reconstruct,
    tomogram_variance,
)
from .grids import hbar_fourier, inner_product, make_grid
from .lagrangian import FramePair, is_lagrangian_frame
from .metaplectic import (
    FreeSymplectic,
    RotationParams,
    is_symplectic,
    metaplectic_rotation,
    quadratic_fourier,
    rotation_from_mu_nu,
    standard_symplectic_form,
)
from .radon import (
    compute_tomogram_set,
    inverse_radon,
    radon_chirp_fft,
    radon_line_integral,
    radon_metaplectic,
)
from .wigner import marginals, wigner_transform

__all__ = [
    "CONTRACT",
    "CheckOutcome",
    "Invariant",
    "random_direction",
    "random_free_symplectic",
    "random_symplectic",
    "run_checks",
]

SPREAD_LIMIT = 2.6


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Invariant:
    """One clause of the contract: ``measure(*inputs)`` returns a deviation
    that may not exceed ``tol``."""

    name: str
    tol: float
    measure: Callable[..., float]


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def _fourier_fixed_point(grid) -> float:
    """The ground state is its own hbar-Fourier transform."""
    hbar = grid.hbar
    fixed = hbar_fourier(gaussian_wavefunction(GaussianState.ground_state(hbar), grid))
    want = (np.pi * hbar) ** (-0.25) * np.exp(-fixed.grid.points**2 / (2 * hbar))
    return _max_abs(fixed.values, want)


def _marginal_deviation(psi, state, pos, mom, p) -> float:
    """Position density ``pos`` against |psi|^2 and momentum density ``mom``
    at the points ``p`` against the state's closed form; the densities are
    the marginals of a Wigner map or the axis tomograms."""
    mom_want = (2 * np.pi * state.sigma_pp) ** (-0.5) * np.exp(-p**2 / (2 * state.sigma_pp))
    return max(_max_abs(pos, psi.probability_density()), _max_abs(mom, mom_want))


def _symplectic_covariance(psi, state, mu, nu) -> float:
    """Wigner map of the rotated state against the closed form of the
    rotated covariance."""
    w = wigner_transform(metaplectic_rotation(psi, RotationParams(mu, nu)))
    ref = gaussian_wigner(state.rotated(rotation_from_mu_nu(mu, nu).matrix), w.x_grid, w.p_grid)
    return _max_abs(w.values, ref.values)


def _line_route(w_square, mu, nu, *references) -> float:
    """Line integral of the square Wigner map against each reference
    tomogram of the same direction, taken by an operator route."""
    line = radon_line_integral(w_square, mu, nu).values
    return max(_max_abs(line, r.values) for r in references)


def _homogeneity(psi, mu, nu) -> float:
    """R(sX; s mu, s nu) against R(X; mu, nu)/s on the default X grids."""
    base = radon_metaplectic(psi, mu, nu).values
    return max(_max_abs(radon_metaplectic(psi, s * mu, s * nu).values, base / s)
               for s in (0.5, 2.0, 3.0))


def _fbp_round_trip(psi, reference, constant_scale) -> float:
    """360-angle sweep inverted onto the window of the ``reference`` map and
    multiplied by ``constant_scale``, against the map; a scale other than 1
    is the negative control of ``symtomo check --debug-break-fbp``."""
    recon = inverse_radon(compute_tomogram_set(psi, 360), reference.x_grid, reference.p_grid)
    return _max_abs(constant_scale * recon.values, reference.values)


def _tomogram_variance(psi, state, mu, nu) -> float:
    """Relative error of the measured chirp-FFT tomogram variance."""
    want = tomogram_variance(state, mu, nu)
    return abs(radon_chirp_fft(psi, mu, nu).moments()[1] - want) / want


def _pauli_round_trip(psi, state, mu, nu) -> float:
    """Covariances recovered from the axis tomograms and the (mu, nu) one."""
    rec = pauli_reconstruct(
        radon_metaplectic(psi, 1.0, 0.0),
        radon_metaplectic(psi, 0.0, 1.0),
        radon_chirp_fft(psi, mu, nu),
    ).state
    return max(abs(rec.sigma_xx - state.sigma_xx), abs(rec.sigma_pp - state.sigma_pp),
               abs(rec.sigma_xp - state.sigma_xp))


def _norm_defect(psi, *factors) -> float:
    """Norm change under U(f_1) ... U(f_k), applied right to left."""
    out = psi
    for s in reversed(factors):
        out = quadratic_fourier(out, s)
    return abs(out.norm() - psi.norm())


def _composition_defect(psi, s1, s2) -> float:
    """U(s1 s2) psi against U(s1) U(s2) psi, up to a global phase."""
    direct = quadratic_fourier(psi, FreeSymplectic.from_matrix(s1.base.matrix @ s2.base.matrix))
    composed = quadratic_fourier(quadratic_fourier(psi, s2), s1)
    return abs(abs(inner_product(direct, composed)) - 1.0)


def _frame_disagreements(matrices, expected) -> float:
    """Number of matrices on which the S J S^T oracle, the block conditions
    and the Lagrangian-frame test of the top blocks [A B] do not all return
    ``expected``; ``None`` expects the oracle's own verdict."""
    count = 0.0
    for s in matrices:
        n = len(s) // 2
        j = standard_symplectic_form(n)
        oracle = bool(np.max(np.abs(s @ j @ s.T - j)) <= 1e-8)
        block = bool(is_symplectic(s, 1e-8))
        frame = bool(is_lagrangian_frame(FramePair(s[:n, :n], s[:n, n:])))
        want = oracle if expected is None else expected
        count += not (oracle == block == frame == want)
    return count


# The contract, in the order ``symtomo check`` reports it.  The two count
# invariants return the number of violating draws and admit none.
CONTRACT = {inv.name: inv for inv in (
    Invariant("fourier_unitarity", 1e-10,
              lambda psi: abs(hbar_fourier(psi).norm() - psi.norm())),
    Invariant("fourier_round_trip", 1e-10,
              lambda psi: _max_abs(hbar_fourier(hbar_fourier(psi), "inverse").values,
                                   psi.values)),
    Invariant("fourier_gaussian_fixed_point", 1e-7, _fourier_fixed_point),
    Invariant("wigner_mass", 1e-8, lambda w: abs(w.mass() - 1.0)),
    Invariant("wigner_marginals", 1e-7, _marginal_deviation),
    Invariant("symplectic_covariance", 1e-6, _symplectic_covariance),
    Invariant("route_equivalence_chirp_fft", 1e-7,
              lambda psi, mu, nu: _max_abs(radon_metaplectic(psi, mu, nu).values,
                                           radon_chirp_fft(psi, mu, nu).values)),
    Invariant("route_equivalence_line_integral", 5e-4, _line_route),
    Invariant("tomogram_mass", 1e-7,
              lambda psi, mu, nu: abs(radon_metaplectic(psi, mu, nu).mass() - 1.0)),
    Invariant("tomogram_homogeneity", 1e-7, _homogeneity),
    Invariant("tomogram_nonnegativity", 1e-10,
              lambda psi, mu, nu: -float(min(radon_metaplectic(psi, mu, nu).values.min(), 0.0))),
    Invariant("fbp_round_trip", 1e-3, _fbp_round_trip),
    Invariant("gaussian_tomogram_variance", 1e-6, _tomogram_variance),
    Invariant("pauli_round_trip", 1e-4, _pauli_round_trip),
    Invariant("chord_variance_link", 0.5,
              lambda draws: float(sum(not chord_matches_tomogram_variance(*d) for d in draws))),
    Invariant("metaplectic_unitarity", 1e-8, _norm_defect),
    Invariant("metaplectic_projective_composition", 1e-7, _composition_defect),
    Invariant("lagrangian_frame_oracle", 0.5, _frame_disagreements),
)}


def _random_state(rng: np.random.Generator, hbar: float) -> GaussianState:
    sigma_xx = float(np.exp(rng.uniform(-0.7, 0.7))) * hbar
    sigma_xp = float(rng.uniform(-0.6, 0.6)) * hbar
    return GaussianState.from_position_data(sigma_xx, sigma_xp, hbar)


def random_direction(rng: np.random.Generator, min_angle: float = 0.2) -> tuple[float, float]:
    """(mu, nu) with the angle bounded away from the axes so every forward
    route stays inside its conditioning envelope on a 1024-point grid."""
    theta = rng.uniform(min_angle, np.pi - min_angle)
    lam = rng.uniform(0.5, 2.0)
    return float(lam * np.cos(theta)), float(lam * np.sin(theta))


def _well_conditioned(s: np.ndarray, cov: np.ndarray) -> bool:
    """Free, order-unity blocks, and S cov S^T within SPREAD_LIMIT (fits the window)."""
    if not 0.4 <= abs(s[0, 1]) <= 2.5:
        return False
    c = s @ cov @ s.T
    return max(c[0, 0], c[1, 1]) <= SPREAD_LIMIT


def random_free_symplectic(rng: np.random.Generator, cov: np.ndarray) -> FreeSymplectic:
    """Free symplectic matrix keeping S cov S^T representable on the grid."""
    from scipy.linalg import expm  # only the random draws need scipy

    while True:
        h = rng.uniform(-0.8, 0.8, size=(2, 2))
        h = 0.5 * (h + h.T)
        s = expm(standard_symplectic_form(1) @ h)
        if _well_conditioned(s, cov):
            return FreeSymplectic.from_matrix(s)


def _random_free_pair(rng: np.random.Generator, cov: np.ndarray):
    """Pair whose factors, product, and intermediate state are all representable."""
    while True:
        s2 = random_free_symplectic(rng, cov)
        mid_cov = s2.base.matrix @ cov @ s2.base.matrix.T
        s1 = random_free_symplectic(rng, mid_cov)
        if _well_conditioned(s1.base.matrix @ s2.base.matrix, cov):
            return s1, s2


def random_symplectic(rng: np.random.Generator) -> np.ndarray:
    """exp(J H) for a random symmetric H in dimension 2n, n in {1, 2, 3}."""
    from scipy.linalg import expm

    n = int(rng.integers(1, 4))
    h = rng.uniform(-1, 1, size=(2 * n, 2 * n))
    h = 0.5 * (h + h.T)
    return expm(standard_symplectic_form(n) @ h)


def run_checks(seed: int = 0, hbar: float = 1.0,
               fbp_constant_scale: float = 1.0) -> list[CheckOutcome]:
    """Measure every invariant of :data:`CONTRACT`, in its order, on draws
    from one seeded generator; returns one outcome per invariant."""
    rng = np.random.default_rng(seed)
    grid = make_grid(-16 * np.sqrt(hbar), 16 * np.sqrt(hbar), 1024, hbar)
    outcomes: list[CheckOutcome] = []

    def check(name: str, draws, extra: str = ""):
        """Record the worst deviation over ``draws``, one tuple of
        measurement inputs each; ``extra`` is formatted with it."""
        inv = CONTRACT[name]
        err = max(inv.measure(*inputs) for inputs in draws)
        detail = f"max deviation {err:.3e} (tolerance {inv.tol:.1e})" + extra.format(err)
        outcomes.append(CheckOutcome(name, bool(err <= inv.tol), detail))

    def sampled_states(count: int):
        """(psi, state, mu, nu) draws of a random state and direction."""
        for _ in range(count):
            st = _random_state(rng, hbar)
            yield gaussian_wavefunction(st, grid), st, *random_direction(rng)

    def pauli_states(count: int):
        """(psi, state, 1, 1) draws with |sigma_xp| >= 0.05 hbar."""
        for _ in range(count):
            st = GaussianState.from_position_data(
                float(np.exp(rng.uniform(-0.7, 0.7))) * hbar,
                float(rng.choice([-1, 1]) * rng.uniform(0.05, 0.6)) * hbar, hbar)
            yield gaussian_wavefunction(st, grid), st, 1.0, 1.0

    state = _random_state(rng, hbar)
    psi = gaussian_wavefunction(state, grid)
    w = wigner_transform(psi)

    check("fourier_unitarity", [(psi,)])
    check("fourier_round_trip", [(psi,)])
    check("fourier_gaussian_fixed_point", [(grid,)])
    check("wigner_mass", [(w,)])
    check("wigner_marginals", [(psi, state, *marginals(w), w.p_grid.points)])
    check("symplectic_covariance",
          ((psi, state, *random_direction(rng, min_angle=0.0)) for _ in range(10)))
    check("route_equivalence_chirp_fft", ((psi, *random_direction(rng)) for _ in range(10)))
    mu, nu = random_direction(rng)
    check("route_equivalence_line_integral",
          [(wigner_transform(psi, p_grid=grid), mu, nu, radon_metaplectic(psi, mu, nu))])
    mu, nu = random_direction(rng)
    for name in ("tomogram_mass", "tomogram_homogeneity", "tomogram_nonnegativity"):
        check(name, [(psi, mu, nu)])
    check("fbp_round_trip", [(psi, w, fbp_constant_scale)])
    check("gaussian_tomogram_variance", sampled_states(10))
    check("pauli_round_trip", pauli_states(5))
    chords = [(_random_state(rng, hbar), *random_direction(rng)) for _ in range(50)]
    check("chord_variance_link", [(chords,)])
    pairs = [_random_free_pair(rng, state.covariance_matrix) for _ in range(5)]
    check("metaplectic_unitarity", [(psi, *pair) for pair in pairs])
    check("metaplectic_projective_composition", [(psi, *pair) for pair in pairs])
    frames = [random_symplectic(rng) for _ in range(60)]
    check("lagrangian_frame_oracle", [(frames, True)], "; {:.0f} disagreements over 60 draws")
    return outcomes
