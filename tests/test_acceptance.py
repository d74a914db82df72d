"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance and measurement comes from the contract
table ``symtomo.checks.CONTRACT`` that ``symtomo check`` runs too; this
suite draws more inputs, from its own fixed seeds, inside the documented
conditioning envelope of each route (angles bounded away from the axes
where a route requires it, covariances within the window the 1024-point
grid resolves).
"""

import time

import numpy as np

from conftest import (
    HBAR,
    random_direction,
    random_free_pair,
    random_gaussian_state,
)

from symtomo import (
    FreeSymplectic,
    GaussianState,
    gaussian_wavefunction,
    gaussian_wigner,
    marginals,
    radon_chirp_fft,
    radon_metaplectic,
    wigner_transform,
)
from symtomo.checks import CONTRACT, random_symplectic


def measure(name: str, *inputs) -> float:
    return CONTRACT[name].measure(*inputs)


def report(label: str, name: str, worst: float, extra: str = ""):
    """Print and assert ``worst`` against the tolerance of invariant ``name``."""
    tol = CONTRACT[name].tol
    status = "PASS" if worst <= tol else "FAIL"
    print(f"[{status}] {label}: worst {worst:.3e} vs tolerance {tol:.1e}{extra}")
    assert worst <= tol


def test_criterion_01_marginal_identities(grid):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10):
        state = random_gaussian_state(rng)
        psi = gaussian_wavefunction(state, grid)
        w = wigner_transform(psi)
        worst = max(worst, measure("wigner_marginals", psi, state, *marginals(w),
                                   w.p_grid.points))
    report("criterion 1 (marginal identities, 10 states)", "wigner_marginals", worst)


def test_criterion_02_symplectic_covariance(grid):
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        state = random_gaussian_state(rng)
        psi = gaussian_wavefunction(state, grid)
        worst = max(worst, measure("symplectic_covariance", psi, state,
                                   *random_direction(rng, min_angle=0.0)))
    report("criterion 2 (symplectic covariance, 20 directions)", "symplectic_covariance",
           worst)


def test_criterion_03_three_route_equivalence(grid):
    rng = np.random.default_rng(103)
    worst_pair = 0.0
    worst_line = 0.0
    for _ in range(4):
        psi = gaussian_wavefunction(random_gaussian_state(rng), grid)
        w_square = wigner_transform(psi, p_grid=grid)
        for _ in range(5):
            mu, nu = random_direction(rng)
            worst_pair = max(worst_pair, measure("route_equivalence_chirp_fft", psi, mu, nu))
            # the line integral against both operator routes
            worst_line = max(worst_line, measure(
                "route_equivalence_line_integral", w_square, mu, nu,
                radon_metaplectic(psi, mu, nu), radon_chirp_fft(psi, mu, nu)))
    state = random_gaussian_state(rng)
    psi = gaussian_wavefunction(state, grid)
    t_x = radon_metaplectic(psi, 1.0, 0.0)
    t_p = radon_metaplectic(psi, 0.0, 1.0)
    worst_axis = measure("wigner_marginals", psi, state, t_x.values, t_p.values, t_p.x)
    report("criterion 3a (metaplectic vs chirp-FFT, 20 directions)",
           "route_equivalence_chirp_fft", worst_pair)
    report("criterion 3b (operator routes vs line integral)",
           "route_equivalence_line_integral", worst_line)
    report("criterion 3c (axis tomograms reproduce marginals)", "wigner_marginals", worst_axis)


def test_criterion_04_homogeneity(grid):
    rng = np.random.default_rng(104)
    psi = gaussian_wavefunction(random_gaussian_state(rng), grid)
    worst = 0.0
    for _ in range(5):
        worst = max(worst, measure("tomogram_homogeneity", psi,
                                   *random_direction(rng, min_angle=0.0)))
    report("criterion 4 (tomogram homogeneity, s in {0.5, 2, 3})", "tomogram_homogeneity",
           worst)


def test_criterion_05_inversion_round_trip(grid):
    rng = np.random.default_rng(105)
    worst = 0.0
    slowest = 0.0
    for _ in range(5):
        state = random_gaussian_state(rng)
        psi = gaussian_wavefunction(state, grid)
        # the closed-form map is the reference here; symtomo check uses the
        # numerical Wigner transform of the same samples
        reference = gaussian_wigner(state, grid)
        start = time.perf_counter()
        worst = max(worst, measure("fbp_round_trip", psi, reference, 1.0))
        slowest = max(slowest, time.perf_counter() - start)
    report("criterion 5 (FBP round trip, 5 states, 360 angles)", "fbp_round_trip", worst,
           extra=f"; slowest state {slowest:.1f}s (limit 60s)")
    assert slowest <= 60.0


def test_criterion_06_gaussian_tomogram_variance(grid):
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        state = random_gaussian_state(rng)
        psi = gaussian_wavefunction(state, grid)
        worst = max(worst, measure("gaussian_tomogram_variance", psi, state,
                                   *random_direction(rng)))
    report("criterion 6 (closed-form vs measured variance, 50 draws)",
           "gaussian_tomogram_variance", worst)


def test_criterion_07_pauli_reconstruction(grid):
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        state = random_gaussian_state(rng, sxp_min=0.05)
        psi = gaussian_wavefunction(state, grid)
        worst = max(worst, measure("pauli_round_trip", psi, state,
                                   *random_direction(rng, min_angle=0.35)))
    # sign-ambiguity witness: twins share the axis tomograms to rounding,
    # the floor that tomogram_nonnegativity also holds tomograms to
    state = GaussianState.from_position_data(1.1, 0.45, HBAR)
    twin = GaussianState(state.sigma_xx, state.sigma_pp, -state.sigma_xp, HBAR)
    twin_gap = 0.0
    for mu, nu in [(1.0, 0.0), (0.0, 1.0)]:
        a = radon_metaplectic(gaussian_wavefunction(state, grid), mu, nu)
        b = radon_metaplectic(gaussian_wavefunction(twin, grid), mu, nu)
        twin_gap = max(twin_gap, float(np.max(np.abs(a.values - b.values))))
    report("criterion 7a (covariance recovery, 100 states)", "pauli_round_trip", worst)
    report("criterion 7b (sign twins share axis tomograms)", "tomogram_nonnegativity",
           twin_gap)


def test_criterion_08_chord_variance_link():
    rng = np.random.default_rng(108)
    draws = [(random_gaussian_state(rng), *random_direction(rng)) for _ in range(100)]
    bad = measure("chord_variance_link", draws)
    report("criterion 8 (chord coefficient = variance/nu^2, 100 states)",
           "chord_variance_link", bad, extra=f"; {bad:.0f} violations at 1e-12")


def test_criterion_09_metaplectic_composition(grid):
    rng = np.random.default_rng(109)
    state = random_gaussian_state(rng)
    psi = gaussian_wavefunction(state, grid)
    worst_norm = 0.0
    worst_proj = 0.0
    for _ in range(20):
        s1, s2 = random_free_pair(rng, state.covariance_matrix)
        product = FreeSymplectic.from_matrix(s1.base.matrix @ s2.base.matrix)
        # the norm of the direct operator as well as of the composition
        worst_norm = max(worst_norm, measure("metaplectic_unitarity", psi, s1, s2),
                         measure("metaplectic_unitarity", psi, product))
        worst_proj = max(worst_proj, measure("metaplectic_projective_composition", psi, s1, s2))
    report("criterion 9a (metaplectic unitarity, 20 pairs)", "metaplectic_unitarity",
           worst_norm)
    report("criterion 9b (projective composition, 20 pairs)",
           "metaplectic_projective_composition", worst_proj)


def test_criterion_10_lagrangian_frames():
    rng = np.random.default_rng(110)
    # validators against the S J S^T oracle's verdict (symtomo check expects
    # every verdict, the oracle's included, to be true)
    bad = measure("lagrangian_frame_oracle", [random_symplectic(rng) for _ in range(200)], None)
    report("criterion 10 (frame validator vs SJS^T oracle, 200 draws)",
           "lagrangian_frame_oracle", bad, extra=f"; {bad:.0f} disagreements")
