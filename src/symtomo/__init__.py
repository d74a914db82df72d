"""Quadrature tomograms of 1-d pure quantum states.

The package computes the probability density of mu*x + nu*p for a sampled
wavefunction by three cross-validating routes (rotation operators built
from quadratic Fourier transforms, a chirp-FFT shortcut, and line
integrals of the Wigner map), inverts angle sweeps by ramp-filtered
back-projection, and solves the pure-Gaussian covariance-recovery problem,
where the two axis densities leave the cross covariance ambiguous up to
sign and a single oblique tomogram resolves it.
"""

from .errors import (
    AccuracyWarning,
    AmbiguousSignError,
    ConfigError,
    DomainError,
    ModelMismatchError,
    NotFreeError,
    SymtomoError,
    UnsupportedOperation,
)
from .gaussian import (
    EllipseChord,
    GaussianState,
    PauliReconstruction,
    chord_matches_tomogram_variance,
    ellipse_chord,
    gaussian_tomogram,
    gaussian_wavefunction,
    gaussian_wigner,
    gaussian_wigner_at,
    pauli_reconstruct,
    tomogram_variance,
)
from .grids import (
    Grid1D,
    SampledWavefunction,
    inner_product,
    make_grid,
    scale,
)
from .lagrangian import FramePair, is_lagrangian_frame
from .metaplectic import (
    CheckResult,
    FreeSymplectic,
    RotationParams,
    SymplecticMatrix,
    is_symplectic,
    metaplectic_rotation,
    quadratic_fourier,
    rotation_from_mu_nu,
    standard_symplectic_form,
)
from .radon import (
    Tomogram,
    TomogramSet,
    chirp_resolvable,
    compute_tomogram_set,
    inverse_radon,
    radon_chirp_fft,
    radon_line_integral,
    radon_metaplectic,
    sweep_angles,
)
from .wigner import WignerMap, default_momentum_window, marginals, wigner_transform

__version__ = "0.1.0"

__all__ = [
    "AccuracyWarning",
    "AmbiguousSignError",
    "CheckResult",
    "ConfigError",
    "DomainError",
    "EllipseChord",
    "FramePair",
    "FreeSymplectic",
    "GaussianState",
    "Grid1D",
    "ModelMismatchError",
    "NotFreeError",
    "PauliReconstruction",
    "RotationParams",
    "SampledWavefunction",
    "SymplecticMatrix",
    "SymtomoError",
    "Tomogram",
    "TomogramSet",
    "UnsupportedOperation",
    "WignerMap",
    "chirp_resolvable",
    "chord_matches_tomogram_variance",
    "compute_tomogram_set",
    "default_momentum_window",
    "ellipse_chord",
    "gaussian_tomogram",
    "gaussian_wavefunction",
    "gaussian_wigner",
    "gaussian_wigner_at",
    "inner_product",
    "inverse_radon",
    "is_lagrangian_frame",
    "is_symplectic",
    "make_grid",
    "marginals",
    "metaplectic_rotation",
    "pauli_reconstruct",
    "quadratic_fourier",
    "radon_chirp_fft",
    "radon_line_integral",
    "radon_metaplectic",
    "rotation_from_mu_nu",
    "scale",
    "standard_symplectic_form",
    "sweep_angles",
    "tomogram_variance",
    "wigner_transform",
]
