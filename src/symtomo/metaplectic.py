"""Symplectic matrices, generating quadratic forms and quadratic Fourier transforms.

A free symplectic matrix (invertible upper-right block B) defines a
quadratic form A(x, x') = P x.x/2 - L x.x' + Q x'.x'/2 with P = D B^-1,
L = B^-1, Q = B^-1 A, and a pair of unitary integral operators with kernel
exp(i A(x,x')/hbar).  At n = 1 these are realized numerically as
chirp -> hbar-Fourier -> rescale -> chirp, which is what the Radon
transform consumes through the phase-space rotation operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotFreeError, UnsupportedOperation
from .grids import Grid1D, SampledWavefunction, chirp_fourier_rows, cis

__all__ = [
    "CheckResult",
    "SymplecticMatrix",
    "FreeSymplectic",
    "RotationParams",
    "is_symplectic",
    "rotation_from_mu_nu",
    "matrix_from_generating_form",
    "quadratic_fourier",
    "metaplectic_rotation",
    "rotation_form",
    "rotate_rows",
    "quarter_turn",
]

# What makes a matrix free symplectic, in from_matrix and rotation_form alike:
# block conditions within SYMPLECTIC_TOL, and |det B| at least FREE_DET_MIN.
SYMPLECTIC_TOL = 1e-10
FREE_DET_MIN = 1e-12


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus named diagnostics for validator operations."""

    ok: bool
    failures: tuple[str, ...] = ()
    residuals: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def _sym_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.T))) if m.size else 0.0


@dataclass(frozen=True)
class SymplecticMatrix:
    """Real 2n x 2n matrix in block form [[A, B], [C, D]]."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
            raise DomainError(f"expected a square even-dimensional matrix, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def A(self) -> np.ndarray:
        return self.matrix[: self.n, : self.n]

    @property
    def B(self) -> np.ndarray:
        return self.matrix[: self.n, self.n:]

    @property
    def C(self) -> np.ndarray:
        return self.matrix[self.n:, : self.n]

    @property
    def D(self) -> np.ndarray:
        return self.matrix[self.n:, self.n:]


def standard_symplectic_form(n: int) -> np.ndarray:
    """J = [[0, I], [-I, 0]]."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def is_symplectic(matrix: np.ndarray, tol: float) -> CheckResult:
    """Whether a 2n x 2n matrix is in Sp(n): both equivalent block condition
    sets hold within ``tol``.

    Set 1: A^T C and B^T D symmetric, A^T D - C^T B = I.
    Set 2: A B^T and C D^T symmetric, A D^T - B C^T = I.
    """
    s = SymplecticMatrix(matrix)
    A, B, C, D = s.A, s.B, s.C, s.D
    eye = np.eye(s.n)
    residuals = {
        "AtC_symmetry": _sym_defect(A.T @ C),
        "BtD_symmetry": _sym_defect(B.T @ D),
        "AtD_CtB_identity": float(np.max(np.abs(A.T @ D - C.T @ B - eye))),
        "ABt_symmetry": _sym_defect(A @ B.T),
        "CDt_symmetry": _sym_defect(C @ D.T),
        "ADt_BCt_identity": float(np.max(np.abs(A @ D.T - B @ C.T - eye))),
    }
    failures = tuple(k for k, v in residuals.items() if not v <= tol)
    return CheckResult(not failures, failures, residuals)


@dataclass(frozen=True)
class RotationParams:
    """Direction (mu, nu) of the quadrature mu*x + nu*p, with its length."""

    mu: float
    nu: float

    def __post_init__(self):
        if self.mu == 0.0 and self.nu == 0.0:
            raise DomainError("(mu, nu) = (0, 0) does not define a direction")

    @property
    def lam(self) -> float:
        return float(np.hypot(self.mu, self.nu))


def rotation_from_mu_nu(mu: float, nu: float) -> SymplecticMatrix:
    """Phase-space rotation [[mu, nu], [-nu, mu]] / lambda."""
    p = RotationParams(mu, nu)
    lam = p.lam
    return SymplecticMatrix(np.array([[mu / lam, nu / lam], [-nu / lam, mu / lam]]))


@dataclass(frozen=True)
class FreeSymplectic:
    """Symplectic matrix with invertible B block and its generating data.

    ``maslov_index`` selects one of the two unitary operators covering the
    matrix; only its parity is fixed by the sign of det(B^-1) (even for
    positive determinant, odd for negative).
    """

    base: SymplecticMatrix
    maslov_index: int

    @classmethod
    def from_matrix(cls, matrix, maslov_index: int | None = None) -> "FreeSymplectic":
        base = matrix if isinstance(matrix, SymplecticMatrix) else SymplecticMatrix(matrix)
        check = is_symplectic(base.matrix, SYMPLECTIC_TOL)
        if not check:
            raise DomainError(f"matrix is not symplectic: {check.failures}")
        det_b = float(np.linalg.det(base.B))
        if not abs(det_b) >= FREE_DET_MIN:
            raise NotFreeError("upper-right block B is singular; matrix is not free")
        parity = 0 if 1.0 / det_b > 0 else 1
        if maslov_index is None:
            maslov_index = parity
        elif maslov_index % 2 != parity:
            raise DomainError(
                f"maslov_index parity {maslov_index % 2} inconsistent with sign of det B^-1"
            )
        return cls(base, maslov_index % 4)

    # Generating-form coefficients: p = P x - L^T x' and p' = L x - Q x'
    # reproduce the action (x', p') -> (x, p); P and Q are symmetric.
    @property
    def P(self) -> np.ndarray:
        return self.base.D @ np.linalg.inv(self.base.B)

    @property
    def L(self) -> np.ndarray:
        return np.linalg.inv(self.base.B)

    @property
    def Q(self) -> np.ndarray:
        return np.linalg.inv(self.base.B) @ self.base.A


def matrix_from_generating_form(P, L, Q) -> SymplecticMatrix:
    """Reconstruct the free symplectic matrix from (P, L, Q)."""
    P, L, Q = np.atleast_2d(P), np.atleast_2d(L), np.atleast_2d(Q)
    B = np.linalg.inv(L)
    A = B @ Q
    D = P @ B
    C = P @ A - L.T
    return SymplecticMatrix(np.block([[A, B], [C, D]]))


def _quadratic_fourier_rows(values: np.ndarray, grid: Grid1D, P, L, Q, maslov) -> np.ndarray:
    """Quadratic Fourier transforms of ``values`` ((n,) or (R, n)) for the
    generating data P, L, Q and Maslov indices given per row: chirp(Q) ->
    hbar-Fourier -> sample at L*x -> chirp(P), times
    sqrt(|L|) * i**(m - 1/2).  Returns (R, n) rows on ``grid``."""
    P, L, Q, maslov = (np.atleast_1d(np.asarray(a, dtype=np.float64))
                       for a in (P, L, Q, maslov))
    g = grid
    vals = np.sqrt(np.abs(L))[:, None] * chirp_fourier_rows(
        values, g, Q, L * g.x_min, L * g.dx, g.n_points)
    phase = (np.pi / 2) * maslov - np.pi / 4
    return vals * cis(P[:, None] * (g.points**2 / (2.0 * g.hbar)) + phase[:, None])


def quadratic_fourier(psi: SampledWavefunction, s: FreeSymplectic) -> SampledWavefunction:
    """Unitary integral operator generated by a free symplectic matrix (n = 1).

    Realized as chirp(Q) -> hbar-Fourier -> scale(L) -> chirp(P), with the
    constant i**(m - 1/2) * sqrt(|det B^-1|) absorbed in the pipeline.  The
    Fourier transform is evaluated directly at L*x on the input grid (one
    chirp-z transform, see :func:`chirp_fourier_rows`), so the output
    shares the input grid and subsequent operators compose without loss.
    Accuracy requires the chirped input (coefficient Q) and the chirped
    output (coefficient P) to stay below the grid Nyquist rate over their
    supports, and the transformed state to fit the window; bounded
    |P|, |L|, |Q| of order unity keep the realization at ~1e-10 for
    edge-decayed states.
    """
    if s.base.n != 1:
        raise UnsupportedOperation("quadratic Fourier transforms are implemented for n = 1 only")
    rows = _quadratic_fourier_rows(psi.values, psi.grid, s.P[0, 0], s.L[0, 0], s.Q[0, 0],
                                   s.maslov_index)
    return SampledWavefunction(psi.grid, rows[0])


def rotation_form(mu, nu) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Generating data (P, L, Q, maslov_index) of the rotations
    [[mu, nu], [-nu, mu]] / lambda, in closed form for arrays of directions.

    With c = mu/lambda and s = nu/lambda the B block is s, so L = 1/s and
    P = Q = c/s; the Maslov index is the parity of the sign of 1/s.  The
    checks :meth:`FreeSymplectic.from_matrix` makes (SYMPLECTIC_TOL and
    FREE_DET_MIN) run once over all the directions.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    nu = np.atleast_1d(np.asarray(nu, dtype=np.float64))
    lam = np.hypot(mu, nu)
    c, s = mu / lam, nu / lam
    if not np.all(np.abs(c * c + s * s - 1.0) <= SYMPLECTIC_TOL):
        raise DomainError("rotation matrix is not symplectic")
    if not np.all(np.abs(s) >= FREE_DET_MIN):
        raise NotFreeError("upper-right block B is singular; matrix is not free")
    inv_b = 1.0 / s
    pq = c * inv_b
    return pq, inv_b, pq, np.where(inv_b > 0, 0, 1)


def quarter_turn(psi: SampledWavefunction) -> np.ndarray:
    """Values of U_(0,1) psi, the quarter turn that split rotations share."""
    return _quadratic_fourier_rows(psi.values, psi.grid, *rotation_form(0.0, 1.0))[0]


def rotate_rows(psi: SampledWavefunction, mu, nu, quarter: np.ndarray | None = None) -> np.ndarray:
    """Rows U_(mu_r, nu_r) psi, shape (R, n), for arrays of directions.

    For |nu| >= |mu| each row is the quadratic Fourier transform of the
    rotation matrix itself.  For 0 < |nu| < |mu| the rotation is split as
    U_(mu,nu) = U_(nu,-mu) . U_(0,1) and both factors are realized as
    well-conditioned quadratic Fourier transforms; the composition covers
    the same rotation up to an overall sign (the double-cover ambiguity),
    which is immaterial for every |.|^2-based quantity.  The quarter turn
    U_(0,1) psi is computed once (or passed in as ``quarter``) and shared by
    all split rows.  For nu = 0 the operator is the identity (mu > 0) or
    parity (mu < 0) up to phase.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    nu = np.atleast_1d(np.asarray(nu, dtype=np.float64))
    if not np.all(np.hypot(mu, nu) > 0):
        raise DomainError("every direction (mu, nu) must be nonzero")
    g = psi.grid
    out = np.empty((len(mu), g.n_points), dtype=np.complex128)
    axis = nu == 0.0
    out[axis & (mu > 0)] = psi.values
    # parity on an FFT-convention grid: index j -> (n - j) mod n
    out[axis & (mu < 0)] = np.roll(psi.values[::-1], 1)
    direct = ~axis & (np.abs(nu) >= np.abs(mu))
    if direct.any():
        out[direct] = _quadratic_fourier_rows(
            psi.values, g, *rotation_form(mu[direct], nu[direct]))
    split = ~axis & ~direct
    if split.any():
        if quarter is None:
            quarter = quarter_turn(psi)
        out[split] = _quadratic_fourier_rows(
            quarter, g, *rotation_form(nu[split], -mu[split]))
    return out


def metaplectic_rotation(psi: SampledWavefunction, params: RotationParams) -> SampledWavefunction:
    """Unitary operator covering the phase-space rotation U_(mu,nu); the
    one-direction case of :func:`rotate_rows`."""
    return SampledWavefunction(psi.grid, rotate_rows(psi, params.mu, params.nu)[0])
