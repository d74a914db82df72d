"""Lagrangian-frame admissibility of (A, B) pairs defining affine
hyperplanes A x + B p = X in any dimension (the symplectic block
conditions are :func:`symtomo.metaplectic.is_symplectic`)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .metaplectic import CheckResult

__all__ = ["FramePair", "is_lagrangian_frame"]

FRAME_TOL = 1e-10  # of both frame conditions


@dataclass(frozen=True)
class FramePair:
    """A pair of real n x n matrices; validity is what the checker decides."""

    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.atleast_2d(np.array(self.A, dtype=np.float64))
        b = np.atleast_2d(np.array(self.B, dtype=np.float64))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError(f"A must be square, got {a.shape}")
        if b.shape != a.shape:
            raise DomainError(f"A and B shapes differ: {a.shape} vs {b.shape}")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def is_lagrangian_frame(frame: FramePair) -> CheckResult:
    """Whether the level sets of z -> A x + B p are affine Lagrangian planes.

    Conditions: A B^T symmetric within FRAME_TOL, and rank [A B] = n
    (smallest singular value above FRAME_TOL times the largest).  Diagnostics
    also report the asymmetry of A^T B, an alternative transpose placement
    one may meet for this condition; the two readings differ for general
    frames and only A B^T relates to the symplectic block conditions.
    """
    a, b = frame.A, frame.B
    abt = a @ b.T
    sv = np.linalg.svd(np.hstack([a, b]), compute_uv=False)
    residuals = {
        "ABt_asymmetry": float(np.max(np.abs(abt - abt.T))),
        "AtB_asymmetry_alternative": float(np.max(np.abs(a.T @ b - (a.T @ b).T))),
        "smallest_singular_value": float(sv[-1]),
        "largest_singular_value": float(sv[0]),
    }
    failures = []
    if residuals["ABt_asymmetry"] > FRAME_TOL:
        failures.append("ABt_symmetry")
    if sv[0] == 0.0 or sv[-1] <= FRAME_TOL * sv[0]:
        failures.append("rank")
    return CheckResult(not failures, tuple(failures), residuals)

