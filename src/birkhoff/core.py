"""Continuous Birkhoffian problem: phase points, systems, vector fields.

A Birkhoffian system is the first-order problem

    K(z, t) dz/dt = grad B(z, t) + dF/dt (z, t)

on R^(2n), where K is an antisymmetric, regular structure matrix obtained
from the component functions F by antisymmetrizing their Jacobian, and B
is the scalar generating the right-hand side.  The equivalent homogeneous
form is ``K dz/dt + D = 0`` with ``D = -(grad B + dF/dt)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import numdiff
from .errors import EvaluationError, RegularityError

Array = np.ndarray

# a square matrix M counts as nonsingular when |det(R^{-1} M)| > DET_TOLERANCE,
# with R the diagonal of the row maxima max_j |M_ij|
DET_TOLERANCE = 1e-12
_LOG_DET_TOLERANCE = math.log(DET_TOLERANCE)
_NORMAL_MIN = float(np.finfo(float).tiny)


class SystemKind(str, Enum):
    """Time dependence of the defining data.

    ``autonomous``: neither F nor B depends on t.  ``semi-autonomous``:
    only B does.  ``nonautonomous``: both do.
    """

    AUTONOMOUS = "autonomous"
    SEMI_AUTONOMOUS = "semi-autonomous"
    NONAUTONOMOUS = "nonautonomous"


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """A phase-space sample (z, t) with z of even length 2n."""

    z: Array
    t: float = 0.0

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        if z.ndim != 1 or z.size == 0 or z.size % 2:
            raise ValueError(f"phase vector must have even positive length, got shape {z.shape}")
        if not (np.all(np.isfinite(z)) and np.isfinite(self.t)):
            raise ValueError("phase point entries must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self) -> int:
        return self.z.size // 2


@dataclass(frozen=True, eq=False)
class BirkhoffSystem:
    """The quadruple (n, F, B, K, D) defining the continuous problem.

    Parameters
    ----------
    n : int
        Half the phase dimension.
    F : callable (z, t) -> vector of length 2n
        Component functions whose antisymmetrized Jacobian is K.
    B : callable (z, t) -> float
        Scalar generating the right-hand side.
    K : callable (z, t) -> 2n x 2n array, optional
        Structure matrix; derived from F by central differences when
        omitted.
    D : callable (z, t) -> vector, optional
        Homogeneous-form right-hand side; ``-(grad B + dF/dt)`` when
        omitted.
    kind : SystemKind or str
    grad_b, df_dt : callables, optional
        Analytic gradient of B and time derivative of F.  Analytic
        callables always take precedence over finite differences; the
        derived versions exist for consistency checking.

    All evaluations are pure; instances are immutable and safe to share
    across threads.
    """

    n: int
    F: Callable[[Array, float], Array]
    B: Callable[[Array, float], float]
    K: Optional[Callable[[Array, float], Array]] = None
    D: Optional[Callable[[Array, float], Array]] = None
    kind: SystemKind = SystemKind.NONAUTONOMOUS
    grad_b: Optional[Callable[[Array, float], Array]] = None
    df_dt: Optional[Callable[[Array, float], Array]] = None

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "kind", SystemKind(self.kind))

    @property
    def dim(self) -> int:
        return 2 * self.n

    # -- validated evaluation helpers ------------------------------------

    def f_at(self, z: Array, t: float) -> Array:
        out = np.asarray(self.F(np.asarray(z, dtype=float), t), dtype=float)
        if out.shape != (self.dim,):
            raise EvaluationError(f"F must return shape ({self.dim},), got {out.shape}")
        if not np.all(np.isfinite(out)):
            raise EvaluationError(f"F returned non-finite values at t={t}")
        return out

    def b_at(self, z: Array, t: float) -> float:
        out = float(self.B(np.asarray(z, dtype=float), t))
        if not np.isfinite(out):
            raise EvaluationError(f"B returned a non-finite value at t={t}")
        return out

    def k_at(self, z: Array, t: float) -> Array:
        """Structure matrix, analytic if supplied, else derived from F."""
        if self.K is not None:
            out = np.asarray(self.K(np.asarray(z, dtype=float), t), dtype=float)
            if out.shape != (self.dim, self.dim):
                raise EvaluationError(
                    f"K must return shape ({self.dim}, {self.dim}), got {out.shape}"
                )
            if not np.isfinite(out).all():
                raise EvaluationError(f"K returned non-finite values at t={t}")
            return out
        return k_from_f(self, PhasePoint(z, t))

    def rhs_at(self, z: Array, t: float) -> Array:
        """grad B + dF/dt, i.e. -D; analytic pieces preferred."""
        if self.D is not None:
            return -self.d_at(z, t)
        z = np.asarray(z, dtype=float)
        if self.grad_b is not None:
            gb = np.asarray(self.grad_b(z, t), dtype=float)
        else:
            gb = numdiff.gradient(lambda y: self.B(y, t), z)
        if self.df_dt is not None:
            ft = np.asarray(self.df_dt(z, t), dtype=float)
        else:
            ft = numdiff.time_derivative(lambda s: self.F(z, s), t)
        return gb + ft

    def d_at(self, z: Array, t: float) -> Array:
        """Homogeneous-form right-hand side, analytic if supplied, else -(grad B + dF/dt)."""
        if self.D is None:
            return -self.rhs_at(z, t)
        out = np.asarray(self.D(np.asarray(z, dtype=float), t), dtype=float)
        if out.shape != (self.dim,):
            raise EvaluationError(f"D must return shape ({self.dim},), got {out.shape}")
        if not np.isfinite(out).all():
            raise EvaluationError(f"D returned non-finite values at t={t}")
        return out


def k_from_f(sys: BirkhoffSystem, p: PhasePoint) -> Array:
    """Structure matrix from the antisymmetrized Jacobian of F.

    K[i, j] = dF_j/dz_i - dF_i/dz_j, by central differences.  The result
    is symmetrized as (M - M^T)/2 so antisymmetry holds exactly.
    """
    jac = numdiff.jacobian(lambda y: sys.f_at(y, p.t), p.z)  # jac[i, j] = dF_i/dz_j
    k = jac.T - jac
    return 0.5 * (k - k.T)


def _nonsingular(mat: Array, det: float) -> bool:
    """:func:`det_nonzero` reusing det M, unless det M is not a normal float."""
    rowmax = np.abs(mat).max(axis=1)
    if not np.all((rowmax > 0.0) & (rowmax < math.inf)):
        return False
    if not _NORMAL_MIN <= abs(det) < math.inf:
        return abs(float(np.linalg.det(mat / rowmax[:, None]))) > DET_TOLERANCE
    # log form: the product of the row maxima may itself overflow or underflow
    return math.log(abs(det)) > _LOG_DET_TOLERANCE + float(np.sum(np.log(rowmax)))


def det_nonzero(mat: Array) -> bool:
    """Whether |det M| / prod_i max_j |M_ij| > DET_TOLERANCE for the square matrix M.

    Each row is normalized by its own largest entry, so the test is
    unchanged when M, or any one row of M, is scaled, at any magnitude;
    rows of very different size (a block of order lambda(t) above a block
    of order 1) do not read as singular.  A zero row or a non-finite entry
    counts as singular.
    """
    mat = np.asarray(mat, dtype=float)
    return _nonsingular(mat, float(np.linalg.det(mat)))


def regularity(sys: BirkhoffSystem, p: PhasePoint):
    """Determinant of K at p and whether K passes :func:`det_nonzero`."""
    k = sys.k_at(p.z, p.t)
    det = float(np.linalg.det(k))
    return det, _nonsingular(k, det)


def velocity(sys: BirkhoffSystem, z: Array, t: float) -> Array:
    """Phase velocity K^{-1} (grad B + dF/dt) without phase-point wrapping."""
    k = sys.k_at(z, t)
    det = float(np.linalg.det(k))
    if not _nonsingular(k, det):
        raise RegularityError(f"structure matrix singular at t={t}: |det| = {abs(det):.3e}")
    return np.linalg.solve(k, sys.rhs_at(z, t))


def vector_field(sys: BirkhoffSystem, p: PhasePoint) -> Array:
    """Phase velocity v = K^{-1} (grad B + dF/dt) at p."""
    return velocity(sys, p.z, p.t)
