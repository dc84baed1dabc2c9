"""Continuous Birkhoffian problem: phase points, systems, vector fields.

A Birkhoffian system is the first-order problem

    K(z, t) dz/dt = grad B(z, t) + dF/dt (z, t)

on R^(2n), where K is an antisymmetric, regular structure matrix obtained
from the component functions F by antisymmetrizing their Jacobian, and B
is the scalar generating the right-hand side.  The equivalent homogeneous
form is ``K dz/dt + D = 0`` with ``D = -(grad B + dF/dt)``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numdiff
from .errors import EvaluationError, RegularityError

Array = np.ndarray

# a square matrix M counts as nonsingular when |det(R^{-1} M)| > DET_TOLERANCE,
# with R the diagonal of the row maxima max_j |M_ij|
DET_TOLERANCE = 1e-12
_LOG_DET_TOLERANCE = math.log(DET_TOLERANCE)
# distinct matrices whose determinant margin is kept, least recently used out
_DET_CACHE_SIZE = 256


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
    grad_b: Optional[Callable[[Array, float], Array]] = None
    df_dt: Optional[Callable[[Array, float], Array]] = None

    def __post_init__(self):
        object.__setattr__(self, "n", _positive_int("n", self.n))

    @property
    def dim(self) -> int:
        return 2 * self.n

    # -- validated evaluation helpers ------------------------------------

    def f_at(self, z: Array, t: float) -> Array:
        return _checked("F", self.F, z, t, (self.dim,))

    def b_at(self, z: Array, t: float) -> float:
        return float(_checked("B", self.B, z, t, ()))

    def k_at(self, z: Array, t: float) -> Array:
        """Structure matrix, analytic if supplied, else derived from F."""
        if self.K is not None:
            return _checked("K", self.K, z, t, (self.dim, self.dim))
        return k_from_f(self, PhasePoint(z, t))

    def d_at(self, z: Array, t: float) -> Array:
        """Homogeneous-form right-hand side D, so that K dz/dt + D = 0.

        The analytic D if supplied, else -(grad B + dF/dt) with analytic
        ``grad_b``/``df_dt`` preferred over central differences of B and F.
        """
        if self.D is not None:
            return _checked("D", self.D, z, t, (self.dim,))
        z = np.asarray(z, dtype=float)
        if self.grad_b is not None:
            gb = _checked("grad_b", self.grad_b, z, t, (self.dim,))
        else:
            gb = numdiff.gradient(lambda y: self.b_at(y, t), z)
        if self.df_dt is not None:
            ft = _checked("df_dt", self.df_dt, z, t, (self.dim,))
        else:
            ft = numdiff.time_derivative(lambda s: self.f_at(z, s), t)
        return -(gb + ft)


def _positive_int(name: str, value) -> int:
    """``value`` as an int; ValueError unless it is an integer (not a bool) of at least 1.

    Any ``numbers.Integral`` passes, numpy integers included; a float is
    rejected rather than truncated.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _checked(name: str, fn: Callable, z: Array, t: float, shape: tuple) -> Array:
    """``fn(z, t)`` as a float array; EvaluationError unless of ``shape`` and finite."""
    out = np.asarray(fn(np.asarray(z, dtype=float), t), dtype=float)
    if out.shape != shape:
        raise EvaluationError(f"{name} must return shape {shape}, got {out.shape}")
    if not np.isfinite(out).all():
        raise EvaluationError(f"{name} returned non-finite values at t={t}")
    return out


def k_from_f(sys: BirkhoffSystem, p: PhasePoint) -> Array:
    """Structure matrix from the antisymmetrized Jacobian of F.

    K[i, j] = dF_j/dz_i - dF_i/dz_j, by central differences.  The result
    is symmetrized as (M - M^T)/2 so antisymmetry holds exactly.
    """
    jac = numdiff.jacobian(lambda y: sys.f_at(y, p.t), p.z)  # jac[i, j] = dF_i/dz_j
    k = jac.T - jac
    return 0.5 * (k - k.T)


def _content_cached(maxsize: int):
    """Cache a function of one float array by content, least recently used out.

    The key is the argument's shape and float64 bytes, never its identity:
    an array mutated in place is evaluated afresh, and a view shares the
    entry of its contiguous copy.  The function receives a read-only array
    of that content.  Arrays in the result, returned alone or inside a
    tuple, are made read-only in place, since every caller shares them, so
    the function must return arrays that nothing else writes to; a raised
    error is never kept.  ``cache_info`` and ``cache_clear`` are those of
    the underlying ``functools.lru_cache``, which makes concurrent use
    safe.
    """

    def decorate(fn):
        @functools.lru_cache(maxsize=maxsize)
        def cached(shape: tuple, data: bytes):
            out = fn(np.frombuffer(data).reshape(shape))
            return tuple(map(_frozen, out)) if isinstance(out, tuple) else _frozen(out)

        @functools.wraps(fn)
        def wrapped(x):
            x = np.asarray(x, dtype=float)
            return cached(x.shape, x.tobytes())

        wrapped.cache_info = cached.cache_info
        wrapped.cache_clear = cached.cache_clear
        return wrapped

    return decorate


def _frozen(value):
    """``value``, made read-only in place if it is an array."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    return value


@_content_cached(_DET_CACHE_SIZE)
def _det_margin(mat: Array) -> float:
    """log(|det M| / prod_i max_j |M_ij|) for the square matrix M.

    -inf for a singular M, a zero row or a non-finite entry.  Computed from
    ``slogdet`` and the log row maxima, so neither det M nor the product of
    the row maxima has to fit in a float.  Memoized by content: K(t), P(t)
    and the identity point's A' - C' come back unchanged many times per
    step.
    """
    rowmax = np.abs(mat).max(axis=1)
    # written so that a NaN row maximum fails too
    if not (0.0 < rowmax.min() and rowmax.max() < math.inf):
        return -math.inf
    return float(np.linalg.slogdet(mat)[1]) - float(np.log(rowmax).sum())


def det_nonzero(mat: Array) -> bool:
    """Whether |det M| / prod_i max_j |M_ij| > DET_TOLERANCE for the square matrix M.

    Each row is normalized by its own largest entry, so the test is
    unchanged when M, or any one row of M, is scaled, at any magnitude;
    rows of very different size (a block of order lambda(t) above a block
    of order 1) do not read as singular.  A zero row or a non-finite entry
    counts as singular.
    """
    return _det_margin(mat) > _LOG_DET_TOLERANCE


def require_nonsingular(mat: Array, error: Callable[[float], Exception]) -> None:
    """Raise ``error(det)`` unless ``mat`` passes :func:`det_nonzero`.

    ``det`` is |det| of ``mat`` with each row divided by its max-abs
    entry, the quantity the test uses.
    """
    margin = _det_margin(mat)
    if not margin > _LOG_DET_TOLERANCE:
        raise error(math.exp(margin))


def regularity(sys: BirkhoffSystem, p: PhasePoint):
    """Determinant of K at p and whether K passes :func:`det_nonzero`."""
    k = sys.k_at(p.z, p.t)
    return float(np.linalg.det(k)), det_nonzero(k)


def velocity(sys: BirkhoffSystem, z: Array, t: float) -> Array:
    """Phase velocity K^{-1} (grad B + dF/dt), i.e. the solution of K v = -D."""
    k = sys.k_at(z, t)
    require_nonsingular(
        k, lambda det: RegularityError(f"structure matrix singular at t={t}: |det| = {det:.3e}")
    )
    return np.linalg.solve(k, -sys.d_at(z, t))
