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


@dataclass(frozen=True, eq=False)
class _HalfDim:
    """A record on R^(2n): the positive integer ``n`` and ``dim = 2n``.

    The one owner of that rule for systems and transforms; a subclass's
    fields follow ``n``.
    """

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _positive_int("n", self.n))

    @property
    def dim(self) -> int:
        return 2 * self.n


@dataclass(frozen=True, eq=False)
class BirkhoffSystem(_HalfDim):
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
        Homogeneous-form right-hand side; ``-(grad B + dF/dt)`` by central
        differences of B and F when omitted.  A caller with analytic
        derivatives of B and F passes
        ``D=lambda z, t: -(grad_b(z, t) + df_dt(z, t))``.

    All evaluations are pure; instances are immutable and safe to share
    across threads.
    """

    F: Callable[[Array, float], Array]
    B: Callable[[Array, float], float]
    K: Optional[Callable[[Array, float], Array]] = None
    D: Optional[Callable[[Array, float], Array]] = None

    # -- validated evaluation helpers ------------------------------------

    def f_at(self, z: Array, t: float) -> Array:
        return _checked("F", self.F, z, t, (self.dim,))

    def b_at(self, z: Array, t: float) -> float:
        return float(_checked("B", self.B, z, t, ()))

    def k_at(self, z: Array, t: float) -> Array:
        """Structure matrix, analytic if supplied, else derived from F.

        The derived K[i, j] = dF_j/dz_i - dF_i/dz_j is taken by central
        differences of F; as the difference of a matrix and its transpose,
        it is exactly antisymmetric.
        """
        if self.K is not None:
            return _checked("K", self.K, z, t, (self.dim, self.dim))
        jac = numdiff.jacobian(lambda y: self.f_at(y, t), z)  # jac[i, j] = dF_i/dz_j
        return jac.T - jac

    def d_at(self, z: Array, t: float) -> Array:
        """Homogeneous-form right-hand side D, so that K dz/dt + D = 0.

        The analytic D if supplied, else -(grad B + dF/dt) by central
        differences of B and F.
        """
        if self.D is not None:
            return _checked("D", self.D, z, t, (self.dim,))
        z = np.asarray(z, dtype=float)
        gb = numdiff.gradient(lambda y: self.b_at(y, t), z)
        return -(gb + numdiff.time_derivative(lambda s: self.f_at(z, s), t))


def _positive_int(name: str, value) -> int:
    """``value`` as an int; ValueError unless it is an integer (not a bool) of at least 1.

    Any ``numbers.Integral`` passes, numpy integers included; a float is
    rejected rather than truncated.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _require_dim(sys, z) -> Array:
    """``z`` as a float array; ValueError unless it is a state vector of ``sys.dim`` entries.

    ``sys`` is any system with a ``dim``.  Checked before any evaluation,
    so a state of another length never reaches the user's callables.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (sys.dim,):
        raise ValueError(f"state of shape {z.shape} does not match system dimension {sys.dim}")
    return z


def _checked(name: str, fn: Callable, z: Array, t: float, shape: tuple) -> Array:
    """``fn(z, t)`` as a float array; EvaluationError unless real, of ``shape`` and finite.

    A result of any dtype but bool, integer or float is rejected before
    conversion: text would be parsed as numbers and a complex value would
    lose its imaginary part.
    """
    out = np.asarray(fn(np.asarray(z, dtype=float), t))
    # a float result, the usual one, skips the dtype test and the conversion
    if out.dtype != float:
        if out.dtype.kind not in "biuf":
            raise EvaluationError(f"{name} must return real numbers, got dtype {out.dtype}")
        out = out.astype(float)
    if out.shape != shape:
        raise EvaluationError(f"{name} must return shape {shape}, got {out.shape}")
    if not np.isfinite(out).all():
        raise EvaluationError(f"{name} returned non-finite values at t={t}")
    return out


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


def velocity(sys: BirkhoffSystem, z: Array, t: float) -> Array:
    """Phase velocity K^{-1} (grad B + dF/dt), i.e. the solution of K v = -D.

    A z whose length is not the system's raises ``ValueError`` before any
    evaluation; a K that fails :func:`det_nonzero` raises
    :class:`RegularityError` carrying that test's |det| in ``det``.
    """
    z = _require_dim(sys, z)
    k = sys.k_at(z, t)
    require_nonsingular(k, lambda det: RegularityError(f"structure matrix singular at t={t}", det))
    return np.linalg.solve(k, -sys.d_at(z, t))
