"""Variational self-adjointness checks and (F, B) reconstruction.

A raw first-order system ``K(z,t) dz/dt + D(z,t) = 0`` derives from a
variational principle iff three conditions hold: K is antisymmetric, the
cyclic sum of its z-derivatives vanishes (closure), and the time
derivative of K matches the curl of D.  When they do, component functions
F and a scalar B can be rebuilt by homotopy integrals along the ray from
the origin (the working domain must be star-shaped around it).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import numdiff
from .core import PhasePoint, _checked, _frozen, _HalfDim, _positive_int, _require_dim
from .errors import InconsistencyError

Array = np.ndarray

# largest entry of grad B + D + dF/dt that reconstruct_b's check accepts
_GRAD_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class RawFirstOrderSystem(_HalfDim):
    """A first-order system (n, K, D) given directly by callables K and D."""

    K: Callable[[Array, float], Array]
    D: Callable[[Array, float], Array]

    def k_at(self, z: Array, t: float) -> Array:
        return _checked("K", self.K, z, t, (self.dim, self.dim))

    def d_at(self, z: Array, t: float) -> Array:
        return _checked("D", self.D, z, t, (self.dim,))


@dataclass(frozen=True, eq=False)
class SelfAdjointReport:
    """Worst-case violations of the three self-adjointness conditions.

    ``*_at`` names where each worst violation sits, as (k, entry) with k
    the index into ``samples``: entry (i, j) of K + K^T for antisymmetry,
    the triple (i, j, m), i < j < m, of the cyclic sum for closure, and
    entry (i, j) of dK/dt - curl D for the time curl.  It is ``None``
    where that violation is 0.
    """

    antisymmetry_violation: float
    closure_violation: float
    time_curl_violation: float
    passed: bool
    samples: Tuple[PhasePoint, ...]
    antisymmetry_at: Optional[Tuple[int, Tuple[int, ...]]] = None
    closure_at: Optional[Tuple[int, Tuple[int, ...]]] = None
    time_curl_at: Optional[Tuple[int, Tuple[int, ...]]] = None

    @property
    def max_violation(self) -> float:
        return max(
            self.antisymmetry_violation, self.closure_violation, self.time_curl_violation
        )


def check_self_adjointness(
    raw: RawFirstOrderSystem, samples: Sequence[PhasePoint], tol: float = 1e-7
) -> SelfAdjointReport:
    """Evaluate the three self-adjointness conditions over sample points.

    Derivatives are taken by central differences.  Returns the worst
    violation of each condition over all samples; ``passed`` is true iff
    all three stay within ``tol``, which must be finite and non-negative.
    """
    # written so that a NaN tol fails too
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    samples = tuple(samples)
    if not samples:
        raise ValueError("sample set must be non-empty")
    dim = raw.dim
    ordered = np.fromfunction(lambda i, j, m: (i < j) & (j < m), (dim, dim, dim))

    antisym = closure = time_curl = (0.0, None)
    for idx, p in enumerate(samples):
        _require_dim(raw, p.z)
        k = raw.k_at(p.z, p.t)
        antisym = _worse(antisym, idx, np.abs(k + k.T))

        # dk[i, j, m] = dK_ij/dz_m; cyc[i, j, m] is the cyclic sum
        # dk[i, j, m] + dk[j, m, i] + dk[m, i, j]
        dk = numdiff.jacobian(lambda y: raw.k_at(y, p.t), p.z)
        cyc = dk + dk.transpose(2, 0, 1) + dk.transpose(1, 2, 0)
        closure = _worse(closure, idx, np.where(ordered, np.abs(cyc), 0.0))

        dk_dt = numdiff.time_derivative(lambda s: raw.k_at(p.z, s), p.t)
        jac_d = numdiff.jacobian(lambda y: raw.d_at(y, p.t), p.z)  # jac_d[i, j] = dD_i/dz_j
        curl = jac_d - jac_d.T
        time_curl = _worse(time_curl, idx, np.abs(dk_dt - curl))

    values, where = zip(antisym, closure, time_curl)
    return SelfAdjointReport(*values, max(values) <= tol, samples, *where)


def _worse(worst: tuple, idx: int, magnitudes: Array) -> tuple:
    """The larger of ``worst`` = (value, (k, entry)) and the largest entry of ``magnitudes``.

    The latter is located at sample ``idx``; a tie keeps ``worst``.
    """
    entry = np.unravel_index(np.argmax(magnitudes), magnitudes.shape)
    if magnitudes[entry] > worst[0]:
        return float(magnitudes[entry]), (idx, tuple(int(i) for i in entry))
    return worst


@functools.lru_cache
def _gauss_legendre_01(nodes: int) -> Tuple[Array, Array]:
    """Gauss-Legendre nodes and weights mapped to [0, 1], computed once per node count.

    The cache keeps the 128 most recently used node counts (the
    ``lru_cache`` default).  Its arrays are shared by every caller, so
    they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    return _frozen((x + 1.0) / 2.0), _frozen(w / 2.0)


def _quadrature_rule(quad_nodes: int) -> Tuple[Array, Array]:
    """The [0, 1] rule for ``quad_nodes``, which must be a positive integer."""
    return _gauss_legendre_01(_positive_int("quad_nodes", quad_nodes))


def reconstruct_f(raw: RawFirstOrderSystem, p: PhasePoint, quad_nodes: int = 32) -> Array:
    """Component functions from the homotopy integral of K.

    F_i(z, t) = 1/2 * int_0^1 z_j K_ji(lam * z, t) dlam, evaluated with
    fixed-order Gauss-Legendre quadrature (exact for K polynomial in z of
    degree < 2*quad_nodes along the ray).  The rule is computed once per
    node count and shared read-only; ``quad_nodes`` that is not a
    positive integer raises ``ValueError``, and so does a point whose
    dimension is not the system's.
    """
    _require_dim(raw, p.z)
    lam, wgt = _quadrature_rule(quad_nodes)
    acc = np.zeros(raw.dim)
    for lam_i, w_i in zip(lam, wgt):
        acc += w_i * (raw.k_at(lam_i * p.z, p.t).T @ p.z)
    return 0.5 * acc


def reconstruct_b(
    raw: RawFirstOrderSystem,
    p: PhasePoint,
    quad_nodes: int = 32,
    check: bool = True,
) -> float:
    """Scalar B from the homotopy integral of D along the ray.

    B(z, t) = - int_0^1 z_i D_i(lam * z, t) dlam, with the quadrature of
    :func:`reconstruct_f`.  Precondition: K is antisymmetric, as
    :func:`check_self_adjointness` measures.  Then the dF/dt term of the
    homotopy integral of D + dF/dt adds nothing along the ray, since
    z . F(lam * z, t) = lam/2 int_0^1 z^T K(mu lam z, t) z dmu = 0.  The
    sign is fixed so that ``grad B = -(D + dF/dt)``; with ``check=True``
    that identity is verified at p, by a finite-difference gradient of B
    and one time difference of :func:`reconstruct_f`, and an
    :class:`InconsistencyError` raised when it fails, which signals a
    non-self-adjoint input.  A point whose dimension is not the system's
    raises ``ValueError`` before any evaluation.
    """
    _require_dim(raw, p.z)
    lam, wgt = _quadrature_rule(quad_nodes)

    def b_value(z: Array) -> float:
        acc = 0.0
        for lam_i, w_i in zip(lam, wgt):
            acc += w_i * float(z @ raw.d_at(lam_i * z, p.t))
        return -acc

    value = b_value(p.z)
    if check:
        dft = numdiff.time_derivative(
            lambda s: reconstruct_f(raw, PhasePoint(p.z, s), quad_nodes), p.t
        )
        grad = numdiff.gradient(b_value, p.z)
        resid = float(np.max(np.abs(grad + raw.d_at(p.z, p.t) + dft)))
        # written so that a NaN residual fails too
        if not resid <= _GRAD_TOL:
            reason = (
                f"exceeds {_GRAD_TOL:.1e}; the input system is likely not self-adjoint"
                if np.isfinite(resid)
                else "is not finite; B or its gradient overflowed at this point"
            )
            raise InconsistencyError(
                f"grad B does not match -(D + dF/dt): residual {resid:.3e} {reason}"
            )
    return value

