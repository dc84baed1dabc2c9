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

# largest entry of grad B + D + dF/dt that reconstruct_b's check accepts,
# relative to max(1, |grad B|, |D|, |dF/dt|) at the point
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
    the index into the sample sequence that the caller passed to
    :func:`check_self_adjointness` (the samples are not stored): entry
    (i, j) of K + K^T for antisymmetry, the triple (i, j, m), i < j < m,
    of the cyclic sum for closure, and entry (i, j) of dK/dt - curl D for
    the time curl.  It is ``None`` where that violation is 0.
    """

    antisymmetry_violation: float
    closure_violation: float
    time_curl_violation: float
    passed: bool
    antisymmetry_at: Optional[Tuple[int, Tuple[int, ...]]] = None
    closure_at: Optional[Tuple[int, Tuple[int, ...]]] = None
    time_curl_at: Optional[Tuple[int, Tuple[int, ...]]] = None

    @property
    def max_violation(self) -> float:
        """The largest of the three violations; NaN if any of them is NaN."""
        return float(
            np.max([self.antisymmetry_violation, self.closure_violation, self.time_curl_violation])
        )


def check_self_adjointness(
    raw: RawFirstOrderSystem, samples: Sequence[PhasePoint], tol: float = 1e-7
) -> SelfAdjointReport:
    """Evaluate the three self-adjointness conditions over sample points.

    Derivatives are taken by central differences.  Returns the worst
    violation of each condition over all samples; ``passed`` is true iff
    all three stay within ``tol``, which must be finite and non-negative.
    A NaN entry (a difference that overflowed, inf - inf) is the worst
    violation of its condition, reported at its location, and fails.
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
    # written so that a NaN violation fails too
    return SelfAdjointReport(*values, bool(np.max(values) <= tol), *where)


def _worse(worst: tuple, idx: int, magnitudes: Array) -> tuple:
    """The larger of ``worst`` = (value, (k, entry)) and the largest entry of ``magnitudes``.

    The latter is located at sample ``idx``; a tie keeps ``worst``.  A NaN
    entry counts as larger than any number (``argmax`` finds the first
    one), and the first NaN found is kept.
    """
    entry = np.unravel_index(np.argmax(magnitudes), magnitudes.shape)
    # written so that a NaN entry wins over a number but not over a NaN
    if not (magnitudes[entry] <= worst[0] or np.isnan(worst[0])):
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


def _ray_integral(at: Callable[[Array], Array], z: Array, quad_nodes: int) -> Array:
    """int_0^1 at(lam * z) dlam by the ``quad_nodes``-point Gauss-Legendre rule.

    The nodes' points lam_i * z are built as one (Q, dim) stack, ``at`` is
    called once per row, and the weights are applied as one product.
    ``quad_nodes`` must be a positive integer; it is checked before the
    cached rule is looked up, since ``True`` hashes like 1.
    """
    lam, wgt = _gauss_legendre_01(_positive_int("quad_nodes", quad_nodes))
    return np.tensordot(wgt, np.stack([at(y) for y in lam[:, None] * z]), axes=1)


def reconstruct_f(raw: RawFirstOrderSystem, p: PhasePoint, quad_nodes: int = 32) -> Array:
    """Component functions from the homotopy integral of K.

    F_i(z, t) = int_0^1 lam z_j K_ji(lam * z, t) dlam, the homotopy
    (Poincare-lemma) primitive of K_ij = dF_j/dz_i - dF_i/dz_j; for K
    constant in z it is K^T z / 2.  The integrand is K(y, t)^T y at
    y = lam * z.  It is evaluated with fixed-order Gauss-Legendre
    quadrature (exact for K polynomial in z of degree < 2*quad_nodes - 1
    along the ray).  The rule is computed once per node count and shared
    read-only; ``quad_nodes`` that is not a positive integer raises
    ``ValueError``, and so does a point whose dimension is not the
    system's.
    """
    _require_dim(raw, p.z)
    return _ray_integral(lambda y: raw.k_at(y, p.t).T @ y, p.z, quad_nodes)


def reconstruct_b(
    raw: RawFirstOrderSystem,
    p: PhasePoint,
    quad_nodes: int = 32,
    check: bool = True,
) -> float:
    """Scalar B from the homotopy integral of D along the ray.

    B(z, t) = - int_0^1 z_i D_i(lam * z, t) dlam, with the quadrature of
    :func:`reconstruct_f`; it is +0.0, not -0.0, at the origin.
    Precondition: K is antisymmetric, as :func:`check_self_adjointness`
    measures.  Then the dF/dt term of the homotopy integral of D + dF/dt
    adds nothing along the ray, since
    z . F(lam * z, t) = lam int_0^1 mu z^T K(mu lam z, t) z dmu = 0.  The
    sign is fixed so that ``grad B = -(D + dF/dt)``; with ``check=True``
    that identity is verified at p, and an :class:`InconsistencyError`
    raised when it fails, which signals a non-self-adjoint input.

    The check splits grad B along u = z / |z| (e_1 at the origin) and the
    orthonormal basis of the plane across it that a Householder reflector
    of u gives.  Along u it takes u . grad B = -u . D(p), which holds for
    every D: B(s z) = -int_0^s z . D(mu z) dmu.  So the radial part of
    the residual is u . dF/dt alone, which vanishes when K is
    antisymmetric, and only the dim - 1 directions across the ray are
    differenced, with the step of :func:`numdiff.partial` scaled by
    max(1, |z|_inf).  dF/dt is one time difference of
    :func:`reconstruct_f`.  The largest entry of the residual
    grad B + D + dF/dt must stay within
    1e-6 * max(1, |grad B|_inf, |D(p)|_inf, |dF/dt|_inf), a bound that
    scales with the input; a residual or a scale that is not finite
    fails.  A point whose dimension is not the system's raises
    ``ValueError`` before any evaluation.
    """
    _require_dim(raw, p.z)

    def b_value(z: Array) -> float:
        return 0.0 - float(z @ _ray_integral(lambda y: raw.d_at(y, p.t), z, quad_nodes))

    value = b_value(p.z)
    if check:
        dft = numdiff.time_derivative(
            lambda s: reconstruct_f(raw, PhasePoint(p.z, s), quad_nodes), p.t
        )
        d_p = raw.d_at(p.z, p.t)
        u, across = _ray_frame(p.z)
        step = numdiff.FD_STEP * max(1.0, float(np.max(np.abs(p.z))))
        slopes = numdiff.jacobian(
            lambda c: b_value(p.z + across @ c), np.zeros(p.z.size - 1), step
        )
        grad = across @ slopes - (u @ d_p) * u
        resid = float(np.max(np.abs(grad + d_p + dft)))
        bound = _GRAD_TOL * float(np.max(np.abs(np.concatenate(([1.0], grad, d_p, dft)))))
        # written so that a NaN residual or an infinite bound fails too
        if not (resid <= bound < np.inf):
            reason = (
                f"exceeds {bound:.3e}; the input system is likely not self-adjoint"
                if np.isfinite(resid)
                else "is not finite; B or its gradient overflowed at this point"
            )
            raise InconsistencyError(
                f"grad B does not match -(D + dF/dt): residual {resid:.3e} {reason}"
            )
    return value


def _ray_frame(z: Array) -> Tuple[Array, Array]:
    """(u, V): the unit vector u along z (e_1 at z = 0) and an orthonormal basis V of u's complement.

    V, of shape (dim, dim - 1), is the last dim - 1 columns of the
    Householder reflector H = I - 2 w w^T / (w^T w), w = u + sign(u_1) e_1,
    which maps u to -sign(u_1) e_1; the sign (+ for u_1 = 0) keeps w
    away from 0.  Built from products alone, with no linear-algebra call.
    """
    top = float(np.max(np.abs(z)))
    # scaled by |z|_inf first, so that |z|^2 cannot overflow or underflow
    u = z / top if top > 0.0 else np.eye(z.size)[0]
    u = u / np.sqrt(u @ u)
    w = u.copy()
    w[0] += 1.0 if u[0] >= 0.0 else -1.0
    across = np.eye(z.size)[:, 1:] - np.outer(w, w[1:]) * (2.0 / (w @ w))
    return u, across
