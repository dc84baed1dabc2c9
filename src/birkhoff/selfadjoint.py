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
from .core import (
    PhasePoint, _checked, _checked_rows, _frozen, _HalfDim, _positive_int, _require_dim,
)
from .errors import InconsistencyError

Array = np.ndarray

# largest entry of grad B + D + dF/dt that reconstruct_b's check accepts,
# relative to max(1, |grad B|, |D|, |dF/dt|) at the point
_GRAD_TOL = 1e-6

# a ray integral passes when its integrand's last two Legendre coefficients
# stay within _QUAD_TOL times the largest |value| of its batch; its node
# count doubles at most _QUAD_DOUBLINGS times, to 16 times the start.
# Computing those coefficients leaves a roundoff floor, measured on smooth
# integrands, of up to 6.8e-14 at 256 and 512 nodes, the caps of 16- and
# 32-node starts
_QUAD_TOL = 1e-13
_QUAD_DOUBLINGS = 4


@dataclass(frozen=True, eq=False)
class RawFirstOrderSystem(_HalfDim):
    """A first-order system (n, K, D) given directly by callables K and D."""

    K: Callable[[Array, float], Array]
    D: Callable[[Array, float], Array]

    def k_at(self, z: Array, t: float) -> Array:
        return _checked("K", self.K, z, t, (self.dim, self.dim))

    def d_at(self, z: Array, t: float) -> Array:
        return _checked("D", self.D, z, t, (self.dim,))

    def k_rows(self, zs: Array, t: float) -> Array:
        """K at each row of the (m, dim) stack ``zs``, as one (m, dim, dim) stack."""
        return _checked_rows("K", self.K, zs, t, (self.dim, self.dim))

    def d_rows(self, zs: Array, t: float) -> Array:
        """D at each row of the (m, dim) stack ``zs``, as one (m, dim) stack."""
        return _checked_rows("D", self.D, zs, t, (self.dim,))


@dataclass(frozen=True, eq=False)
class SelfAdjointReport:
    """Worst-case violations of the three self-adjointness conditions.

    Each violation is relative: the largest entry at a sample divided by
    max(1, the largest entry of its terms there), as described in
    :func:`check_self_adjointness`.  ``*_at`` names where each worst
    violation sits, as (k, entry) with k the index into the sample
    sequence that the caller passed to
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

    Derivatives are taken by central differences; at each sample the
    stencil of dK/dz is one batch of K rows, and that of dD/dz one batch of
    D rows.  Each violation is measured relative to its terms at its
    sample, as :func:`reconstruct_b`'s bound is: |K + K^T| against
    max(1, |K|), the cyclic sum against max(1, |dK/dz|), and
    |dK/dt - curl D| against max(1, |dK/dt|, |curl D|), each |.| the
    largest entry.  So differences whose error grows with K (a K = e^{nu t} J
    at large t) do not fail a self-adjoint system, and the floor of 1
    keeps small terms on an absolute scale.  Returns the worst violation
    of each condition over all samples; ``passed`` is true iff all three
    stay within ``tol``, which must be finite and non-negative.  A NaN
    entry (a difference that overflowed, inf - inf) is the worst violation
    of its condition, reported at its location, and fails; a scale that is
    not finite makes every other entry of that condition at that sample
    read inf, so it fails too.
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
        antisym = _worse(antisym, idx, _relative(np.abs(k + k.T), k))

        # dk[i, j, m] = dK_ij/dz_m; cyc[i, j, m] is the cyclic sum
        # dk[i, j, m] + dk[j, m, i] + dk[m, i, j]
        points, h = numdiff.stencil(p.z)
        dk = numdiff.stencil_quotient(raw.k_rows(points, p.t), h)
        cyc = dk + dk.transpose(2, 0, 1) + dk.transpose(1, 2, 0)
        closure = _worse(closure, idx, _relative(np.where(ordered, np.abs(cyc), 0.0), dk))

        dk_dt = numdiff.time_derivative(lambda s: raw.k_at(p.z, s), p.t)
        # jac_d[i, j] = dD_i/dz_j
        jac_d = numdiff.stencil_quotient(raw.d_rows(points, p.t), h)
        curl = jac_d - jac_d.T
        time_curl = _worse(time_curl, idx, _relative(np.abs(dk_dt - curl), dk_dt, curl))

    values, where = zip(antisym, closure, time_curl)
    # written so that a NaN violation fails too
    return SelfAdjointReport(*values, bool(np.max(values) <= tol), *where)


def _relative(magnitudes: Array, *terms: Array) -> Array:
    """``magnitudes`` / max(1, the largest |entry| of ``terms``); inf if that scale is not finite.

    With a scale that is not finite (a difference that overflowed), a NaN
    entry stays NaN and every other entry reads inf.
    """
    scale = float(np.max([1.0, *(np.max(np.abs(x)) for x in terms)]))
    # written so that a NaN scale counts as not finite
    if scale < np.inf:
        return magnitudes / scale
    return np.where(np.isnan(magnitudes), np.nan, np.inf)


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
def _gauss_legendre_01(nodes: int) -> Tuple[Array, Array, Array]:
    """Gauss-Legendre nodes, weights and tail matrix on [0, 1], computed once per node count.

    The tail matrix maps the rule's Q values of an integrand to its last
    two Legendre coefficients on [0, 1], c_k = (2k + 1) sum_i w_i f(x_i)
    P_k(2 x_i - 1) for k = Q - 2, Q - 1 (the one coefficient c_0 for
    Q = 1), exact for an integrand of degree below Q.  The cache keeps the
    128 most recently used node counts (the ``lru_cache`` default).  Its
    arrays are shared by every caller, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    k = np.arange(nodes)[-2:]
    tail = (2 * k + 1)[:, None] * np.polynomial.legendre.legvander(x, nodes - 1)[:, -2:].T
    return _frozen((x + 1.0) / 2.0), _frozen(w / 2.0), _frozen(tail * (w / 2.0))


def _ray_integral(at_rows: Callable[[Array], Array], ends: Array, quad_nodes: int) -> Array:
    """int_0^1 at(lam * z) dlam for each row z of ``ends``, by an error-controlled Gauss-Legendre rule.

    ``ends`` is an (E, dim) stack of ray endpoints and ``at`` a vector
    integrand, given on stacks: ``at_rows`` maps an (m, dim) stack of
    points to the (m, k) stack of ``at``'s values, one batch of user calls.
    The rule starts at ``quad_nodes`` nodes, which must be a positive
    integer; it is checked before the cached rule is looked up, since
    ``True`` hashes like 1.  At Q nodes, the E * Q node points lam_i * z
    are built as one stack, ray by ray, ``at_rows`` is called once on it,
    and the weights are applied as one product, which gives each ray's sum
    bit for bit as a ray of its own would.  The last two Legendre
    coefficients of each ray's integrand, read from the same values,
    estimate its error at no extra call: while any of them exceeds
    ``_QUAD_TOL`` times the batch's largest |value|, Q doubles for the
    whole batch and every node is evaluated anew.  The result is the
    (E, k) stack of the integrals at the first Q that passes; an integrand
    that still fails at 16 times the start raises
    :class:`InconsistencyError`.
    """
    start = _positive_int("quad_nodes", quad_nodes)
    for doubling in range(_QUAD_DOUBLINGS + 1):
        lam, wgt, tail = _gauss_legendre_01(start << doubling)
        values = at_rows((ends[:, None, :] * lam[:, None]).reshape(-1, ends.shape[1]))
        values = values.reshape(len(ends), lam.size, -1)
        error, scale = np.max(np.abs(tail @ values)), np.max(np.abs(values))
        # written so that a NaN error does not pass
        if error <= _QUAD_TOL * scale:
            return wgt @ values
    raise InconsistencyError(
        f"ray quadrature did not converge at {lam.size} nodes: Legendre tail "
        f"{error:.3e} exceeds {_QUAD_TOL:.0e} x the largest |value| {scale:.3e}"
    )


def reconstruct_f(raw: RawFirstOrderSystem, p: PhasePoint, quad_nodes: int = 16) -> Array:
    """Component functions from the homotopy integral of K.

    F_i(z, t) = int_0^1 lam z_j K_ji(lam * z, t) dlam, the homotopy
    (Poincare-lemma) primitive of K_ij = dF_j/dz_i - dF_i/dz_j; for K
    constant in z it is K^T z / 2.  The integrand is K(y, t)^T y at
    y = lam * z.  It is evaluated by Gauss-Legendre quadrature that
    starts at ``quad_nodes`` nodes and doubles them while the integrand's
    last two Legendre coefficients exceed 1e-13 of its largest |value|;
    an integrand still unresolved at 16 times the start raises
    :class:`InconsistencyError`.  So an integrand polynomial along the ray
    of degree at most quad_nodes - 3 passes at the start.  Each rule is
    computed once per node count and shared read-only; ``quad_nodes``
    that is not a positive integer raises ``ValueError``, and so does a
    point whose dimension is not the system's.
    """
    _require_dim(raw, p.z)

    def integrand(ys: Array) -> Array:
        # row k is y_k^T K(y_k, t) = (K(y_k, t)^T y_k)^T
        return (ys[:, None, :] @ raw.k_rows(ys, p.t))[:, 0]

    return _ray_integral(integrand, p.z[None], quad_nodes)[0]


def reconstruct_b(
    raw: RawFirstOrderSystem,
    p: PhasePoint,
    quad_nodes: int = 16,
    check: bool = True,
) -> float:
    """Scalar B from the homotopy integral of D along the ray.

    B(z, t) = - int_0^1 z_i D_i(lam * z, t) dlam, with the quadrature of
    :func:`reconstruct_f`, which raises :class:`InconsistencyError` where
    the ray integral does not converge, with ``check`` True or False; B is
    +0.0, not -0.0, at the origin.
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
    differenced, with the step of :func:`numdiff.stencil` scaled by
    max(1, |z|_inf).  B's ray and the 2 (dim - 1) rays to the stencil's
    points are one batch of D rows per node count (7 x 16 for the
    4-dimensional chain near the origin), and each of the two
    :func:`reconstruct_f` calls of dF/dt, its one time difference, is one
    batch of K rows per node count.  The quadrature's own tolerance never
    enters the check's bound.  The largest entry of the residual
    grad B + D + dF/dt must stay within
    1e-6 * max(1, |grad B|_inf, |D(p)|_inf, |dF/dt|_inf), a bound that
    scales with the input; a residual or a scale that is not finite
    fails.  A point whose dimension is not the system's raises
    ``ValueError`` before any evaluation.
    """
    _require_dim(raw, p.z)
    if not check:
        return float(_b_values(raw, p.z[None], p.t, quad_nodes)[0])
    value, resid, bound = _b_residual(raw, p, quad_nodes)
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


def _b_values(raw: RawFirstOrderSystem, ends: Array, t: float, quad_nodes: int) -> Array:
    """B at each row z of the (E, dim) stack ``ends``: -z . int_0^1 D(lam * z, t) dlam.

    Every ray's nodes are one batch of D rows; +0.0, not -0.0, at the origin.
    """
    integrals = _ray_integral(lambda ys: raw.d_rows(ys, t), ends, quad_nodes)
    return 0.0 - (ends[:, None, :] @ integrals[:, :, None])[:, 0, 0]


def _b_residual(
    raw: RawFirstOrderSystem, p: PhasePoint, quad_nodes: int
) -> Tuple[float, float, float]:
    """(B, residual, bound) of :func:`reconstruct_b`'s check at ``p``, which it does not apply."""
    u, across = _ray_frame(p.z)
    step = numdiff.FD_STEP * max(1.0, float(np.max(np.abs(p.z))))
    coeffs, h = numdiff.stencil(np.zeros(p.z.size - 1), step)
    # B's own ray first, then the rays to the stencil's points across it,
    # mapped by a stack of matrix-vector products: a matrix-matrix product
    # would touch BLAS's work buffer and raise the peak memory
    ends = np.concatenate((p.z[None], p.z + (across @ coeffs[:, :, None])[:, :, 0]))
    b = _b_values(raw, ends, p.t, quad_nodes)
    dft = numdiff.time_derivative(
        lambda s: reconstruct_f(raw, PhasePoint(p.z, s), quad_nodes), p.t
    )
    d_p = raw.d_at(p.z, p.t)
    grad = across @ numdiff.stencil_quotient(b[1:], h) - (u @ d_p) * u
    resid = float(np.max(np.abs(grad + d_p + dft)))
    bound = _GRAD_TOL * float(np.max(np.abs(np.concatenate(([1.0], grad, d_p, dft)))))
    return float(b[0]), resid, bound


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
