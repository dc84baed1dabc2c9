"""Doubled-phase-space transforms linking one-step maps to gradient maps.

A transform ``alpha`` maps pairs (z_new, z_old) in R^(4n) to pairs
(w_hat, w).  When its Jacobian ``alpha_*`` pulls the canonical form of
R^(4n) back to the block pairing diag(K(z_new, t), -K(z_old, t0)), graphs
of structure-preserving maps become graphs of gradient maps, and the two
Jacobians are related by the matrix Moebius transform
``N = (A M + B)(C M + D)^{-1}`` built from the blocks of ``alpha_*``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import numdiff
from .core import BirkhoffSystem, _checked, _frozen, _positive_int, det_nonzero, require_nonsingular
from .errors import EvaluationError, TransversalityError

Array = np.ndarray
Blocks = Tuple[Array, Array, Array, Array]

# times (and time pairs) whose P, dP/dt and blocks each Darboux transform
# keeps: one grid point reads (t0, t0), (t0 +- h, t0) and (t_k + tau, t_k)
_TIME_CACHE_SIZE = 4


def canonical_j(dim: int) -> Array:
    """The canonical antisymmetric pairing [[0, I], [-I, 0]] of even size dim."""
    if dim < 2 or dim % 2:
        raise ValueError("dim must be a positive even integer")
    half = dim // 2
    j = np.zeros((dim, dim))
    j[:half, half:] = np.eye(half)
    j[half:, :half] = -np.eye(half)
    return j


@dataclass(frozen=True, eq=False)
class AlphaTransform:
    """A two-parameter change of coordinates on the doubled phase space.

    Fields are callables:

    - ``forward(z_new, z_old, t, t0) -> (w_hat, w)``
    - ``inverse(w_hat, w, t, t0) -> (z_new, z_old)``
    - ``blocks(z_new, z_old, t, t0) -> (A, B, C, D)``, the 2n x 2n blocks
      of the forward Jacobian
    - ``inverse_blocks(w_hat, w, t, t0) -> (A, B, C, D)`` of the inverse;
      at (t0, t0), :func:`~birkhoff.genscheme.coefficients` solves for the
      identity point phi^(0) with the Newton matrix A - C of these blocks,
      and takes d phi^(0)/dw = (A - C)^{-1} (D - B) from them at that point
    - ``time_partials(z_new, z_old, t, t0) -> (d w_hat/dt, d w/dt)``,
      partial derivatives in the first time parameter at fixed state
    """

    n: int
    forward: Callable[[Array, Array, float, float], Tuple[Array, Array]]
    inverse: Callable[[Array, Array, float, float], Tuple[Array, Array]]
    blocks: Callable[[Array, Array, float, float], Blocks]
    inverse_blocks: Callable[[Array, Array, float, float], Blocks]
    time_partials: Callable[[Array, Array, float, float], Tuple[Array, Array]]

    @property
    def dim(self) -> int:
        return 2 * self.n

    def jacobian(self, z_new: Array, z_old: Array, t: float, t0: float) -> Array:
        """Full 4n x 4n forward Jacobian assembled from the blocks."""
        a, b, c, d = self.blocks(z_new, z_old, t, t0)
        return np.block([[a, b], [c, d]])


def alpha_verify(
    alpha: AlphaTransform,
    sys: BirkhoffSystem,
    z_new: Array,
    z_old: Array,
    t: float,
    t0: float,
) -> float:
    """Residual of the compatibility condition between alpha and K.

    Returns ``|| alpha_*^T J_4n alpha_* - diag(K(z_new,t), -K(z_old,t0)) ||_inf``.
    Zero (to roundoff) certifies that alpha carries graphs of
    K-structure-preserving maps to graphs of gradient maps.
    """
    jac = alpha.jacobian(z_new, z_old, t, t0)
    j4n = canonical_j(4 * alpha.n)
    dim = alpha.dim
    ktilde = np.zeros((2 * dim, 2 * dim))
    ktilde[:dim, :dim] = sys.k_at(z_new, t)
    ktilde[dim:, dim:] = -sys.k_at(z_old, t0)
    return float(np.linalg.norm(jac.T @ j4n @ jac - ktilde, np.inf))


def sigma(blocks: Blocks, mat: Array) -> Array:
    """Matrix Moebius transform N = (A M + B)(C M + D)^{-1}.

    Raises :class:`TransversalityError` when C M + D is numerically
    singular (fails :func:`birkhoff.core.det_nonzero`).
    """
    a, b, c, d = (np.asarray(x, dtype=float) for x in blocks)
    mat = np.asarray(mat, dtype=float)
    denom = c @ mat + d
    require_transversal(denom, "C M + D")
    return np.linalg.solve(denom.T, (a @ mat + b).T).T


def require_transversal(mat: Array, name: str) -> None:
    """Raise :class:`TransversalityError` unless ``mat`` passes ``det_nonzero``.

    The error reports |det| of ``mat`` with each row divided by its
    max-abs entry, the quantity the test uses.
    """
    message = f"transversality condition violated: {name} singular"
    require_nonsingular(mat, lambda det: TransversalityError(message, det))


def transversality_equivalents(
    alpha: AlphaTransform,
    mat: Array,
    nmat: Array,
    at: Tuple[Array, Array, float, float],
) -> Tuple[bool, bool, bool, bool]:
    """The four mutually equivalent nonsingularity conditions.

    With forward blocks (A, B, C, D) at ``at = (z_new, z_old, t, t0)`` and
    inverse blocks (A', B', C', D') at the corresponding transformed point,
    returns the truth of

        |C M + D| != 0,   |M C' - A'| != 0,
        |C' N + D'| != 0, |N C - A| != 0.
    """
    z_new, z_old, t, t0 = at
    a, b, c, d = alpha.blocks(z_new, z_old, t, t0)
    w_hat, w = alpha.forward(z_new, z_old, t, t0)
    ai, bi, ci, di = alpha.inverse_blocks(w_hat, w, t, t0)
    mat = np.asarray(mat, dtype=float)
    nmat = np.asarray(nmat, dtype=float)
    return (
        det_nonzero(c @ mat + d),
        det_nonzero(mat @ ci - ai),
        det_nonzero(ci @ nmat + di),
        det_nonzero(nmat @ c - a),
    )


def darboux_alpha(
    p: Callable[[float], Array],
    n: int,
    p_dot: Optional[Callable[[float], Array]] = None,
) -> AlphaTransform:
    """Midpoint transform through the Darboux change of variables y = P(t) z.

    Serves structure matrices K(z, t) = K(t) = P(t)^T J0 P(t), with
    J0 = [[0, -I], [I, 0]] = ``-canonical_j(2n)`` and P(t) a smooth,
    invertible 2n x 2n matrix.  With y1 = P(t) z_new and y0 = P(t0) z_old
    split into (q, p) halves:

        w_hat = (y1_p - y0_p,  y1_q - y0_q)
        w     = ((y1_q + y0_q) / 2,  -(y1_p + y0_p) / 2)

    Everything else follows from that constant midpoint map and from P:
    the forward Jacobian is the midpoint matrix times diag(P(t), P(t0)),
    the inverse is diag(P(t), P(t0))^{-1} times the inverse midpoint
    matrix, and the time partials are the midpoint map of
    (dP/dt(t) z_new, 0).  At t = t0 the inverse sends (0, w) to a pair
    z_new = z_old, so the identity map's gradient vanishes.

    ``p_dot`` defaults to a central difference of ``p``; supplying it
    analytically keeps downstream generating-function coefficients exact.
    Both must be pure functions of t: the transform evaluates and checks
    each once per time, keeping the few most recent, factors
    diag(P(t), P(t0)) once per time pair, and returns the forward and
    inverse blocks of a time pair as shared read-only arrays.  A P(t) that
    is not a finite, nonsingular (:func:`~birkhoff.core.det_nonzero`)
    2n x 2n matrix, or a dP/dt that is not a finite 2n x 2n matrix, raises
    :class:`EvaluationError`.
    """
    n = _positive_int("n", n)
    if p_dot is None:
        p_dot = lambda t: numdiff.time_derivative(p, t)  # noqa: E731
    dim = 2 * n
    eye, zero = np.eye(n), np.zeros((n, n))
    swap = np.block([[zero, eye], [eye, zero]])
    half = np.diag(np.repeat([0.5, -0.5], n))
    # (w_hat, w) = mix (y1, y0), and (y1, y0) = unmix (w_hat, w)
    mix = np.block([[swap, -swap], [half, half]])
    unmix = np.block([[0.5 * swap, 2.0 * half], [-0.5 * swap, 2.0 * half]])

    @functools.lru_cache(maxsize=_TIME_CACHE_SIZE)
    def p_at(t: float) -> Array:
        out = _checked("P", lambda _, s: p(s), (), t, (dim, dim))
        if not det_nonzero(out):
            raise EvaluationError(f"P is singular at t={t}")
        return out

    @functools.lru_cache(maxsize=_TIME_CACHE_SIZE)
    def p_dot_at(t: float) -> Array:
        return _checked("p_dot", lambda _, s: p_dot(s), (), t, (dim, dim))

    @functools.lru_cache(maxsize=_TIME_CACHE_SIZE)
    def pair(t: float, t0: float) -> Tuple[Array, Blocks, Array, Blocks]:
        # diag(P(t), P(t0)), the forward Jacobian mix diag(P(t), P(t0)) as
        # blocks, and the inverse factor diag(P(t), P(t0))^{-1} unmix, whole
        # and as blocks: one factorization per time pair
        p1, p0 = p_at(t), p_at(t0)
        both = np.block([[p1, np.zeros((dim, dim))], [np.zeros((dim, dim)), p0]])
        jac, inv = _frozen(mix @ both), _frozen(np.linalg.solve(both, unmix))
        return both, _split(jac, dim), inv, _split(inv, dim)

    def forward(z_new, z_old, t, t0):
        both = pair(float(t), float(t0))[0]
        out = mix @ (both @ np.concatenate((z_new, z_old), dtype=float))
        return out[:dim], out[dim:]

    def inverse(w_hat, w, t, t0):
        out = pair(float(t), float(t0))[2] @ np.concatenate((w_hat, w), dtype=float)
        return out[:dim], out[dim:]

    def blocks(z_new, z_old, t, t0):
        return pair(float(t), float(t0))[1]

    def inverse_blocks(w_hat, w, t, t0):
        return pair(float(t), float(t0))[3]

    def time_partials(z_new, z_old, t, t0):
        # the midpoint map of (dP/dt(t) z_new, 0)
        out = mix[:, :dim] @ (p_dot_at(float(t)) @ np.asarray(z_new, dtype=float))
        return out[:dim], out[dim:]

    return AlphaTransform(
        n=n,
        forward=forward,
        inverse=inverse,
        blocks=blocks,
        inverse_blocks=inverse_blocks,
        time_partials=time_partials,
    )


def _split(mat: Array, dim: int) -> Blocks:
    """The four dim x dim blocks of a 2dim x 2dim matrix, as views."""
    return mat[:dim, :dim], mat[:dim, dim:], mat[dim:, :dim], mat[dim:, dim:]


def scaled_canonical_alpha(
    lam: Callable[[float], float],
    n: int,
    lam_dot: Optional[Callable[[float], float]] = None,
) -> AlphaTransform:
    """:func:`darboux_alpha` for K(z, t) = lam(t) * J0, with P(t) = diag(I, lam(t) I).

    For z = (q, p) the system K dz/dt = rhs then reduces to a scaled
    canonical pair.  With z_new = (q1, p1) at t and z_old = (q0, p0) at t0:

        w_hat = (lam(t) p1 - lam(t0) p0,  q1 - q0)
        w     = ((q1 + q0) / 2,  -(lam(t) p1 + lam(t0) p0) / 2)

    ``lam`` must stay positive; ``lam_dot`` defaults to a central
    difference of ``lam``.  Both must be pure functions of t, each
    evaluated once per time.
    """
    if lam_dot is None:
        lam_dot = lambda t: float(numdiff.time_derivative(lambda s: lam(s), t))  # noqa: E731

    def _lam(t: float) -> float:
        value = float(lam(t))
        if not np.isfinite(value):
            raise EvaluationError(f"time scaling evaluated non-finite: lam({t}) = {value}")
        if value <= 0.0:
            raise EvaluationError(f"time scaling must be positive, got lam({t}) = {value}")
        return value

    def _lam_dot(t: float) -> float:
        value = float(lam_dot(t))
        if not np.isfinite(value):
            raise EvaluationError(
                f"time scaling derivative evaluated non-finite: lam_dot({t}) = {value}"
            )
        return value

    return darboux_alpha(
        lambda t: np.diag(np.repeat([1.0, _lam(t)], n)),
        n,
        lambda t: np.diag(np.repeat([0.0, _lam_dot(t)], n)),
    )
