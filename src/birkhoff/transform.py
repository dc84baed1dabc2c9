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

from .core import BirkhoffSystem, det_nonzero
from .errors import EvaluationError, TransversalityError

Array = np.ndarray
Blocks = Tuple[Array, Array, Array, Array]

# time pairs (and times) whose lam values and blocks each scaled transform
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
    - ``inverse_blocks(w_hat, w, t, t0) -> (A, B, C, D)`` of the inverse
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

    The error reports the determinant of ``mat`` with each row divided by
    its max-abs entry, the quantity the test uses.
    """
    if not det_nonzero(mat):
        rowmax = np.max(np.abs(mat), axis=1, keepdims=True)
        det = float(np.linalg.det(mat / rowmax)) if np.all(rowmax > 0) else 0.0
        raise TransversalityError(f"transversality condition violated: {name} singular", det)


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


def scaled_canonical_alpha(
    lam: Callable[[float], float],
    n: int,
    lam_dot: Optional[Callable[[float], float]] = None,
) -> AlphaTransform:
    """Midpoint-type transform for structure matrices K(z, t) = lam(t) * J0.

    Here J0 is the 2n x 2n block form [[0, -I], [I, 0]] (so that for
    z = (q, p) the system K dz/dt = rhs reduces to a scaled canonical
    pair).  With z_new = (q1, p1) at t and z_old = (q0, p0) at t0:

        w_hat = (lam(t) p1 - lam(t0) p0,  q1 - q0)
        w     = ((q1 + q0) / 2,  -(lam(t) p1 + lam(t0) p0) / 2)

    ``lam`` must stay positive; ``lam_dot`` defaults to a central
    difference of ``lam``.  Supplying it analytically keeps downstream
    generating-function coefficients exact.  Both must be pure functions
    of t: the transform evaluates ``lam`` once per time pair (t, t0) and
    ``lam_dot`` once per t, keeping the few most recent, and returns the
    forward blocks of a pair as shared read-only arrays.
    """
    from . import numdiff

    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if lam_dot is None:
        lam_dot = lambda t: float(numdiff.time_derivative(lambda s: lam(s), t))  # noqa: E731

    def _lam(t: float) -> float:
        value = float(lam(t))
        if not np.isfinite(value):
            raise EvaluationError(f"time scaling evaluated non-finite: lam({t}) = {value}")
        if value <= 0.0:
            raise EvaluationError(f"time scaling must be positive, got lam({t}) = {value}")
        return value

    dim = 2 * n
    idx = np.arange(n)

    def _corner(upper_right: float, lower_left: float) -> Array:
        out = np.zeros((dim, dim))
        out[idx, n + idx] = upper_right
        out[n + idx, idx] = lower_left
        return out

    def _diag(upper_left: float, lower_right: float) -> Array:
        out = np.zeros((dim, dim))
        out[idx, idx] = upper_left
        out[n + idx, n + idx] = lower_right
        return out

    @functools.lru_cache(maxsize=_TIME_CACHE_SIZE)
    def _pair(t: float, t0: float) -> Tuple[float, float, Blocks]:
        lt, l0 = _lam(t), _lam(t0)
        mats = (_corner(lt, 1.0), _corner(-l0, -1.0), _diag(0.5, -0.5 * lt), _diag(0.5, -0.5 * l0))
        for mat in mats:
            mat.flags.writeable = False
        return lt, l0, mats

    @functools.lru_cache(maxsize=_TIME_CACHE_SIZE)
    def _lam_dot(t: float) -> float:
        value = float(lam_dot(t))
        if not np.isfinite(value):
            raise EvaluationError(
                f"time scaling derivative evaluated non-finite: lam_dot({t}) = {value}"
            )
        return value

    def forward(z_new, z_old, t, t0):
        z_new = np.asarray(z_new, dtype=float)
        z_old = np.asarray(z_old, dtype=float)
        lt, l0, _ = _pair(float(t), float(t0))
        w_hat = np.empty(dim)
        w = np.empty(dim)
        w_hat[:n] = lt * z_new[n:] - l0 * z_old[n:]
        w_hat[n:] = z_new[:n] - z_old[:n]
        w[:n] = 0.5 * (z_new[:n] + z_old[:n])
        w[n:] = -0.5 * (lt * z_new[n:] + l0 * z_old[n:])
        return w_hat, w

    def inverse(w_hat, w, t, t0):
        w_hat = np.asarray(w_hat, dtype=float)
        w = np.asarray(w, dtype=float)
        lt, l0, _ = _pair(float(t), float(t0))
        z_new = np.empty(dim)
        z_old = np.empty(dim)
        z_new[:n] = w[:n] + 0.5 * w_hat[n:]
        z_old[:n] = w[:n] - 0.5 * w_hat[n:]
        z_new[n:] = (0.5 * w_hat[:n] - w[n:]) / lt
        z_old[n:] = (-0.5 * w_hat[:n] - w[n:]) / l0
        return z_new, z_old

    def blocks(z_new, z_old, t, t0):
        return _pair(float(t), float(t0))[2]

    def inverse_blocks(w_hat, w, t, t0):
        lt, l0, _ = _pair(float(t), float(t0))
        return (
            _corner(0.5, 0.5 / lt),
            _diag(1.0, -1.0 / lt),
            _corner(-0.5, -0.5 / l0),
            _diag(1.0, -1.0 / l0),
        )

    def time_partials(z_new, z_old, t, t0):
        p1 = np.asarray(z_new, dtype=float)[n:]
        ld = _lam_dot(float(t))
        d_alpha1 = np.zeros(dim)
        d_alpha2 = np.zeros(dim)
        d_alpha1[:n] = ld * p1
        d_alpha2[n:] = -0.5 * ld * p1
        return d_alpha1, d_alpha2

    return AlphaTransform(
        n=n,
        forward=forward,
        inverse=inverse,
        blocks=blocks,
        inverse_blocks=inverse_blocks,
        time_partials=time_partials,
    )
