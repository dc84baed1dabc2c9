"""Generating-gradient coefficients and truncated one-step relations.

The exact flow of a regular system induces, through a compatible alpha
transform, a gradient map ``w -> f(w, t, t0)`` whose time derivative is a
known functional of (f, its Jacobian, t).  Expanding f in powers of
(t - t0) yields coefficients computable by recursion:

    phi_w^(0)(w) = f(w, t0, t0)          (implicit identity relation)
    phi_w^(1)(w) = A(phi_w^(0), w, phi_ww^(0), t0, t0)
    phi_w^(2)(w) = (1/2) D_t A           (chain rule at t = t0)

Truncating after order m and substituting the step size tau for (t - t0)
defines an implicit one-step scheme of order m whose step map preserves
the K-pairing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import numdiff
from .core import BirkhoffSystem, SystemKind, velocity
from .errors import KindError, UnsupportedOrderError
from .newton import newton_solve
from .transform import AlphaTransform

Array = np.ndarray

MAX_ORDER = 2
# evaluations each memoized coefficient keeps, oldest first out
MEMO_SIZE = 4096


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Generating-gradient coefficients phi_w^(0..m) expanded at t0.

    ``coeffs[k]`` maps w to the order-k coefficient vector;
    ``coeff_jacobians[k]`` maps w to its 2n x 2n Jacobian (each
    coefficient is a gradient, so these are symmetric).
    """

    t0: float
    order: int
    coeffs: Tuple[Callable[[Array], Array], ...]
    coeff_jacobians: Tuple[Callable[[Array], Array], ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} coefficient callables, got {len(self.coeffs)}"
            )
        if len(self.coeff_jacobians) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} Jacobian callables, got {len(self.coeff_jacobians)}"
            )


@dataclass(frozen=True, eq=False)
class GeneratingScheme:
    """A truncated generating gradient bound to an alpha transform.

    ``rebase`` (optional) rebuilds the coefficient set at a new expansion
    time; steppers use it to re-expand at each grid point of a
    nonautonomous integration.
    """

    alpha: AlphaTransform
    coefficients: CoefficientSet
    rebase: Optional[Callable[[float], CoefficientSet]] = None

    @property
    def order(self) -> int:
        """Truncation order, that of the coefficient set."""
        return self.coefficients.order

    def psi_w(self, w: Array, tau: float) -> Array:
        """Truncated gradient sum_k tau^k phi_w^(k)(w)."""
        return _tau_series(self.coefficients.coeffs, w, tau)

    def psi_ww(self, w: Array, tau: float) -> Array:
        """Jacobian of the truncated gradient."""
        return _tau_series(self.coefficients.coeff_jacobians, w, tau)

    def at(self, t0: float) -> "GeneratingScheme":
        """This scheme re-expanded at t0 (identity when t0 already matches)."""
        if t0 == self.coefficients.t0:
            return self
        if self.rebase is None:
            raise ValueError(
                f"scheme expanded at t0={self.coefficients.t0} has no rebase factory; "
                f"cannot re-expand at t0={t0}"
            )
        return GeneratingScheme(self.alpha, self.rebase(t0), self.rebase)


def _tau_series(terms, w: Array, tau: float) -> Array:
    """sum_k tau^k terms[k](w), accumulated with running powers of tau."""
    w = np.asarray(w, dtype=float)
    acc = np.asarray(terms[0](w), dtype=float).copy()
    power = 1.0
    for term in terms[1:]:
        power *= tau
        acc += power * np.asarray(term(w), dtype=float)
    return acc


def a_functional(
    sys: BirkhoffSystem,
    alpha: AlphaTransform,
    w_hat: Array,
    w: Array,
    s_matrix: Array,
    t: float,
    t0: float,
) -> Array:
    """Time-derivative functional of the generating gradient.

    Recovers (z_new, z_old) through the inverse transform and returns

        (A - S C) v(z_new, t) + d alpha_1/dt - S d alpha_2/dt,

    where v is the phase velocity and S stands in for the gradient-map
    Jacobian d w_hat / d w.  Along the exact flow this equals the partial
    time derivative of the generating gradient.
    """
    w_hat = np.asarray(w_hat, dtype=float)
    w = np.asarray(w, dtype=float)
    s_matrix = np.asarray(s_matrix, dtype=float)
    z_new, z_old = alpha.inverse(w_hat, w, t, t0)
    v = velocity(sys, z_new, t)
    a, _, c, _ = alpha.blocks(z_new, z_old, t, t0)
    d_alpha1, d_alpha2 = alpha.time_partials(z_new, z_old, t, t0)
    return (a - s_matrix @ c) @ v + d_alpha1 - s_matrix @ d_alpha2


def _memoized(fn):
    """Cache a vector -> array callable by the argument's byte image.

    The recursion re-evaluates lower-order coefficients many times at the
    same w (directly and inside finite-difference stencils); caching keeps
    the cost of one truncated-gradient evaluation near its arithmetic
    minimum.  Purely an evaluation cache: results are read-only arrays, and
    once MEMO_SIZE points are held the oldest entry makes room for the next.
    """
    cache: dict = {}

    def wrapped(w):
        w = np.asarray(w, dtype=float)
        key = w.tobytes()
        hit = cache.get(key)
        if hit is None:
            if len(cache) >= MEMO_SIZE:
                del cache[next(iter(cache))]
            hit = np.array(fn(w), dtype=float)
            hit.flags.writeable = False
            cache[key] = hit
        return hit

    return wrapped


def coefficients(sys: BirkhoffSystem, alpha: AlphaTransform, t0: float, m: int) -> CoefficientSet:
    """Coefficient set up to order m (m <= 2) by the generic recursion.

    Order 2 uses directional central differences of the functional in its
    gradient, Jacobian and time slots, with once-nested steps: the
    differenced quantities already carry finite-difference noise above
    machine epsilon.  Closed-form coefficient sets may be supplied by
    callers to go past the cap.
    """
    m = int(m)
    if m < 1 or m > MAX_ORDER:
        raise UnsupportedOrderError(
            f"generic coefficient recursion supports orders 1..{MAX_ORDER}, got {m}"
        )
    t0 = float(t0)

    @_memoized
    def zeta_of(w: Array) -> Array:
        # the identity point: alpha_2(zeta, zeta, t0, t0) = w, solved by
        # Newton from zero with the exact Jacobian C + D from the blocks
        def residual(zeta):
            return alpha.forward(zeta, zeta, t0, t0)[1] - w

        def jac(zeta):
            _, _, c, d = alpha.blocks(zeta, zeta, t0, t0)
            return c + d

        scale = max(1.0, float(np.max(np.abs(w))))
        return newton_solve(residual, np.zeros_like(w), scale, jacobian=jac)[0]

    @_memoized
    def phi0(w: Array) -> Array:
        zeta = zeta_of(w)
        a1, _ = alpha.forward(zeta, zeta, t0, t0)
        return a1

    @_memoized
    def phi0_jac(w: Array) -> Array:
        # exact chain rule: the identity map's gradient-map Jacobian is
        # the Moebius image (A + B)(C + D)^{-1} of the identity matrix
        zeta = zeta_of(w)
        a, b, c, d = alpha.blocks(zeta, zeta, t0, t0)
        return np.linalg.solve((c + d).T, (a + b).T).T

    @_memoized
    def phi1(w: Array) -> Array:
        return a_functional(sys, alpha, phi0(w), w, phi0_jac(w), t0, t0)

    @_memoized
    def phi1_jac(w: Array) -> Array:
        # phi1 evaluations pass through the solved phi0 and its FD
        # Jacobian, so they carry noise above machine epsilon
        return numdiff.jacobian(phi1, w, base=numdiff.SOLVER_FD_STEP)

    @_memoized
    def phi2(w: Array) -> Array:
        base = phi0(w)
        base_jac = phi0_jac(w)
        dir1 = phi1(w)
        dir2 = phi1_jac(w)
        h = numdiff.SOLVER_FD_STEP

        term_grad = numdiff.time_derivative(
            lambda s: a_functional(sys, alpha, base + s * dir1, w, base_jac, t0, t0), 0.0, h
        )
        term_jac = numdiff.time_derivative(
            lambda s: a_functional(sys, alpha, base, w, base_jac + s * dir2, t0, t0), 0.0, h
        )
        term_time = numdiff.time_derivative(
            lambda t: a_functional(sys, alpha, base, w, base_jac, t, t0), t0, h
        )
        return 0.5 * (term_grad + term_jac + term_time)

    @_memoized
    def phi2_jac(w: Array) -> Array:
        # phi2 is itself assembled from nested finite differences; its
        # Jacobian needs the wider step to clear that noise floor
        return numdiff.jacobian(phi2, w, base=numdiff.NESTED_FD_STEP)

    coeffs = [phi0, phi1]
    jacs = [phi0_jac, phi1_jac]
    if m >= 2:
        coeffs.append(phi2)
        jacs.append(phi2_jac)
    return CoefficientSet(t0=t0, order=m, coeffs=tuple(coeffs), coeff_jacobians=tuple(jacs))


def make_scheme(sys: BirkhoffSystem, alpha: AlphaTransform, t0: float, m: int) -> GeneratingScheme:
    """Generic order-m scheme with a rebase factory wired to ``coefficients``.

    The latest rebased coefficient set is kept, so a step and its step
    Jacobian from one grid point share their coefficient evaluations; a
    run asks for each grid time in turn and never goes back, so older sets
    are dropped.
    """

    @functools.lru_cache(maxsize=1)
    def rebase(s: float) -> CoefficientSet:
        return coefficients(sys, alpha, float(s), m)

    return GeneratingScheme(alpha, rebase(float(t0)), rebase)


def hj_rhs(
    sys: BirkhoffSystem, alpha: AlphaTransform, w: Array, phi_w: Array, t: float
) -> float:
    """Right-hand side of the scalar evolution in the time-separable cases.

    For autonomous and semi-autonomous systems with a time-independent
    alpha, the generating function evolves by ``d phi/dt = -B`` evaluated
    at the recovered forward point.  Calling this on a nonautonomous
    system raises :class:`KindError`.
    """
    if sys.kind is SystemKind.NONAUTONOMOUS:
        raise KindError("scalar-evolution form requires an autonomous or semi-autonomous system")
    z_new, _ = alpha.inverse(np.asarray(phi_w, dtype=float), np.asarray(w, dtype=float), t, t)
    return -sys.b_at(z_new, t)
