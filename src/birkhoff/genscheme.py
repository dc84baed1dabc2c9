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
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import numdiff
from .core import BirkhoffSystem, _content_cached, velocity
from .errors import UnsupportedOrderError
from .newton import newton_solve
from .transform import AlphaTransform, require_transversal

Array = np.ndarray

MAX_ORDER = 2
# points each coefficient memo keeps, least recently used out
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
    t: float,
    t0: float,
) -> Tuple[Array, Array]:
    """Time-derivative functional of the generating gradient, as its two parts (u, g).

    Recovers (z_new, z_old) through the inverse transform and returns

        u = A v(z_new, t) + d alpha_1/dt,    g = C v(z_new, t) + d alpha_2/dt,

    where v is the phase velocity.  The functional is affine in the
    gradient-map Jacobian S = d w_hat / d w: its value at S is u - S g,
    and along the exact flow that equals the partial time derivative of
    the generating gradient.
    """
    w_hat = np.asarray(w_hat, dtype=float)
    w = np.asarray(w, dtype=float)
    z_new, z_old = alpha.inverse(w_hat, w, t, t0)
    v = velocity(sys, z_new, t)
    a, _, c, _ = alpha.blocks(z_new, z_old, t, t0)
    d_alpha1, d_alpha2 = alpha.time_partials(z_new, z_old, t, t0)
    return a @ v + d_alpha1, c @ v + d_alpha2


def coefficients(sys: BirkhoffSystem, alpha: AlphaTransform, t0: float, m: int) -> CoefficientSet:
    """Coefficient set up to order m (m <= 2) by the generic recursion.

    phi^(0)(w) is the identity point: the w_hat that ``alpha.inverse`` at
    (t0, t0) maps with w to a pair z_new = z_old.  It is one Newton solve
    of z_new = z_old from w_hat = 0, which is already the solution for
    every :func:`~birkhoff.transform.darboux_alpha`.  Its Jacobian comes
    from the inverse blocks (A', B', C', D') at that point: z_new = z_old
    holds all along w_hat = phi^(0)(w), so (A' - C') d phi^(0)/dw = D' - B'.
    Any other transform that passes
    :func:`~birkhoff.transform.alpha_verify` works too, with Newton
    updates, as long as |A' - C'| != 0 there; otherwise the Jacobian
    raises :class:`~birkhoff.errors.TransversalityError`.
    The order m must be an integer; a float or bool raises ``ValueError``.

    Each point w is evaluated once, as one record (phi^(0), S, phi^(1), g)
    with S = d phi^(0)/dw and phi^(1) = u - S g from the functional's pair
    (u, g) of :func:`a_functional` at the identity point; ``coeffs[0]``,
    ``coeff_jacobians[0]`` and ``coeffs[1]`` all read it, so any of them
    costs one Newton solve, one set of inverse blocks and one functional
    evaluation at a fresh w.  Every memo is keyed by the content of w,
    keeps the ``MEMO_SIZE`` most recently used points and returns
    read-only arrays.  The functional is affine in its Jacobian slot
    S, so order 2 takes that slot's derivative exactly, as
    -(d phi^(1)/dw) g, and central differences only in its gradient and
    time slots, with once-nested steps: the differenced quantities
    already carry finite-difference noise above machine epsilon.
    Closed-form coefficient sets may be supplied by callers to go past
    the cap.
    """
    if isinstance(m, bool) or not isinstance(m, numbers.Integral):
        raise ValueError(f"order must be an integer, got {m!r}")
    m = int(m)
    if m < 1 or m > MAX_ORDER:
        raise UnsupportedOrderError(
            f"generic coefficient recursion supports orders 1..{MAX_ORDER}, got {m}"
        )
    if alpha.n != sys.n:
        raise ValueError(f"transform has n = {alpha.n} but the system has n = {sys.n}")
    t0 = float(t0)

    @_content_cached(MEMO_SIZE)
    def identity(w: Array) -> Tuple[Array, Array, Array, Array]:
        # phi0, S = d phi0/dw, phi1 = u - S g and g at one identity point.
        # phi0 solves z_new = z_old on the inverse image of (w_hat, w); (A', C')
        # = d(z_new, z_old)/d w_hat, so A' - C' is the exact Jacobian
        def jac(w_hat):
            a, _, c, _ = alpha.inverse_blocks(w_hat, w, t0, t0)
            return a - c

        start = np.zeros_like(w)
        phi0 = newton_solve(lambda w_hat: alpha.inverse(w_hat, w, t0, t0), start, jac)[0]
        u, g = a_functional(sys, alpha, phi0, w, t0, t0)
        # z_new = z_old along w_hat = phi0(w), so differentiating the
        # inverse image gives (A' - C') S = D' - B'
        a, b, c, d = alpha.inverse_blocks(phi0, w, t0, t0)
        lhs = a - c
        require_transversal(lhs, "A' - C'")
        s = np.linalg.solve(lhs, d - b)
        return phi0, s, u - s @ g, g

    def phi0(w: Array) -> Array:
        return identity(w)[0]

    def phi0_jac(w: Array) -> Array:
        return identity(w)[1]

    def phi1(w: Array) -> Array:
        return identity(w)[2]

    @_content_cached(MEMO_SIZE)
    def phi1_jac(w: Array) -> Array:
        # phi1 evaluates D and dP/dt, which are differenced when not
        # supplied (D from F and B, dP/dt from P), so it carries noise
        # above machine epsilon
        return numdiff.jacobian(phi1, w, base=numdiff.SOLVER_FD_STEP)

    def rate(w_hat: Array, w: Array, t: float) -> Array:
        # the functional with its S slot held at d phi0/dw
        u, g = a_functional(sys, alpha, w_hat, w, t, t0)
        return u - identity(w)[1] @ g

    @_content_cached(MEMO_SIZE)
    def phi2(w: Array) -> Array:
        base, _, dir1, g = identity(w)
        h = numdiff.SOLVER_FD_STEP
        term_grad = numdiff.time_derivative(lambda s: rate(base + s * dir1, w, t0), 0.0, h)
        # the functional is affine in S, so its S-slot derivative is exact
        term_jac = -phi1_jac(w) @ g
        term_time = numdiff.time_derivative(lambda t: rate(base, w, t), t0, h)
        return 0.5 * (term_grad + term_jac + term_time)

    @_content_cached(MEMO_SIZE)
    def phi2_jac(w: Array) -> Array:
        # phi2 is itself assembled from nested finite differences; its
        # Jacobian needs the wider step to clear that noise floor
        return numdiff.jacobian(phi2, w, base=numdiff.NESTED_FD_STEP)

    coeffs = (phi0, phi1, phi2)[: m + 1]
    jacs = (phi0_jac, phi1_jac, phi2_jac)[: m + 1]
    return CoefficientSet(t0=t0, order=m, coeffs=coeffs, coeff_jacobians=jacs)


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
    """Right-hand side -B(z_new, t) of the scalar evolution d phi/dt = -B.

    z_new is recovered from (phi_w, w) through the inverse transform at
    (t, t).  Precondition: F and the transform do not depend on t, so
    the generating function evolves by its Hamilton-Jacobi equation; B
    may depend on t.  Then phi^(1) = grad_w hj_rhs(w, phi^(0)(w), t0),
    which the tests check against :func:`coefficients`.  The result is
    not checked against that precondition.
    """
    z_new, _ = alpha.inverse(np.asarray(phi_w, dtype=float), np.asarray(w, dtype=float), t, t)
    return -sys.b_at(z_new, t)
