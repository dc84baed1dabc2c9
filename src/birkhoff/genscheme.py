"""Generating-gradient coefficients and truncated one-step relations.

The exact flow of a regular system induces, through a compatible alpha
transform, a gradient map ``w -> f(w, t, t0)`` whose time derivative is a
known functional of (f, its Jacobian, t).  Expanding f in powers of
(t - t0) yields coefficients computable by recursion:

    phi_w^(0)(w) = f(w, t0, t0)          (implicit identity relation)
    phi_w^(1)(w) = A(phi_w^(0), w, phi_ww^(0), t0, t0)
    phi_w^(2)(w) = (1/2) D_t A           (chain rule at t = t0)

A is affine in its Jacobian slot S = phi_ww^(0): A = u - S g.  With
S0 = S(w) held fixed, F = u - S0 g and S'[g] the derivative of S along g,
phi_ww^(1) g = DF (S0 g, g, 0) - S'[g] g, so the chain rule reads

    phi_w^(2)(w) = (1/2) [DF (phi^(1) - S0 g, -g, 1) + S'[g] g],

one derivative of F along one direction of its (w_hat, w, t) slots plus
S'[g] g, which vanishes when the identity map is affine.

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
from .core import BirkhoffSystem, _content_cached, _positive_int, velocity
from .errors import EvaluationError, NewtonError
from .newton import newton_solve
from .transform import AlphaTransform, require_same_n, require_transversal

Array = np.ndarray

Coeffs = Tuple[Callable[[Array], Array], ...]

MAX_ORDER = 2
# points each coefficient memo keeps, least recently used out
MEMO_SIZE = 4096


@dataclass(frozen=True, eq=False)
class GeneratingScheme:
    """A truncated generating gradient expanded at one time, bound to an alpha transform.

    ``coeffs[k]`` maps w to the order-k coefficient vector phi_w^(k);
    ``coeff_jacobians[k]`` maps w to its 2n x 2n Jacobian (each
    coefficient is a gradient, so these are symmetric).  The order m is
    ``len(coeffs) - 1``; a scheme needs at least two coefficients (order
    m >= 1, the range :func:`coefficients` builds) and one Jacobian per
    coefficient.  The expansion time is not stored: it is the t0 that
    the scheme's builder (:func:`make_scheme`, or another scheme's
    ``rebase``) was given.  ``rebase(t0)`` returns the scheme re-expanded
    at t0; steppers call it at each grid point of a nonautonomous
    integration and step with the scheme it returns, its transform
    included.
    """

    alpha: AlphaTransform
    coeffs: Coeffs
    coeff_jacobians: Coeffs
    rebase: Callable[[float], "GeneratingScheme"]

    def __post_init__(self):
        n_coeffs, n_jacs = len(self.coeffs), len(self.coeff_jacobians)
        if n_coeffs < 2 or n_jacs != n_coeffs:
            raise ValueError(f"need 2+ coefficients, a Jacobian each, got {n_coeffs} and {n_jacs}")

    def psi_w(self, w: Array, tau: float) -> Array:
        """Truncated gradient sum_k tau^k phi_w^(k)(w)."""
        return _tau_series(self.coeffs, w, tau)


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
    image: Optional[Tuple[Array, Array]] = None,
) -> Tuple[Array, Array]:
    """Time-derivative functional of the generating gradient, as its two parts (u, g).

    Recovers (z_new, z_old) through the inverse transform and returns

        u = A v(z_new, t) + d alpha_1/dt,    g = C v(z_new, t) + d alpha_2/dt,

    where v is the phase velocity.  The functional is affine in the
    gradient-map Jacobian S = d w_hat / d w: its value at S is u - S g,
    and along the exact flow that equals the partial time derivative of
    the generating gradient.  A caller that already holds the inverse
    image (z_new, z_old) of (w_hat, w) at (t, t0) passes it as ``image``.
    """
    w_hat = np.asarray(w_hat, dtype=float)
    w = np.asarray(w, dtype=float)
    z_new, z_old = alpha.inverse(w_hat, w, t, t0) if image is None else image
    v = velocity(sys, z_new, t)
    a, _, c, _ = alpha.blocks(z_new, z_old, t, t0)
    d_alpha1, d_alpha2 = alpha.time_partials(z_new, z_old, t, t0)
    return a @ v + d_alpha1, c @ v + d_alpha2


def coefficients(
    sys: BirkhoffSystem, alpha: AlphaTransform, t0: float, m: int
) -> Tuple[Coeffs, Coeffs]:
    """Coefficients phi_w^(0..m) at t0 and their Jacobians, for m <= 2, by the generic recursion.

    Returns the pair (coeffs, coeff_jacobians) of m + 1 callables each
    that a :class:`GeneratingScheme` holds.

    phi^(0)(w) is the identity point: the w_hat that ``alpha.inverse`` at
    (t0, t0) maps with w to a pair z_new = z_old.  It is one Newton solve
    of z_new = z_old from w_hat = 0, which is already the solution for
    every :func:`~birkhoff.transform.darboux_alpha`.  Its Jacobian comes
    from the inverse blocks (A', B', C', D') at that point: z_new = z_old
    holds all along w_hat = phi^(0)(w), so (A' - C') d phi^(0)/dw = D' - B',
    and d phi^(0)/dw is D' - B' times the inverse of A' - C' that its gate
    returns (for a ``darboux_alpha``, one inversion serves every w).
    Any other transform that passes
    :func:`~birkhoff.transform.alpha_verify` works too, with Newton
    updates by the inverse of A' - C' that the same gate returns, as long
    as |A' - C'| != 0.  The one helper that builds A' - C' gates it, so a
    singular A' - C' raises
    :class:`~birkhoff.errors.TransversalityError` wherever it is met: at
    the solve's start, at a later iterate, or at phi^(0) itself.  Any
    other Newton failure there raises
    :class:`~birkhoff.errors.EvaluationError` naming w and t0, chained to
    the :class:`~birkhoff.errors.NewtonError`.
    The order m must be an integer in 1..``MAX_ORDER``; any other value,
    a float or bool included, raises ``ValueError`` before any evaluation.

    Each point w is evaluated once, as one record (phi^(0), S, phi^(1),
    g, (A' - C')^{-1}) with S = d phi^(0)/dw and phi^(1) = u - S g from
    the functional's pair (u, g) of :func:`a_functional` at the identity
    point, which reads the solve's own inverse image there; ``coeffs[0]``,
    ``coeff_jacobians[0]`` and ``coeffs[1]`` all read it, so any of them
    costs one Newton solve, one set of inverse blocks and one functional
    evaluation at a fresh w.  That record and phi^(2) are memoized by the
    content of w, keeping the ``MEMO_SIZE`` most recently used points and
    returning read-only arrays; the differenced Jacobians of phi^(1) and
    phi^(2) are built afresh on each call.  phi^(2) is half the total
    derivative of the functional u - S g along the flow.  With S0 = S(w)
    held fixed and S'[g] the derivative of S along g, it is
    (1/2) [DF (phi^(1) - S0 g, -g, 1) + S'[g] g] for F = u - S0 g (see
    the module docstring): one central difference in s at s = 0 of

        u - S0 g at (phi^(0) + s (phi^(1) - S0 g), w - s g, t0 + s),  plus
        (A' - C')^{-1} [(D' - B') g - (A' - C') S0 g] at (phi^(0) + s S0 g, w + s g),

    with the inverse blocks of the second line taken at (t0, t0) and
    the record's (A' - C')^{-1} from s = 0: the bracket vanishes there,
    so that inverse need not move with s, and the line's derivative is
    S'[g] g, exactly 0 for an affine identity map such as every
    ``darboux_alpha``.  So phi^(2) costs two functional evaluations and
    two sets of inverse blocks beyond its record, with no gate and no
    identity solve at a shifted w.  Its step is the once-nested one: the
    functional evaluates D and dP/dt, differenced when not supplied, so
    it carries finite-difference noise above machine epsilon.
    Closed-form coefficients may be supplied by callers, in a
    hand-built :class:`GeneratingScheme`, to go past the cap.
    """
    m = _positive_int("order", m)
    if m > MAX_ORDER:
        raise ValueError(f"generic coefficient recursion supports orders 1..{MAX_ORDER}, got {m}")
    require_same_n(alpha, sys)
    t0 = float(t0)

    @_content_cached(MEMO_SIZE)
    def identity(w: Array) -> Tuple[Array, Array, Array, Array, Array]:
        # phi0, S = d phi0/dw, phi1 = u - S g, g and (A' - C')^{-1} at one
        # identity point.  phi0 solves z_new = z_old on the inverse image
        # of (w_hat, w); the images the solve evaluates are kept, so the
        # functional reads the one at phi0 instead of inverting again
        images = {}

        def image(w_hat):
            images[w_hat.tobytes()] = out = alpha.inverse(w_hat, w, t0, t0)
            return out

        def s_system(w_hat):
            # (A', C') = d(z_new, z_old)/d w_hat, so A' - C' is the solve's
            # exact Jacobian; along w_hat = phi0(w), S = (A' - C')^{-1} (D' - B')
            a, b, c, d = alpha.inverse_blocks(w_hat, w, t0, t0)
            return require_transversal(a - c, "A' - C'"), d - b

        try:
            phi0 = newton_solve(image, np.zeros_like(w), lambda x: s_system(x)[0])[0]
        except NewtonError as exc:
            raise EvaluationError(f"no identity point at w={w.tolist()}, t0={t0}: {exc}") from exc
        u, g = a_functional(sys, alpha, phi0, w, t0, t0, images[phi0.tobytes()])
        lhs_inv, rhs = s_system(phi0)
        s = lhs_inv @ rhs
        return phi0, s, u - s @ g, g, lhs_inv

    def phi0(w: Array) -> Array:
        return identity(w)[0]

    def phi0_jac(w: Array) -> Array:
        return identity(w)[1]

    def phi1(w: Array) -> Array:
        return identity(w)[2]

    def phi1_jac(w: Array) -> Array:
        # phi1 evaluates D and dP/dt, which are differenced when not
        # supplied (D from F and B, dP/dt from P), so it carries noise
        # above machine epsilon
        return numdiff.jacobian(phi1, w, base=numdiff.SOLVER_FD_STEP)

    @_content_cached(MEMO_SIZE)
    def phi2(w: Array) -> Array:
        # F = u - S0 g along (phi1 - S0 g, -g, 1), plus S'[g] g as the
        # record's (A' - C')^{-1} times (D' - B') g - (A' - C') S0 g along
        # (S0 g, g): that vanishes at s = 0, so the inverse need not move
        phi0_w, s0, phi1_w, g, lhs_inv = identity(w)
        s_g = s0 @ g
        dir1 = phi1_w - s_g

        def along(s):
            u, g_s = a_functional(sys, alpha, phi0_w + s * dir1, w - s * g, t0 + s, t0)
            a, b, c, d = alpha.inverse_blocks(phi0_w + s * s_g, w + s * g, t0, t0)
            return u - s0 @ g_s + lhs_inv @ ((d - b) @ g - (a - c) @ s_g)

        return 0.5 * numdiff.time_derivative(along, 0.0, numdiff.SOLVER_FD_STEP)

    def phi2_jac(w: Array) -> Array:
        # phi2 is a difference of the functional, itself noisy above machine
        # epsilon; its Jacobian needs the wider step to clear that noise floor
        return numdiff.jacobian(phi2, w, base=numdiff.NESTED_FD_STEP)

    return (phi0, phi1, phi2)[: m + 1], (phi0_jac, phi1_jac, phi2_jac)[: m + 1]


def make_scheme(sys: BirkhoffSystem, alpha: AlphaTransform, t0: float, m: int) -> GeneratingScheme:
    """Generic order-m scheme at t0, whose ``rebase`` is wired to ``coefficients``.

    ``rebase`` keeps the latest scheme it built, at first the one at t0,
    and returns that same scheme when asked for its time again, so a
    step and its step Jacobian from one grid point share their
    coefficient evaluations; a run asks for each grid time in turn and
    never goes back, so older schemes are dropped.  The kept scheme
    holds ``rebase``, which holds it, so that pair is freed by the
    cyclic garbage collector once nothing else refers to it.
    """

    @functools.lru_cache(maxsize=1)
    def rebase(s: float) -> GeneratingScheme:
        return GeneratingScheme(alpha, *coefficients(sys, alpha, float(s), m), rebase)

    return rebase(float(t0))


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
