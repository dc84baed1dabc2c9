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

A transform built by ``darboux_alpha`` (recognised by its callables, see
:func:`coefficients`) has the identity map w_hat = 0, so phi^(0) = 0,
S = 0, phi^(1) = u and phi^(2) = (1/2) Du (phi^(1), -g, 1) in closed
form: no identity solve, no inverse blocks and no S terms.

Truncating after order m and substituting the step size tau for (t - t0)
defines an implicit one-step scheme of order m whose step map preserves
the K-pairing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from . import numdiff
from .core import (
    BirkhoffSystem, _content_cached, _frozen, _positive_int, _require_dim, _velocity_rows, velocity,
)
from .errors import EvaluationError, NewtonError
from .newton import newton_solve
from .transform import AlphaTransform, _is_darboux, require_same_n, require_transversal

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
    z_new: Array,
    z_old: Array,
    t: float,
    t0: float,
) -> Tuple[Array, Array]:
    """Time-derivative functional of the generating gradient, as its two parts (u, g).

    At the state pair (z_new, z_old), the inverse image of a point
    (w_hat, w) at (t, t0), it returns

        u = A v(z_new, t) + d alpha_1/dt,    g = C v(z_new, t) + d alpha_2/dt,

    where v is the phase velocity.  The functional is affine in the
    gradient-map Jacobian S = d w_hat / d w: its value at S is u - S g,
    and along the exact flow that equals the partial time derivative of
    the generating gradient.  A z_new or z_old whose length is not the
    system's raises ``ValueError`` before any evaluation.
    """
    z_new, z_old = _require_dim(sys, z_new), _require_dim(sys, z_old)
    v = velocity(sys, z_new, t)
    a, _, c, _ = alpha.blocks(z_new, z_old, t, t0)
    d_alpha1, d_alpha2 = alpha.time_partials(z_new, z_old, t, t0)
    return a @ v + d_alpha1, c @ v + d_alpha2


def _finite(name: str, value: Array, w: Array, t0: float) -> Array:
    """``value``; :class:`EvaluationError` naming the coefficient, w and t0 unless it is finite."""
    if not np.isfinite(value).all():
        raise EvaluationError(f"{name} is not finite at w={w.tolist()}, t0={t0}")
    return value


def coefficients(
    sys: BirkhoffSystem, alpha: AlphaTransform, t0: float, m: int
) -> Tuple[Coeffs, Coeffs]:
    """Coefficients phi_w^(0..m) at t0 and their Jacobians, for m <= 2.

    Returns the pair (coeffs, coeff_jacobians) of m + 1 callables each
    that a :class:`GeneratingScheme` holds.  The order m must be an
    integer in 1..``MAX_ORDER``; any other value, a float or bool
    included, raises ``ValueError`` before any evaluation.  Closed-form
    coefficients may be supplied by callers, in a hand-built
    :class:`GeneratingScheme`, to go past the cap.

    **Darboux path.**  When all five callables of ``alpha`` are those
    that :func:`~birkhoff.transform.darboux_alpha` built (so not after
    ``dataclasses.replace`` put in any other callable, a wrapper that
    computes the same map included), the identity map is w_hat = 0:
    phi^(0) = 0 and d phi^(0)/dw = 0 exactly, and a record is the
    functional's pair (u, g) of :func:`a_functional` at the identity pair
    ``alpha.inverse(0, w, t0, t0)``, with phi^(1) = u.  phi^(2) is half
    the central difference in s of u at (s u, w - s g, t0 + s), two
    functional evaluations.  Nothing is solved or gated beyond K and P:
    the generic path's D' - B' is exactly 0 at (t0, t0), and its
    A' - C' = P(t0)^{-1} times a permutation is nonsingular whenever P
    passes its own test.  The Jacobians of phi^(1) and phi^(2) difference
    the same points as the generic ones, each stencil evaluated as stacks
    (one call to K and to D per row, then one product per stack), and
    each keeps its latest point, where a step that stops on a fresh
    Newton matrix asks for it again.

    **Generic path.**  Any other transform that passes
    :func:`~birkhoff.transform.alpha_verify`.  phi^(0)(w) is the identity
    point: the w_hat that ``alpha.inverse`` at (t0, t0) maps with w to a
    pair z_new = z_old, one Newton solve of z_new = z_old from
    w_hat = 0 with updates by the inverse of A' - C' from the inverse
    blocks (A', B', C', D').  z_new = z_old holds all along
    w_hat = phi^(0)(w), so (A' - C') d phi^(0)/dw = D' - B', and
    d phi^(0)/dw is D' - B' times that inverse at the solved point.  The
    one helper that builds A' - C' gates it, so a singular A' - C' raises
    :class:`~birkhoff.errors.TransversalityError` wherever it is met: at
    the solve's start, at a later iterate, or at phi^(0) itself.  Any
    other Newton failure there raises
    :class:`~birkhoff.errors.EvaluationError` naming w and t0, chained to
    the :class:`~birkhoff.errors.NewtonError`.  Each point w is evaluated
    once, as one record (phi^(0), S, phi^(1), g, (A' - C')^{-1}) with
    S = d phi^(0)/dw and phi^(1) = u - S g from the functional's pair
    (u, g) at the inverse image the solve returns; ``coeffs[0]``,
    ``coeff_jacobians[0]`` and ``coeffs[1]`` all read it, so any of them
    costs one Newton solve, one set of inverse blocks and one functional
    evaluation at a fresh w.  phi^(2) is half the total derivative of the
    functional u - S g along the flow.  With S0 = S(w) held fixed and
    S'[g] the derivative of S along g, it is
    (1/2) [DF (phi^(1) - S0 g, -g, 1) + S'[g] g] for F = u - S0 g (see
    the module docstring): one central difference in s at s = 0 of

        u - S0 g at (phi^(0) + s (phi^(1) - S0 g), w - s g, t0 + s),  plus
        (A' - C')^{-1} [(D' - B') g - (A' - C') S0 g] at (phi^(0) + s S0 g, w + s g),

    with the inverse blocks of the second line taken at (t0, t0) and
    the record's (A' - C')^{-1} from s = 0: the bracket vanishes there,
    so that inverse need not move with s, and the line's derivative is
    S'[g] g.  So phi^(2) costs two functional evaluations and two sets
    of inverse blocks beyond its record, with no gate and no identity
    solve at a shifted w.  The Jacobians of phi^(1) and phi^(2) are
    ``numdiff.jacobian`` of them, built afresh on each call.

    **Both paths.**  The record and phi^(2) are memoized by the content
    of w, keeping the ``MEMO_SIZE`` most recently used points and
    returning read-only arrays.  A phi^(1) or phi^(2) that is not finite
    raises :class:`~birkhoff.errors.EvaluationError` naming the
    coefficient, w and t0, and is not kept.  The functional evaluates D
    and dP/dt, differenced when not supplied, so phi^(1) carries
    finite-difference noise above machine epsilon and phi^(2), a
    difference of it, more: their Jacobians take the wider steps
    ``SOLVER_FD_STEP`` and ``NESTED_FD_STEP``.
    """
    m = _positive_int("order", m)
    if m > MAX_ORDER:
        raise ValueError(f"generic coefficient recursion supports orders 1..{MAX_ORDER}, got {m}")
    require_same_n(alpha, sys)
    t0 = float(t0)
    if _is_darboux(alpha):
        return _darboux_coefficients(sys, alpha, t0, m)

    @_content_cached(MEMO_SIZE)
    def identity(w: Array) -> Tuple[Array, Array, Array, Array, Array]:
        # phi0, S = d phi0/dw, phi1 = u - S g, g and (A' - C')^{-1} at one
        # identity point.  phi0 solves z_new = z_old on the inverse image
        # of (w_hat, w), and the functional reads the image at phi0
        def image(w_hat):
            return alpha.inverse(w_hat, w, t0, t0)

        def s_system(w_hat):
            # (A', C') = d(z_new, z_old)/d w_hat, so A' - C' is the solve's
            # exact Jacobian; along w_hat = phi0(w), S = (A' - C')^{-1} (D' - B')
            a, b, c, d = alpha.inverse_blocks(w_hat, w, t0, t0)
            return require_transversal(a - c, "A' - C'"), d - b

        try:
            phi0, _, _, pair = newton_solve(image, np.zeros_like(w), lambda x, _: s_system(x)[0])
        except NewtonError as exc:
            raise EvaluationError(f"no identity point at w={w.tolist()}, t0={t0}: {exc}") from exc
        u, g = a_functional(sys, alpha, *pair, t0, t0)
        lhs_inv, rhs = s_system(phi0)
        s = lhs_inv @ rhs
        return phi0, s, _finite("phi1", u - s @ g, w, t0), g, lhs_inv

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
            image = alpha.inverse(phi0_w + s * dir1, w - s * g, t0 + s, t0)
            u, g_s = a_functional(sys, alpha, *image, t0 + s, t0)
            a, b, c, d = alpha.inverse_blocks(phi0_w + s * s_g, w + s * g, t0, t0)
            return u - s0 @ g_s + lhs_inv @ ((d - b) @ g - (a - c) @ s_g)

        value = 0.5 * numdiff.time_derivative(along, 0.0, numdiff.SOLVER_FD_STEP)
        return _finite("phi2", value, w, t0)

    def phi2_jac(w: Array) -> Array:
        # phi2 is a difference of the functional, itself noisy above machine
        # epsilon; its Jacobian needs the wider step to clear that noise floor
        return numdiff.jacobian(phi2, w, base=numdiff.NESTED_FD_STEP)

    return (phi0, phi1, phi2)[: m + 1], (phi0_jac, phi1_jac, phi2_jac)[: m + 1]


def _darboux_coefficients(
    sys: BirkhoffSystem, alpha: AlphaTransform, t0: float, m: int
) -> Tuple[Coeffs, Coeffs]:
    """:func:`coefficients` on its Darboux path, where phi^(0) = 0 and S = 0 exactly."""
    dim = alpha.dim
    zero, zero_jac = _frozen(np.zeros(dim)), _frozen(np.zeros((dim, dim)))

    def functional(w_hat: Array, w: Array, t: float) -> Tuple[Array, Array]:
        return a_functional(sys, alpha, *alpha.inverse(w_hat, w, t, t0), t, t0)

    def functional_rows(w_hat: Array, w: Array, t: float) -> Tuple[Array, Array]:
        # the functional at the inverse image of each row of the stacks:
        # the Darboux maps take stacks, and the blocks do not read states
        z_new, z_old = alpha.inverse(w_hat, w, t, t0)
        v = _velocity_rows(sys, z_new, t)
        a, _, c, _ = alpha.blocks(z_new, z_old, t, t0)
        d_alpha1, d_alpha2 = alpha.time_partials(z_new, z_old, t, t0)
        return v @ a.T + d_alpha1, v @ c.T + d_alpha2

    def half_flow_derivative(evaluate, u: Array, g: Array, w: Array) -> Array:
        # phi2 from the record (u, g) at a point, or at each row of a stack,
        # with the functional evaluated by ``evaluate``
        def along(s):
            return evaluate(s * u, w - s * g, t0 + s)[0]

        return 0.5 * numdiff.time_derivative(along, 0.0, numdiff.SOLVER_FD_STEP)

    @_content_cached(MEMO_SIZE)
    def identity(w: Array) -> Tuple[Array, Array]:
        # (phi1, g) = (u, g) at the identity pair of w
        u, g = functional(np.zeros_like(w), w, t0)
        return _finite("phi1", u, w, t0), g

    def phi1(w: Array) -> Array:
        return identity(w)[0]

    # each Jacobian keeps its latest point: a solve that stops on a fresh
    # matrix ends where it built it, and the step Jacobian asks there again
    # (the generic path reads that stencil's records from its memo)
    @_content_cached(1)
    def phi1_jac(w: Array) -> Array:
        # noisy above machine epsilon for the reason the generic one is
        points, h = numdiff.stencil(w, numdiff.SOLVER_FD_STEP)
        return numdiff.stencil_quotient(functional_rows(np.zeros_like(points), points, t0)[0], h)

    @_content_cached(MEMO_SIZE)
    def phi2(w: Array) -> Array:
        return _finite("phi2", half_flow_derivative(functional, *identity(w), w), w, t0)

    @_content_cached(1)
    def phi2_jac(w: Array) -> Array:
        points, h = numdiff.stencil(w, numdiff.NESTED_FD_STEP)
        records = functional_rows(np.zeros_like(points), points, t0)
        return numdiff.stencil_quotient(half_flow_derivative(functional_rows, *records, points), h)

    coeffs = (lambda w: zero, phi1, phi2)[: m + 1]
    return coeffs, (lambda w: zero_jac, phi1_jac, phi2_jac)[: m + 1]


def make_scheme(sys: BirkhoffSystem, alpha: AlphaTransform, t0: float, m: int) -> GeneratingScheme:
    """Generic order-m scheme at t0, whose ``rebase`` is wired to ``coefficients``.

    The schemes of one ``make_scheme`` call share a memo of the latest
    coefficient pair, at first the one at t0: a scheme rebased at that
    time again holds the same coefficients, so a step and its step
    Jacobian from one grid point share their coefficient evaluations; a
    run asks for each grid time in turn and never goes back, so older
    pairs are dropped.  Nothing in the memo refers back to a scheme, so
    the last scheme dropped frees the pair by reference count.
    """
    expand = functools.lru_cache(maxsize=1)(lambda s: coefficients(sys, alpha, s, m))
    return _rebased(alpha, expand, t0)


def _rebased(alpha: AlphaTransform, expand: Callable, t0: float) -> GeneratingScheme:
    """The scheme of the coefficient pair ``expand(t0)``, rebased by this function again."""
    return GeneratingScheme(alpha, *expand(float(t0)), functools.partial(_rebased, alpha, expand))


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
