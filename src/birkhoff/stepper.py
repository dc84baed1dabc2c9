"""Turn a generating scheme into a concrete one-step map and integrate.

One step solves the implicit relation

    alpha_1(z_new, z, t_k + tau, t_k) = psi_w(alpha_2(z_new, z, t_k + tau, t_k), tau)

for z_new by quasi-Newton from an explicit-Euler predictor.  Each step
uses the scheme that ``rebase`` re-expands at its grid time, so
nonautonomous systems keep their stated order.  Differentiating the
relation through the Moebius form gives one linearization,
A - Psi_ww C in z_new and Psi_ww D - B in z, with Psi_ww = sum_k tau^k
phi_ww^(k) summed in :func:`_linearization` alone, which returns the
first as the inverse its nonsingularity test certified: the inverse and
the second give the exact step Jacobian of :func:`step_jacobian`, and
every Newton update of :func:`step` multiplies by the inverse.  Newton
only needs a start that contracts, so at every order :func:`step`
starts from A - phi_ww^(0) C, whose phi_ww^(0) comes with the memoized
identity record (or is exactly 0: on a transform that
:func:`~birkhoff.genscheme.coefficients` recognises as a
``darboux_alpha``, the first matrix is A), and the solve corrects its
inverse by Broyden's second method after each update: a step builds no
phi_ww^(1) stencil and no nested phi_ww^(2), which keeps its calls to
the user's K flat in n (19
per order-2 step of the pendulum chain at n = 2, 4 and 8, 16 on the
oscillator); every refresh of that matrix is exact.  A step that fails
raises the error of its cause; a solve that does not converge raises the
solver's own :class:`~birkhoff.errors.NewtonError`.  :func:`run` is the
one loop that walks a step map along the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import BirkhoffSystem, _positive_int, _require_dim, velocity
from .errors import BirkhoffError
from .genscheme import GeneratingScheme, _tau_series
from .newton import newton_solve
from .transform import Blocks, require_same_n, require_transversal

Array = np.ndarray
StepMap = Callable[[Array, float], Array]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States on the uniform grid t_k = t0 + k * tau of the :func:`run` that made them.

    A plain record that checks nothing: :func:`run`, its one producer,
    stores float arrays, at least the initial state and, when present, one
    residual per step.  ``residuals[k]`` is the structure-preservation
    residual of the step from state k to state k+1, filled only by
    :func:`run` from its ``certify`` callable (the CLI ``integrate``
    passes one that feeds the exact step Jacobian to
    ``symplectic_residual``).  The grid is not stored: t0 and tau are the
    caller's own inputs to :func:`run`, which checks them and hands each
    t_k to the step map.
    """

    states: Tuple[Array, ...]
    residuals: Optional[Tuple[float, ...]] = None


def _check_grid(t0: float, tau: float, z0: Array) -> None:
    """ValueError unless t0 and z0 are finite and tau is finite and positive."""
    # written so that a NaN tau fails too
    if not (np.isfinite(t0) and 0.0 < tau < np.inf and np.isfinite(z0).all()):
        raise ValueError(f"need finite t0 and z0 and a finite positive tau, got t0={t0}, tau={tau}")


def step(
    sys: BirkhoffSystem,
    scheme: GeneratingScheme,
    z: Array,
    t_k: float,
    tau: float,
) -> Array:
    """Advance z from t_k to t_k + tau through the implicit relation.

    The step uses ``scheme.rebase(t_k)``, coefficients and transform
    both.  A z whose length is not the system's, a non-finite t_k or
    tau, or a rebased scheme whose transform has another n raises
    ``ValueError`` before any evaluation of the system; a zero tau
    solves phi^(0)'s identity relation, which z satisfies, and a
    negative one steps back.  Raises
    :class:`NewtonError` when the step's own Newton iteration does not
    converge; it carries that solve's last iterate, residual norm and
    iteration count.  Raises :class:`TransversalityError` when a Newton
    matrix fails the nonsingularity test.  A failed identity-point solve
    inside the coefficients leaves as an :class:`EvaluationError` chained
    to its :class:`NewtonError`, so ``except NewtonError`` catches only
    the step's own solve.

    The first Newton matrix is A - phi_ww^(0) C at the predictor, at
    every order, and the solve corrects its inverse by Broyden's second
    method after each update that leaves the residual above its target.
    The solve treats that inverse as stale: it is replaced by the exact
    (A - Psi_ww C)^-1 after an update that fails to cut the residual 4x,
    and before any stop at the noise floor.  Only :func:`step_jacobian`
    always pays for the exact matrix.
    """
    z = _require_dim(sys, z)
    if not (np.isfinite(t_k) and np.isfinite(tau)):
        raise ValueError(f"need finite t_k and tau, got t_k={t_k}, tau={tau}")
    sch = scheme.rebase(t_k)
    alpha = sch.alpha
    require_same_n(alpha, sys)
    t1 = t_k + tau

    def terms(z_new):
        # w = alpha_2 rides along, so each Newton matrix reads it
        a1, a2 = alpha.forward(z_new, z, t1, t_k)
        return a1, sch.psi_w(a2, tau), a2

    def newton_matrix(series):
        return lambda y, ev: _linearization(sch, series, y, z, t_k, tau, ev[2])[0]

    # the first matrix is A - phi_ww^(0) C, read from the identity record
    start = newton_matrix(sch.coeff_jacobians[:1])
    guess = z + tau * velocity(sys, z, t_k)
    return newton_solve(terms, guess, newton_matrix(sch.coeff_jacobians), _start=start)[0]


def run(
    advance: StepMap,
    z0: Array,
    t0: float,
    tau: float,
    n_steps: int,
    certify: Optional[Callable[[Array, float, Array], float]] = None,
) -> Trajectory:
    """Apply ``advance(z, t_k)`` n_steps times on the grid t_k = t0 + k * tau.

    Each output of ``advance`` becomes a float array as it returns, so
    ``certify``, the next step and the trajectory all see that array.
    With ``certify``, residual k of the returned trajectory is
    ``certify(z_k, t_k, z_{k+1})``.  Raises ``ValueError`` before the first
    step unless n_steps is an integer (not a bool) of at least 1, t0 and
    z0 are finite and tau is finite and positive.  A
    :class:`BirkhoffError` raised at step k leaves with ``step_index = k``
    and ``trajectory`` holding the states (and residuals) accepted before
    it.
    """
    n_steps = _positive_int("n_steps", n_steps)
    states = [np.asarray(z0, dtype=float)]
    _check_grid(t0, tau, states[0])
    residuals = None if certify is None else []

    def trajectory():
        return Trajectory(tuple(states), None if residuals is None else tuple(residuals))

    for k in range(n_steps):
        t_k = t0 + k * tau
        z = states[-1]
        try:
            z_next = np.asarray(advance(z, t_k), dtype=float)
            if certify is not None:
                residuals.append(certify(z, t_k, z_next))
        except BirkhoffError as exc:
            exc.step_index = k
            exc.trajectory = trajectory()
            raise
        states.append(z_next)
    return trajectory()


def integrate(
    sys: BirkhoffSystem,
    scheme: GeneratingScheme,
    z0: Array,
    t0: float,
    tau: float,
    n_steps: int,
) -> Trajectory:
    """Apply ``step`` n_steps times on the grid t_k = t0 + k * tau (see :func:`run`)."""
    return run(lambda z, t_k: step(sys, scheme, z, t_k, tau), z0, t0, tau, n_steps)


def _linearization(
    sch: GeneratingScheme,
    coeff_jacobians: Tuple[Callable[[Array], Array], ...],
    z_new: Array,
    z: Array,
    t_k: float,
    tau: float,
    w: Array,
) -> Tuple[Array, Array, Blocks]:
    """((A - Psi_ww C)^{-1}, Psi_ww, (A, B, C, D)): the step relation differentiated.

    A - Psi_ww C and Psi_ww D - B are its derivatives in z_new and in z.
    The first is returned as the inverse its nonsingularity test
    certified, shared and read-only, never as the matrix itself: every
    Newton update reads only it, and the step Jacobian multiplies the
    second by it.

    (A, B, C, D) are the forward blocks of the transform at
    (z_new, z, t_k + tau, t_k) and Psi_ww = sum_k tau^k
    ``coeff_jacobians[k](w)`` at the caller's w = alpha_2(z_new, z,
    t_k + tau, t_k).  They are exact when ``coeff_jacobians`` is the
    scheme's whole tuple; :func:`step`'s first matrix passes its first
    term alone.  Raises :class:`TransversalityError` when A - Psi_ww C fails
    :func:`~birkhoff.core.det_nonzero` (the fourth condition of
    :func:`~birkhoff.transform.transversality_equivalents`).
    """
    blocks = sch.alpha.blocks(z_new, z, t_k + tau, t_k)
    psi_ww = _tau_series(coeff_jacobians, w, tau)
    return require_transversal(blocks[0] - psi_ww @ blocks[2], "A - Psi_ww C"), psi_ww, blocks


def step_jacobian(
    sys: BirkhoffSystem,
    scheme: GeneratingScheme,
    z: Array,
    t_k: float,
    tau: float,
) -> Array:
    """Exact step Jacobian M = d z_new / d z, from the Moebius relation.

    Differentiating the step relation alpha_1(z_new, z) = psi_w(alpha_2(z_new, z))
    in z gives A M + B = Psi_ww (C M + D), so

        M = (A - Psi_ww C)^{-1} (Psi_ww D - B),

    with both factors from the exact linearization at the solved z_new
    (the inverse is the one its nonsingularity test keeps),
    the full series Psi_ww: the matrix that :func:`step`'s Newton
    refreshes use, not its cheaper first matrix.  A lost transversality
    condition |A - Psi_ww C| != 0 raises :class:`TransversalityError`.
    The coefficients at the converged w are already memoized by the
    solve, so beyond the step itself only their Hessians there are new
    work: stencils of 2 dim identity records for phi_ww^(1) and of 2 dim
    phi^(2) values for phi_ww^(2), which the Darboux path of
    :func:`~birkhoff.genscheme.coefficients` evaluates as stacks, with
    one call to K and to D per row.  :func:`step` checks z and the
    rebased scheme's n.
    """
    z_new = step(sys, scheme, z, t_k, tau)
    z = np.asarray(z, dtype=float)
    sch = scheme.rebase(t_k)
    _, w = sch.alpha.forward(z_new, z, t_k + tau, t_k)
    jacs = sch.coeff_jacobians
    lhs_inv, psi_ww, (_, b, _, d) = _linearization(sch, jacs, z_new, z, t_k, tau, w)
    return lhs_inv @ (psi_ww @ d - b)
