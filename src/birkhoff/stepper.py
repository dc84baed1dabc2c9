"""Turn a generating scheme into a concrete one-step map and integrate.

One step solves the implicit relation

    alpha_1(z_new, z, t_k + tau, t_k) = psi_w(alpha_2(z_new, z, t_k + tau, t_k), tau)

for z_new by chord Newton from an explicit-Euler predictor.  Coefficients
are re-expanded at each grid time through the scheme's rebase factory, so
nonautonomous systems keep their stated order.  Differentiating the
relation through the Moebius form gives one linearization,
A - Psi_ww C in z_new and Psi_ww D - B in z, with Psi_ww = sum_k tau^k
phi_ww^(k) summed in :func:`_linearization` alone: the two together give
the exact step Jacobian of :func:`step_jacobian`, and the first is the
Newton matrix of :func:`step`.  Newton only needs a matrix that
contracts, so at every order :func:`step` starts from A - Psi_ww C with
the series' last, most-differenced term dropped: an order-1 step builds
no phi_ww^(1) stencil and an order-2 step no nested phi_ww^(2), which
keeps the order-1 step's calls to the user's K flat in n; every refresh
of that matrix is exact.  A step that fails raises the error of its
cause; a solve that does not converge raises the solver's own
:class:`~birkhoff.errors.NewtonError`.  :func:`run` is the one loop that
walks a step map along the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import BirkhoffSystem, _positive_int, _require_dim, velocity
from .errors import BirkhoffError
from .genscheme import GeneratingScheme, _tau_series
from .newton import newton_solve
from .transform import require_same_n, require_transversal

Array = np.ndarray
StepMap = Callable[[Array, float], Array]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States on the uniform grid t_k = t0 + k * tau.

    ``residuals[k]``, when present, is the structure-preservation residual
    of the step from state k to state k+1, filled only by :func:`run` from
    its ``certify`` callable (the CLI ``integrate`` passes one that feeds
    the exact step Jacobian to ``symplectic_residual``).  The grid times
    are not stored: :func:`run` computes t_k itself and hands it to the
    step map.
    """

    t0: float
    tau: float
    states: Tuple[Array, ...]
    residuals: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if not self.states:
            raise ValueError("a trajectory needs at least the initial state")
        states = tuple(np.asarray(s, dtype=float) for s in self.states)
        _check_grid(self.t0, self.tau, states[0])
        object.__setattr__(self, "states", states)
        if self.residuals is not None and len(self.residuals) != len(states) - 1:
            raise ValueError("need one residual per step")


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

    A z whose length is not the system's, a scheme whose transform has
    another n, or a non-finite t_k or tau raises ``ValueError`` before any
    evaluation; a zero tau solves phi^(0)'s identity relation, which z
    satisfies, and a negative one steps back.  Raises
    :class:`NewtonError` when the step's own Newton iteration does not
    converge; it carries that solve's last iterate, residual norm and
    iteration count.  Raises :class:`TransversalityError` when a Newton
    matrix fails the nonsingularity test.  A failed identity-point solve
    inside the coefficients leaves as an :class:`EvaluationError` chained
    to its :class:`NewtonError`, so ``except NewtonError`` catches only
    the step's own solve.

    The first Newton matrix is A - Psi_ww C at the predictor with the
    series' last, most-differenced term dropped, at every order (A -
    phi_ww^(0) C at order 1), which the solve treats as stale: it is
    replaced by the exact A - Psi_ww C after an update that fails to cut
    the residual 4x, and before any stop at the noise floor.  Only
    :func:`step_jacobian` always pays for the exact matrix.
    """
    z = _require_dim(sys, z)
    require_same_n(scheme.alpha, sys)
    if not (np.isfinite(t_k) and np.isfinite(tau)):
        raise ValueError(f"need finite t_k and tau, got t_k={t_k}, tau={tau}")
    sch = scheme.at(t_k)
    alpha = sch.alpha
    t1 = t_k + tau

    def terms(z_new):
        a1, a2 = alpha.forward(z_new, z, t1, t_k)
        return a1, sch.psi_w(a2, tau)

    jacs = sch.coefficients.coeff_jacobians

    def newton_matrix(series):
        return lambda y: _linearization(sch, series, y, z, t_k, tau)[0]

    # the first matrix drops the series' last, most-differenced term
    start = newton_matrix(jacs[:-1])
    guess = z + tau * velocity(sys, z, t_k)
    return newton_solve(terms, guess, newton_matrix(jacs), _start=start)[0]


def run(
    advance: StepMap,
    z0: Array,
    t0: float,
    tau: float,
    n_steps: int,
    certify: Optional[Callable[[Array, float, Array], float]] = None,
) -> Trajectory:
    """Apply ``advance(z, t_k)`` n_steps times on the grid t_k = t0 + k * tau.

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
        return Trajectory(t0, tau, tuple(states), None if residuals is None else tuple(residuals))

    for k in range(n_steps):
        t_k = t0 + k * tau
        z = states[-1]
        try:
            z_next = advance(z, t_k)
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
) -> Tuple[Array, Array]:
    """(A - Psi_ww C, Psi_ww D - B): the step relation differentiated in z_new and in z.

    (A, B, C, D) are the forward blocks of the transform at
    (z_new, z, t_k + tau, t_k) and Psi_ww = sum_k tau^k
    ``coeff_jacobians[k](w)`` at w = alpha_2(z_new, z, t_k + tau, t_k).
    The pair is exact when ``coeff_jacobians`` is the scheme's whole
    tuple; :func:`step`'s first matrix passes all but its last.  Raises
    :class:`TransversalityError` when A - Psi_ww C fails
    :func:`~birkhoff.core.det_nonzero` (the fourth condition of
    :func:`~birkhoff.transform.transversality_equivalents`).
    """
    t1 = t_k + tau
    a, b, c, d = sch.alpha.blocks(z_new, z, t1, t_k)
    _, w = sch.alpha.forward(z_new, z, t1, t_k)
    psi_ww = _tau_series(coeff_jacobians, w, tau)
    lhs = a - psi_ww @ c
    require_transversal(lhs, "A - Psi_ww C")
    return lhs, psi_ww @ d - b


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

    with both factors from the exact linearization at the solved z_new,
    the full series Psi_ww: the matrix that :func:`step`'s Newton
    refreshes use, not its cheaper first matrix.  A lost transversality
    condition |A - Psi_ww C| != 0 raises :class:`TransversalityError`.
    The coefficients at the converged w are already memoized by the
    solve, so beyond the step itself only their Hessians there are new
    work.  :func:`step` checks z and the scheme's n.
    """
    z_new = step(sys, scheme, z, t_k, tau)
    z = np.asarray(z, dtype=float)
    sch = scheme.at(t_k)
    lhs, rhs = _linearization(sch, sch.coefficients.coeff_jacobians, z_new, z, t_k, tau)
    return np.linalg.solve(lhs, rhs)
