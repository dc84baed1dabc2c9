"""Turn a generating scheme into a concrete one-step map and integrate.

One step solves the implicit relation

    alpha_1(z_new, z, t_k + tau, t_k) = psi_w(alpha_2(z_new, z, t_k + tau, t_k), tau)

for z_new by chord Newton from an explicit-Euler predictor.  Coefficients
are re-expanded at each grid time through the scheme's rebase factory, so
nonautonomous systems keep their stated order.  Differentiating the
relation through the Moebius form gives one linearization,
A - Psi_ww C in z_new and Psi_ww D - B in z: the first is the exact
Newton matrix of :func:`step`, and the two together give the exact step
Jacobian of :func:`step_jacobian`.  :func:`run` is the one loop that walks
a step map along the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import BirkhoffSystem, _positive_int, _require_dim, velocity
from .errors import BirkhoffError, NewtonError, StepFailure
from .genscheme import GeneratingScheme
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

    @property
    def steps(self) -> int:
        return len(self.states) - 1


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

    A z whose length is not the system's, or a scheme whose transform has
    another n, raises ``ValueError`` before any evaluation.  Raises
    :class:`StepFailure` when the step's own Newton iteration does not
    converge; the exception carries its last iterate, residual norm and
    iteration count.  Raises :class:`TransversalityError` when the Newton
    matrix A - Psi_ww C at an iterate fails the nonsingularity test.
    """
    z = _require_dim(sys, z)
    require_same_n(scheme.alpha, sys)
    if tau == 0.0:
        return z.copy()
    sch = scheme.at(t_k)
    alpha = sch.alpha
    t1 = t_k + tau

    def terms(z_new):
        a1, a2 = alpha.forward(z_new, z, t1, t_k)
        return a1, sch.psi_w(a2, tau)

    guess = z + tau * velocity(sys, z, t_k)
    try:
        z_new, _, _ = newton_solve(terms, guess, lambda y: _linearization(sch, y, z, t_k, tau)[0])
    except NewtonError as exc:
        raise StepFailure(
            f"implicit step at t={t_k} failed: {exc}",
            exc.last_iterate, exc.residual_norm, t_k, exc.iterations,
        ) from exc
    return z_new


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
    sch: GeneratingScheme, z_new: Array, z: Array, t_k: float, tau: float
) -> Tuple[Array, Array]:
    """(A - Psi_ww C, Psi_ww D - B): the step relation differentiated in z_new and in z.

    (A, B, C, D) are the forward blocks of the transform at
    (z_new, z, t_k + tau, t_k) and Psi_ww = ``sch.psi_ww(w, tau)`` at
    w = alpha_2(z_new, z, t_k + tau, t_k).  Raises
    :class:`TransversalityError` when A - Psi_ww C fails
    :func:`~birkhoff.core.det_nonzero` (the fourth condition of
    :func:`~birkhoff.transform.transversality_equivalents`).
    """
    t1 = t_k + tau
    a, b, c, d = sch.alpha.blocks(z_new, z, t1, t_k)
    _, w = sch.alpha.forward(z_new, z, t1, t_k)
    psi_ww = sch.psi_ww(w, tau)
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

    with both factors from the linearization at the solved z_new that
    :func:`step` uses as its Newton matrix.  A lost transversality
    condition |A - Psi_ww C| != 0 raises :class:`TransversalityError`.
    The coefficients at the converged w are already memoized by the
    solve, so beyond the step itself only the Hessian of the top-order
    coefficient is new work.  :func:`step` checks z and the scheme's n.
    """
    z_new = step(sys, scheme, z, t_k, tau)
    if tau == 0.0:
        return np.eye(z_new.size)
    z = np.asarray(z, dtype=float)
    lhs, rhs = _linearization(scheme.at(t_k), z_new, z, t_k, tau)
    return np.linalg.solve(lhs, rhs)
