"""Turn a generating scheme into a concrete one-step map and integrate.

One step solves the implicit relation

    alpha_1(z_new, z, t_k + tau, t_k) = psi_w(alpha_2(z_new, z, t_k + tau, t_k), tau)

for z_new by Newton iteration with a finite-difference residual Jacobian
and an explicit-Euler predictor as initial guess.  Coefficients are
re-expanded at each grid time through the scheme's rebase factory, so
nonautonomous systems keep their stated order.  :func:`run` is the one
loop that walks a step map along the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import numdiff
from .core import BirkhoffSystem, velocity
from .errors import BirkhoffError, NewtonError, StepFailure
from .genscheme import GeneratingScheme
from .newton import newton_solve

Array = np.ndarray
StepMap = Callable[[Array, float], Array]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States on the uniform grid t_k = t0 + k * tau.

    ``residuals[k]``, when present, is the structure-preservation residual
    of the step from state k to state k+1 (filled by ``run`` with a
    ``certify`` callable, or by ``diagnostics.attach_residuals``).
    """

    t0: float
    tau: float
    states: Tuple[Array, ...]
    residuals: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not self.states:
            raise ValueError("a trajectory needs at least the initial state")
        states = tuple(np.asarray(s, dtype=float) for s in self.states)
        object.__setattr__(self, "states", states)
        if self.residuals is not None and len(self.residuals) != len(states) - 1:
            raise ValueError("need one residual per step")

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    def time(self, k: int) -> float:
        return self.t0 + k * self.tau

    @property
    def times(self) -> Array:
        return self.t0 + self.tau * np.arange(len(self.states))


def step(
    sys: BirkhoffSystem,
    scheme: GeneratingScheme,
    z: Array,
    t_k: float,
    tau: float,
) -> Array:
    """Advance z from t_k to t_k + tau through the implicit relation.

    Raises :class:`StepFailure` when the Newton iteration does not
    converge; the exception carries the last iterate and residual norm.
    """
    z = np.asarray(z, dtype=float)
    if tau == 0.0:
        return z.copy()
    sch = scheme.at(t_k)
    alpha = sch.alpha
    t1 = t_k + tau

    def residual(z_new):
        a1, a2 = alpha.forward(z_new, z, t1, t_k)
        return a1 - sch.psi_w(a2, tau)

    guess = z + tau * velocity(sys, z, t_k)
    # The residual is a difference of transform-scaled terms, so the
    # convergence target must scale with their magnitude, not only with
    # the state; otherwise the target can sit below the roundoff floor.
    a1_guess, a2_guess = alpha.forward(guess, z, t1, t_k)
    scale = max(
        1.0,
        float(np.max(np.abs(z))),
        float(np.max(np.abs(a1_guess))),
        float(np.max(np.abs(sch.psi_w(a2_guess, tau)))),
    )
    try:
        z_new, _, _ = newton_solve(residual, guess, scale, chord=True)
    except NewtonError as exc:
        raise StepFailure(
            f"implicit step at t={t_k} failed: {exc}", exc.last_iterate, exc.residual_norm, t_k
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
    ``certify(z_k, t_k, z_{k+1})``.  A :class:`BirkhoffError` raised at
    step k leaves with ``step_index = k`` and ``trajectory`` holding the
    states (and residuals) accepted before it.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if tau <= 0:
        raise ValueError("tau must be positive")
    states = [np.asarray(z0, dtype=float)]
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


def step_jacobian(
    sys: BirkhoffSystem,
    scheme: GeneratingScheme,
    z: Array,
    t_k: float,
    tau: float,
) -> Array:
    """d z_new / d z by central differences, re-solving per stencil point.

    Uses the solver-aware step ``eps**(1/4) * max(1, |z_j|)``: the
    differenced quantity is a Newton solution whose noise floor sits well
    above machine epsilon.
    """
    z = np.asarray(z, dtype=float)
    return numdiff.jacobian(
        lambda y: step(sys, scheme, y, t_k, tau), z, base=numdiff.SOLVER_FD_STEP
    )
