"""Quantitative verification: structure residuals and convergence order.

The pointwise certificate of a structure-preserving step map with
Jacobian M is ``M^T K(z_new, t1) M = K(z_old, t0)``; the residual is its
max-norm defect.  A certified run passes it to
:func:`~birkhoff.stepper.run` as ``certify``, as the CLI ``integrate``
does per row.  Convergence order is estimated from a log-log fit of
final-time error against step size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .core import BirkhoffSystem, _require_dim
from .stepper import StepMap, _check_grid, run

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Final-time errors against a reference over a decreasing tau ladder."""

    tau_values: Tuple[float, ...]
    errors: Tuple[float, ...]
    slope: float


def symplectic_residual(
    sys: BirkhoffSystem, M: Array, z: Array, t0: float, z_new: Array, t1: float
) -> float:
    """|| M^T K(z_new, t1) M - K(z, t0) ||_inf for a step Jacobian M.

    An absolute norm: it grows with the size of K.  On the nu = 0.5
    oscillator at t0 = 800 (K about e^400) it reads up to about 9e161 on
    order-2 steps of size 0.01 whose states match the closed form.
    """
    M = np.asarray(M, dtype=float)
    z, z_new = _require_dim(sys, z), _require_dim(sys, z_new)
    if M.shape != (sys.dim, sys.dim):
        raise ValueError(f"expected a ({sys.dim}, {sys.dim}) Jacobian, got shape {M.shape}")
    return float(np.linalg.norm(M.T @ sys.k_at(z_new, t1) @ M - sys.k_at(z, t0), np.inf))


def fit_slope(tau_values: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(tau).

    Raises ``ValueError`` naming the first tau whose error is not positive
    and finite, since its logarithm does not exist: an exact scheme (or a
    start at an equilibrium) has no order to fit.  Lists of unequal
    lengths raise ``ValueError`` too.
    """
    if len(tau_values) != len(errors):
        raise ValueError(f"got {len(tau_values)} tau values but {len(errors)} errors")
    for tau, err in zip(tau_values, errors):
        # written so that a NaN error fails too
        if not 0.0 < err < np.inf:
            raise ValueError(f"error at tau = {tau} must be positive and finite, got {err}")
    return float(np.polyfit(np.log(np.asarray(tau_values)), np.log(np.asarray(errors)), 1)[0])


def convergence_order(
    sys: BirkhoffSystem,
    scheme_factory: Callable[[float], StepMap],
    reference: Callable[[float], Array],
    z0: Array,
    t0: float,
    horizon: float,
    tau_values: Sequence[float],
) -> ConvergenceReport:
    """Fit the global-error order of a one-step family.

    ``scheme_factory(tau)`` must return a map (z, t_k) -> z_new with the
    step size bound in; ``reference(t)`` is the exact state at absolute
    time t.  ``z0`` must be a finite state of the system's dimension, t0
    finite, the horizon finite and positive, and each tau finite,
    positive and a divisor of it whose quotient horizon / tau is finite;
    at least three values are required for the fit.  The reference is
    evaluated once, at t0 + horizon, after the checks on z0 and t0, and
    must give a finite state of the system's dimension.  All of these are
    checked before the first run, so a reference that raises does so
    before any step.  The error metric is the max-norm at
    the final time.
    """
    # written so that a NaN horizon fails too
    if not 0.0 < horizon < np.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    taus = [float(t) for t in tau_values]
    if not all(np.isfinite(tau) and tau > 0.0 for tau in taus):
        raise ValueError("tau values must be finite and positive")
    if len(taus) < 3:
        raise ValueError("need at least 3 step sizes to fit a slope")
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau values must be strictly decreasing")
    steps = []
    for tau in taus:
        ratio = horizon / tau
        if ratio == np.inf:
            raise ValueError(f"horizon {horizon} over tau {tau} overflows the step count")
        n_steps = round(ratio)
        if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError(f"horizon {horizon} is not an integer multiple of tau {tau}")
        steps.append(n_steps)
    z0 = _require_dim(sys, z0)
    _check_grid(t0, taus[0], z0)
    z_ref = _require_dim(sys, reference(t0 + horizon))
    if not np.isfinite(z_ref).all():
        raise ValueError(f"reference state at t = {t0 + horizon} must be finite, got {z_ref}")

    errors = []
    for tau, n_steps in zip(taus, steps):
        z = run(scheme_factory(tau), z0, t0, tau, n_steps).states[-1]
        errors.append(float(np.max(np.abs(z - z_ref))))

    return ConvergenceReport(tuple(taus), tuple(errors), fit_slope(taus, errors))
