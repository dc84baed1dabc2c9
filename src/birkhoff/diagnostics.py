"""Quantitative verification: structure residuals, convergence order, comparison.

The pointwise certificate of a structure-preserving step map with
Jacobian M is ``M^T K(z_new, t1) M = K(z_old, t0)``; the residual is its
max-norm defect.  Convergence order is estimated from a log-log fit of
final-time error against step size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import BirkhoffSystem
from .stepper import StepMap, run

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Final-time errors against a reference over a decreasing tau ladder."""

    tau_values: Tuple[float, ...]
    errors: Tuple[float, ...]
    slope: float


@dataclass(frozen=True, eq=False)
class CompareRow:
    """One scheme's run summary; ``error`` holds a failure message, if any."""

    name: str
    final_error: Optional[float]
    max_residual: Optional[float]
    runtime_s: float
    error: Optional[str] = None


def symplectic_residual(
    sys: BirkhoffSystem, M: Array, z: Array, t0: float, z_new: Array, t1: float
) -> float:
    """|| M^T K(z_new, t1) M - K(z, t0) ||_inf for a step Jacobian M.

    An absolute norm: it grows with the size of K.  On the nu = 0.5
    oscillator at t0 = 800 (K about e^400) it reads up to about 9e163 on
    order-2 steps of size 0.01 whose states match the closed form.
    """
    M = np.asarray(M, dtype=float)
    z = np.asarray(z, dtype=float)
    z_new = np.asarray(z_new, dtype=float)
    dim = sys.dim
    if M.shape != (dim, dim) or z.shape != (dim,) or z_new.shape != (dim,):
        raise ValueError(
            f"dimension mismatch: expected ({dim}, {dim}) Jacobian and length-{dim} states"
        )
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
    time t.  The horizon must be finite and positive, and each tau must be
    finite, positive and divide it; at least three values are required for
    the fit.  The error metric is the max-norm at the final time.
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

    errors = []
    for tau in taus:
        ratio = horizon / tau
        n_steps = round(ratio)
        if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError(f"horizon {horizon} is not an integer multiple of tau {tau}")
        z = run(scheme_factory(tau), z0, t0, tau, n_steps).states[-1]
        errors.append(float(np.max(np.abs(z - reference(t0 + horizon)))))

    return ConvergenceReport(tuple(taus), tuple(errors), fit_slope(taus, errors))


def compare(
    sys: BirkhoffSystem,
    schemes: Mapping[str, Tuple[StepMap, StepMap]],
    z0: Array,
    t0: float,
    tau: float,
    n_steps: int,
    reference: Optional[Callable[[float], Array]] = None,
) -> list[CompareRow]:
    """Run each named scheme on the same grid and summarize.

    Each scheme is a pair ``(advance, jacobian)`` of callables of (z, t_k):
    the step map and its exact step Jacobian (the matrix of a closed-form
    scheme; :func:`~birkhoff.stepper.step_jacobian` for a generating
    scheme).  Per step, :func:`symplectic_residual` certifies that
    Jacobian; the row records the worst residual, the final-time error
    against ``reference`` (when given) and the wall-clock time.  A failing
    scheme, or a grid that :func:`~birkhoff.stepper.run` rejects, yields a
    row with its error message instead of aborting the comparison.
    """
    rows = []
    for name, (advance, jacobian) in schemes.items():

        def certify(z, t_k, z_next):
            return symplectic_residual(sys, jacobian(z, t_k), z, t_k, z_next, t_k + tau)

        start = time.perf_counter()
        try:
            traj = run(advance, z0, t0, tau, n_steps, certify=certify)
        except Exception as exc:  # recorded in-row, not fatal
            rows.append(
                CompareRow(name, None, None, time.perf_counter() - start, error=str(exc))
            )
            continue
        final_error = None
        if reference is not None:
            final_error = float(np.max(np.abs(traj.states[-1] - reference(t0 + n_steps * tau))))
        max_residual = max((0.0,) + traj.residuals)
        rows.append(CompareRow(name, final_error, max_residual, time.perf_counter() - start))
    return rows


def rows_to_csv(rows: Sequence[CompareRow]) -> str:
    """Comparison rows as CSV with full-precision numeric columns."""
    def fmt(value):
        return "" if value is None else format(float(value), ".17g")

    lines = ["name,final_error,max_residual,runtime_s,error"]
    for row in rows:
        message = "" if row.error is None else row.error.replace("\n", " ").replace(",", ";")
        lines.append(
            f"{row.name},{fmt(row.final_error)},{fmt(row.max_residual)},"
            f"{fmt(row.runtime_s)},{message}"
        )
    return "\n".join(lines) + "\n"
