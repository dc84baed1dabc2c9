"""Quantitative verification: structure residuals, convergence order, comparison.

The pointwise certificate of a structure-preserving step map with
Jacobian M is ``M^T K(z_new, t1) M = K(z_old, t0)``; the residual is its
max-norm defect.  Convergence order is estimated from a log-log fit of
final-time error against step size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import numdiff
from .core import BirkhoffSystem
from .genscheme import GeneratingScheme
from .stepper import StepMap, Trajectory, run, step_jacobian

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
    """|| M^T K(z_new, t1) M - K(z, t0) ||_inf for a step Jacobian M."""
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
    """Least-squares slope of log(error) against log(tau)."""
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
    time t.  Each tau must divide the horizon; at least three values are
    required for the fit.  The error metric is the max-norm at the final
    time.
    """
    taus = [float(t) for t in tau_values]
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
    schemes: Mapping[str, StepMap],
    z0: Array,
    t0: float,
    tau: float,
    n_steps: int,
    reference: Optional[Callable[[float], Array]] = None,
) -> list[CompareRow]:
    """Run each named step map on the same grid and summarize.

    Per step, the Jacobian is taken by solver-aware central differences of
    the step map and fed to :func:`symplectic_residual`; the row records
    the worst residual, the final-time error against ``reference`` (when
    given) and the wall-clock time.  A failing scheme, or a grid that
    :func:`~birkhoff.stepper.run` rejects, yields a row with its error
    message instead of aborting the comparison.
    """
    rows = []
    for name, advance in schemes.items():

        def certify(z, t_k, z_next):
            jac = numdiff.jacobian(lambda y: advance(y, t_k), z, base=numdiff.SOLVER_FD_STEP)
            return symplectic_residual(sys, jac, z, t_k, z_next, t_k + tau)

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


def attach_residuals(
    sys: BirkhoffSystem, scheme: GeneratingScheme, traj: Trajectory
) -> Trajectory:
    """The trajectory with per-step structure residuals filled in.

    Residual k certifies the step from state k to k+1, with the step
    Jacobian taken by finite differences of the implicit step map.
    """
    residuals = []
    for k in range(traj.steps):
        t_k = traj.time(k)
        jac = step_jacobian(sys, scheme, traj.states[k], t_k, traj.tau)
        residuals.append(
            symplectic_residual(
                sys, jac, traj.states[k], t_k, traj.states[k + 1], t_k + traj.tau
            )
        )
    return replace(traj, residuals=tuple(residuals))


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
