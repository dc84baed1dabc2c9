"""Dense Newton solver for the small implicit systems in this package."""

from __future__ import annotations

import numpy as np

from . import numdiff
from .errors import NewtonError

# Relative tolerance: converged when ``||r||_inf <= TOL * scale``, or when
# the Newton increment satisfies ``||delta||_inf <= TOL * max(1, ||x||_inf)``
# while the residual is already below ``sqrt(TOL) * scale``.  The increment
# test accepts iterates whose residual sits at its evaluation-noise floor
# (residuals built from finite-differenced quantities cannot reach
# ``TOL * scale`` when their inputs carry noise above machine epsilon); the
# cap keeps it from firing far from a root.
TOL = 1e-12
# Iteration cap; exceeding it raises NewtonError.  No damping or line search.
MAX_ITER = 50
# Extra updates applied after convergence while they still shrink the
# residual.  Pushes the iterate to its roundoff floor, which matters when
# the solved map is later differenced numerically.
POLISH_UPDATES = 1


def newton_solve(residual, x0, scale, jacobian=None, chord=False):
    """Solve ``residual(x) = 0`` starting from ``x0``.

    Parameters
    ----------
    residual : callable
        Maps a length-d vector to a length-d residual vector.
    x0 : array
        Initial guess.
    scale : float
        Magnitude of the residual's terms; the convergence target is
        ``TOL * scale``.
    jacobian : callable, optional
        Maps x to the d x d residual Jacobian; finite differences on
        ``residual`` when omitted.
    chord : bool
        Reuse the Jacobian across iterations, recomputing only when an
        iteration fails to cut the residual by 4x.  Worth it when the
        Jacobian comes from finite differences of an expensive residual.

    Returns
    -------
    (x, residual_norm, iterations)
    """
    x = np.array(x0, dtype=float)
    target = TOL * scale
    cap = np.sqrt(TOL) * scale
    jac_fn = jacobian if jacobian is not None else (lambda y: numdiff.jacobian(residual, y))

    def solve_update(mat, rhs, where):
        try:
            delta = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            raise NewtonError(
                "singular Jacobian in Newton iteration", x, rnorm, where
            ) from None
        if not np.all(np.isfinite(delta)):
            raise NewtonError("non-finite Newton update", x, rnorm, where)
        return delta

    def inf_norm(vec):
        # non-finite residuals must read as "far from converged"
        if vec.size == 0:
            return 0.0
        value = float(np.max(np.abs(vec)))
        return value if np.isfinite(value) else np.inf

    r = np.asarray(residual(x), dtype=float)
    rnorm = inf_norm(r)
    iters = 0
    jac_mat = None
    jac_fresh = False
    while rnorm > target:
        if iters >= MAX_ITER:
            raise NewtonError("Newton iteration did not converge", x, rnorm, iters)
        if jac_mat is None:
            jac_mat = jac_fn(x)
            jac_fresh = True
        delta = solve_update(jac_mat, r, iters)
        x = x - delta
        r = np.asarray(residual(x), dtype=float)
        new_norm = inf_norm(r)
        iters += 1
        if (
            float(np.max(np.abs(delta))) <= TOL * max(1.0, float(np.max(np.abs(x))))
            and new_norm <= cap
        ):
            rnorm = new_norm
            break
        slow = new_norm > 0.25 * rnorm
        rnorm = new_norm
        if not chord or (slow and not jac_fresh):
            jac_mat = None
        jac_fresh = False

    for _ in range(POLISH_UPDATES):
        if rnorm == 0.0:
            break
        if jac_mat is None:
            jac_mat = jac_fn(x)
        try:
            delta = np.linalg.solve(jac_mat, r)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)):
            break
        x_try = x - delta
        r_try = np.asarray(residual(x_try), dtype=float)
        rnorm_try = inf_norm(r_try)
        if rnorm_try >= rnorm:
            break
        x, r, rnorm = x_try, r_try, rnorm_try
        iters += 1

    return x, rnorm, iters
