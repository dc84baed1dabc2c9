"""Dense Newton solver for the small implicit systems in this package."""

from __future__ import annotations

import numpy as np

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


def newton_solve(residual, x0, scale, jacobian):
    """Solve ``residual(x) = 0`` starting from ``x0``.

    Chord Newton: the Jacobian is evaluated at the start and reused across
    iterations, and evaluated afresh only after an iteration with a stale
    matrix fails to cut the residual by 4x.  After convergence, up to
    POLISH_UPDATES further updates with the current matrix are kept while
    they shrink the residual.

    Parameters
    ----------
    residual : callable
        Maps a length-d vector to a length-d residual vector.
    x0 : array
        Initial guess.
    scale : float
        Magnitude of the residual's terms; the convergence target is
        ``TOL * scale``.
    jacobian : callable
        Maps x to the d x d residual Jacobian.

    Returns
    -------
    (x, residual_norm, iterations)

    Raises :class:`NewtonError`, carrying the last iterate and its residual
    norm, on a singular Jacobian, a non-finite update, or more than
    MAX_ITER iterations.
    """
    x = np.array(x0, dtype=float)
    target = TOL * scale
    cap = np.sqrt(TOL) * scale

    def evaluate(y):
        # residual and its inf-norm; non-finite residuals must read as
        # "far from converged"
        res = np.asarray(residual(y), dtype=float)
        if res.size == 0:
            return res, 0.0
        value = float(np.max(np.abs(res)))
        return res, value if np.isfinite(value) else np.inf

    def increment(mat):
        # Newton increment at the current iterate
        try:
            delta = np.linalg.solve(mat, r)
        except np.linalg.LinAlgError:
            raise NewtonError("singular Jacobian in Newton iteration", x, rnorm, iters) from None
        if not np.all(np.isfinite(delta)):
            raise NewtonError("non-finite Newton update", x, rnorm, iters)
        return delta

    r, rnorm = evaluate(x)
    iters = 0
    jac_mat = None
    jac_fresh = False
    while rnorm > target:
        if iters >= MAX_ITER:
            raise NewtonError("Newton iteration did not converge", x, rnorm, iters)
        if jac_mat is None:
            jac_mat = jacobian(x)
            jac_fresh = True
        delta = increment(jac_mat)
        x = x - delta
        r, new_norm = evaluate(x)
        iters += 1
        if (
            float(np.max(np.abs(delta))) <= TOL * max(1.0, float(np.max(np.abs(x))))
            and new_norm <= cap
        ):
            rnorm = new_norm
            break
        slow = new_norm > 0.25 * rnorm
        rnorm = new_norm
        if slow and not jac_fresh:
            jac_mat = None
        jac_fresh = False

    for _ in range(POLISH_UPDATES):
        if rnorm == 0.0:
            break
        if jac_mat is None:
            jac_mat = jacobian(x)
        try:
            x_try = x - increment(jac_mat)
        except NewtonError:
            break
        r_try, rnorm_try = evaluate(x_try)
        if rnorm_try >= rnorm:
            break
        x, r, rnorm = x_try, r_try, rnorm_try
        iters += 1

    return x, rnorm, iters
