"""Quasi-Newton solver for the small implicit systems in this package.

Every update is a product with an inverse that the caller hands in: each
caller gates its Newton matrix with the nonsingularity test, which returns
the inverse it certified, so a singular matrix leaves as the caller's own
error and this module solves no linear system.  Between refreshes the
inverse in use is corrected by Broyden's second ("bad") rank-one update
(Broyden, Math. Comp. 19, 1965), which, unlike the first, commutes with a
linear change of variables x -> Q x: the updated inverse of the mapped
problem is Q^-1 times that of the original.
"""

from __future__ import annotations

import numpy as np

from .errors import NewtonError

# Relative tolerance: the solve stops once the residual is at or below
# ``TOL * scale``, with ``scale`` the size of the start point and of its
# terms (see newton_solve).  Below ``sqrt(TOL) * scale`` it also stops when an
# update from a freshly evaluated matrix no longer lowers the residual:
# residuals built from finite-differenced quantities carry a noise floor that
# can sit above the target, and corrections that stop contracting there have
# reached it.  Nothing is evaluated past either stop.
TOL = 1e-12
# Iteration cap; exceeding it raises NewtonError.  No damping or line search.
MAX_ITER = 50
_EPS = float(np.finfo(float).eps)
# Residual sizes below which y^T y cannot overflow, for any d under 1e8;
# Broyden updates are skipped above it
_HUGE = 1e150


def newton_solve(terms, x0, inverse, _start=None):
    """Solve ``u(x) = v(x)`` starting from ``x0``, where ``terms(x) = (u, v)``.

    Quasi-Newton with one stopping rule: stop at ``TOL * scale``, or below
    ``sqrt(TOL) * scale`` when an update from a fresh matrix no longer
    lowers the residual.  The first inverse is evaluated at the start, and
    after each taken update whose residual is still above the target it
    is corrected by Broyden's second method,
    ``H <- H - (delta + H y) y^T / (y^T y)`` with ``delta = H r`` the
    update just subtracted and ``y = r_new - r``.  The correction is
    skipped when y is not finite, when y^T y could overflow, or when y is
    so small next to r that it carries no slope, and it builds a new
    array, so a shared, read-only inverse is never written.  An updated inverse counts as
    stale, and the Jacobian is evaluated afresh after an update with a
    stale matrix fails to cut the residual by 4x.  Above
    ``sqrt(TOL) * scale`` every update is taken.  At or below it, an update that does not lower
    the residual is not taken: the matrix is refreshed at the same iterate
    if it was stale, and otherwise the solve ends there, at the noise
    floor.  Each update, taken or turned down, costs one evaluation of
    ``terms`` beyond the one at ``x0``, and nothing is evaluated after the
    stop: a start already at its target returns with no update and no
    matrix, and one whose residual is exactly 0 before its scale is read.
    An update subtracts the inverse in use times u - v.
    ``inverse`` and ``_start`` are called only at an x where ``terms``
    has been evaluated, so a caller may read what ``terms`` computed there.

    The residual is u - v.  Its target scales with the terms it is the
    difference of, read off the first evaluation, the one at ``x0``:
    ``scale = max(1, |x0|, |u(x0)|, |v(x0)|)`` in the inf-norm, over the
    finite entries.  A target fixed in absolute terms would sit below the
    roundoff floor of large terms.

    Parameters
    ----------
    terms : callable
        Maps a length-d vector x to the pair (u, v) of length-d vectors.
    x0 : array
        Initial guess.
    inverse : callable
        Maps x to the inverse of the d x d Jacobian of the residual u - v.
    _start : callable, optional
        Private hook: maps ``x0`` to the inverse of the first matrix, in
        place of ``inverse``.  The updates need only a start that
        contracts, so this may be a cheap approximation.  It counts as
        stale from the outset: ``inverse`` replaces it after an update
        that fails to cut the residual 4x, and before any stop at the
        noise floor, so only the target stop is ever taken on it.

    Returns
    -------
    (x, residual_norm, iterations)
        ``iterations`` counts the updates taken.

    Raises :class:`NewtonError`, carrying the last iterate and its residual
    norm, on a non-finite update or more than MAX_ITER iterations.
    """
    x = np.array(x0, dtype=float)

    def residual(u, v):
        # u - v and its inf-norm; non-finite residuals must read as "far
        # from converged"
        res = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
        value = float(np.max(np.abs(res)))
        return res, value if np.isfinite(value) else np.inf

    u0, v0 = terms(x)
    r, rnorm = residual(u0, v0)
    if rnorm == 0.0:
        return x, rnorm, 0
    sizes = np.abs(np.concatenate((x, u0, v0), dtype=float))
    top = float(sizes.max())
    # a non-finite start term must not lift the target to infinity; written
    # so that a NaN maximum takes the masked one too
    if not top < np.inf:
        top = float(np.max(sizes, where=np.isfinite(sizes), initial=0.0))
    scale = max(1.0, top)
    target = TOL * scale
    floor = np.sqrt(TOL) * scale
    iters = 0
    inv = None
    fresh = False
    while rnorm > target:
        if iters >= MAX_ITER:
            raise NewtonError("Newton iteration did not converge", x, rnorm, iters)
        if inv is None and _start is not None:
            inv, _start = _start(x), None
        elif inv is None:
            inv, fresh = inverse(x), True
        delta = inv @ r
        if not np.all(np.isfinite(delta)):
            raise NewtonError("non-finite Newton update", x, rnorm, iters)
        x_new = x - delta
        r_new, new_norm = residual(*terms(x_new))
        if new_norm >= rnorm and rnorm <= floor:
            if fresh:
                break
            inv = None
            continue
        if new_norm > 0.25 * rnorm and not fresh:
            inv = None
        elif new_norm > target and rnorm + new_norm < _HUGE:
            # Broyden's second update, into a new array: the inverse in use
            # may be the gate's shared one.  The sum of norms bounds y, so
            # y^T y is finite, and a y below the residual's roundoff
            # carries no slope
            y = r_new - r
            yy = y @ y
            if yy > (_EPS * rnorm) ** 2:
                inv = inv - np.outer(delta + inv @ y, y / yy)
        x, r, rnorm = x_new, r_new, new_norm
        iters += 1
        fresh = False
    return x, rnorm, iters
