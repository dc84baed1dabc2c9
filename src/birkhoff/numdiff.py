"""Central finite differences used throughout the package.

All first derivatives of analytic callables use the step
``eps**(1/3) * max(1, |x|)``, the roundoff/truncation balance point for
second-order central differences.  Derivatives of quantities whose
evaluation is itself noisy (iteratively solved maps, once-differenced
quantities) use the larger ``eps**(1/4)`` step, and derivatives of
doubly-differenced quantities use ``eps**(1/6)``: each nesting raises the
evaluation-noise floor the step has to clear.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)
FD_STEP = EPS ** (1.0 / 3.0)
SOLVER_FD_STEP = EPS ** 0.25
NESTED_FD_STEP = EPS ** (1.0 / 6.0)


def partial(f, x, i, base=FD_STEP):
    """d f / d x_i of a callable of one vector argument: :func:`time_derivative` along x_i."""
    x = np.asarray(x, dtype=float)

    def along(s):
        y = x.copy()
        y[i] = s
        return f(y)

    return time_derivative(along, x[i], base)


def jacobian(f, x, base=FD_STEP):
    """Partials d f / d x_j of a callable of one vector argument, stacked on a last axis j.

    J[i, j] = d f_i / d x_j for a vector-valued f; the gradient of a scalar
    one, and J[i, k, j] = d f_ik / d x_j of a matrix-valued one.
    """
    x = np.asarray(x, dtype=float)
    return np.stack([partial(f, x, j, base) for j in range(x.size)], axis=-1)


gradient = jacobian


def time_derivative(f, t, base=FD_STEP):
    """Derivative of a (scalar, vector or matrix valued) callable of a scalar."""
    h = base * max(1.0, abs(float(t)))
    return (np.asarray(f(t + h), dtype=float) - np.asarray(f(t - h), dtype=float)) / (2.0 * h)

