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
    h = _step(t, base)
    return _central(np.asarray(f(t + h), dtype=float), np.asarray(f(t - h), dtype=float), h)


def stencil(x, base=FD_STEP):
    """(points, h): every point that :func:`jacobian` evaluates f at, as one (2m, m) stack.

    Rows 2j and 2j + 1 are x + h_j e_j and x - h_j e_j, in the order
    :func:`jacobian` calls f; ``h`` holds the m steps.  A caller
    evaluates the rows as one batch and passes the stacked values, with
    ``h``, to :func:`stencil_quotient`.
    """
    x = np.asarray(x, dtype=float)
    h = np.array([_step(v, base) for v in x])
    j = np.arange(x.size)
    points = np.repeat(x[None], 2 * x.size, axis=0)
    points[2 * j, j] = x + h
    points[2 * j + 1, j] = x - h
    return points, h


def stencil_quotient(values, h):
    """The partials from the values at :func:`stencil`'s rows, stacked on a last axis.

    ``values[k]`` is f at row k; the result is what :func:`jacobian`
    returns for f, bit for bit.
    """
    values = np.asarray(values, dtype=float)
    steps = h.reshape(h.shape + (1,) * (values.ndim - 1))
    return np.moveaxis(_central(values[0::2], values[1::2], steps), 0, -1)


def _step(x, base):
    """The difference step base * max(1, |x|) for a coordinate (or time) x."""
    return base * max(1.0, abs(float(x)))


def _central(plus, minus, h):
    """The central quotient (f(x + h) - f(x - h)) / (2 h) of the two values."""
    return (plus - minus) / (2.0 * h)

