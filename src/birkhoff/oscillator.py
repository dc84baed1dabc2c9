"""Built-in linear damped oscillator r'' + nu r' + r = 0.

With p = r' the first-order system r' = p, p' = -nu p - r admits the
conservative embedding

    K(t) = e^(nu t) [[0, -1], [1, 0]],
    F(z, t) = (e^(nu t) p / 2, -e^(nu t) r / 2),
    B(z, t) = e^(nu t) (r^2 + nu r p + p^2) / 2,

which satisfies K dz/dt = grad B + dF/dt for every nu >= 0.  (The cross
term nu*r*p in B is forced by that identity; dropping nu from it is only
consistent at nu = 1.)  This module supplies the system, the matching
transform, closed-form transition matrices of the order-1/order-2
generating schemes, the center-difference comparison scheme, and the
exact underdamped solution.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import BirkhoffSystem
from .transform import AlphaTransform, scaled_canonical_alpha

Array = np.ndarray


def _damping(nu: float) -> float:
    """``nu`` as a float; ValueError unless it is finite and non-negative."""
    # written so that a NaN nu fails too
    if not 0.0 <= nu < np.inf:
        raise ValueError(f"damping coefficient must be finite and non-negative, got {nu!r}")
    return float(nu)


def _finite_matrix(build):
    """``build(nu, tau)``, with ValueError unless its inputs and its matrix are finite.

    A finite tau can still overflow (tau * tau for a huge tau, e^(-nu tau)
    for a large negative one) or zero a divisor (euler_center at nu = 2,
    tau = -2); the matrix it builds is then not finite.
    """

    @functools.wraps(build)
    def checked(nu: float, tau: float) -> Array:
        # written so that a NaN fails too
        if not (abs(nu) < np.inf and abs(tau) < np.inf):
            raise ValueError(f"need finite nu and tau, got nu={nu!r}, tau={tau!r}")
        with np.errstate(all="ignore"):
            # numpy scalars, so that a zero divisor gives inf or NaN too
            matrix = build(np.float64(nu), np.float64(tau))
        if not np.isfinite(matrix).all():
            raise ValueError(f"{build.__name__} is not finite at nu={nu!r}, tau={tau!r}")
        return matrix

    return checked


def oscillator_system(nu: float) -> BirkhoffSystem:
    """Conservative embedding of the damped oscillator, all data analytic."""
    nu = _damping(nu)

    def scale(t):
        return np.exp(nu * t)

    def K(z, t):
        s = scale(t)
        return np.array([[0.0, -s], [s, 0.0]])

    def F(z, t):
        s = scale(t)
        return np.array([0.5 * s * z[1], -0.5 * s * z[0]])

    def B(z, t):
        r, p = z
        return 0.5 * scale(t) * (r * r + nu * r * p + p * p)

    def D(z, t):
        r, p = z
        s = scale(t)
        return np.array([-s * (nu * p + r), -s * p])

    return BirkhoffSystem(n=1, F=F, B=B, K=K, D=D)


def oscillator_alpha(nu: float) -> AlphaTransform:
    """The matching midpoint-type transform with scaling e^(nu t)."""
    nu = _damping(nu)
    return scaled_canonical_alpha(
        lambda t: np.exp(nu * t), 1, lam_dot=lambda t: nu * np.exp(nu * t)
    )


@_finite_matrix
def scheme_first_order(nu: float, tau: float) -> Array:
    """Transition matrix of the order-1 generating scheme."""
    d = 4.0 + tau * tau
    e = np.exp(-nu * tau)
    return np.array(
        [
            [(4.0 - tau * tau) / d, 4.0 * tau / d],
            [-4.0 * tau * e / d, (4.0 - tau * tau) * e / d],
        ]
    )


@_finite_matrix
def scheme_second_order(nu: float, tau: float) -> Array:
    """Transition matrix of the order-2 generating scheme.

    With a = 2 tau - nu tau^2 and b = 2 tau + nu tau^2 the off-diagonal
    magnitudes are 8a (upper) and 8b (lower): the asymmetry is forced by
    the determinant identity (16 - ab)^2 + 64 ab = (16 + ab)^2, which
    makes det equal e^(-nu tau) exactly; a symmetric choice breaks the
    structure-preservation identity for every nu > 0.
    """
    a = 2.0 * tau - nu * tau * tau
    b = 2.0 * tau + nu * tau * tau
    ab = a * b
    denom = 16.0 + ab
    if abs(denom) < 1e-14:
        raise ValueError("degenerate step size: 16 + ab vanished")
    e = np.exp(-nu * tau)
    return np.array(
        [
            [(16.0 - ab) / denom, 8.0 * a / denom],
            [-8.0 * b * e / denom, (16.0 - ab) * e / denom],
        ]
    )


@_finite_matrix
def euler_center(nu: float, tau: float) -> Array:
    """Center-difference (midpoint) scheme applied to the raw first-order form.

    Structure-preserving only at nu = 0; the comparison baseline.
    """
    d = tau * tau + 2.0 * nu * tau + 4.0
    return np.array(
        [
            [(-tau * tau + 2.0 * nu * tau + 4.0) / d, 4.0 * tau / d],
            [-4.0 * tau / d, (-tau * tau - 2.0 * nu * tau + 4.0) / d],
        ]
    )


def exact_solution(nu: float, r0: float, p0: float, t: float) -> Array:
    """Exact underdamped solution (r(t), p(t)) from (r0, p0) at time 0.

    Requires 0 <= nu < 2 (oscillatory branch).
    """
    # written so that a NaN nu fails too
    if not 0.0 <= nu < 2.0:
        raise ValueError("exact solution implemented for the underdamped branch 0 <= nu < 2")
    omega = np.sqrt(1.0 - 0.25 * nu * nu)
    c = (p0 + 0.5 * nu * r0) / omega
    decay = np.exp(-0.5 * nu * t)
    cos_t = np.cos(omega * t)
    sin_t = np.sin(omega * t)
    r = decay * (r0 * cos_t + c * sin_t)
    p = decay * ((c * omega - 0.5 * nu * r0) * cos_t - (r0 * omega + 0.5 * nu * c) * sin_t)
    return np.array([r, p])
