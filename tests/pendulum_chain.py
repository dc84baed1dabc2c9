"""The damped pendulum chain shared by the test modules.

q'' + nu q' + sin q + coupling (q_{i-1} + q_{i+1}) = 0 for n angles q,
written as a Birkhoffian system in z = (q, p) with K = e^{nu t} J0,
J0 = [[0, -I], [I, 0]]; the matching transform is
``scaled_canonical_alpha(e^{nu t}, n)``.  ``sheared_chain`` is the
uncoupled two-angle chain through a non-diagonal Darboux matrix P(t), and
``mixing_chain`` the coupled one through a P(t) whose K(t) changes shape.
"""

import numpy as np

from birkhoff import (
    BirkhoffSystem,
    RawFirstOrderSystem,
    darboux_alpha,
    scaled_canonical_alpha,
    velocity,
)

N, NU, COUPLING = 2, 0.3, 0.1


def b_terms(z, n=N, nu=NU, coupling=COUPLING):
    """The four terms of the chain's B / e^{nu t}.

    nu q.p / 2, sum(1 - cos q), p.p / 2 and coupling * sum q_i q_{i+1}.
    """
    q, p = z[:n], z[n:]
    return (
        0.5 * nu * q @ p,
        np.sum(1.0 - np.cos(q)),
        0.5 * p @ p,
        coupling * np.sum(q[:-1] * q[1:]),
    )


def chain_system(n=N, nu=NU, coupling=COUPLING):
    """The chain as a ``BirkhoffSystem`` with analytic K and D, and its transform."""
    j0 = np.zeros((2 * n, 2 * n))
    j0[:n, n:] = -np.eye(n)
    j0[n:, :n] = np.eye(n)

    def neighbours(q):
        out = np.zeros(n)
        out[:-1] += q[1:]
        out[1:] += q[:-1]
        return coupling * out

    def F(z, t):
        return np.exp(nu * t) * np.concatenate([0.5 * z[n:], -0.5 * z[:n]])

    def B(z, t):
        return float(np.exp(nu * t) * sum(b_terms(z, n, nu, coupling)))

    def D(z, t):
        q, p = z[:n], z[n:]
        return -np.exp(nu * t) * np.concatenate([nu * p + np.sin(q) + neighbours(q), p])

    system = BirkhoffSystem(n=n, F=F, B=B, K=lambda z, t: np.exp(nu * t) * j0, D=D)
    alpha = scaled_canonical_alpha(
        lambda t: np.exp(nu * t), n, lam_dot=lambda t: nu * np.exp(nu * t)
    )
    return system, alpha


SHEAR = np.array([[0.4, 0.1], [0.1, -0.2]])


def shear_p(t, nu=NU):
    """The Darboux matrix P(t) = e^{nu t/2} [[I, sin(t) S], [0, I]] of ``sheared_chain``."""
    n = 2
    return np.exp(0.5 * nu * t) * np.block(
        [[np.eye(n), np.sin(t) * SHEAR], [np.zeros((n, n)), np.eye(n)]]
    )


def shear_p_dot(t, nu=NU):
    """The analytic dP/dt of :func:`shear_p`."""
    n = 2
    shear_dot = np.block([[np.zeros((n, n)), np.cos(t) * SHEAR], [np.zeros((n, 2 * n))]])
    return 0.5 * nu * shear_p(t, nu) + np.exp(0.5 * nu * t) * shear_dot


def darboux_chain(p_mat, p_dot, nu=NU, coupling=COUPLING, analytic_p_dot=True):
    """The n = 2 chain built from a Darboux matrix P(t) with derivative ``p_dot``.

    K(t) = P^T J0 P, F = -K(t) z / 2, B = e^{nu t} (|p|^2 / 2 +
    sum(1 - cos q) + nu q.p / 2 + coupling q1 q2) and the analytic
    D = -(grad B - dK/dt z / 2).  Returns the system and
    ``darboux_alpha(P, 2)``, with the analytic dP/dt or, if
    ``analytic_p_dot`` is false, its default central difference.
    """
    n = 2
    j0 = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])

    def K(z, t):
        p = p_mat(t)
        return p.T @ j0 @ p

    def k_dot(t):
        p, pd = p_mat(t), p_dot(t)
        return pd.T @ j0 @ p + p.T @ j0 @ pd

    def B(z, t):
        return float(np.exp(nu * t) * sum(b_terms(z, n, nu, coupling)))

    def grad_b(z, t):
        q, p = z[:n], z[n:]
        neighbours = coupling * q[::-1]
        return np.exp(nu * t) * np.concatenate(
            [np.sin(q) + 0.5 * nu * p + neighbours, p + 0.5 * nu * q]
        )

    def D(z, t):
        return -(grad_b(z, t) - 0.5 * k_dot(t) @ z)

    system = BirkhoffSystem(n=n, F=lambda z, t: -0.5 * K(z, t) @ z, B=B, K=K, D=D)
    return system, darboux_alpha(p_mat, n, p_dot if analytic_p_dot else None)


def sheared_chain(analytic_p_dot=True, nu=NU):
    """The uncoupled n = 2 chain (see :func:`darboux_chain`) from P(t) = ``shear_p(t, nu)``.

    S = ``SHEAR`` is symmetric, so P(t) is symplectic up to its scalar
    factor and K(t) = e^{nu t} J0 keeps one shape.
    """
    return darboux_chain(
        lambda t: shear_p(t, nu), lambda t: shear_p_dot(t, nu), nu, 0.0, analytic_p_dot
    )


# U and V of mixing_p, drawn in this order from default_rng(1)
_MIX_RNG = np.random.default_rng(1)
MIX_U = _MIX_RNG.uniform(-0.5, 0.5, (4, 4))
MIX_V = _MIX_RNG.uniform(-0.3, 0.3, (4, 4))


def mixing_p(t, nu=NU):
    """P(t) = e^{nu t/2} (I + sin(t) U + sin(2t) V / 2) of ``mixing_chain``."""
    return np.exp(0.5 * nu * t) * (np.eye(4) + np.sin(t) * MIX_U + 0.5 * np.sin(2 * t) * MIX_V)


def mixing_p_dot(t, nu=NU):
    """The analytic dP/dt of :func:`mixing_p`."""
    return 0.5 * nu * mixing_p(t, nu) + np.exp(0.5 * nu * t) * (
        np.cos(t) * MIX_U + np.cos(2 * t) * MIX_V
    )


def mixing_chain(nu=NU, coupling=COUPLING):
    """The coupled n = 2 chain (see :func:`darboux_chain`) from P(t) = ``mixing_p(t, nu)``.

    U and V are general matrices, not a symplectic shear, so the
    coordinates mix and K(t) = P^T J0 P changes shape with t, not only
    scale: each scaled to unit Frobenius norm, K(1) is 0.27 from K(0).
    """
    return darboux_chain(lambda t: mixing_p(t, nu), lambda t: mixing_p_dot(t, nu), nu, coupling)


def chain_raw(n=N, nu=NU, coupling=COUPLING):
    """The chain's raw first-order form: its analytic (K, D)."""
    system, _ = chain_system(n, nu, coupling)
    return RawFirstOrderSystem(n, system.K, system.D)


def rk4_state(system, z0, t0, horizon, steps):
    """The state at t0 + horizon by classical RK4 on the phase velocity."""
    h = horizon / steps
    z = np.asarray(z0, dtype=float)
    for k in range(steps):
        t = t0 + k * h
        k1 = velocity(system, z, t)
        k2 = velocity(system, z + 0.5 * h * k1, t + 0.5 * h)
        k3 = velocity(system, z + 0.5 * h * k2, t + 0.5 * h)
        k4 = velocity(system, z + h * k3, t + h)
        z = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z
