"""The damped pendulum chain shared by the test modules.

q'' + nu q' + sin q + coupling (q_{i-1} + q_{i+1}) = 0 for n angles q,
written as a Birkhoffian system in z = (q, p) with K = e^{nu t} J0,
J0 = [[0, -I], [I, 0]]; the matching transform is
``scaled_canonical_alpha(e^{nu t}, n)``.  ``sheared_chain`` is the
uncoupled two-angle chain through a non-diagonal Darboux matrix P(t).
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


def sheared_chain(analytic_p_dot=True, nu=NU):
    """The uncoupled n = 2 chain built from P(t) = ``shear_p(t, nu)``.

    S = ``SHEAR`` is symmetric, so K(t) = P^T J0 P; F = -K(t) z / 2,
    B = e^{nu t} (|p|^2 / 2 + sum(1 - cos q) + nu q.p / 2) and the analytic
    D = -(grad B - dK/dt z / 2).  Returns the system and
    ``darboux_alpha(P, 2)``, with the analytic dP/dt or, if
    ``analytic_p_dot`` is false, its default central difference.
    """
    n = 2
    j0 = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])

    def p_mat(t):
        return shear_p(t, nu)

    def p_dot(t):
        return shear_p_dot(t, nu)

    def K(z, t):
        p = p_mat(t)
        return p.T @ j0 @ p

    def k_dot(t):
        p, pd = p_mat(t), p_dot(t)
        return pd.T @ j0 @ p + p.T @ j0 @ pd

    def B(z, t):
        return float(np.exp(nu * t) * sum(b_terms(z, n, nu, 0.0)))

    def grad_b(z, t):
        q, p = z[:n], z[n:]
        return np.exp(nu * t) * np.concatenate([np.sin(q) + 0.5 * nu * p, p + 0.5 * nu * q])

    def D(z, t):
        return -(grad_b(z, t) - 0.5 * k_dot(t) @ z)

    system = BirkhoffSystem(n=n, F=lambda z, t: -0.5 * K(z, t) @ z, B=B, K=K, D=D)
    return system, darboux_alpha(p_mat, n, p_dot if analytic_p_dot else None)


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
