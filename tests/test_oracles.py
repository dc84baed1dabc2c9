"""Step-level oracles that need no closed form.

For a Darboux transform, y = P(t) z followed by the canonical midpoint
map, phi^(0) = 0 and d phi^(0)/dw = 0, so the order-1 relation
w_hat = tau phi^(1)(w) reads

    y1 - y0 = tau f((y0 + y1) / 2, t_k),   f(y, t) = P'(t) P(t)^-1 y + P(t) v(P(t)^-1 y, t),

with y0 = P(t_k) z and z_new = P(t_k + tau)^-1 y1: the implicit midpoint
rule in y, with the y-field frozen at t_k.  For an autonomous system
under a time-independent transform the midpoint generating function is
odd in tau, so phi^(2) vanishes, order 2 is order 1, and the step is
symmetric: Phi_{-tau} o Phi_tau = id (Hairer, Lubich and Wanner,
*Geometric Numerical Integration*, II.3 and VI.5).
"""

import numpy as np
import pytest

from birkhoff import (
    GeneratingScheme,
    integrate,
    make_scheme,
    oscillator_alpha,
    oscillator_system,
    step,
    velocity,
)
from pendulum_chain import NU as CHAIN_NU
from pendulum_chain import chain_system, shear_p, shear_p_dot, sheared_chain

NU = 0.5


def oscillator_case():
    return (
        oscillator_system(NU),
        oscillator_alpha(NU),
        lambda t: np.diag([1.0, np.exp(NU * t)]),
        lambda t: np.diag([0.0, NU * np.exp(NU * t)]),
    )


def chain_case():
    return (
        *chain_system(),
        lambda t: np.diag(np.repeat([1.0, np.exp(CHAIN_NU * t)], 2)),
        lambda t: np.diag(np.repeat([0.0, CHAIN_NU * np.exp(CHAIN_NU * t)], 2)),
    )


def sheared_case():
    return (*sheared_chain(), shear_p, shear_p_dot)


def midpoint_step(system, p, p_dot, z, t_k, tau):
    """The implicit midpoint rule in y = P(t) z, by fixed-point iteration."""
    p_k = p(t_k)

    def field(y):
        x = np.linalg.solve(p_k, y)
        return p_dot(t_k) @ x + p_k @ velocity(system, x, t_k)

    y0 = p_k @ z
    y1 = y0 + tau * field(y0)
    for _ in range(200):
        y_next = y0 + tau * field(0.5 * (y0 + y1))
        if np.max(np.abs(y_next - y1)) <= 1e-15 * np.max(np.abs(y_next)):
            break
        y1 = y_next
    return np.linalg.solve(p(t_k + tau), y_next)


def scaled_phi1(scheme, factor):
    """``scheme`` at order 1 with phi^(1) and its Jacobian scaled by ``factor``."""
    c0, c1 = scheme.coeffs
    j0, j1 = scheme.coeff_jacobians
    return GeneratingScheme(
        scheme.alpha,
        (c0, lambda w: factor * c1(w)),
        (j0, lambda w: factor * j1(w)),
        lambda t0: scaled_phi1(scheme.rebase(t0), factor),
    )


def worst_midpoint_deviation(system, scheme, p, p_dot, rng, draws=10):
    """Largest relative difference of order-1 steps from the midpoint rule in y."""
    worst = 0.0
    for _ in range(draws):
        z = rng.uniform(-1, 1, system.dim)
        t_k, tau = rng.uniform(0, 2), rng.uniform(0.02, 0.2)
        got = step(system, scheme, z, t_k, tau)
        want = midpoint_step(system, p, p_dot, z, t_k, tau)
        worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return worst


@pytest.mark.parametrize(
    "case", [oscillator_case, chain_case, sheared_case], ids=["oscillator", "chain", "sheared-chain"]
)
def test_order_one_step_is_the_darboux_midpoint_rule(case, rng):
    system, alpha, p, p_dot = case()
    scheme = make_scheme(system, alpha, 0.0, 1)
    assert worst_midpoint_deviation(system, scheme, p, p_dot, rng) <= 1e-11
    # the oracle sees phi^(1) off by one part in a million
    perturbed = scaled_phi1(scheme, 1.0 + 1e-6)
    assert worst_midpoint_deviation(system, perturbed, p, p_dot, rng, draws=3) > 1e-11


def autonomous_oscillator():
    return oscillator_system(0.0), oscillator_alpha(0.0), np.array([0.7, -1.3])


def autonomous_chain():
    return (*chain_system(nu=0.0), np.array([0.5, -0.4, 0.3, 0.2]))


AUTONOMOUS = pytest.mark.parametrize(
    "case", [autonomous_oscillator, autonomous_chain], ids=["oscillator", "chain"]
)


@AUTONOMOUS
def test_autonomous_second_coefficient_vanishes(case, rng):
    system, alpha, _ = case()
    phi2 = make_scheme(system, alpha, 0.3, 2).coeffs[2]
    # one central difference along the flow; summing a gradient-slot and a
    # time-slot difference with phi1's Hessian times g left about 4e-10
    for _ in range(3):
        assert np.max(np.abs(phi2(rng.uniform(-1, 1, system.dim)))) <= 1e-12


@AUTONOMOUS
def test_autonomous_order_two_states_are_the_order_one_states(case):
    system, alpha, z0 = case()
    trajs = [integrate(system, make_scheme(system, alpha, 0.0, m), z0, 0.0, 0.1, 3) for m in (1, 2)]
    for s1, s2 in zip(*(traj.states for traj in trajs)):
        assert np.max(np.abs(s2 - s1)) <= 1e-9


@AUTONOMOUS
@pytest.mark.parametrize("order", [1, 2])
def test_autonomous_step_is_symmetric(case, order):
    system, alpha, z0 = case()
    scheme = make_scheme(system, alpha, 0.2, order)
    there = step(system, scheme, z0, 0.2, 0.1)
    back = step(system, scheme, there, 0.3, -0.1)
    # phi^(2) assembled from three pieces left about 4e-10 of noise on the
    # chain, which entered each step as tau^2 phi^(2): a 2.9e-12 round trip
    assert np.max(np.abs(back - z0)) <= 1e-12
