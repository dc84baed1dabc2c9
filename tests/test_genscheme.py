import dataclasses
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff import (
    AlphaTransform,
    BirkhoffError,
    BirkhoffSystem,
    EvaluationError,
    GeneratingScheme,
    NewtonError,
    TransversalityError,
    a_functional,
    alpha_verify,
    coefficients,
    convergence_order,
    exact_solution,
    hj_rhs,
    make_scheme,
    numdiff,
    oscillator_alpha,
    oscillator_system,
    run,
    scaled_canonical_alpha,
    sigma,
    step,
    step_jacobian,
    symplectic_residual,
)
from birkhoff import genscheme
from birkhoff.diagnostics import fit_slope
from birkhoff.core import _content_cached
from birkhoff.genscheme import MEMO_SIZE
from birkhoff.newton import newton_solve
from pendulum_chain import chain_system, mixing_chain, sheared_chain

NU = 0.5


def closed_phi1(nu, t0, w):
    return np.array([-np.exp(nu * t0) * w[0], -np.exp(-nu * t0) * w[1]])


def closed_phi2(nu, t0, w):
    return 0.5 * nu * np.array([-np.exp(nu * t0) * w[0], np.exp(-nu * t0) * w[1]])


def exact_flow_matrix(nu, tau):
    return np.column_stack(
        [exact_solution(nu, 1.0, 0.0, tau), exact_solution(nu, 0.0, 1.0, tau)]
    )


def identity_coefficient(sys, alpha, w, t0):
    """The order-zero coefficient phi_w^(0)(w) of the generic recursion."""
    coeffs, _ = coefficients(sys, alpha, t0, 1)
    return coeffs[0](w)


def scaled_free_system(nu, n):
    """K = e^{nu t} [[0, -I], [I, 0]] from F = e^{nu t} (p/2, -q/2), with B = 0."""
    return BirkhoffSystem(
        n=n,
        F=lambda z, t: np.exp(nu * t) * np.concatenate([0.5 * z[n:], -0.5 * z[:n]]),
        B=lambda z, t: 0.0,
    )


def sheared_alpha(base, grad, hess):
    """``base`` followed by the symplectic shear w_hat <- w_hat + grad(w).

    ``grad`` is the gradient of a scalar h and ``hess`` its symmetric
    Jacobian.  The identity map's gradient becomes grad(w), so phi^(0) is
    no longer zero; a non-quadratic h also makes d phi^(0)/dw = hess(w)
    move with w.  Being time independent, the shear adds h to the
    generating function and leaves phi^(1), phi^(2) and the truncated
    step relation unchanged.
    """

    def forward(z_new, z_old, t, t0):
        w_hat, w = base.forward(z_new, z_old, t, t0)
        return w_hat + grad(w), w

    def inverse(w_hat, w, t, t0):
        return base.inverse(w_hat - grad(w), w, t, t0)

    def blocks(z_new, z_old, t, t0):
        a, b, c, d = base.blocks(z_new, z_old, t, t0)
        h = hess(base.forward(z_new, z_old, t, t0)[1])
        return a + h @ c, b + h @ d, c, d

    def inverse_blocks(w_hat, w, t, t0):
        h = hess(w)
        a, b, c, d = base.inverse_blocks(w_hat - grad(w), w, t, t0)
        return a, b - a @ h, c, d - c @ h

    def time_partials(z_new, z_old, t, t0):
        d1, d2 = base.time_partials(z_new, z_old, t, t0)
        return d1 + hess(base.forward(z_new, z_old, t, t0)[1]) @ d2, d2

    return AlphaTransform(base.n, forward, inverse, blocks, inverse_blocks, time_partials)


def count_identity_updates(monkeypatch):
    """Updates taken by each identity solve from now on (wraps ``genscheme.newton_solve``)."""
    updates = []

    def counted(*args, **kwargs):
        out = newton_solve(*args, **kwargs)
        updates.append(out[2])
        return out

    monkeypatch.setattr(genscheme, "newton_solve", counted)
    return updates


SHEAR_G = np.array([[0.3, -0.2], [-0.2, 0.5]])
# (grad h, its Jacobian) for h = w^T G w / 2, and for a non-quadratic h of any
# dimension, whose d phi^(0)/dw moves with w
LINEAR_SHEAR = (lambda w: SHEAR_G @ w, lambda w: SHEAR_G)
BENT_SHEAR = (
    lambda w: 0.2 * np.sin(w) + 0.1 * w**2,
    lambda w: np.diag(0.2 * np.cos(w) + 0.2 * w),
)


class TestIdentityCoefficient:
    def test_oscillator_transform_cancels(self, osc_system, osc_alpha, rng):
        for _ in range(10):
            w = rng.uniform(-2, 2, 2)
            out = identity_coefficient(osc_system, osc_alpha, w, rng.uniform(0, 2))
            assert np.max(np.abs(out)) <= 1e-12

    def test_unscaled_transform_cancels(self, rng):
        alpha = scaled_canonical_alpha(lambda t: 1.0, 1, lam_dot=lambda t: 0.0)
        out = identity_coefficient(scaled_free_system(0.0, 1), alpha, rng.uniform(-2, 2, 2), 0.0)
        assert np.max(np.abs(out)) <= 1e-12

    def test_two_degree_of_freedom_cancellation(self, rng):
        alpha = scaled_canonical_alpha(
            lambda t: np.exp(0.5 * t), 2, lam_dot=lambda t: 0.5 * np.exp(0.5 * t)
        )
        out = identity_coefficient(scaled_free_system(0.5, 2), alpha, rng.uniform(-2, 2, 4), 0.7)
        assert np.max(np.abs(out)) <= 1e-12

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (oscillator_system(NU), oscillator_alpha(NU), np.array([1.0, 0.3])),
            lambda: (*chain_system(), np.array([0.3, -0.2, 0.1, 0.4])),
            lambda: (*sheared_chain(), np.array([0.3, -0.2, 0.1, 0.4])),
        ],
        ids=["oscillator", "chain", "sheared-chain"],
    )
    def test_darboux_identity_point_is_the_start(self, make, monkeypatch):
        # the inverse of a Darboux transform sends (0, w) to an identity
        # pair, so no identity solve takes an update; solving alpha_2(z, z)
        # = w for z instead took one per w
        system, alpha, z0 = make()
        updates = count_identity_updates(monkeypatch)
        scheme = make_scheme(system, alpha, 0.2, 2)
        step_jacobian(system, scheme, z0, 0.2, 0.1)
        assert updates and set(updates) == {0}

    def test_sheared_transform_has_a_nonzero_identity_point(self, osc_system, rng, monkeypatch):
        alpha = sheared_alpha(oscillator_alpha(NU), *LINEAR_SHEAR)
        for _ in range(5):
            z_new, z_old = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            assert alpha_verify(alpha, osc_system, z_new, z_old, 0.3, 0.2) <= 1e-12
        updates = count_identity_updates(monkeypatch)
        coeffs, jacs = coefficients(osc_system, alpha, 0.4, 1)
        for _ in range(10):
            w = rng.uniform(-2, 2, 2)
            assert np.max(np.abs(coeffs[0](w) - SHEAR_G @ w)) <= 1e-12
            assert np.max(np.abs(jacs[0](w) - SHEAR_G)) <= 1e-12
        assert min(updates) >= 1

    @pytest.mark.parametrize("order", [1, 2])
    def test_sheared_transform_gives_a_structure_preserving_scheme(self, osc_system, order):
        alpha = sheared_alpha(oscillator_alpha(NU), *LINEAR_SHEAR)
        scheme = make_scheme(osc_system, alpha, 0.0, order)

        def factory(tau):
            return lambda z, t: step(osc_system, scheme, z, t, tau)

        def certify(z, t_k, z_next):
            jac = step_jacobian(osc_system, scheme, z, t_k, 0.1)
            return symplectic_residual(osc_system, jac, z, t_k, z_next, t_k + 0.1)

        traj = run(factory(0.1), np.array([1.0, 0.0]), 0.0, 0.1, 5, certify=certify)
        assert max(traj.residuals) <= 1e-10
        report = convergence_order(
            osc_system, factory, lambda t: exact_solution(NU, 1.0, 0.0, t),
            np.array([1.0, 0.0]), 0.0, 1.0, [0.1, 0.05, 0.025],
        )
        assert abs(report.slope - order) <= 0.2

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: (oscillator_system(NU), oscillator_alpha(NU)),
            lambda: chain_system(2),
            mixing_chain,
        ],
        ids=["oscillator", "chain", "mixing-chain"],
    )
    def test_bent_shear_leaves_steps_and_step_jacobians_unchanged(self, make, order):
        # a time-independent shear leaves phi1, phi2 and the truncated
        # relation unchanged; the bent shear's S = hess h(w) moves with w,
        # so phi2 needs its S'[g] g term (without it phi2 is 2e-2 off and
        # the states part by 4.4e-4 in 10 steps).  Measured: phi2 <= 4e-11,
        # states <= 1.3e-12, step Jacobians <= 2.3e-12; on the mixing
        # chain phi2 <= 3.3e-10, states <= 4.3e-12, step Jacobians <= 5.8e-12
        system, alpha = make()
        sheared = sheared_alpha(alpha, *BENT_SHEAR)
        rng = np.random.default_rng(3)
        t0, tau = 0.3, 0.1
        schemes = [make_scheme(system, a, t0, order) for a in (alpha, sheared)]
        for _ in range(3):
            z_new, z_old = rng.uniform(-1, 1, system.dim), rng.uniform(-1, 1, system.dim)
            assert alpha_verify(sheared, system, z_new, z_old, 0.3, 0.2) <= 1e-12
            w = rng.uniform(-1, 1, system.dim)
            for plain_k, sheared_k in zip(*(sch.coeffs[1:] for sch in schemes)):
                assert np.max(np.abs(plain_k(w) - sheared_k(w))) <= 1e-9
        z0 = np.linspace(0.3, -0.6, system.dim)
        plain, bent = (
            run(lambda z, t, sch=sch: step(system, sch, z, t, tau), z0, t0, tau, 10).states
            for sch in schemes
        )
        assert max(np.max(np.abs(x - y)) for x, y in zip(plain, bent)) <= 1e-11
        for k, z in enumerate(plain[:-1]):
            jacs = [step_jacobian(system, sch, z, t0 + k * tau, tau) for sch in schemes]
            assert np.max(np.abs(jacs[0] - jacs[1])) <= 1e-11


class TestAFunctional:
    def test_closed_form_at_the_expansion_point(self, osc_system, osc_alpha, rng):
        # with zero gradient u is the order-one coefficient (the functional
        # at a zero Jacobian), and g the rate of w written out by hand
        for _ in range(10):
            w = rng.uniform(-2, 2, 2)
            t0 = rng.uniform(0, 2)
            u, g = a_functional(osc_system, osc_alpha, np.zeros(2), w, t0, t0)
            assert np.max(np.abs(u - closed_phi1(NU, t0, w))) <= 1e-12
            rate = 0.5 * np.array([-np.exp(-NU * t0) * w[1], np.exp(NU * t0) * w[0]])
            assert np.max(np.abs(g - rate)) <= 1e-12

    def test_vanishes_at_equilibrium_with_static_transform(self):
        sys0 = oscillator_system(0.0)
        alpha0 = oscillator_alpha(0.0)
        w_hat, w = alpha0.forward(np.zeros(2), np.zeros(2), 0.4, 0.4)
        u, g = a_functional(sys0, alpha0, w_hat, w, 0.4, 0.4)
        np.testing.assert_allclose(u, np.zeros(2), atol=1e-14)
        np.testing.assert_allclose(g, np.zeros(2), atol=1e-14)

    def test_matches_direct_rate_difference(self, osc_system, osc_alpha, rng):
        # independent oracle: rates of the transformed flow written out by
        # hand for the scaled pairing, evaluated pointwise in (w_hat, w);
        # the functional at any Jacobian S is u - S g = rate_hat - S rate
        for _ in range(20):
            w_hat = rng.uniform(-2, 2, 2)
            w = rng.uniform(-2, 2, 2)
            t, t0 = rng.uniform(0, 2, 2)
            e_p, e_m = np.exp(NU * t), np.exp(-NU * t)
            rate_hat = np.array(
                [
                    -0.5 * e_p * w_hat[1] - e_p * w[0],
                    0.5 * e_m * w_hat[0] - e_m * w[1],
                ]
            )
            rate = np.array(
                [
                    0.25 * e_m * w_hat[0] - 0.5 * e_m * w[1],
                    0.25 * e_p * w_hat[1] + 0.5 * e_p * w[0],
                ]
            )
            u, g = a_functional(osc_system, osc_alpha, w_hat, w, t, t0)
            assert np.max(np.abs(u - rate_hat)) <= 1e-8
            assert np.max(np.abs(g - rate)) <= 1e-8


class TestCoefficients:
    @pytest.mark.parametrize("t0", [0.0, 1.3])
    def test_first_order_coefficient_closed_form(self, osc_system, osc_alpha, rng, t0):
        coeffs, _ = coefficients(osc_system, osc_alpha, t0, 1)
        for _ in range(20):
            w = rng.uniform(-2, 2, 2)
            assert np.max(np.abs(coeffs[0](w))) <= 1e-12
            assert np.max(np.abs(coeffs[1](w) - closed_phi1(NU, t0, w))) <= 1e-8

    @pytest.mark.parametrize("t0", [0.0, 1.3])
    def test_second_order_coefficient_closed_form(self, osc_system, osc_alpha, rng, t0):
        coeffs, _ = coefficients(osc_system, osc_alpha, t0, 2)
        for _ in range(20):
            w = rng.uniform(-2, 2, 2)
            assert np.max(np.abs(coeffs[2](w) - closed_phi2(NU, t0, w))) <= 1e-8

    @pytest.mark.parametrize("t0", [0.0, 0.7])
    def test_shear_leaves_the_higher_coefficients_unchanged(self, osc_system, osc_alpha, rng, t0):
        # the shear adds the time-independent w^T G w / 2 to the generating
        # function, so phi1 and phi2 stay those of the plain transform; its
        # d phi0/dw = G is the one nonzero S slot, where d phi0/dw = 0 on
        # every Darboux transform would hide a sign error in the S g term
        plain, _ = coefficients(osc_system, osc_alpha, t0, 2)
        sheared, _ = coefficients(osc_system, sheared_alpha(osc_alpha, *LINEAR_SHEAR), t0, 2)
        for _ in range(5):
            w = rng.uniform(-2, 2, 2)
            assert np.max(np.abs(sheared[1](w) - plain[1](w))) <= 1e-13
            assert np.max(np.abs(sheared[2](w) - plain[2](w))) <= 1e-9

    def test_undamped_second_coefficient_vanishes(self, rng):
        sys0 = oscillator_system(0.0)
        coeffs, _ = coefficients(sys0, oscillator_alpha(0.0), 0.0, 2)
        for _ in range(10):
            assert np.max(np.abs(coeffs[2](rng.uniform(-2, 2, 2)))) <= 1e-10

    def test_coefficient_jacobians_are_symmetric(self, osc_system, osc_alpha, rng):
        # each coefficient is a gradient, so its Jacobian must be symmetric
        _, jacs = coefficients(osc_system, osc_alpha, 0.4, 2)
        for _ in range(100):
            w = rng.uniform(-2, 2, 2)
            for jac_fn in jacs:
                jac = jac_fn(w)
                assert np.max(np.abs(jac - jac.T)) <= 1e-8

    def test_singular_c_plus_d_at_the_identity_point_is_a_lost_transversality(self, osc_system):
        # the inverse (w_hat, w) -> (w, w) sends every pair to an identity
        # pair, so phi0(0) = 0 takes no Newton update, but its blocks
        # (0, I, 0, I) give A' - C' = 0 and leave d phi0/dw undefined;
        # numpy's LinAlgError used to escape run without a step index
        eye, zero = np.eye(2), np.zeros((2, 2))
        alpha = AlphaTransform(
            n=1,
            forward=lambda zh, z, t, t0: (np.array(zh, dtype=float), np.array(z, dtype=float)),
            inverse=lambda wh, w, t, t0: (np.array(w, dtype=float), np.array(w, dtype=float)),
            blocks=lambda zh, z, t, t0: (eye, zero, zero, eye),
            inverse_blocks=lambda wh, w, t, t0: (zero, eye, zero, eye),
            time_partials=lambda zh, z, t, t0: (np.zeros(2), np.zeros(2)),
        )
        scheme = make_scheme(osc_system, alpha, 0.0, 1)
        with pytest.raises(TransversalityError, match="A' - C' singular"):
            scheme.coeff_jacobians[0](np.zeros(2))
        with pytest.raises(TransversalityError) as info:
            run(lambda z, t: step(osc_system, scheme, z, t, 0.1), np.zeros(2), 0.0, 0.1, 2)
        assert info.value.step_index == 0

    def test_identity_point_failure_is_not_the_step_failure(self, osc_system, osc_alpha):
        # an inverse that, at t = t0, always lands one off the diagonal:
        # the identity solve cannot converge, and its iterate w_hat is no
        # state, so the error names w and t0 rather than a failed step
        def inverse(w_hat, w, t, t0):
            if t != t0:
                return osc_alpha.inverse(w_hat, w, t, t0)
            return np.asarray(w, dtype=float) + 1.0, np.asarray(w, dtype=float)

        alpha = dataclasses.replace(osc_alpha, inverse=inverse)
        scheme = make_scheme(osc_system, alpha, 0.0, 1)
        with pytest.raises(EvaluationError, match=r"no identity point at w=\[.*\], t0=0.0") as info:
            run(lambda z, t: step(osc_system, scheme, z, t, 0.1), np.ones(2), 0.0, 0.1, 2)
        assert info.value.step_index == 0
        assert isinstance(info.value.__cause__, NewtonError)

    def test_singular_a_minus_c_at_the_identity_solve_start_is_a_lost_transversality(
        self, osc_system, osc_alpha
    ):
        # at t = t0 the inverse misses the diagonal by 0.1 at w_hat = 0, so
        # the identity solve needs an update, and its matrix A' - C' =
        # diag(1, 0) is singular there; numpy's LinAlgError used to leave as
        # an EvaluationError chained to a NewtonError
        eye, mask = np.eye(2), np.diag([1.0, 0.0])

        def inverse(w_hat, w, t, t0):
            if t != t0:
                return osc_alpha.inverse(w_hat, w, t, t0)
            w = np.asarray(w, dtype=float)
            return w + mask @ w_hat + 0.1, w

        def inverse_blocks(w_hat, w, t, t0):
            if t != t0:
                return osc_alpha.inverse_blocks(w_hat, w, t, t0)
            return mask, eye, np.zeros((2, 2)), eye

        alpha = dataclasses.replace(osc_alpha, inverse=inverse, inverse_blocks=inverse_blocks)
        scheme = make_scheme(osc_system, alpha, 0.3, 1)
        with pytest.raises(TransversalityError, match="A' - C' singular") as info:
            run(lambda z, t: step(osc_system, scheme, z, t, 0.1), np.ones(2), 0.3, 0.1, 2)
        assert info.value.det == 0.0
        assert info.value.step_index == 0

    def test_singular_a_minus_c_at_a_later_identity_iterate_is_a_lost_transversality(
        self, osc_system, osc_alpha
    ):
        # A' - C' is I at the start w_hat = 0 and diag(1, 0) anywhere else;
        # the residual 0.1 + w_hat / 2 only halves per update with I, short
        # of the 4x cut, so after two updates the solve refreshes its matrix
        # at an iterate where A' - C' is singular
        eye, mask = np.eye(2), np.diag([1.0, 0.0])

        def inverse(w_hat, w, t, t0):
            if t != t0:
                return osc_alpha.inverse(w_hat, w, t, t0)
            w = np.asarray(w, dtype=float)
            return w + 0.5 * np.asarray(w_hat, dtype=float) + 0.1, w

        def inverse_blocks(w_hat, w, t, t0):
            if t != t0:
                return osc_alpha.inverse_blocks(w_hat, w, t, t0)
            return (eye if not np.any(w_hat) else mask), eye, np.zeros((2, 2)), eye

        alpha = dataclasses.replace(osc_alpha, inverse=inverse, inverse_blocks=inverse_blocks)
        scheme = make_scheme(osc_system, alpha, 0.3, 1)
        with pytest.raises(TransversalityError, match="A' - C' singular") as info:
            run(lambda z, t: step(osc_system, scheme, z, t, 0.1), np.ones(2), 0.3, 0.1, 2)
        assert info.value.det == 0.0
        assert info.value.step_index == 0

    @pytest.mark.parametrize("order", [1.9, 2.5, True, "2"], ids=repr)
    def test_non_integral_order_rejected(self, osc_system, osc_alpha, order):
        # 1.9 and True used to build order 1, 2.5 order 2
        with pytest.raises(ValueError, match="order must be a positive integer"):
            make_scheme(osc_system, osc_alpha, 0.0, order)

    def test_orders_outside_the_cap_rejected(self, osc_system, osc_alpha):
        with pytest.raises(ValueError, match="orders 1..2, got 3"):
            coefficients(osc_system, osc_alpha, 0.0, 3)
        with pytest.raises(ValueError, match="order must be a positive integer, got 0"):
            coefficients(osc_system, osc_alpha, 0.0, 0)

    @pytest.mark.parametrize("order", [0, 3, 2.5, True, "2"], ids=repr)
    @pytest.mark.parametrize("build", [coefficients, make_scheme], ids=lambda f: f.__name__)
    def test_bad_order_is_a_usage_error_raised_before_any_evaluation(
        self, osc_system, osc_alpha, order, build
    ):
        # an order outside 1..2 used to raise a BirkhoffError, which the CLI
        # reports as a numerical failure rather than a usage error
        calls = []

        def counted(name, fn):
            def wrapped(z, t):
                calls.append(name)
                return fn(z, t)

            return wrapped

        sys0 = dataclasses.replace(
            osc_system, K=counted("K", osc_system.k_at), D=counted("D", osc_system.d_at)
        )
        with pytest.raises(ValueError) as info:
            build(sys0, osc_alpha, 0.0, order)
        assert not isinstance(info.value, BirkhoffError)
        assert calls == []

    def test_transform_of_another_dimension_rejected(self):
        # a 2-dof system with the 1-dof oscillator transform; the first
        # step would fail inside numpy on an array broadcast
        with pytest.raises(ValueError, match="n = 1 .* n = 2"):
            make_scheme(chain_system(2)[0], oscillator_alpha(0.3), 0.0, 1)

    @pytest.mark.parametrize(
        "n_coeffs, n_jacs",
        [(2, 1), (1, 2), (0, 0), (1, 1)],
        ids=["short-jacs", "short-coeffs", "empty", "order-0"],
    )
    def test_coefficient_count_validated(self, n_coeffs, n_jacs):
        # the order is len(coeffs) - 1 >= 1, so a scheme needs at least two
        # coefficients and exactly one Jacobian per coefficient
        coeffs, jacs = (lambda w: w,) * n_coeffs, (lambda w: np.eye(2),) * n_jacs
        with pytest.raises(ValueError, match=f"got {n_coeffs} and {n_jacs}"):
            GeneratingScheme(oscillator_alpha(NU), coeffs, jacs, lambda t0: None)

    @pytest.mark.parametrize(
        "build",
        [
            lambda sys, alpha: BirkhoffSystem(1, sys.F, sys.B, grad_b=lambda z, t: z),
            lambda sys, alpha: BirkhoffSystem(1, sys.F, sys.B, df_dt=lambda z, t: z),
            lambda sys, alpha: GeneratingScheme(alpha, *coefficients(sys, alpha, 0.0, 1)),
        ],
        ids=["grad_b", "df_dt", "scheme-without-rebase"],
    )
    def test_restated_inputs_are_not_accepted(self, osc_system, osc_alpha, build):
        # D is the one source of the right-hand side, and every scheme
        # carries the factory that re-expands it
        with pytest.raises(TypeError):
            build(osc_system, osc_alpha)


class TestMemoized:
    def test_cached_coefficients_are_read_only(self, osc_system, osc_alpha):
        coeffs, jacs = coefficients(osc_system, osc_alpha, 0.2, 2)
        w = np.array([0.3, -0.8])
        # the coefficients and phi0's Jacobian are memoized; the differenced
        # Jacobians of phi1 and phi2 are built afresh on each call
        for fn in coeffs + jacs[:1]:
            before = fn(w).copy()
            with pytest.raises(ValueError):
                fn(w)[0] += 1.0
            np.testing.assert_array_equal(fn(w), before)

    def test_overflow_evicts_only_the_oldest_point(self):
        calls = []

        @_content_cached(MEMO_SIZE)
        def double(w):
            calls.append(w[0])
            return 2.0 * w

        points = [np.array([float(i)]) for i in range(MEMO_SIZE + 1)]
        for w in points:
            double(w)
        for w in points[1:]:
            double(w)
        assert len(calls) == MEMO_SIZE + 1
        double(points[0])
        assert len(calls) == MEMO_SIZE + 2

    @pytest.mark.parametrize("order", itertools.permutations(range(3)), ids=str)
    def test_one_record_per_identity_point(self, order, monkeypatch):
        # phi0, its Jacobian and phi1 read one record: at a fresh w, the
        # first of them, and any order of all three, costs one identity
        # solve, one set of inverse blocks and one evaluation of the functional
        calls = dict.fromkeys(("newton_solve", "a_functional", "inverse_blocks"), 0)

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        for name in ("newton_solve", "a_functional"):
            monkeypatch.setattr(genscheme, name, counted(name, getattr(genscheme, name)))
        base = oscillator_alpha(NU)
        alpha = dataclasses.replace(
            base, inverse_blocks=counted("inverse_blocks", base.inverse_blocks)
        )
        coeffs, jacs = coefficients(oscillator_system(NU), alpha, 0.3, 1)
        readers = (coeffs[0], jacs[0], coeffs[1])
        w = np.array([0.25, -0.5])
        once = {"newton_solve": 1, "a_functional": 1, "inverse_blocks": 1}
        readers[order[0]](w)
        assert calls == once
        for k in order[1:]:
            readers[k](w)
        assert calls == once


class TestAssemblePsi:
    def test_zero_step_returns_order_zero(self, osc_system, osc_alpha, rng):
        scheme = make_scheme(osc_system, osc_alpha, 0.0, 1)
        w = rng.uniform(-2, 2, 2)
        np.testing.assert_array_equal(
            scheme.psi_w(w, 0.0), scheme.coeffs[0](w)
        )

    def test_first_order_sum(self, osc_system, osc_alpha, rng):
        t0, tau = 0.6, 0.05
        scheme = make_scheme(osc_system, osc_alpha, t0, 1)
        for _ in range(5):
            w = rng.uniform(-2, 2, 2)
            expected = tau * closed_phi1(NU, t0, w)
            assert np.max(np.abs(scheme.psi_w(w, tau) - expected)) <= 1e-9

    def test_second_order_sum(self, osc_system, osc_alpha, rng):
        t0, tau = 0.0, 0.1
        scheme = make_scheme(osc_system, osc_alpha, t0, 2)
        for _ in range(5):
            w = rng.uniform(-2, 2, 2)
            expected = tau * closed_phi1(NU, t0, w) + tau**2 * closed_phi2(NU, t0, w)
            assert np.max(np.abs(scheme.psi_w(w, tau) - expected)) <= 1e-9
            # leading component collapses to -(tau + nu tau^2 / 2) e^(nu t0) w1
            assert scheme.psi_w(w, tau)[0] == pytest.approx(
                -(tau + NU * tau**2 / 2) * np.exp(NU * t0) * w[0], abs=1e-9
            )

    def test_scheme_rebased_at_its_own_time_is_itself(self, osc_system, osc_alpha):
        # make_scheme's rebase keeps the scheme it built, so a step at t0
        # re-expands nothing
        scheme = make_scheme(osc_system, osc_alpha, 0.3, 2)
        assert scheme.rebase(0.3) is scheme

    def test_rebase_reexpands_at_new_time(self, osc_system, osc_alpha, rng):
        scheme = make_scheme(osc_system, osc_alpha, 0.0, 1)
        rebased = scheme.rebase(0.8)
        w = rng.uniform(-1, 1, 2)
        assert np.max(np.abs(rebased.coeffs[1](w) - closed_phi1(NU, 0.8, w))) <= 1e-8

    @pytest.mark.parametrize("order", [1, 2])
    def test_truncation_error_has_the_right_order(self, osc_system, osc_alpha, order):
        # oracle: the exact gradient map is sigma of the exact flow matrix,
        # built from the analytic solution, independent of the recursion
        taus = [0.1, 0.05, 0.025]
        scheme = make_scheme(osc_system, osc_alpha, 0.0, order)
        rng = np.random.default_rng(7)
        ws = rng.uniform(-1, 1, (5, 2))
        errs = []
        for tau in taus:
            blocks = osc_alpha.blocks(np.zeros(2), np.zeros(2), tau, 0.0)
            n_exact = sigma(blocks, exact_flow_matrix(NU, tau))
            err = max(
                float(np.max(np.abs(n_exact @ w - scheme.psi_w(w, tau)))) for w in ws
            )
            errs.append(err)
        assert fit_slope(taus, errs) >= order + 0.8


class TestMakeScheme:
    def test_certified_run_keeps_only_the_latest_expansion(
        self, osc_system, osc_alpha, monkeypatch
    ):
        # a run asks for each grid time in turn, through the step and then
        # its certificate, and never goes back
        built = []
        build = genscheme.coefficients

        def counted(sys, alpha, t0, m):
            coeffs, jacs = build(sys, alpha, t0, m)
            # the pair is a tuple, which takes no weak reference
            built.append((t0, weakref.ref(coeffs[0])))
            return coeffs, jacs

        monkeypatch.setattr(genscheme, "coefficients", counted)
        tau, n_steps = 0.1, 6
        scheme = make_scheme(osc_system, osc_alpha, 0.0, 2)
        dead_behind = []

        def certify(z, t_k, z_next):
            k = len(dead_behind)
            # built[0] is the scheme's own expansion at t0 and stays alive
            dead_behind.append(k < 3 or built[k - 2][1]() is None)
            jac = step_jacobian(osc_system, scheme, z, t_k, tau)
            return symplectic_residual(osc_system, jac, z, t_k, z_next, t_k + tau)

        run(
            lambda z, t: step(osc_system, scheme, z, t, tau),
            np.array([1.0, 0.0]), 0.0, tau, n_steps, certify=certify,
        )
        assert [t0 for t0, _ in built] == [k * tau for k in range(n_steps)]
        assert all(dead_behind)


class TestHamiltonJacobiRightSide:
    def test_undamped_oscillator_energy(self):
        sys0 = oscillator_system(0.0)
        alpha0 = oscillator_alpha(0.0)
        z = np.array([1.0, 0.0])
        w_hat, w = alpha0.forward(z, z, 0.0, 0.0)
        assert hj_rhs(sys0, alpha0, w, w_hat, 0.0) == pytest.approx(-0.5, abs=1e-12)

    def test_zero_scalar_gives_zero(self, rng):
        alpha0 = oscillator_alpha(0.0)
        sys0 = BirkhoffSystem(
            n=1,
            F=lambda z, t: 0.5 * np.array([z[1], -z[0]]),
            B=lambda z, t: 0.0,
        )
        z = rng.uniform(-1, 1, 2)
        w_hat, w = alpha0.forward(z, z, 0.0, 0.0)
        assert hj_rhs(sys0, alpha0, w, w_hat, 0.0) == 0.0

    def test_time_scaled_scalar(self):
        alpha0 = oscillator_alpha(0.0)
        sys_semi = BirkhoffSystem(
            n=1,
            F=lambda z, t: 0.5 * np.array([z[1], -z[0]]),
            B=lambda z, t: 0.5 * t * float(z @ z),
        )
        z = np.array([1.0, 1.0])
        w_hat, w = alpha0.forward(z, z, 2.0, 2.0)
        assert hj_rhs(sys_semi, alpha0, w, w_hat, 2.0) == pytest.approx(-2.0, abs=1e-12)

    @staticmethod
    def certificate_gap(sys, alpha, w, t0):
        """|grad_w hj_rhs(w, phi0(w), t0) - phi1(w)|, the Hamilton-Jacobi certificate."""
        (phi0, phi1), _ = coefficients(sys, alpha, t0, 1)
        grad = numdiff.gradient(lambda y: hj_rhs(sys, alpha, y, phi0(y), t0), w)
        return float(np.max(np.abs(grad - phi1(w))))

    @settings(max_examples=20)
    @given(
        n=st.sampled_from([1, 2]),
        w=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        t0=st.floats(0.0, 1.0),
    )
    def test_gradient_is_the_first_coefficient_on_the_undamped_chain(self, n, w, t0):
        sys, alpha = chain_system(n, nu=0.0)
        assert self.certificate_gap(sys, alpha, np.array(w[: 2 * n]), t0) <= 1e-9

    def test_time_dependent_scalar_keeps_the_certificate(self):
        # the precondition concerns F and the transform only
        sys_semi = BirkhoffSystem(
            n=1,
            F=lambda z, t: 0.5 * np.array([z[1], -z[0]]),
            B=lambda z, t: (1.0 + t) * (0.5 * float(z @ z) + 0.1 * np.sin(z[0])),
        )
        gap = self.certificate_gap(sys_semi, oscillator_alpha(0.0), np.array([0.4, -0.7]), 0.7)
        assert gap <= 1e-9

    def test_time_dependent_pairing_breaks_the_certificate(self):
        # K = e^{nu t} J0 violates the precondition; the identity then fails
        sys, alpha = chain_system(2, nu=0.3)
        gap = self.certificate_gap(sys, alpha, np.array([0.5, -0.3, 0.2, 0.8]), 0.4)
        assert gap > 1e-2
