import weakref

import numpy as np
import pytest

from birkhoff import (
    BirkhoffSystem,
    CoefficientSet,
    GeneratingScheme,
    KindError,
    UnsupportedOrderError,
    a_functional,
    coefficients,
    exact_solution,
    hj_rhs,
    make_scheme,
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
from birkhoff.genscheme import MEMO_SIZE, _memoized

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
    return coefficients(sys, alpha, t0, 1).coeffs[0](w)


def scaled_free_system(nu, n):
    """K = e^{nu t} [[0, -I], [I, 0]] from F = e^{nu t} (p/2, -q/2), with B = 0."""
    return BirkhoffSystem(
        n=n,
        F=lambda z, t: np.exp(nu * t) * np.concatenate([0.5 * z[n:], -0.5 * z[:n]]),
        B=lambda z, t: 0.0,
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


class TestAFunctional:
    def test_closed_form_at_the_expansion_point(self, osc_system, osc_alpha, rng):
        # with zero gradient and zero Jacobian the functional is the
        # order-one coefficient
        for _ in range(10):
            w = rng.uniform(-2, 2, 2)
            t0 = rng.uniform(0, 2)
            out = a_functional(
                osc_system, osc_alpha, np.zeros(2), w, np.zeros((2, 2)), t0, t0
            )
            assert np.max(np.abs(out - closed_phi1(NU, t0, w))) <= 1e-12

    def test_vanishes_at_equilibrium_with_static_transform(self, rng):
        sys0 = oscillator_system(0.0)
        alpha0 = oscillator_alpha(0.0)
        w_hat, w = alpha0.forward(np.zeros(2), np.zeros(2), 0.4, 0.4)
        s = rng.uniform(-1, 1, (2, 2))
        out = a_functional(sys0, alpha0, w_hat, w, s, 0.4, 0.4)
        np.testing.assert_allclose(out, np.zeros(2), atol=1e-14)

    def test_matches_direct_rate_difference(self, osc_system, osc_alpha, rng):
        # independent oracle: rates of the transformed flow written out by
        # hand for the scaled pairing, evaluated pointwise in (w_hat, w)
        for _ in range(20):
            w_hat = rng.uniform(-2, 2, 2)
            w = rng.uniform(-2, 2, 2)
            s = rng.uniform(-1, 1, (2, 2))
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
            out = a_functional(osc_system, osc_alpha, w_hat, w, s, t, t0)
            assert np.max(np.abs(out - (rate_hat - s @ rate))) <= 1e-8


class TestCoefficients:
    @pytest.mark.parametrize("t0", [0.0, 1.3])
    def test_first_order_coefficient_closed_form(self, osc_system, osc_alpha, rng, t0):
        cs = coefficients(osc_system, osc_alpha, t0, 1)
        for _ in range(20):
            w = rng.uniform(-2, 2, 2)
            assert np.max(np.abs(cs.coeffs[0](w))) <= 1e-12
            assert np.max(np.abs(cs.coeffs[1](w) - closed_phi1(NU, t0, w))) <= 1e-8

    @pytest.mark.parametrize("t0", [0.0, 1.3])
    def test_second_order_coefficient_closed_form(self, osc_system, osc_alpha, rng, t0):
        cs = coefficients(osc_system, osc_alpha, t0, 2)
        for _ in range(20):
            w = rng.uniform(-2, 2, 2)
            assert np.max(np.abs(cs.coeffs[2](w) - closed_phi2(NU, t0, w))) <= 1e-8

    def test_undamped_second_coefficient_vanishes(self, rng):
        sys0 = oscillator_system(0.0)
        cs = coefficients(sys0, oscillator_alpha(0.0), 0.0, 2)
        for _ in range(10):
            assert np.max(np.abs(cs.coeffs[2](rng.uniform(-2, 2, 2)))) <= 1e-10

    def test_coefficient_jacobians_are_symmetric(self, osc_system, osc_alpha, rng):
        # each coefficient is a gradient, so its Jacobian must be symmetric
        cs = coefficients(osc_system, osc_alpha, 0.4, 2)
        for _ in range(100):
            w = rng.uniform(-2, 2, 2)
            for jac_fn in cs.coeff_jacobians:
                jac = jac_fn(w)
                assert np.max(np.abs(jac - jac.T)) <= 1e-8

    def test_orders_outside_the_cap_rejected(self, osc_system, osc_alpha):
        with pytest.raises(UnsupportedOrderError):
            coefficients(osc_system, osc_alpha, 0.0, 3)
        with pytest.raises(UnsupportedOrderError):
            coefficients(osc_system, osc_alpha, 0.0, 0)

    def test_coefficient_count_validated(self):
        with pytest.raises(ValueError):
            CoefficientSet(0.0, 1, (lambda w: w,), (lambda w: np.eye(2),))


class TestMemoized:
    def test_cached_coefficients_are_read_only(self, osc_system, osc_alpha):
        cs = coefficients(osc_system, osc_alpha, 0.2, 2)
        w = np.array([0.3, -0.8])
        for fn in cs.coeffs + cs.coeff_jacobians:
            before = fn(w).copy()
            with pytest.raises(ValueError):
                fn(w)[0] += 1.0
            np.testing.assert_array_equal(fn(w), before)

    def test_overflow_evicts_only_the_oldest_point(self):
        calls = []

        @_memoized
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


class TestAssemblePsi:
    def test_zero_step_returns_order_zero(self, osc_system, osc_alpha, rng):
        scheme = make_scheme(osc_system, osc_alpha, 0.0, 1)
        w = rng.uniform(-2, 2, 2)
        np.testing.assert_array_equal(
            scheme.psi_w(w, 0.0), scheme.coefficients.coeffs[0](w)
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

    def test_rebase_reexpands_at_new_time(self, osc_system, osc_alpha, rng):
        scheme = make_scheme(osc_system, osc_alpha, 0.0, 1)
        rebased = scheme.at(0.8)
        assert rebased.coefficients.t0 == 0.8
        w = rng.uniform(-1, 1, 2)
        assert np.max(np.abs(rebased.coefficients.coeffs[1](w) - closed_phi1(NU, 0.8, w))) <= 1e-8

    def test_rebase_without_factory_rejected(self, osc_system, osc_alpha):
        cs = coefficients(osc_system, osc_alpha, 0.0, 1)
        scheme = GeneratingScheme(osc_alpha, cs)
        with pytest.raises(ValueError):
            scheme.at(1.0)

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
            coeffs = build(sys, alpha, t0, m)
            built.append((t0, weakref.ref(coeffs)))
            return coeffs

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
            kind="autonomous",
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
            kind="semi-autonomous",
        )
        z = np.array([1.0, 1.0])
        w_hat, w = alpha0.forward(z, z, 2.0, 2.0)
        assert hj_rhs(sys_semi, alpha0, w, w_hat, 2.0) == pytest.approx(-2.0, abs=1e-12)

    def test_rejected_for_nonautonomous_systems(self, osc_system, osc_alpha):
        with pytest.raises(KindError):
            hj_rhs(osc_system, osc_alpha, np.zeros(2), np.zeros(2), 0.0)
