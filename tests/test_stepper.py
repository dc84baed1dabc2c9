import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from birkhoff import (
    BirkhoffSystem,
    EvaluationError,
    GeneratingScheme,
    NewtonError,
    TransversalityError,
    alpha_verify,
    convergence_order,
    darboux_alpha,
    exact_solution,
    integrate,
    make_scheme,
    numdiff,
    oscillator_alpha,
    oscillator_system,
    run,
    scaled_canonical_alpha,
    scheme_first_order,
    scheme_second_order,
    step,
    step_jacobian,
    symplectic_residual,
    velocity,
)
from birkhoff import stepper
from birkhoff.core import _det_gate
from birkhoff.newton import MAX_ITER, newton_solve
from pendulum_chain import NU as CHAIN_NU
from pendulum_chain import (
    chain_system,
    mixing_chain,
    mixing_p,
    mixing_p_dot,
    rk4_state,
    shear_p,
    shear_p_dot,
    sheared_chain,
)

NU = 0.5


def counting(base, calls):
    """``base`` with its K and D wrapped to append their names to ``calls``."""

    def wrap(name):
        fn = getattr(base, name)

        def wrapped(z, t):
            calls.append(name)
            return fn(z, t)

        return wrapped

    return dataclasses.replace(base, K=wrap("K"), D=wrap("D"))


def zero_step_systems():
    """(system, transform) pairs whose zero steps must return the state itself.

    The sheared chain's K depends on t, and the oscillator without K and D
    differences both from F and B.
    """
    sheared, sheared_alpha = sheared_chain()
    derived = dataclasses.replace(oscillator_system(NU), K=None, D=None)
    return ((sheared, sheared_alpha), (derived, oscillator_alpha(NU)))


class TestTrajectory:
    def test_each_step_output_is_converted_once_as_it_returns(self):
        # a step map that returns a list: certify, the next step and the
        # record all see the float array run made of it
        given_to = []

        def advance(z, t_k):
            given_to.append(("advance", z))
            return [z[0] + 1, z[1]]

        def certify(z, t_k, z_next):
            given_to.append(("certify", z_next))
            return 0.0

        traj = run(advance, np.array([0.0, 1.0]), 0.0, 0.1, 2, certify=certify)
        assert [name for name, _ in given_to] == ["advance", "certify"] * 2
        assert given_to[1][1] is given_to[2][1] is traj.states[1]
        assert given_to[3][1] is traj.states[2]
        assert all(isinstance(z, np.ndarray) and z.dtype == float for z in traj.states)
        np.testing.assert_array_equal(traj.states[-1], [2.0, 1.0])
        assert traj.residuals == (0.0, 0.0)

    @pytest.mark.parametrize(
        "t0, tau, z0",
        [
            (0.0, float("nan"), [0.0, 0.0]),
            (0.0, float("inf"), [0.0, 0.0]),
            (float("nan"), 0.1, [0.0, 0.0]),
            (float("inf"), 0.1, [0.0, 0.0]),
            (0.0, 0.1, [float("nan"), 0.0]),
            (0.0, 0.1, [0.0, float("-inf")]),
        ],
    )
    def test_non_finite_grid_rejected_before_the_first_step(self, t0, tau, z0):
        calls = []

        def advance(z, t_k):
            calls.append(t_k)
            return np.eye(2) @ z

        with pytest.raises(ValueError):
            run(advance, np.array(z0), t0, tau, 3)
        assert calls == []


class TestStep:
    def test_first_order_matches_closed_form_column(self, osc_system, osc_scheme_m1):
        z1 = step(osc_system, osc_scheme_m1, np.array([1.0, 0.0]), 0.0, 0.1)
        assert np.max(np.abs(z1 - scheme_first_order(NU, 0.1)[:, 0])) <= 1e-10

    def test_second_order_matches_closed_form_column(self, osc_system, osc_scheme_m2):
        z1 = step(osc_system, osc_scheme_m2, np.array([1.0, 0.0]), 0.0, 0.1)
        assert np.max(np.abs(z1 - scheme_second_order(NU, 0.1)[:, 0])) <= 1e-10

    @settings(max_examples=30)
    @given(
        nu=st.floats(0.0, 1.0),
        tau=st.floats(0.01, 0.2),
        z=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
        t0=st.floats(0.0, 2.0),
    )
    # phi2 summed from three pieces, with phi1's Hessian times g, missed the
    # order-2 closed form here by 1.0030e-10 times the bound's scale
    @example(nu=0.9447, tau=0.1935, z=[1.9696, -1.8299], t0=1.653)
    def test_generic_step_matches_the_closed_forms(self, nu, tau, z, t0):
        # the transition matrices of the scaled oscillator do not depend on t0
        system, alpha = oscillator_system(nu), oscillator_alpha(nu)
        z = np.array(z)
        bound = max(1.0, float(np.max(np.abs(z))))
        for order, closed, tol in (
            (1, scheme_first_order, 1e-12),
            (2, scheme_second_order, 1e-10),
        ):
            z1 = step(system, make_scheme(system, alpha, t0, order), z, t0, tau)
            assert np.max(np.abs(z1 - closed(nu, tau) @ z)) <= tol * bound

    def test_zero_step_is_identity(self, osc_system, osc_scheme_m1):
        z = np.array([0.7, -0.3])
        np.testing.assert_array_equal(step(osc_system, osc_scheme_m1, z, 0.4, 0.0), z)
        # phi^(0)'s identity relation holds at z itself, on every system
        for system, alpha in zero_step_systems():
            z = np.linspace(0.7, -0.3, system.dim)
            for order in (1, 2):
                scheme = make_scheme(system, alpha, 0.4, order)
                np.testing.assert_array_equal(step(system, scheme, z, 0.4, 0.0), z)

    @pytest.mark.parametrize(
        "order, closed", [(1, scheme_first_order), (2, scheme_second_order)], ids=["1", "2"]
    )
    def test_negative_step_matches_the_closed_forms(self, osc_system, osc_alpha, order, closed):
        # a backward substep is a step like any other
        z = np.array([0.2, -1.0])
        z1 = step(osc_system, make_scheme(osc_system, osc_alpha, 0.0, order), z, 0.3, -0.1)
        assert np.max(np.abs(z1 - closed(NU, -0.1) @ z)) <= 1e-10

    def test_step_away_from_expansion_time_reuses_rebased_coefficients(
        self, osc_system, osc_scheme_m2
    ):
        # the transition matrix of the scaled oscillator is time invariant,
        # so a step at t=2 must match the closed form too
        z1 = step(osc_system, osc_scheme_m2, np.array([0.2, -1.0]), 2.0, 0.1)
        expected = scheme_second_order(NU, 0.1) @ np.array([0.2, -1.0])
        assert np.max(np.abs(z1 - expected)) <= 1e-10

    def test_step_where_det_k_overflows(self, osc_system, osc_scheme_m2):
        # at t=800, K = e^{400} J0 has a determinant past the float range,
        # yet K is a scaled rotation and the step must go through.  phi2's
        # difference along the flow moves t by its step at unit scale; a
        # separate time difference, its step scaled by t = 800, missed by
        # about 1e-6
        z1 = step(osc_system, osc_scheme_m2, np.array([0.2, -1.0]), 800.0, 0.1)
        expected = scheme_second_order(NU, 0.1) @ np.array([0.2, -1.0])
        assert np.max(np.abs(z1 - expected)) <= 1e-10


class TestIntegrate:
    def test_single_step_equals_step(self, osc_system, osc_scheme_m1):
        z0 = np.array([1.0, 0.0])
        traj = integrate(osc_system, osc_scheme_m1, z0, 0.0, 0.1, 1)
        direct = step(osc_system, osc_scheme_m1, z0, 0.0, 0.1)
        np.testing.assert_array_equal(traj.states[1], direct)

    def test_second_order_run_tracks_exact_solution(self, osc_system, osc_scheme_m2):
        traj = integrate(osc_system, osc_scheme_m2, np.array([1.0, 0.0]), 0.0, 0.02, 50)
        final_error = np.max(np.abs(traj.states[-1] - exact_solution(NU, 1.0, 0.0, 1.0)))
        assert final_error <= 1e-4

    def test_first_order_run_tracks_its_closed_form(self, osc_system, osc_scheme_m1):
        # the step's solve stops at its target on a first matrix without
        # phi1's Hessian: 20 steps stay 2.2e-15 from the closed form here
        # with its Broyden updates, and stayed 4.3e-12 with that matrix
        # alone
        z0 = np.array([0.7, -1.3])
        traj = integrate(osc_system, osc_scheme_m1, z0, 0.0, 0.05, 20)
        closed = scheme_first_order(NU, 0.05)
        expected = [z0]
        for _ in range(20):
            expected.append(closed @ expected[-1])
        assert np.max(np.abs(np.array(traj.states) - expected)) <= 1e-11

    def test_higher_order_is_more_accurate_on_the_same_grid(
        self, osc_system, osc_scheme_m1, osc_scheme_m2
    ):
        z0 = np.array([1.0, 0.0])
        tau, n = 0.1, 10
        err = {}
        for order, scheme in ((1, osc_scheme_m1), (2, osc_scheme_m2)):
            traj = integrate(osc_system, scheme, z0, 0.0, tau, n)
            err[order] = max(
                np.max(np.abs(traj.states[k] - exact_solution(NU, 1.0, 0.0, k * tau)))
                for k in range(n + 1)
            )
        assert err[2] < err[1]

    def test_runs_are_deterministic(self, osc_system, osc_scheme_m2):
        a = integrate(osc_system, osc_scheme_m2, np.array([1.0, 0.0]), 0.0, 0.1, 5)
        b = integrate(osc_system, osc_scheme_m2, np.array([1.0, 0.0]), 0.0, 0.1, 5)
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_array_equal(sa, sb)

    def test_validates_grid_parameters(self, osc_system, osc_scheme_m1):
        with pytest.raises(ValueError):
            integrate(osc_system, osc_scheme_m1, np.zeros(2), 0.0, 0.1, 0)
        with pytest.raises(ValueError):
            integrate(osc_system, osc_scheme_m1, np.zeros(2), 0.0, 0.0, 3)

    def test_step_failure_carries_partial_trajectory(self, osc_system, osc_alpha):
        # coefficients turn non-finite from t >= 0.25, so step index 3 fails
        def bad_scheme(t0):
            poison = np.nan if t0 >= 0.25 else 0.0

            def phi1(w):
                return np.array([-w[0] + poison, -w[1]])

            jacs = (lambda w: np.zeros((2, 2)),) * 2
            return GeneratingScheme(osc_alpha, (lambda w: np.zeros(2), phi1), jacs, bad_scheme)

        scheme = bad_scheme(0.0)
        with pytest.raises(NewtonError, match="non-finite Newton update") as info:
            integrate(osc_system, scheme, np.array([1.0, 0.0]), 0.0, 0.1, 10)
        failure = info.value
        assert failure.step_index == 3
        # the step's own solve raises its NewtonError as it is: the first
        # update is already non-finite
        assert failure.iterations == 0
        assert len(failure.trajectory.states) - 1 == 3
        np.testing.assert_array_equal(failure.trajectory.states[0], [1.0, 0.0])

    @pytest.mark.parametrize("size", [3, 4])
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda s, sch, z: step(s, sch, z, 0.0, 0.1), id="step"),
            pytest.param(lambda s, sch, z: integrate(s, sch, z, 0.0, 0.1, 2), id="integrate"),
            pytest.param(
                lambda s, sch, z: step_jacobian(s, sch, z, 0.0, 0.1), id="step_jacobian"
            ),
            pytest.param(lambda s, sch, z: velocity(s, z, 0.0), id="velocity"),
        ],
    )
    def test_state_of_another_length_rejected_before_evaluation(self, call, size):
        # a 3- or 4-vector on the 1-dof oscillator used to reach the user's
        # D, which raised "too many values to unpack"
        calls = []
        system = counting(oscillator_system(NU), calls)
        scheme = make_scheme(system, oscillator_alpha(NU), 0.0, 1)
        message = rf"state of shape \({size},\) does not match system dimension 2"
        with pytest.raises(ValueError, match=message):
            call(system, scheme, np.ones(size))
        assert calls == []

    @pytest.mark.parametrize("system_n, scheme_n", [(2, 1), (1, 2)])
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda s, sch, z: step(s, sch, z, 0.5, 0.1), id="step"),
            pytest.param(lambda s, sch, z: integrate(s, sch, z, 0.5, 0.1, 2), id="integrate"),
            pytest.param(
                lambda s, sch, z: step_jacobian(s, sch, z, 0.5, 0.1), id="step_jacobian"
            ),
        ],
    )
    def test_scheme_for_another_n_rejected_before_evaluation(self, call, system_n, scheme_n):
        # a scheme built on the 1-dof oscillator used to run on the 2-dof
        # chain until numpy's matmul failed, after the predictor had
        # already called the chain's K and D
        calls = []
        pairs = {1: (oscillator_system(NU), oscillator_alpha(NU)), 2: chain_system(2)}
        system = counting(pairs[system_n][0], calls)
        scheme = make_scheme(counting(pairs[scheme_n][0], calls), pairs[scheme_n][1], 0.0, 1)
        calls.clear()
        message = f"transform has n = {scheme_n} but the system has n = {system_n}"
        with pytest.raises(ValueError, match=message):
            call(system, scheme, 0.1 * np.ones(2 * system_n))
        assert calls == []

    @pytest.mark.parametrize("fn", [step, step_jacobian], ids=["step", "step_jacobian"])
    def test_rebased_scheme_for_another_n_rejected_before_evaluation(self, fn):
        # the step runs on the scheme that rebase returns, transform
        # included, so that scheme's n is the one checked: this scheme
        # fits the oscillator, but its rebase returns the 2-dof chain's
        calls = []
        system = counting(oscillator_system(NU), calls)
        fitting = make_scheme(system, oscillator_alpha(NU), 0.0, 1)
        chain = make_scheme(*chain_system(2), 0.0, 1)
        scheme = GeneratingScheme(
            fitting.alpha, fitting.coeffs, fitting.coeff_jacobians, lambda t0: chain
        )
        with pytest.raises(ValueError, match="transform has n = 2 but the system has n = 1"):
            fn(system, scheme, np.array([0.1, 0.1]), 0.5, 0.1)
        assert calls == []

    @pytest.mark.parametrize(
        "t_k, tau",
        [(np.nan, 0.1), (np.inf, 0.1), (0.0, np.nan), (0.0, np.inf), (0.0, -np.inf)],
        ids=["nan-t", "inf-t", "nan-tau", "inf-tau", "minus-inf-tau"],
    )
    @pytest.mark.parametrize("fn", [step, step_jacobian], ids=["step", "step_jacobian"])
    def test_non_finite_time_or_step_rejected_before_evaluation(self, fn, t_k, tau):
        # checked before the predictor: a NaN tau would otherwise reach the
        # transform's P and tau = -inf a zero time scaling
        calls = []
        system = counting(oscillator_system(NU), calls)
        scheme = make_scheme(system, oscillator_alpha(NU), 0.0, 1)
        calls.clear()
        with pytest.raises(ValueError, match="need finite t_k and tau"):
            fn(system, scheme, np.array([1.0, 0.0]), t_k, tau)
        assert calls == []

    @pytest.mark.parametrize(
        "name, order",
        [(name, order) for name in ("K", "D", "B", "F") for order in (1, 2)],
    )
    def test_non_finite_user_output_raises_evaluation_error(self, name, order):
        # the analytic K or D, or B or F, turns NaN from t = 0.3 on, so the
        # step from t = 0.3 (index 3) fails, with the three steps before it
        # kept; B and F are differenced only when D is not supplied
        base = oscillator_system(NU)
        healthy = getattr(base, name)

        def poisoned(z, t):
            out = np.asarray(healthy(z, t), dtype=float)
            return out * np.nan if t > 0.29 else out

        dropped = {"D": None} if name in ("B", "F") else {}
        system = dataclasses.replace(base, **{name: poisoned}, **dropped)
        scheme = make_scheme(system, oscillator_alpha(NU), 0.0, order)
        with pytest.raises(EvaluationError, match=f"{name} returned non-finite values") as info:
            integrate(system, scheme, np.array([1.0, 0.0]), 0.0, 0.1, 10)
        assert info.value.step_index == 3
        assert len(info.value.trajectory.states) - 1 == 3

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.ones(2), r"B must return shape \(\), got \(2,\)"),
            (np.ones((1, 1)), r"B must return shape \(\), got \(1, 1\)"),
            (None, "B must return real numbers, got dtype object"),
        ],
        ids=["shape-2", "shape-1x1", "none"],
    )
    def test_misshapen_b_raises_evaluation_error(self, bad, message):
        # B is read through the check every callable shares; it used to
        # raise a bare TypeError here, with no step index attached.  B is
        # differenced when D is not supplied
        base = oscillator_system(NU)

        def broken(z, t):
            return bad if t > 0.29 else base.B(z, t)

        system = dataclasses.replace(base, B=broken, D=None)
        with pytest.raises(EvaluationError, match=message):
            system.b_at(np.array([1.0, 0.0]), 0.3)
        scheme = make_scheme(system, oscillator_alpha(NU), 0.0, 1)
        with pytest.raises(EvaluationError, match=message) as info:
            integrate(system, scheme, np.array([1.0, 0.0]), 0.0, 0.1, 10)
        assert info.value.step_index == 3
        assert len(info.value.trajectory.states) - 1 == 3

    def test_second_order_runs_from_f_and_b_alone(self):
        # K and D both differenced: the step residual carries a noise floor
        # above Newton's residual target, where the solve ends
        base = oscillator_system(NU)
        system = dataclasses.replace(base, K=None, D=None)
        scheme = make_scheme(system, oscillator_alpha(NU), 0.0, 2)
        traj = integrate(system, scheme, np.array([1.0, 0.0]), 0.0, 0.1, 20)
        matrix = scheme_second_order(NU, 0.1)
        for z, z_next in zip(traj.states[:-1], traj.states[1:]):
            np.testing.assert_allclose(z_next, matrix @ z, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("order", [1, 2])
    def test_scaling_that_reaches_zero_raises_evaluation_error(self, order):
        # K = (1 - t) J0 with the matching transform: lam(t) = 1 - t reaches
        # zero at the end of the step from t = 0.9 (index 9), and the nine
        # steps before it are kept
        j0 = np.array([[0.0, -1.0], [1.0, 0.0]])
        system = BirkhoffSystem(
            n=1,
            F=lambda z, t: 0.5 * (1.0 - t) * np.array([z[1], -z[0]]),
            B=lambda z, t: 0.5 * (1.0 - t) * float(z @ z),
            K=lambda z, t: (1.0 - t) * j0,
            D=lambda z, t: -((1.0 - t) * z + 0.5 * np.array([-z[1], z[0]])),
        )
        scheme = make_scheme(system, scaled_canonical_alpha(lambda t: 1.0 - t, 1), 0.0, order)
        with pytest.raises(EvaluationError, match="time scaling must be positive") as info:
            integrate(system, scheme, np.array([1.0, 0.0]), 0.0, 0.1, 12)
        assert info.value.step_index == 9
        assert len(info.value.trajectory.states) - 1 == 9

    @pytest.mark.parametrize("order", [1, 2])
    def test_non_finite_scaling_derivative_raises_evaluation_error(self, order):
        # lam_dot turns NaN past t = 0.25; the transform's time partials are
        # read where the coefficients are rebased, at t = 0.3 (index 3)
        alpha = scaled_canonical_alpha(
            lambda t: np.exp(NU * t),
            1,
            lam_dot=lambda t: np.nan if t > 0.25 else NU * np.exp(NU * t),
        )
        system = oscillator_system(NU)
        scheme = make_scheme(system, alpha, 0.0, order)
        message = r"p_dot returned non-finite values at t=0\.3"
        with pytest.raises(EvaluationError, match=message) as info:
            integrate(system, scheme, np.array([1.0, 0.0]), 0.0, 0.1, 10)
        assert info.value.step_index == 3
        assert len(info.value.trajectory.states) - 1 == 3

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp")
    def test_any_package_error_carries_partial_trajectory(self, osc_system, osc_scheme_m1):
        # the time scaling overflows at t = 2000, before any Newton iteration
        with pytest.raises(EvaluationError) as info:
            integrate(osc_system, osc_scheme_m1, np.array([1.0, 0.0]), 0.0, 2000.0, 3)
        assert info.value.step_index == 0
        assert len(info.value.trajectory.states) - 1 == 0


class TestRun:
    def test_certify_fills_one_residual_per_step(self, osc_system):
        mat = scheme_first_order(NU, 0.1)

        def certify(z, t_k, z_next):
            return symplectic_residual(osc_system, mat, z, t_k, z_next, t_k + 0.1)

        traj = run(lambda z, t: mat @ z, np.array([1.0, 0.0]), 0.2, 0.1, 4, certify=certify)
        assert len(traj.states) - 1 == 4
        assert len(traj.residuals) == 4
        assert max(traj.residuals) <= 1e-13
        assert run(lambda z, t: mat @ z, np.array([1.0, 0.0]), 0.2, 0.1, 4).residuals is None

    def test_failed_certificate_keeps_the_accepted_prefix(self):
        def certify(z, t_k, z_next):
            if t_k > 0.25:
                raise EvaluationError("certificate failed")
            return float(t_k)

        with pytest.raises(EvaluationError) as info:
            run(lambda z, t: z + 1.0, np.zeros(2), 0.0, 0.1, 10, certify=certify)
        traj = info.value.trajectory
        assert info.value.step_index == 3
        assert len(traj.states) - 1 == 3
        assert traj.residuals == (0.0, 0.1, 0.2)
        np.testing.assert_array_equal(traj.states[-1], [3.0, 3.0])

    @pytest.mark.parametrize("n_steps", [True, 2.0, 2.5, "2"], ids=repr)
    def test_non_integral_step_count_rejected_before_the_first_step(self, n_steps):
        # True ran one step and 2.0 raised a bare TypeError from range
        def advance(z, t):
            raise AssertionError("no step may run")

        with pytest.raises(ValueError, match="n_steps must be a positive integer"):
            run(advance, np.zeros(2), 0.0, 0.1, n_steps)

    def test_numpy_integer_step_count_runs(self):
        traj = run(lambda z, t: z + 1.0, np.zeros(2), 0.0, 0.1, np.int64(3))
        assert len(traj.states) - 1 == 3


class TestStepJacobian:
    def test_linear_scheme_jacobian_is_state_independent(self, osc_system, osc_scheme_m1):
        expected = scheme_first_order(NU, 0.1)
        for z in (np.array([1.0, 0.0]), np.array([-0.4, 0.9])):
            jac = step_jacobian(osc_system, osc_scheme_m1, z, 0.0, 0.1)
            assert np.max(np.abs(jac - expected)) <= 1e-6

    def test_zero_step_gives_identity(self, osc_system, osc_scheme_m1):
        jac = step_jacobian(osc_system, osc_scheme_m1, np.array([0.3, 0.4]), 0.0, 0.0)
        np.testing.assert_allclose(jac, np.eye(2), atol=1e-10)
        for system, alpha in zero_step_systems():
            z = np.linspace(0.3, 0.4, system.dim)
            for order in (1, 2):
                scheme = make_scheme(system, alpha, 0.0, order)
                jac = step_jacobian(system, scheme, z, 0.0, 0.0)
                np.testing.assert_array_equal(jac, np.eye(system.dim))

    def test_undamped_first_order_is_the_cayley_matrix(self):
        from birkhoff import make_scheme, oscillator_alpha, oscillator_system

        sys0 = oscillator_system(0.0)
        scheme = make_scheme(sys0, oscillator_alpha(0.0), 0.0, 1)
        tau = 0.2
        expected = np.array([[4 - tau**2, 4 * tau], [-4 * tau, 4 - tau**2]]) / (4 + tau**2)
        jac = step_jacobian(sys0, scheme, np.array([0.5, 0.5]), 0.0, tau)
        assert np.max(np.abs(jac - expected)) <= 1e-6

    def test_structure_preservation_along_a_short_run(self, osc_system, osc_scheme_m2):
        traj = integrate(osc_system, osc_scheme_m2, np.array([1.0, 0.0]), 0.0, 0.1, 10)
        for k in range(10):
            t_k = 0.1 * k
            jac = step_jacobian(osc_system, osc_scheme_m2, traj.states[k], t_k, 0.1)
            res = symplectic_residual(
                osc_system, jac, traj.states[k], t_k, traj.states[k + 1], t_k + 0.1
            )
            assert res <= 1e-6

    @pytest.mark.parametrize("nu", [0.0, 0.5])
    @pytest.mark.parametrize("order", [1, 2])
    def test_exact_jacobian_matches_the_closed_forms(self, nu, order):
        closed = {1: scheme_first_order, 2: scheme_second_order}[order]
        sys_nu = oscillator_system(nu)
        scheme = make_scheme(sys_nu, oscillator_alpha(nu), 0.0, order)
        for z, t_k in ((np.array([1.0, 0.0]), 0.0), (np.array([0.7, -1.3]), 0.6)):
            jac = step_jacobian(sys_nu, scheme, z, t_k, 0.1)
            assert np.max(np.abs(jac - closed(nu, 0.1))) <= 1e-10

    @pytest.mark.parametrize("order, tol", [(1, 1e-10), (2, 1e-10)])
    def test_exact_jacobian_where_lambda_is_large(self, order, tol):
        # at t=800 the rows of A - Psi_ww C are of order e^{400} and of
        # order 1; the transition matrix of the scaled oscillator is time
        # invariant, so the closed forms still apply.  A separate time
        # difference in phi2, its step scaled by t = 800, missed by about 1e-8
        closed = {1: scheme_first_order, 2: scheme_second_order}[order]
        sys_nu = oscillator_system(NU)
        scheme = make_scheme(sys_nu, oscillator_alpha(NU), 0.0, order)
        jac = step_jacobian(sys_nu, scheme, np.array([1.0, 0.0]), 800.0, 0.01)
        assert np.max(np.abs(jac - closed(NU, 0.01))) <= tol

    @pytest.mark.parametrize("order", [1, 2])
    def test_exact_jacobian_agrees_with_finite_differences_on_the_chain(self, order):
        system, alpha = chain_system()
        scheme = make_scheme(system, alpha, 0.2, order)
        z = np.array([0.4, -0.3, 0.2, 0.5])
        exact = step_jacobian(system, scheme, z, 0.2, 0.05)
        fd = numdiff.jacobian(
            lambda y: step(system, scheme, y, 0.2, 0.05), z, base=numdiff.SOLVER_FD_STEP
        )
        assert np.max(np.abs(exact - fd)) <= 1e-8

    @pytest.mark.parametrize(
        "fn, order, k_calls",
        [(step_jacobian, 1, 10), (step_jacobian, 2, 32), (step, 1, 6), (step, 2, 16)],
        ids=["step_jacobian-1", "step_jacobian-2", "step-1", "step-2"],
    )
    def test_calls_to_k_are_pinned(self, fn, order, k_calls):
        # one exact Jacobian solves the step once and adds the top-order
        # Hessian, with no re-solve per stencil point.  The step's Newton
        # matrix is formed from A - Psi_ww C, not by differencing the
        # residual, and Newton stops at its target with no polishing update.
        # phi2 is one central difference along one direction, exact in the
        # functional's Jacobian slot and reading no Hessian of phi1: two
        # functional evaluations per phi2, and no identity point at a
        # shifted w.  The first Newton matrix is A - phi0_ww C, which builds
        # no Hessian stencil at either order; with Broyden updates of its
        # inverse it takes 4 updates, not 1, at both orders on this linear
        # n = 1 step
        base = oscillator_system(NU)
        calls = []

        def counted_k(z, t):
            calls.append(t)
            return base.K(z, t)

        system = dataclasses.replace(base, K=counted_k)
        scheme = make_scheme(system, oscillator_alpha(NU), 0.3, order)
        fn(system, scheme, np.array([0.7, -1.3]), 0.3, 0.1)
        assert len(calls) == k_calls

    @pytest.mark.parametrize(
        "fn, order, solves, inverses",
        [
            (step_jacobian, 1, 0, 5),
            (step_jacobian, 2, 0, 9),
            (step, 1, 0, 4),
            (step, 2, 0, 8),
        ],
        ids=["step_jacobian-1", "step_jacobian-2", "step-1", "step-2"],
    )
    def test_lapack_calls_are_pinned(self, fn, order, solves, inverses, monkeypatch):
        # each time-only matrix is factored once: the nonsingularity test
        # inverts each distinct matrix that passes it, once (for an order-2
        # step: K at three times, P at four and the step's Newton matrix;
        # the Darboux path gates no A' - C'), and every gated product reads
        # that inverse; the Darboux inverse factor per time pair is built
        # from P's inverses.  Newton's
        # updates are products with the inverse of its matrix too: the
        # first Newton matrix A - phi0_ww C, updated by Broyden's second
        # method, stands in for the exact one at both orders (no refresh on
        # the oscillator), so a step inverts one Newton matrix and solves
        # nothing
        _det_gate.cache_clear()
        calls = {"solve": 0, "inv": 0, "slogdet": 0}

        def counted(name):
            original = getattr(np.linalg, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapped

        system = oscillator_system(NU)
        scheme = make_scheme(system, oscillator_alpha(NU), 0.3, order)
        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        fn(system, scheme, np.array([0.7, -1.3]), 0.3, 0.1)
        assert calls == {"solve": solves, "inv": inverses, "slogdet": inverses}

    def test_transform_calls_are_pinned(self):
        # one order-2 step: each solve evaluates its start point once for
        # its scale and takes no polishing update past its target, the
        # identity point's Jacobian comes from the inverse blocks, and the
        # first Newton matrix A - phi0_ww C, updated by Broyden's second
        # method, takes 4 updates, not 1, and builds no Hessian of phi1 or
        # phi2.  The Newton matrix reads w from
        # the solve's own forward image, so each of the 5 residuals is the
        # one forward call at its iterate; phi2 is one central difference
        # along one direction, two functionals and two inverse-block
        # look-ups, with no identity record at w +- h g, and the identity
        # record's functional reads the solve's inverse image
        names = ("forward", "inverse", "inverse_blocks", "blocks")
        calls = dict.fromkeys(names, 0)

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        base = oscillator_alpha(NU)
        alpha = dataclasses.replace(base, **{n: counted(n, getattr(base, n)) for n in names})
        scheme = make_scheme(oscillator_system(NU), alpha, 0.3, 2)
        step(oscillator_system(NU), scheme, np.array([0.7, -1.3]), 0.3, 0.1)
        assert calls == {"forward": 5, "inverse": 15, "inverse_blocks": 15, "blocks": 16}
        # one identity point's record (phi0, its Jacobian and phi1): one
        # inverse image for the solve, which takes no update and hands it
        # to the functional, one set of inverse blocks, and the
        # functional's blocks
        calls.update(dict.fromkeys(names, 0))
        scheme.coeff_jacobians[0](np.array([0.25, -0.5]))
        assert calls == {"forward": 0, "inverse": 1, "inverse_blocks": 1, "blocks": 1}

    def test_lost_transversality_raises(self):
        # zero gradient coefficients make the step a fixed point of the
        # undamped transform; the hand-set Hessian [[0, 2], [2, 0]] makes
        # A - Psi_ww C = [[0, 2], [0, 0]] singular, so the step's own
        # Newton matrix already fails
        sys0 = oscillator_system(0.0)

        zero = lambda w: np.zeros(2)  # noqa: E731
        scheme = GeneratingScheme(
            oscillator_alpha(0.0),
            (zero, zero),
            (lambda w: np.array([[0.0, 2.0], [2.0, 0.0]]), lambda w: np.zeros((2, 2))),
            lambda t0: scheme,
        )
        z0 = np.array([0.5, 0.5])
        with pytest.raises(TransversalityError):
            step_jacobian(sys0, scheme, z0, 0.0, 0.1)

        def certify(z, t_k, z_next):
            jac = step_jacobian(sys0, scheme, z, t_k, 0.1)
            return symplectic_residual(sys0, jac, z, t_k, z_next, t_k + 0.1)

        with pytest.raises(TransversalityError) as info:
            run(lambda z, t: step(sys0, scheme, z, t, 0.1), z0, 0.0, 0.1, 3, certify=certify)
        assert info.value.step_index == 0
        assert len(info.value.trajectory.states) - 1 == 0


class TestFirstNewtonMatrix:
    """The step starts Newton from A - phi0_ww C at every order."""

    def test_chain_step_cost_grows_about_linearly_in_n(self, monkeypatch):
        # the first matrix skips phi1's Hessian and phi2's nested one, whose
        # cost grows as the square of n; a solve on the exact matrix alone
        # is the reference
        base, alpha = chain_system(8)
        calls = []
        system = counting(base, calls)
        scheme = make_scheme(system, alpha, 0.0, 2)
        z = np.random.default_rng(8).uniform(-0.5, 0.5, 16)
        z_new = step(system, scheme, z, 0.0, 0.05)
        assert calls.count("K") <= 200

        def exact_only(terms, x0, inverse, _start=None):
            return newton_solve(terms, x0, inverse)

        monkeypatch.setattr(stepper, "newton_solve", exact_only)
        reference = step(system, scheme, z, 0.0, 0.05)
        assert np.max(np.abs(z_new - reference)) <= 1e-12

    @pytest.mark.parametrize(
        "order, tau", [(1, 2.0), (1, 3.0), (1, 5.0), (2, 3.0), (2, 5.0)], ids=str
    )
    def test_large_step_needs_the_exact_refresh(
        self, osc_system, osc_alpha, monkeypatch, order, tau
    ):
        # at these steps the first matrix A - phi0_ww C does not contract:
        # a solve that refreshed with it would hit the iteration cap, so
        # the closed form is met only through the exact A - Psi_ww C
        closed, tol = {1: (scheme_first_order, 1e-10), 2: (scheme_second_order, 1e-8)}[order]
        z = np.array([0.7, -1.3])
        scheme = make_scheme(osc_system, osc_alpha, 0.3, order)
        full, linearization = [], stepper._linearization

        def spy(sch, coeff_jacobians, *args):
            full.append(len(coeff_jacobians) == order + 1)
            return linearization(sch, coeff_jacobians, *args)

        monkeypatch.setattr(stepper, "_linearization", spy)
        z1 = step(osc_system, scheme, z, 0.3, tau)
        expected = closed(NU, tau) @ z
        assert np.max(np.abs(z1 - expected)) <= tol * max(1.0, float(np.max(np.abs(expected))))
        assert any(full)

    def test_singular_first_matrix_raises_transversality_error(self):
        # on the undamped transform A = [[0, 1], [1, 0]], C = diag(0.5, -0.5):
        # phi0_ww = [[0, 2], [2, 0]] makes the first matrix [[0, 2], [0, 0]]
        # singular, though phi1_ww = 0 and tau^2 phi2_ww = I make the exact
        # one [[-0.5, 2], [0, 0.5]] regular
        sys0 = oscillator_system(0.0)

        scheme = GeneratingScheme(
            oscillator_alpha(0.0),
            (lambda w: np.zeros(2),) * 3,
            (
                lambda w: np.array([[0.0, 2.0], [2.0, 0.0]]),
                lambda w: np.zeros((2, 2)),
                lambda w: 100.0 * np.eye(2),
            ),
            lambda t0: scheme,
        )
        with pytest.raises(TransversalityError, match="A - Psi_ww C"):
            step(sys0, scheme, np.array([0.5, 0.5]), 0.0, 0.1)

    def test_diverging_step_raises_step_failure_with_its_iterations(self):
        # tau^2 phi2 = (w1^2 + 2, 0) on the undamped transform asks
        # u - z1 = (u + z1)^2 / 4 + 2 of u = z_new[1], which has no real
        # root, so the solve runs into its iteration cap whichever matrix
        # it starts from
        sys0 = oscillator_system(0.0)
        tau = 0.1

        zero = lambda w: np.zeros(2)  # noqa: E731
        zeros = lambda w: np.zeros((2, 2))  # noqa: E731
        scheme = GeneratingScheme(
            oscillator_alpha(0.0),
            (zero, zero, lambda w: np.array([w[1] ** 2 + 2.0, 0.0]) / tau**2),
            (zeros, zeros, lambda w: np.array([[0.0, 2.0 * w[1]], [0.0, 0.0]]) / tau**2),
            lambda t0: scheme,
        )
        with pytest.raises(NewtonError) as info:
            step(sys0, scheme, np.array([0.3, -0.2]), 0.0, tau)
        assert info.value.iterations == MAX_ITER


class TestOrderTwoCostInN:
    def test_chain_step_and_its_jacobian_stay_within_budget(self):
        # on the n = 8 chain (16 states): phi2 reads no Hessian of phi1, so
        # a step and step_jacobian plus step cost calls to K linear in n;
        # they take 19 and 148
        base, alpha = chain_system(8)
        z = np.random.default_rng(8).uniform(-0.5, 0.5, 16)
        calls = []
        system = counting(base, calls)
        step(system, make_scheme(system, alpha, 0.0, 2), z, 0.0, 0.05)
        assert calls.count("K") <= 50
        calls.clear()
        scheme = make_scheme(system, alpha, 0.0, 2)
        step_jacobian(system, scheme, z, 0.0, 0.05)
        step(system, scheme, z, 0.0, 0.05)
        assert calls.count("K") <= 200


def chain_calls_to_k_per_step(n, order):
    """Mean calls to K per step over 10 steps of the n-angle chain.

    tau = 0.05 from a state drawn by default_rng(0) uniform in [-0.5, 0.5],
    with the scheme made at t0 = 0: the set-up of ROADMAP.md's cost table.
    """
    base, alpha = chain_system(n)
    calls = []
    system = counting(base, calls)
    scheme = make_scheme(system, alpha, 0.0, order)
    z = np.random.default_rng(0).uniform(-0.5, 0.5, 2 * n)
    integrate(system, scheme, z, 0.0, 0.05, 10)
    return calls.count("K") / 10


class TestCostAgainstN:
    def test_order_two_step_at_n8_is_pinned(self):
        # the first matrix A - phi0_ww C builds no phi1_ww stencil, whose
        # 2 * dim points grow with n: the calls left are flat in n, 19 per
        # step at n = 2, 4 and 8
        assert chain_calls_to_k_per_step(8, 2) == 19.0

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_order_one_step_stays_flat_in_n(self, n):
        # the order-1 step builds no stencil, and its Broyden updates need
        # no more evaluations at larger n
        assert chain_calls_to_k_per_step(n, 1) <= 8.0


class TestOrderOneCostInN:
    @staticmethod
    def calls_to_k(n, certified):
        # calls to K for one order-1 step of the chain at tau = 0.05, and
        # with ``certified`` for step_jacobian plus step
        base, alpha = chain_system(n)
        z = np.random.default_rng(8).uniform(-0.5, 0.5, 2 * n)
        calls = []
        system = counting(base, calls)
        scheme = make_scheme(system, alpha, 0.0, 1)
        if certified:
            step_jacobian(system, scheme, z, 0.0, 0.05)
        step(system, scheme, z, 0.0, 0.05)
        return calls.count("K")

    def test_chain_step_and_its_jacobian_stay_within_budget(self):
        # on the n = 8 chain (16 states), a first matrix with phi1's
        # Hessian took 36 calls to K for a step and 69 for step_jacobian
        # plus step; without it they take 7 and 40
        assert self.calls_to_k(8, certified=False) <= 12
        assert self.calls_to_k(8, certified=True) <= 50

    def test_chain_step_cost_is_flat_in_n(self):
        # a first matrix with phi1's Hessian took 12 calls at n = 2 and 36
        # at n = 8; without it both take 7
        assert self.calls_to_k(8, certified=False) <= self.calls_to_k(2, certified=False) + 2

    def test_step_builds_no_stencil(self, monkeypatch):
        # phi1's Hessian is a 2 dim-point stencil of phi1: the step's first
        # matrix drops it, and only the exact step Jacobian builds it, once
        # (through numdiff.stencil on the Darboux path, numdiff.jacobian on
        # the generic one)
        calls = []

        def counted(fn):
            def wrapped(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(numdiff, "jacobian", counted(numdiff.jacobian))
        monkeypatch.setattr(numdiff, "stencil", counted(numdiff.stencil))
        system, alpha = chain_system(2)
        z = np.array([0.5, -0.4, 0.3, 0.2])
        step(system, make_scheme(system, alpha, 0.0, 1), z, 0.0, 0.05)
        assert len(calls) == 0
        step_jacobian(system, make_scheme(system, alpha, 0.0, 1), z, 0.0, 0.05)
        assert len(calls) == 1


@pytest.mark.parametrize("n", [1, 2], ids=lambda n: f"n{n}")
class TestPendulumChainGoldens:
    # nu = 0.3, coupling 0.1 from a state away from the equilibrium
    Z0 = {1: np.array([0.9, -0.4]), 2: np.array([0.5, -0.4, 0.3, 0.2])}

    @pytest.mark.parametrize("order", [1, 2])
    def test_convergence_slope_against_rk4(self, n, order):
        system, alpha = chain_system(n)
        scheme = make_scheme(system, alpha, 0.0, order)
        reference = rk4_state(system, self.Z0[n], 0.0, 0.8, 400)
        report = convergence_order(
            system,
            lambda tau: lambda z, t_k: step(system, scheme, z, t_k, tau),
            lambda t: reference,
            self.Z0[n],
            0.0,
            0.8,
            [0.2, 0.1, 0.05],
        )
        assert abs(report.slope - order) <= 0.2

    @pytest.mark.parametrize("order", [1, 2])
    def test_per_step_residuals(self, n, order):
        system, alpha = chain_system(n)
        scheme = make_scheme(system, alpha, 0.0, order)

        def certify(z, t_k, z_next):
            jac = step_jacobian(system, scheme, z, t_k, 0.1)
            return symplectic_residual(system, jac, z, t_k, z_next, t_k + 0.1)

        traj = run(
            lambda z, t_k: step(system, scheme, z, t_k, 0.1),
            self.Z0[n], 0.0, 0.1, 8, certify=certify,
        )
        assert max(traj.residuals) <= 1e-10


@pytest.mark.parametrize("order", [1, 2])
class TestShearedDarbouxGoldens:
    # the uncoupled chain through the non-diagonal P(t) of sheared_chain
    Z0 = np.array([0.5, -0.4, 0.3, 0.2])

    def test_convergence_slope_against_rk4(self, order):
        system, alpha = sheared_chain()
        scheme = make_scheme(system, alpha, 0.0, order)
        reference = rk4_state(system, self.Z0, 0.0, 0.8, 400)
        report = convergence_order(
            system,
            lambda tau: lambda z, t_k: step(system, scheme, z, t_k, tau),
            lambda t: reference,
            self.Z0,
            0.0,
            0.8,
            [0.2, 0.1, 0.05],
        )
        assert abs(report.slope - order) <= 0.2

    def test_per_step_residuals(self, order):
        system, alpha = sheared_chain()
        scheme = make_scheme(system, alpha, 0.0, order)

        def certify(z, t_k, z_next):
            jac = step_jacobian(system, scheme, z, t_k, 0.1)
            return symplectic_residual(system, jac, z, t_k, z_next, t_k + 0.1)

        traj = run(
            lambda z, t_k: step(system, scheme, z, t_k, 0.1), self.Z0, 0.0, 0.1, 8, certify=certify
        )
        assert max(traj.residuals) <= 1e-8


class TestMixingDarbouxChain:
    # the coupled chain through mixing_chain's P(t), whose K(t) changes
    # shape with t; 400 RK4 steps give the reference to 2e-13
    Z0 = np.array([0.5, -0.4, 0.3, 0.2])

    def test_transform_is_compatible(self):
        system, alpha = mixing_chain()
        rng = np.random.default_rng(1)
        for _ in range(5):
            z_new, z_old = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
            t, t0 = rng.uniform(0, 1, 2)
            assert alpha_verify(alpha, system, z_new, z_old, t, t0) <= 1e-12

    @pytest.mark.parametrize("order", [1, 2])
    def test_convergence_slopes_against_rk4(self, order):
        # measured: 0.97 and 0.99 at order 1, 1.97 and 1.98 at order 2
        system, alpha = mixing_chain()
        scheme = make_scheme(system, alpha, 0.2, order)
        reference = rk4_state(system, self.Z0, 0.2, 1.0, 400)
        report = convergence_order(
            system,
            lambda tau: lambda z, t_k: step(system, scheme, z, t_k, tau),
            lambda t: reference,
            self.Z0,
            0.2,
            1.0,
            [0.1, 0.05, 0.025],
        )
        errors = report.errors
        for coarse, fine in zip(errors, errors[1:]):
            assert abs(np.log2(coarse / fine) - order) <= 0.1


@functools.lru_cache(maxsize=None)
def scaled_chain_path(c, order, t0=0.2):
    """States and step Jacobians of 3 steps of the n = 2 chain with F, B, K, D and lam times c.

    tau = 0.05 from ``t0`` and ``default_rng(0)``; the Jacobian k is the
    one of the step from state k.
    """
    base, _ = chain_system(2)
    system = BirkhoffSystem(
        n=2,
        F=lambda z, t: c * base.F(z, t),
        B=lambda z, t: c * base.B(z, t),
        K=lambda z, t: c * base.K(z, t),
        D=lambda z, t: c * base.D(z, t),
    )
    alpha = scaled_canonical_alpha(
        lambda t: c * np.exp(CHAIN_NU * t), 2, lam_dot=lambda t: c * CHAIN_NU * np.exp(CHAIN_NU * t)
    )
    scheme = make_scheme(system, alpha, t0, order)
    states, jacobians = [np.random.default_rng(0).uniform(-0.5, 0.5, 4)], []
    for k in range(3):
        t_k = t0 + 0.05 * k
        jacobians.append(step_jacobian(system, scheme, states[-1], t_k, 0.05))
        states.append(step(system, scheme, states[-1], t_k, 0.05))
    return np.array(states), np.array(jacobians)


class TestScaleRelation:
    """Scaling F, B, K, D and lam(t) by c leaves the step map unchanged.

    K dz/dt + D = 0 is the same equation for every c, and P = diag(I, lam I)
    stays its Darboux matrix, so any scale-dependent predicate or tolerance
    shows up as a moved state or Jacobian.  The chain's F, B, K, D and lam
    all carry the factor e^{nu t}, so starting the same path s later is
    the relation with c = e^{nu s}.
    """

    @pytest.mark.parametrize("order", [1, 2])
    @settings(max_examples=6)
    @given(e=st.floats(-200.0, 300.0))
    @example(e=-200.0)
    @example(e=-8.0)
    @example(e=8.0)
    @example(e=300.0)
    def test_states_and_step_jacobians_do_not_move(self, e, order):
        # c = 10**e spans 1e-200 .. 1e300
        c = 10.0**e
        states, jacobians = scaled_chain_path(c, order)
        ref_states, ref_jacobians = scaled_chain_path(1.0, order)
        assert np.max(np.abs(states - ref_states)) <= 1e-11
        assert np.max(np.abs(jacobians - ref_jacobians)) <= 1e-11

    @pytest.mark.parametrize("order", [1, 2])
    @settings(max_examples=6)
    @given(s=st.floats(-300.0, 2000.0))
    @example(s=-300.0)
    @example(s=1.7)
    @example(s=800.0)
    @example(s=2000.0)
    def test_time_shift_does_not_move_states_or_step_jacobians(self, s, order):
        # e^{nu s} spans e^-90 .. e^600
        states, jacobians = scaled_chain_path(1.0, order, 0.2 + s)
        ref_states, ref_jacobians = scaled_chain_path(1.0, order)
        assert np.max(np.abs(states - ref_states)) <= 1e-11
        assert np.max(np.abs(jacobians - ref_jacobians)) <= 1e-11


def chain_p(t):
    """The chain's Darboux matrix P(t) = diag(I, e^{nu t} I) for n = 2."""
    return np.diag([1.0, 1.0, np.exp(CHAIN_NU * t), np.exp(CHAIN_NU * t)])


def chain_p_dot(t):
    """The analytic dP/dt of :func:`chain_p`."""
    return np.diag([0.0, 0.0, CHAIN_NU * np.exp(CHAIN_NU * t), CHAIN_NU * np.exp(CHAIN_NU * t)])


@functools.lru_cache(maxsize=None)
def linear_change_path(system, p, p_dot, order, draw=None):
    """Q, states and step Jacobians of 3 steps of ``system`` in z' = Q z.

    Q = I + 0.3 U(-1, 1) from ``default_rng(draw)``, or I if draw is None.
    The system in z' has F' = Q^-T F(Q^-1 z'), B' = B(Q^-1 z'),
    K' = Q^-T K(Q^-1 z') Q^-1 and D' = Q^-T D(Q^-1 z'), and its transform is
    ``darboux_alpha`` of P' = P Q^-1, so y = P' z' = P z.  tau = 0.05 from
    t0 = 0.2; the states start at Q z0 with z0 from ``default_rng(0)``.
    """
    q = np.eye(system.dim)
    if draw is not None:
        q += 0.3 * np.random.default_rng(draw).uniform(-1.0, 1.0, q.shape)
    q_inv = np.linalg.inv(q)
    changed = BirkhoffSystem(
        n=system.n,
        F=lambda z, t: q_inv.T @ system.F(q_inv @ z, t),
        B=lambda z, t: system.B(q_inv @ z, t),
        K=lambda z, t: q_inv.T @ system.K(q_inv @ z, t) @ q_inv,
        D=lambda z, t: q_inv.T @ system.D(q_inv @ z, t),
    )
    alpha = darboux_alpha(lambda t: p(t) @ q_inv, system.n, lambda t: p_dot(t) @ q_inv)
    scheme = make_scheme(changed, alpha, 0.2, order)
    states, jacobians = [q @ np.random.default_rng(0).uniform(-0.5, 0.5, system.dim)], []
    for k in range(3):
        t_k = 0.2 + 0.05 * k
        jacobians.append(step_jacobian(changed, scheme, states[-1], t_k, 0.05))
        states.append(step(changed, scheme, states[-1], t_k, 0.05))
    return q, np.array(states), np.array(jacobians)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize(
    "system, p, p_dot",
    [
        (chain_system(2)[0], chain_p, chain_p_dot),
        (sheared_chain()[0], shear_p, shear_p_dot),
        (mixing_chain()[0], mixing_p, mixing_p_dot),
    ],
    ids=["chain", "sheared", "mixing"],
)
class TestLinearChangeOfVariables:
    """A constant change of variables z' = Q z commutes with the step map.

    The step relation is built in the Darboux coordinates y = P(t) z, and
    P' = P Q^-1 gives the same y, so step'(Q z) = Q step(z) and the step
    Jacobians are similar under Q, up to roundoff.  On the mixing chain,
    whose K(t) changes shape with t, the states measured <= 1.1e-14 of
    the scale and the step Jacobians <= 7.7e-13.  The time-shift relation
    of :class:`TestScaleRelation` has no counterpart there: its P(t)
    carries sin t and sin 2t terms, so a later start is another system,
    not a rescaled one.
    """

    @pytest.mark.parametrize("draw", range(3))
    def test_step_and_step_jacobian_are_conjugate_under_q(self, system, p, p_dot, order, draw):
        _, states, jacobians = linear_change_path(system, p, p_dot, order)
        q, changed_states, changed_jacobians = linear_change_path(system, p, p_dot, order, draw)
        mapped = states @ q.T
        scale = max(1.0, np.max(np.abs(mapped)))
        assert np.max(np.abs(changed_states - mapped)) <= 1e-12 * scale
        similar = q @ jacobians @ np.linalg.inv(q)
        assert np.max(np.abs(changed_jacobians - similar)) <= 1e-10


def circle_drift(advance):
    """Largest |r^2 + p^2 - 1| over 300 steps of tau = 0.5 from (0.6, -0.8) at t0 = 0."""
    states = np.array(run(advance, np.array([0.6, -0.8]), 0.0, 0.5, 300).states)
    return np.max(np.abs(np.sum(states**2, axis=1) - 1.0))


class TestQuadraticInvariant:
    """The undamped oscillator's r^2 + p^2 is a quadratic invariant.

    K = J0 there, so y = z and the order-1 step is the midpoint rule,
    which keeps every quadratic invariant; the order-2 step is symplectic
    and linear, and keeps this one too.  RK4 is the control the bound must
    reject.
    """

    @pytest.mark.parametrize("order", [1, 2])
    def test_generic_scheme_keeps_the_circle(self, order):
        system = oscillator_system(0.0)
        scheme = make_scheme(system, oscillator_alpha(0.0), 0.0, order)
        assert circle_drift(lambda z, t_k: step(system, scheme, z, t_k, 0.5)) <= 1e-11

    def test_rk4_control_leaves_the_circle(self):
        system = oscillator_system(0.0)
        assert circle_drift(lambda z, t_k: rk4_state(system, z, t_k, 0.5, 1)) > 1e-11


def energy_growth(advance):
    """Max |H - H0| over the last quarter of 400 steps over that of the first.

    The undamped n = 2 chain from (1.2, -0.4, 0.3, 0.8) at t0 = 0 with
    tau = 0.4; with nu = 0, K = J0 and B is the energy H.
    """
    system, _ = chain_system(2, nu=0.0)
    states = run(advance, np.array([1.2, -0.4, 0.3, 0.8]), 0.0, 0.4, 400).states
    drift = np.abs([system.B(z, 0.0) - system.B(states[0], 0.0) for z in states[1:]])
    return np.max(drift[-100:]) / np.max(drift[:100])


class TestLongRunEnergy:
    """A symplectic step keeps the energy error bounded over long runs.

    Backward error analysis: the generic step conserves a modified energy
    near H, so |H - H0| oscillates without growing, and its last quarter
    stays within 1.1 times its first.  RK4 is not symplectic; its error
    drifts, and the bound must reject it.
    """

    @pytest.mark.parametrize("order", [1, 2])
    def test_generic_scheme_energy_error_does_not_grow(self, order):
        system, alpha = chain_system(2, nu=0.0)
        scheme = make_scheme(system, alpha, 0.0, order)
        assert energy_growth(lambda z, t_k: step(system, scheme, z, t_k, 0.4)) <= 1.1

    def test_rk4_control_energy_error_grows(self):
        system, _ = chain_system(2, nu=0.0)
        assert energy_growth(lambda z, t_k: rk4_state(system, z, t_k, 0.4, 1)) > 1.1
