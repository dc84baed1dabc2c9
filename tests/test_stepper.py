import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff import (
    BirkhoffSystem,
    CoefficientSet,
    EvaluationError,
    GeneratingScheme,
    StepFailure,
    Trajectory,
    TransversalityError,
    convergence_order,
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
)
from birkhoff.core import _det_margin
from pendulum_chain import chain_system, rk4_state, sheared_chain

NU = 0.5


class TestTrajectory:
    def test_grid_times_are_fused_multiply_adds(self):
        traj = Trajectory(0.5, 0.1, tuple(np.zeros(2) for _ in range(4)))
        assert traj.time(3) == 0.5 + 3 * 0.1
        np.testing.assert_array_equal(traj.times, 0.5 + 0.1 * np.arange(4))

    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            Trajectory(0.0, 0.1, ())
        with pytest.raises(ValueError):
            Trajectory(0.0, -0.1, (np.zeros(2),))
        with pytest.raises(ValueError):
            Trajectory(0.0, 0.1, (np.zeros(2), np.zeros(2)), residuals=(0.0, 0.0))

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
        with pytest.raises(ValueError):
            Trajectory(t0, tau, (np.array(z0),))


class TestStep:
    def test_first_order_matches_closed_form_column(self, osc_system, osc_scheme_m1):
        z1 = step(osc_system, osc_scheme_m1, np.array([1.0, 0.0]), 0.0, 0.1)
        assert np.max(np.abs(z1 - scheme_first_order(NU, 0.1)[:, 0])) <= 1e-10

    def test_second_order_matches_closed_form_column(self, osc_system, osc_scheme_m2):
        z1 = step(osc_system, osc_scheme_m2, np.array([1.0, 0.0]), 0.0, 0.1)
        assert np.max(np.abs(z1 - scheme_second_order(NU, 0.1)[:, 0])) <= 1e-10

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        nu=st.floats(0.0, 1.0),
        tau=st.floats(0.01, 0.2),
        z=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
        t0=st.floats(0.0, 2.0),
    )
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

    def test_step_away_from_expansion_time_reuses_rebased_coefficients(
        self, osc_system, osc_scheme_m2
    ):
        # the transition matrix of the scaled oscillator is time invariant,
        # so a step at t=2 must match the closed form too
        z1 = step(osc_system, osc_scheme_m2, np.array([0.2, -1.0]), 2.0, 0.1)
        expected = scheme_second_order(NU, 0.1) @ np.array([0.2, -1.0])
        assert np.max(np.abs(z1 - expected)) <= 1e-10

    @pytest.mark.filterwarnings("ignore:overflow encountered in det")
    def test_step_where_det_k_overflows(self, osc_system, osc_scheme_m2):
        # at t=800, K = e^{400} J0 has a determinant past the float range,
        # yet K is a scaled rotation and the step must go through; the
        # coefficients re-expanded at that scale reach about 1e-6
        z1 = step(osc_system, osc_scheme_m2, np.array([0.2, -1.0]), 800.0, 0.1)
        expected = scheme_second_order(NU, 0.1) @ np.array([0.2, -1.0])
        assert np.max(np.abs(z1 - expected)) <= 1e-5


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
        def bad_coeffs(t0):
            poison = np.nan if t0 >= 0.25 else 0.0

            def phi1(w):
                return np.array([-w[0] + poison, -w[1]])

            return CoefficientSet(
                t0, 1, (lambda w: np.zeros(2), phi1), (lambda w: np.zeros((2, 2)),) * 2
            )

        scheme = GeneratingScheme(osc_alpha, bad_coeffs(0.0), bad_coeffs)
        with pytest.raises(StepFailure) as info:
            integrate(osc_system, scheme, np.array([1.0, 0.0]), 0.0, 0.1, 10)
        failure = info.value
        assert failure.step_index == 3
        assert failure.trajectory.steps == 3
        np.testing.assert_array_equal(failure.trajectory.states[0], [1.0, 0.0])

    @pytest.mark.parametrize(
        "name, order",
        [(name, order) for name in ("K", "D", "grad_b", "df_dt") for order in (1, 2)]
        + [(name, order) for name in ("B", "F") for order in (1, 2)],
    )
    def test_non_finite_user_output_raises_evaluation_error(self, name, order):
        # the analytic K, D, grad_b, df_dt, B or F turns NaN from t = 0.3 on,
        # so the step from t = 0.3 (index 3) fails, with the three steps
        # before it kept; grad_b and df_dt are only read when D is not
        # supplied, and B and F are differenced when grad_b or df_dt is not
        base = oscillator_system(NU)
        healthy = getattr(base, name)

        def poisoned(z, t):
            out = np.asarray(healthy(z, t), dtype=float)
            return out * np.nan if t > 0.29 else out

        dropped = {
            "grad_b": {"D": None},
            "df_dt": {"D": None},
            "B": {"D": None, "grad_b": None},
            "F": {"D": None, "df_dt": None},
        }.get(name, {})
        system = dataclasses.replace(base, **{name: poisoned}, **dropped)
        scheme = make_scheme(system, oscillator_alpha(NU), 0.0, order)
        with pytest.raises(EvaluationError, match=f"{name} returned non-finite values") as info:
            integrate(system, scheme, np.array([1.0, 0.0]), 0.0, 0.1, 10)
        assert info.value.step_index == 3
        assert info.value.trajectory.steps == 3

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.ones(2), r"B must return shape \(\), got \(2,\)"),
            (np.ones((1, 1)), r"B must return shape \(\), got \(1, 1\)"),
            (None, "B returned non-finite values"),
        ],
        ids=["shape-2", "shape-1x1", "none"],
    )
    def test_misshapen_b_raises_evaluation_error(self, bad, message):
        # B is read through the check every callable shares; it used to
        # raise a bare TypeError here, with no step index attached.  B is
        # differenced when neither D nor grad_b is supplied
        base = oscillator_system(NU)

        def broken(z, t):
            return bad if t > 0.29 else base.B(z, t)

        system = dataclasses.replace(base, B=broken, D=None, grad_b=None)
        with pytest.raises(EvaluationError, match=message):
            system.b_at(np.array([1.0, 0.0]), 0.3)
        scheme = make_scheme(system, oscillator_alpha(NU), 0.0, 1)
        with pytest.raises(EvaluationError, match=message) as info:
            integrate(system, scheme, np.array([1.0, 0.0]), 0.0, 0.1, 10)
        assert info.value.step_index == 3
        assert info.value.trajectory.steps == 3

    def test_second_order_runs_from_f_and_b_alone(self):
        # K, D, grad_b and df_dt all differenced: the step residual carries
        # a noise floor above Newton's residual target, where the solve ends
        base = oscillator_system(NU)
        system = dataclasses.replace(base, K=None, D=None, grad_b=None, df_dt=None)
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
        assert info.value.trajectory.steps == 9

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
        with pytest.raises(EvaluationError, match=r"lam_dot\(0\.3") as info:
            integrate(system, scheme, np.array([1.0, 0.0]), 0.0, 0.1, 10)
        assert info.value.step_index == 3
        assert info.value.trajectory.steps == 3

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp")
    def test_any_package_error_carries_partial_trajectory(self, osc_system, osc_scheme_m1):
        # the time scaling overflows at t = 2000, before any Newton iteration
        with pytest.raises(EvaluationError) as info:
            integrate(osc_system, osc_scheme_m1, np.array([1.0, 0.0]), 0.0, 2000.0, 3)
        assert info.value.step_index == 0
        assert info.value.trajectory.steps == 0


class TestRun:
    def test_certify_fills_one_residual_per_step(self, osc_system):
        mat = scheme_first_order(NU, 0.1)

        def certify(z, t_k, z_next):
            return symplectic_residual(osc_system, mat, z, t_k, z_next, t_k + 0.1)

        traj = run(lambda z, t: mat @ z, np.array([1.0, 0.0]), 0.2, 0.1, 4, certify=certify)
        assert traj.steps == 4
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
        assert traj.steps == 3
        assert traj.residuals == (0.0, 0.1, 0.2)
        np.testing.assert_array_equal(traj.states[-1], [3.0, 3.0])

    @pytest.mark.parametrize("n_steps", [True, 2.0, 2.5, "2"], ids=repr)
    def test_non_integral_step_count_rejected_before_the_first_step(self, n_steps):
        # True ran one step and 2.0 raised a bare TypeError from range
        def advance(z, t):
            raise AssertionError("no step may run")

        with pytest.raises(ValueError, match="n_steps must be an integer"):
            run(advance, np.zeros(2), 0.0, 0.1, n_steps)

    def test_numpy_integer_step_count_runs(self):
        traj = run(lambda z, t: z + 1.0, np.zeros(2), 0.0, 0.1, np.int64(3))
        assert traj.steps == 3


class TestStepJacobian:
    def test_linear_scheme_jacobian_is_state_independent(self, osc_system, osc_scheme_m1):
        expected = scheme_first_order(NU, 0.1)
        for z in (np.array([1.0, 0.0]), np.array([-0.4, 0.9])):
            jac = step_jacobian(osc_system, osc_scheme_m1, z, 0.0, 0.1)
            assert np.max(np.abs(jac - expected)) <= 1e-6

    def test_zero_step_gives_identity(self, osc_system, osc_scheme_m1):
        jac = step_jacobian(osc_system, osc_scheme_m1, np.array([0.3, 0.4]), 0.0, 0.0)
        np.testing.assert_allclose(jac, np.eye(2), atol=1e-10)

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

    @pytest.mark.filterwarnings("ignore:overflow encountered in det")
    @pytest.mark.parametrize("order, tol", [(1, 1e-10), (2, 1e-5)])
    def test_exact_jacobian_where_lambda_is_large(self, order, tol):
        # at t=800 the rows of A - Psi_ww C are of order e^{400} and of
        # order 1; the transition matrix of the scaled oscillator is time
        # invariant, so the closed forms still apply
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
        [(step_jacobian, 1, 11), (step_jacobian, 2, 91), (step, 1, 7), (step, 2, 55)],
        ids=["step_jacobian-1", "step_jacobian-2", "step-1", "step-2"],
    )
    def test_calls_to_k_are_pinned(self, fn, order, k_calls):
        # one exact Jacobian solves the step once and adds the top-order
        # Hessian; re-solving per stencil point took 32 (order 1) and 345
        # (order 2) calls here.  The step's Newton matrix A - Psi_ww C is
        # exact too; differencing the residual took 89 calls at order 2.
        # Newton stops at its target: one more polishing update past it
        # took 12, 122, 8 and 78 calls here.  phi2 takes the derivative in
        # the functional's Jacobian slot exactly: a central difference
        # there took 111 and 67 calls at order 2
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
        "fn, order, solves, slogdets",
        [
            (step_jacobian, 1, 25, 6),
            (step_jacobian, 2, 147, 10),
            (step, 1, 16, 5),
            (step, 2, 90, 9),
        ],
        ids=["step_jacobian-1", "step_jacobian-2", "step-1", "step-2"],
    )
    def test_lapack_calls_are_pinned(self, fn, order, solves, slogdets, monkeypatch):
        # each time-only matrix is factored once: the Darboux inverse factor
        # per time pair, the nonsingularity verdict per distinct matrix (for
        # an order-2 step: K at three times, P at four, A' - C' and the
        # step's Newton matrix).  Solving with diag(P(t), P(t0)) on every
        # inverse call and testing every matrix afresh took 53, 333, 32 and
        # 200 solves and 25, 147, 16 and 90 slogdet calls here
        _det_margin.cache_clear()
        calls = {"solve": 0, "slogdet": 0}

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
        assert calls == {"solve": solves, "slogdet": slogdets}

    def test_transform_calls_are_pinned(self):
        # one order-2 step; evaluating each solve's start point a second
        # time for its scale took 5 forward, 182 inverse and 113 blocks
        # calls here, with the identity point's Jacobian read through the
        # forward blocks, and a polishing update past the step's target
        # took 4 forward, 112 inverse, 35 inverse_blocks and 78 blocks;
        # a central difference in the functional's Jacobian slot took 96
        # inverse and 67 blocks calls
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
        assert calls == {"forward": 3, "inverse": 84, "inverse_blocks": 30, "blocks": 55}
        # one identity point's record (phi0, its Jacobian and phi1): one
        # inverse image for the solve, which takes no update, one set of
        # inverse blocks, and the functional's inverse image and blocks.
        # Reading the Jacobian alone, before phi1 joined the record, took
        # 1 inverse and 0 blocks calls
        calls.update(dict.fromkeys(names, 0))
        scheme.coefficients.coeff_jacobians[0](np.array([0.25, -0.5]))
        assert calls == {"forward": 0, "inverse": 2, "inverse_blocks": 1, "blocks": 1}

    def test_lost_transversality_raises(self):
        # zero gradient coefficients make the step a fixed point of the
        # undamped transform; the hand-set Hessian [[0, 2], [2, 0]] makes
        # A - Psi_ww C = [[0, 2], [0, 0]] singular, so the step's own
        # Newton matrix already fails
        sys0 = oscillator_system(0.0)

        def coeffs(t0):
            zero = lambda w: np.zeros(2)  # noqa: E731
            return CoefficientSet(
                t0, 1, (zero, zero),
                (lambda w: np.array([[0.0, 2.0], [2.0, 0.0]]), lambda w: np.zeros((2, 2))),
            )

        scheme = GeneratingScheme(oscillator_alpha(0.0), coeffs(0.0), coeffs)
        z0 = np.array([0.5, 0.5])
        with pytest.raises(TransversalityError):
            step_jacobian(sys0, scheme, z0, 0.0, 0.1)

        def certify(z, t_k, z_next):
            jac = step_jacobian(sys0, scheme, z, t_k, 0.1)
            return symplectic_residual(sys0, jac, z, t_k, z_next, t_k + 0.1)

        with pytest.raises(TransversalityError) as info:
            run(lambda z, t: step(sys0, scheme, z, t, 0.1), z0, 0.0, 0.1, 3, certify=certify)
        assert info.value.step_index == 0
        assert info.value.trajectory.steps == 0


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
