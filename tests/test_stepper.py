import numpy as np
import pytest

from birkhoff import (
    CoefficientSet,
    EvaluationError,
    StepFailure,
    Trajectory,
    assemble_psi,
    exact_solution,
    integrate,
    run,
    scheme_first_order,
    scheme_second_order,
    step,
    step_jacobian,
    symplectic_residual,
)

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


class TestStep:
    def test_first_order_matches_closed_form_column(self, osc_system, osc_scheme_m1):
        z1 = step(osc_system, osc_scheme_m1, np.array([1.0, 0.0]), 0.0, 0.1)
        assert np.max(np.abs(z1 - scheme_first_order(NU, 0.1)[:, 0])) <= 1e-10

    def test_second_order_matches_closed_form_column(self, osc_system, osc_scheme_m2):
        z1 = step(osc_system, osc_scheme_m2, np.array([1.0, 0.0]), 0.0, 0.1)
        assert np.max(np.abs(z1 - scheme_second_order(NU, 0.1)[:, 0])) <= 1e-10

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

        scheme = assemble_psi(bad_coeffs(0.0), osc_alpha, rebase=bad_coeffs)
        with pytest.raises(StepFailure) as info:
            integrate(osc_system, scheme, np.array([1.0, 0.0]), 0.0, 0.1, 10)
        failure = info.value
        assert failure.step_index == 3
        assert failure.trajectory.steps == 3
        np.testing.assert_array_equal(failure.trajectory.states[0], [1.0, 0.0])

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
