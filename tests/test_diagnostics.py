import numpy as np
import pytest

from birkhoff import (
    convergence_order,
    euler_center,
    exact_solution,
    integrate,
    run,
    scheme_first_order,
    scheme_second_order,
    step,
    step_jacobian,
    symplectic_residual,
)
from birkhoff.diagnostics import MAX_TOTAL_STEPS, fit_slope

NU = 0.5

# closed-form determinant of the center-difference scheme gives the
# residual at the trajectory start: e^(nu t0) |e^(nu tau) det - 1|
EULER_RESIDUAL_05_01 = 1.1435202682586434e-4


def matrix_step(matrix):
    return lambda z, t: matrix @ z


def generating_scheme(system, scheme, tau):
    """(advance, jacobian) pair of a generating scheme: step and its exact Jacobian."""
    return (
        lambda z, t: step(system, scheme, z, t, tau),
        lambda z, t: step_jacobian(system, scheme, z, t, tau),
    )


class TestSymplecticResidual:
    def test_first_order_scheme_preserves(self, osc_system):
        mat = scheme_first_order(NU, 0.1)
        z = np.array([1.0, 0.0])
        assert symplectic_residual(osc_system, mat, z, 0.0, mat @ z, 0.1) <= 1e-13

    def test_identity_at_equal_times_is_exact_zero(self, osc_system):
        z = np.array([0.3, -0.8])
        assert symplectic_residual(osc_system, np.eye(2), z, 0.7, z, 0.7) == 0.0

    def test_euler_center_matches_the_determinant_oracle(self, osc_system):
        mat = euler_center(NU, 0.1)
        z = np.array([1.0, 0.0])
        res = symplectic_residual(osc_system, mat, z, 0.0, mat @ z, 0.1)
        oracle = abs(np.exp(NU * 0.1) * np.linalg.det(mat) - 1.0)
        assert res == pytest.approx(oracle, rel=1e-12)
        assert res == pytest.approx(EULER_RESIDUAL_05_01, rel=1e-9)

    def test_translation_invariance_for_constant_jacobians(self, osc_system, rng):
        mat = scheme_second_order(NU, 0.1)
        values = []
        for _ in range(5):
            z = rng.uniform(-3, 3, 2)
            values.append(symplectic_residual(osc_system, mat, z, 0.0, mat @ z, 0.1))
        assert max(values) - min(values) <= 1e-12

    def test_dimension_mismatch_rejected(self, osc_system):
        with pytest.raises(ValueError):
            symplectic_residual(osc_system, np.eye(3), np.zeros(2), 0.0, np.zeros(2), 0.1)
        with pytest.raises(ValueError):
            symplectic_residual(osc_system, np.eye(2), np.zeros(4), 0.0, np.zeros(4), 0.1)


class TestConvergenceOrder:
    def test_first_order_scheme_slope(self, osc_system):
        report = convergence_order(
            osc_system,
            lambda tau: matrix_step(scheme_first_order(NU, tau)),
            lambda t: exact_solution(NU, 1.0, 0.0, t),
            np.array([1.0, 0.0]),
            0.0,
            1.0,
            [0.1, 0.05, 0.025, 0.0125],
        )
        assert 0.8 <= report.slope <= 1.2
        assert all(e > 0 for e in report.errors)

    def test_second_order_scheme_slope(self, osc_system):
        report = convergence_order(
            osc_system,
            lambda tau: matrix_step(scheme_second_order(NU, tau)),
            lambda t: exact_solution(NU, 1.0, 0.0, t),
            np.array([1.0, 0.0]),
            0.0,
            1.0,
            [0.1, 0.05, 0.025, 0.0125],
        )
        assert 1.8 <= report.slope <= 2.2

    def test_undamped_first_order_degenerates_to_midpoint(self):
        from birkhoff import oscillator_system

        sys0 = oscillator_system(0.0)
        report = convergence_order(
            sys0,
            lambda tau: matrix_step(scheme_first_order(0.0, tau)),
            lambda t: exact_solution(0.0, 1.0, 0.0, t),
            np.array([1.0, 0.0]),
            0.0,
            1.0,
            [0.1, 0.05, 0.025, 0.0125],
        )
        assert 1.8 <= report.slope <= 2.2

    def test_requires_three_step_sizes(self, osc_system):
        with pytest.raises(ValueError):
            convergence_order(
                osc_system,
                lambda tau: matrix_step(scheme_first_order(NU, tau)),
                lambda t: exact_solution(NU, 1.0, 0.0, t),
                np.array([1.0, 0.0]),
                0.0,
                1.0,
                [0.1, 0.05],
            )

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan, np.inf])
    def test_requires_finite_positive_horizon(self, osc_system, horizon):
        # a negative horizon used to fail only as "not an integer multiple"
        # of a tau, a NaN one as "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            convergence_order(
                osc_system,
                lambda tau: matrix_step(scheme_first_order(NU, tau)),
                lambda t: exact_solution(NU, 1.0, 0.0, t),
                np.array([1.0, 0.0]),
                0.0,
                horizon,
                [0.1, 0.05, 0.025],
            )

    def test_requires_decreasing_divisible_steps(self, osc_system):
        factory = lambda tau: matrix_step(scheme_first_order(NU, tau))  # noqa: E731
        reference = lambda t: exact_solution(NU, 1.0, 0.0, t)  # noqa: E731
        with pytest.raises(ValueError):
            convergence_order(
                osc_system, factory, reference, np.array([1.0, 0.0]), 0.0, 1.0,
                [0.05, 0.1, 0.025],
            )
        with pytest.raises(ValueError):
            convergence_order(
                osc_system, factory, reference, np.array([1.0, 0.0]), 0.0, 1.0,
                [0.1, 0.05, 0.03],
            )

    @pytest.mark.parametrize(
        "taus", [[0.1, 0.05, 0.0], [np.nan, 0.05, 0.025], [np.inf, 0.1], [0.1, -0.05, 0.025]]
    )
    def test_requires_finite_positive_steps_before_other_checks(self, osc_system, taus):
        factory = lambda tau: matrix_step(scheme_first_order(NU, tau))  # noqa: E731
        reference = lambda t: exact_solution(NU, 1.0, 0.0, t)  # noqa: E731
        with pytest.raises(ValueError, match="tau values must be finite and positive"):
            convergence_order(
                osc_system, factory, reference, np.array([1.0, 0.0]), 0.0, 1.0, taus
            )

    def test_state_of_another_length_rejected_before_the_first_run(self, osc_system):
        # sys used to be unread, so a 3-vector reached the step map and
        # failed there with numpy's matmul mismatch
        calls = []

        def factory(tau):
            mat = scheme_first_order(NU, tau)

            def advance(z, t):
                calls.append(t)
                return mat @ z

            return advance

        message = r"state of shape \(3,\) does not match system dimension 2"
        with pytest.raises(ValueError, match=message):
            convergence_order(
                osc_system, factory, lambda t: np.zeros(3), np.ones(3), 0.0, 1.0,
                [0.1, 0.05, 0.025],
            )
        assert calls == []

    def test_step_that_does_not_divide_the_horizon_rejected_before_the_first_run(
        self, osc_system
    ):
        # the divisor test used to run per tau inside the run loop, so the
        # two dividing taus cost 30 step-map calls before the error
        calls = []

        def factory(tau):
            mat = scheme_first_order(NU, tau)

            def advance(z, t):
                calls.append(t)
                return mat @ z

            return advance

        with pytest.raises(ValueError, match="horizon 1.0 is not an integer multiple of tau 0.03"):
            convergence_order(
                osc_system, factory, lambda t: exact_solution(NU, 1.0, 0.0, t),
                np.array([1.0, 0.0]), 0.0, 1.0, [0.1, 0.05, 0.03],
            )
        assert calls == []

    def test_step_count_that_overflows_rejected_before_the_first_run(self, osc_system):
        # 1e300 / 1e-10 is inf, which round() turns into an OverflowError
        calls = []

        def factory(tau):
            calls.append(tau)
            return matrix_step(scheme_first_order(NU, tau))

        with pytest.raises(ValueError, match="over tau 1e-10 overflows the step count"):
            convergence_order(
                osc_system, factory, lambda t: exact_solution(NU, 1.0, 0.0, t),
                np.array([1.0, 0.0]), 0.0, 1e300, [1e-10, 1e-20, 1e-30],
            )
        assert calls == []

    def test_ladder_over_the_step_bound_rejected_before_the_reference(self, osc_system):
        # a finite but huge step count used to run without bound; here the
        # ladder takes 1.75 MAX_TOTAL_STEPS steps
        calls = []

        def reference(t):
            calls.append(t)
            return exact_solution(NU, 1.0, 0.0, t)

        def factory(tau):
            calls.append(tau)
            return matrix_step(scheme_first_order(NU, tau))

        with pytest.raises(ValueError, match="the tau ladder takes 1750000 steps, more than"):
            convergence_order(
                osc_system, factory, reference, np.array([1.0, 0.0]), 0.0,
                float(MAX_TOTAL_STEPS), [4.0, 2.0, 1.0],
            )
        assert calls == []

    @pytest.mark.parametrize(
        "z0, t0",
        [([np.nan, 0.0], 0.0), ([np.inf, 0.0], 0.0), ([1.0, 0.0], np.nan), ([1.0, 0.0], np.inf)],
        ids=["nan-z0", "inf-z0", "nan-t0", "inf-t0"],
    )
    def test_non_finite_start_rejected_before_the_reference(self, osc_system, z0, t0):
        # the reference used to be evaluated first and blamed for the bad start
        calls = []

        def reference(t):
            calls.append(t)
            return exact_solution(NU, 1.0, 0.0, t)

        with pytest.raises(ValueError, match="need finite t0 and z0"):
            convergence_order(
                osc_system, lambda tau: matrix_step(scheme_first_order(NU, tau)), reference,
                np.array(z0), t0, 1.0, [0.1, 0.05, 0.025],
            )
        assert calls == []

    @pytest.mark.parametrize(
        "reference, message",
        [
            # the exact solution of the overdamped branch is not implemented
            (lambda t: exact_solution(2.5, 1.0, 0.0, t), "underdamped branch"),
            (lambda t: np.zeros(3), r"state of shape \(3,\) does not match"),
            (lambda t: np.array([np.nan, 0.0]), "reference state at t = 1.0 must be finite"),
        ],
        ids=["raises", "wrong-length", "non-finite"],
    )
    def test_reference_rejected_before_the_first_run(self, osc_system, reference, message):
        # the reference used to be read only after each run, so a raising one
        # cost a full integration at the first tau before its error
        calls = []

        def factory(tau):
            calls.append(tau)
            return matrix_step(scheme_first_order(NU, tau))

        with pytest.raises(ValueError, match=message):
            convergence_order(
                osc_system, factory, reference, np.array([1.0, 0.0]), 0.0, 1.0,
                [0.1, 0.05, 0.025],
            )
        assert calls == []

    def test_reference_evaluated_once_at_the_final_time(self, osc_system):
        # it used to be evaluated again after every run, at the same time
        times = []

        def reference(t):
            times.append(t)
            return exact_solution(NU, 1.0, 0.0, t)

        convergence_order(
            osc_system, lambda tau: matrix_step(scheme_first_order(NU, tau)), reference,
            np.array([1.0, 0.0]), 0.25, 1.0, [0.1, 0.05, 0.025],
        )
        assert times == [1.25]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf])
    def test_error_without_a_logarithm_is_named(self, bad):
        # an error of 0 (a start at the equilibrium) used to give slope nan
        # and a RuntimeWarning from log
        with pytest.raises(ValueError, match="error at tau = 0.05 must be positive and finite"):
            fit_slope([0.1, 0.05, 0.025], [1e-2, bad, 1e-3])

    def test_lists_of_unequal_lengths_are_named(self):
        # used to raise numpy's TypeError from inside polyfit
        with pytest.raises(ValueError, match="got 3 tau values but 2 errors"):
            fit_slope([0.1, 0.05, 0.025], [1e-2, 1e-3])

    def test_slopes_are_reproducible(self, osc_system):
        def run():
            return convergence_order(
                osc_system,
                lambda tau: matrix_step(scheme_first_order(NU, tau)),
                lambda t: exact_solution(NU, 1.0, 0.0, t),
                np.array([1.0, 0.0]),
                0.0,
                1.0,
                [0.1, 0.05, 0.025],
            )

        assert run().slope == run().slope


class TestCompare:
    def test_ranks_schemes_by_structure_preservation(self, osc_system):
        # order-1/order-2 one-step maps against the center-difference
        # baseline; the residual grows like the pairing scale on the
        # baseline only
        z0 = np.array([1.0, 0.0])
        reference = exact_solution(NU, 1.0, 0.0, 10.0)
        max_residual, final_error = {}, {}
        for name, matrix in (
            ("order-1", scheme_first_order(NU, 0.1)),
            ("order-2", scheme_second_order(NU, 0.1)),
            ("euler-center", euler_center(NU, 0.1)),
        ):

            def certify(z, t_k, z_next, matrix=matrix):
                return symplectic_residual(osc_system, matrix, z, t_k, z_next, t_k + 0.1)

            traj = run(matrix_step(matrix), z0, 0.0, 0.1, 100, certify=certify)
            max_residual[name] = max(traj.residuals)
            final_error[name] = np.max(np.abs(traj.states[-1] - reference))
        assert max_residual["euler-center"] > 1e-3
        assert max_residual["order-1"] <= 1e-6
        assert max_residual["order-2"] <= 1e-6
        assert final_error["order-2"] < final_error["order-1"]


class TestExactCertificate:
    def test_fills_one_residual_per_step(self, osc_system, osc_scheme_m2):
        z0 = np.array([1.0, 0.0])
        traj = integrate(osc_system, osc_scheme_m2, z0, 0.0, 0.1, 5)
        assert traj.residuals is None
        advance, jacobian = generating_scheme(osc_system, osc_scheme_m2, 0.1)
        filled = run(
            advance,
            z0,
            0.0,
            0.1,
            5,
            certify=lambda z, t, z_next: symplectic_residual(
                osc_system, jacobian(z, t), z, t, z_next, t + 0.1
            ),
        )
        assert len(filled.residuals) == 5
        assert max(filled.residuals) <= 1e-6
        for old, new in zip(traj.states, filled.states):
            np.testing.assert_array_equal(old, new)
