import numpy as np
import pytest

from birkhoff import (
    compare,
    convergence_order,
    euler_center,
    exact_solution,
    integrate,
    rows_to_csv,
    run,
    scheme_first_order,
    scheme_second_order,
    step,
    step_jacobian,
    symplectic_residual,
)
from birkhoff.diagnostics import fit_slope

NU = 0.5

# closed-form determinant of the center-difference scheme gives the
# residual at the trajectory start: e^(nu t0) |e^(nu tau) det - 1|
EULER_RESIDUAL_05_01 = 1.1435202682586434e-4


def matrix_step(matrix):
    return lambda z, t: matrix @ z


def matrix_scheme(matrix):
    """(advance, jacobian) pair of a closed-form scheme: the map and its matrix."""
    return matrix_step(matrix), lambda z, t: matrix


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf])
    def test_error_without_a_logarithm_is_named(self, bad):
        # an error of 0 (a start at the equilibrium) used to give slope nan
        # and a RuntimeWarning from log
        with pytest.raises(ValueError, match="error at tau = 0.05 must be positive and finite"):
            fit_slope([0.1, 0.05, 0.025], [1e-2, bad, 1e-3])

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
        schemes = {
            "order-1": matrix_scheme(scheme_first_order(NU, 0.1)),
            "order-2": matrix_scheme(scheme_second_order(NU, 0.1)),
            "euler-center": matrix_scheme(euler_center(NU, 0.1)),
        }
        rows = compare(
            osc_system,
            schemes,
            np.array([1.0, 0.0]),
            0.0,
            0.1,
            100,
            reference=lambda t: exact_solution(NU, 1.0, 0.0, t),
        )
        by_name = {row.name: row for row in rows}
        assert by_name["euler-center"].max_residual > 1e-3
        assert by_name["order-1"].max_residual <= 1e-6
        assert by_name["order-2"].max_residual <= 1e-6
        assert by_name["order-2"].final_error < by_name["order-1"].final_error
        assert all(row.runtime_s >= 0 for row in rows)

    def test_generating_scheme_rows_match_the_stepper(self, osc_system, osc_scheme_m2):
        rows = compare(
            osc_system,
            {"generating-2": generating_scheme(osc_system, osc_scheme_m2, 0.1)},
            np.array([1.0, 0.0]),
            0.0,
            0.1,
            5,
            reference=lambda t: exact_solution(NU, 1.0, 0.0, t),
        )
        assert rows[0].max_residual <= 1e-6
        assert rows[0].final_error <= 1e-2

    def test_single_scheme_single_step_matches_step(self, osc_system, osc_scheme_m1):
        z0 = np.array([1.0, 0.0])
        rows = compare(
            osc_system,
            {"one": generating_scheme(osc_system, osc_scheme_m1, 0.1)},
            z0,
            0.0,
            0.1,
            1,
            reference=lambda t: exact_solution(NU, 1.0, 0.0, t),
        )
        assert len(rows) == 1
        direct = step(osc_system, osc_scheme_m1, z0, 0.0, 0.1)
        expected_err = np.max(np.abs(direct - exact_solution(NU, 1.0, 0.0, 0.1)))
        assert rows[0].final_error == pytest.approx(expected_err, rel=1e-9)

    def test_rows_serialize_to_csv(self, osc_system):
        rows = compare(
            osc_system,
            {"one": matrix_scheme(scheme_first_order(NU, 0.1))},
            np.array([1.0, 0.0]),
            0.0,
            0.1,
            3,
        )
        text = rows_to_csv(rows)
        lines = text.split("\n")
        assert lines[0] == "name,final_error,max_residual,runtime_s,error"
        assert lines[1].startswith("one,,")  # no reference, empty final error
        assert float(lines[1].split(",")[2]) == rows[0].max_residual

    def test_failures_are_recorded_in_row(self, osc_system):
        def broken(z, t):
            raise RuntimeError("deliberately broken scheme")

        rows = compare(
            osc_system,
            {"broken": (broken, broken), "ok": matrix_scheme(scheme_first_order(NU, 0.1))},
            np.array([1.0, 0.0]),
            0.0,
            0.1,
            3,
        )
        by_name = {row.name: row for row in rows}
        assert "deliberately broken" in by_name["broken"].error
        assert by_name["broken"].final_error is None
        assert by_name["ok"].error is None
        assert by_name["ok"].max_residual <= 1e-10


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
