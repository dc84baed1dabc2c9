import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff import (
    euler_center,
    exact_solution,
    make_scheme,
    oscillator_alpha,
    oscillator_system,
    scheme_first_order,
    scheme_second_order,
    step,
    step_jacobian,
    symplectic_residual,
    velocity,
)

NU = 0.5

# frozen by substituting nu=0.5, tau=0.1 into the scheme formulas with
# exact rationals plus e^(-0.05); cross-checked against the implicit
# generating-gradient pipeline, which reproduces them independently
FIRST_ORDER_05_01 = np.array(
    [[0.9950124688279303, 0.09975062344139651], [-0.09488572812974705, 0.9464851380942267]]
)
SECOND_ORDER_05_01 = np.array(
    [[0.9950155782661757, 0.09725700944047608], [-0.0972580229196848, 0.9464880958833795]]
)
EULER_CENTER_05_01 = np.array(
    [[0.9951338199513381, 0.097323600973236], [-0.097323600973236, 0.9464720194647201]]
)


def symmetric_offdiagonal_variant(nu, tau):
    """Second-order matrix with the lower-left magnitude forced to 8a.

    The determinant identity requires the 8a/8b split; this variant is the
    tempting-but-wrong symmetric choice kept as a documented failure case.
    """
    a = 2 * tau - nu * tau**2
    b = 2 * tau + nu * tau**2
    ab = a * b
    d = 16 + ab
    e = np.exp(-nu * tau)
    return np.array([[(16 - ab) / d, 8 * a / d], [-8 * a * e / d, (16 - ab) * e / d]])


class TestOscillatorSystem:
    def test_structure_matrix_at_time_zero(self, osc_system):
        np.testing.assert_array_equal(
            osc_system.k_at(np.array([1.0, 1.0]), 0.0), [[0.0, -1.0], [1.0, 0.0]]
        )

    def test_scalar_value_at_unit_damping(self):
        sys1 = oscillator_system(1.0)
        assert sys1.b_at(np.array([1.0, 1.0]), 0.0) == pytest.approx(1.5, abs=1e-14)

    def test_vector_field_reduces_to_the_equations_of_motion(self, osc_system):
        v = velocity(osc_system, np.array([1.0, 0.0]), 0.0)
        np.testing.assert_allclose(v, [0.0, -1.0], atol=1e-14)

    def test_negative_damping_rejected(self):
        with pytest.raises(ValueError):
            oscillator_system(-0.1)
        with pytest.raises(ValueError):
            oscillator_alpha(-1.0)


class TestClosedFormSchemes:
    def test_first_order_small_step_limit_is_identity(self):
        np.testing.assert_allclose(scheme_first_order(NU, 0.0), np.eye(2), atol=1e-15)

    def test_first_order_frozen_values(self):
        np.testing.assert_allclose(scheme_first_order(0.5, 0.1), FIRST_ORDER_05_01, atol=1e-14)

    def test_second_order_frozen_values(self):
        np.testing.assert_allclose(scheme_second_order(0.5, 0.1), SECOND_ORDER_05_01, atol=1e-14)

    def test_second_order_degenerate_step_size_rejected(self):
        # at nu = 2 this tau makes 16 + ab exactly 0.0 in floating point
        with pytest.raises(ValueError, match="degenerate step size: 16 \\+ ab vanished"):
            scheme_second_order(2.0, 1.600485180440241)

    def test_euler_center_frozen_values(self):
        np.testing.assert_allclose(euler_center(0.5, 0.1), EULER_CENTER_05_01, atol=1e-14)

    @pytest.mark.parametrize("nu", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("tau", [0.1, 0.01])
    def test_determinants_encode_the_damping_factor(self, nu, tau):
        assert abs(np.linalg.det(scheme_first_order(nu, tau)) - np.exp(-nu * tau)) <= 1e-14
        assert abs(np.linalg.det(scheme_second_order(nu, tau)) - np.exp(-nu * tau)) <= 1e-14

    def test_second_order_reduces_to_first_order_when_undamped(self):
        np.testing.assert_allclose(
            scheme_second_order(0.0, 0.2), scheme_first_order(0.0, 0.2), rtol=1e-14
        )

    def test_euler_center_reduces_to_midpoint_when_undamped(self):
        np.testing.assert_allclose(
            euler_center(0.0, 0.2), scheme_first_order(0.0, 0.2), rtol=1e-14
        )


class TestSymplecticityIdentity:
    @pytest.mark.parametrize("factory", [scheme_first_order, scheme_second_order])
    def test_closed_forms_preserve_the_pairing(self, osc_system, factory):
        mat = factory(NU, 0.1)
        z = np.array([1.0, 0.0])
        res = symplectic_residual(osc_system, mat, z, 0.0, mat @ z, 0.1)
        assert res <= 1e-13

    # the bounds of acceptance criterion 2, over random draws
    @settings(max_examples=100)
    @given(
        nu=st.floats(0.0, 1.5),
        tau=st.floats(1e-3, 0.2),
        t0=st.floats(0.0, 1.0),
        z=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    )
    def test_closed_forms_preserve_the_pairing_under_random_draws(self, nu, tau, t0, z):
        sys_nu = oscillator_system(nu)
        z = np.array(z)
        for factory in (scheme_first_order, scheme_second_order):
            mat = factory(nu, tau)
            assert symplectic_residual(sys_nu, mat, z, t0, mat @ z, t0 + tau) <= 1e-13
            assert abs(np.linalg.det(mat) - np.exp(-nu * tau)) <= 1e-14

    @settings(max_examples=10)
    @given(
        nu=st.floats(0.0, 1.5),
        tau=st.floats(1e-3, 0.2),
        t0=st.floats(0.0, 1.0),
        z=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    )
    def test_generic_steps_preserve_the_pairing_under_random_draws(self, nu, tau, t0, z):
        sys_nu, alpha_nu = oscillator_system(nu), oscillator_alpha(nu)
        z = np.array(z)
        for order in (1, 2):
            scheme = make_scheme(sys_nu, alpha_nu, t0, order)
            jac = step_jacobian(sys_nu, scheme, z, t0, tau)
            z_new = step(sys_nu, scheme, z, t0, tau)
            assert symplectic_residual(sys_nu, jac, z, t0, z_new, t0 + tau) <= 1e-6

    def test_symmetric_offdiagonal_variant_fails_the_identity(self, osc_system):
        # diagnostic power of the residual: the symmetric variant looks
        # plausible but its determinant misses e^(-nu tau) by ~5e-4
        mat = symmetric_offdiagonal_variant(NU, 0.1)
        z = np.array([1.0, 0.0])
        res = symplectic_residual(osc_system, mat, z, 0.0, mat @ z, 0.1)
        assert res > 1e-4
        assert abs(np.linalg.det(mat) - np.exp(-NU * 0.1)) > 1e-4

    def test_euler_center_violates_the_identity_when_damped(self, osc_system):
        z = np.array([1.0, 0.0])
        residuals = {}
        for nu in (0.1, 0.5):
            sys_nu = oscillator_system(nu)
            mat = euler_center(nu, 0.1)
            residuals[nu] = symplectic_residual(sys_nu, mat, z, 0.0, mat @ z, 0.1)
        assert residuals[0.5] > 1e-4
        assert residuals[0.5] > residuals[0.1] > 0.0

    def test_euler_center_preserves_the_canonical_pairing_when_undamped(self):
        sys0 = oscillator_system(0.0)
        mat = euler_center(0.0, 0.1)
        z = np.array([1.0, 0.0])
        assert symplectic_residual(sys0, mat, z, 0.0, mat @ z, 0.1) <= 1e-13


class TestPipelineEquivalence:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
    def test_generic_pipeline_reproduces_closed_forms(self, nu):
        sys_nu = oscillator_system(nu)
        alpha_nu = oscillator_alpha(nu)
        tau = 0.1
        for order, closed in ((1, scheme_first_order), (2, scheme_second_order)):
            scheme = make_scheme(sys_nu, alpha_nu, 0.0, order)
            cols = np.column_stack(
                [step(sys_nu, scheme, np.eye(2)[:, i], 0.0, tau) for i in range(2)]
            )
            assert np.max(np.abs(cols - closed(nu, tau))) <= 1e-10


class TestExactSolution:
    def test_initial_condition(self):
        np.testing.assert_allclose(exact_solution(NU, 1.0, -2.0, 0.0), [1.0, -2.0], atol=1e-15)

    def test_undamped_quarter_period(self):
        np.testing.assert_allclose(
            exact_solution(0.0, 1.0, 0.0, np.pi / 2), [0.0, -1.0], atol=1e-12
        )

    def test_frozen_value_cross_checked_by_quadrature_free_integration(self):
        # frozen from the closed form and confirmed by a 1e5-step RK4 run
        out = exact_solution(0.5, 1.0, 0.0, 1.0)
        np.testing.assert_allclose(
            out, [0.6070548491670357, -0.6626915880080843], atol=1e-12
        )

    def test_flow_composition(self, rng):
        for _ in range(10):
            r0, p0 = rng.uniform(-1, 1, 2)
            t1, t2 = rng.uniform(0, 2, 2)
            mid = exact_solution(NU, r0, p0, t1)
            out = exact_solution(NU, mid[0], mid[1], t2)
            np.testing.assert_allclose(
                out, exact_solution(NU, r0, p0, t1 + t2), atol=1e-12
            )

    def test_overdamped_branch_rejected(self):
        with pytest.raises(ValueError):
            exact_solution(2.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "build, args",
    [
        (oscillator_system, (np.nan,)),
        (oscillator_system, (np.inf,)),
        (oscillator_alpha, (np.nan,)),
        (exact_solution, (np.nan, 1.0, 0.0, 1.0)),
        (scheme_first_order, (np.nan, 0.1)),
        (scheme_first_order, (0.5, -np.inf)),
        (scheme_second_order, (0.5, np.nan)),
        (scheme_second_order, (np.inf, 0.1)),
        (euler_center, (0.5, np.inf)),
        (euler_center, (np.nan, 0.1)),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_non_finite_nu_or_tau_is_rejected(build, args):
    # a NaN or infinite input must fail here, not as a NaN matrix or at a
    # system's first K evaluation
    with pytest.raises(ValueError):
        build(*args)


@pytest.mark.parametrize(
    "build, nu, tau",
    [
        (scheme_first_order, 0.5, 1e200),
        (scheme_second_order, 0.5, 1e200),
        (euler_center, 0.5, 1e200),
        (euler_center, 2.0, -2.0),
    ],
    ids=["scheme_first_order", "scheme_second_order", "euler_center", "euler_center-zero-divisor"],
)
def test_matrix_that_is_not_finite_is_rejected(build, nu, tau):
    # tau * tau overflows to inf and inf / inf is NaN: each of these gave a
    # NaN matrix, at most with a RuntimeWarning, and the zero divisor
    # (tau + 2)^2 of euler_center at nu = 2 raised ZeroDivisionError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            build(nu, tau)
