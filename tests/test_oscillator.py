import numpy as np
import pytest

from birkhoff import (
    PhasePoint,
    euler_center,
    exact_solution,
    make_scheme,
    oscillator_alpha,
    oscillator_system,
    scheme_first_order,
    scheme_second_order,
    step,
    symplectic_residual,
    vector_field,
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
        v = vector_field(osc_system, PhasePoint([1.0, 0.0], 0.0))
        np.testing.assert_allclose(v, [0.0, -1.0], atol=1e-14)

    def test_negative_damping_rejected(self):
        with pytest.raises(ValueError):
            oscillator_system(-0.1)
        with pytest.raises(ValueError):
            oscillator_alpha(-1.0)

    def test_undamped_system_is_autonomous(self):
        assert oscillator_system(0.0).kind.value == "autonomous"
        assert oscillator_system(0.5).kind.value == "nonautonomous"


class TestClosedFormSchemes:
    def test_first_order_small_step_limit_is_identity(self):
        np.testing.assert_allclose(scheme_first_order(NU, 0.0), np.eye(2), atol=1e-15)

    def test_first_order_frozen_values(self):
        np.testing.assert_allclose(scheme_first_order(0.5, 0.1), FIRST_ORDER_05_01, atol=1e-14)

    def test_second_order_frozen_values(self):
        np.testing.assert_allclose(scheme_second_order(0.5, 0.1), SECOND_ORDER_05_01, atol=1e-14)

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
