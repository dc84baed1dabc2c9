import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff import (
    InconsistencyError,
    PhasePoint,
    RawFirstOrderSystem,
    check_self_adjointness,
    oscillator_system,
    reconstruct_b,
    reconstruct_f,
    selfadjoint,
)
from pendulum_chain import NU as CHAIN_NU
from pendulum_chain import b_terms, chain_raw

NU = 0.5


def oscillator_raw(nu=NU, perturb=0.0):
    sys1 = oscillator_system(nu)
    if perturb:
        base = sys1.D

        def d_perturbed(z, t):
            d = np.array(base(z, t))
            d[1] += perturb * z[0]
            return d

        return RawFirstOrderSystem(1, sys1.K, d_perturbed)
    return RawFirstOrderSystem(1, sys1.K, sys1.D)


def sample_points(rng, count, dim=2):
    return [
        PhasePoint(rng.uniform(-2, 2, dim), float(rng.uniform(0, 1))) for _ in range(count)
    ]


class TestCheckSelfAdjointness:
    def test_oscillator_passes(self, rng):
        report = check_self_adjointness(oscillator_raw(), sample_points(rng, 50), tol=1e-7)
        assert report.passed
        assert report.antisymmetry_violation <= 1e-7
        assert report.closure_violation <= 1e-7
        assert report.time_curl_violation <= 1e-7

    def test_perturbed_momentum_component_breaks_the_time_curl(self, rng):
        # adding 0.1*z1 to D_2 shifts the curl mismatch by exactly 0.1
        report = check_self_adjointness(
            oscillator_raw(perturb=0.1), sample_points(rng, 20), tol=1e-7
        )
        assert not report.passed
        assert report.time_curl_violation == pytest.approx(0.1, rel=0.1)
        assert report.antisymmetry_violation <= 1e-7
        sample, entry = report.time_curl_at
        assert 0 <= sample < 20
        assert set(entry) == {0, 1}
        # two phase coordinates have no closure triple
        assert report.closure_at is None

    def test_constant_pairing_with_gradient_right_side_passes(self, rng):
        # curl of a gradient vanishes and a constant K has no derivatives
        k = np.array([[0.0, -1.0], [1.0, 0.0]])
        raw = RawFirstOrderSystem(
            1,
            K=lambda z, t: k,
            D=lambda z, t: np.array([z[0] + z[1], z[0] + 2.0 * z[1]]),
        )
        report = check_self_adjointness(raw, sample_points(rng, 20), tol=1e-7)
        assert report.passed

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            check_self_adjointness(oscillator_raw(), [], tol=1e-7)

    def test_sample_of_another_dimension_rejected(self):
        samples = [PhasePoint([0.5, -0.5], 0.1), PhasePoint([0.5, -0.5, 1.0, 0.0], 0.1)]
        with pytest.raises(ValueError, match="sample dimension 4 does not match system dim"):
            check_self_adjointness(oscillator_raw(), samples)

    def test_high_dimension_constant_pairing_passes(self, rng):
        # a constant antisymmetric K passes exactly over all 120 closure
        # triples of 10 phase coordinates
        mat = rng.uniform(-1, 1, (10, 10))
        k = mat - mat.T
        raw = RawFirstOrderSystem(5, K=lambda z, t: k, D=lambda z, t: np.zeros(10))
        points = [PhasePoint(rng.uniform(-1, 1, 10), 0.1)]
        report = check_self_adjointness(raw, points, tol=1e-7)
        assert report.passed
        assert report.closure_violation <= 1e-9

    def test_pendulum_chain_passes(self, rng):
        # n = 2: the closure condition runs over all four index triples
        report = check_self_adjointness(chain_raw(), sample_points(rng, 5, dim=4), tol=1e-7)
        assert report.passed

    @pytest.mark.parametrize("n", [2, 6])
    def test_state_dependent_pairing_breaks_closure(self, n, rng):
        # K_01 = -K_10 = z_3 is antisymmetric, but its cyclic sum over
        # (0, 1, 2) is dK_01/dz_3 = 1; every other triple sums to zero.
        # At n = 6 that is one of 220 triples, all of which are checked
        dim = 2 * n

        def k(z, t):
            out = np.zeros((dim, dim))
            out[0, 1], out[1, 0] = z[2], -z[2]
            return out

        raw = RawFirstOrderSystem(n, K=k, D=lambda z, t: np.zeros(dim))
        report = check_self_adjointness(raw, sample_points(rng, 3, dim=dim), tol=1e-7)
        assert not report.passed
        assert report.antisymmetry_violation == 0.0
        assert report.closure_violation == pytest.approx(1.0, abs=1e-9)
        assert report.time_curl_violation == 0.0
        assert report.closure_at[1] == (0, 1, 2)
        assert report.antisymmetry_at is None
        assert report.time_curl_at is None

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_non_negative(self, tol, rng):
        # a negative tol used to fail a self-adjoint system, a NaN one silently
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            check_self_adjointness(oscillator_raw(), sample_points(rng, 3), tol=tol)

    def test_passing_is_monotone_in_tolerance(self, rng):
        raw = oscillator_raw(perturb=0.1)
        points = sample_points(rng, 10)
        tight = check_self_adjointness(raw, points, tol=1e-7)
        loose = check_self_adjointness(raw, points, tol=10.0)
        assert not tight.passed
        assert loose.passed
        assert loose.time_curl_violation == tight.time_curl_violation


class TestReconstructF:
    def test_oscillator_components(self, rng):
        raw = oscillator_raw()
        for _ in range(10):
            p = PhasePoint(rng.uniform(-2, 2, 2), rng.uniform(0, 1))
            expected = 0.5 * np.exp(NU * p.t) * np.array([p.z[1], -p.z[0]])
            assert np.max(np.abs(reconstruct_f(raw, p) - expected)) <= 1e-12

    def test_origin_gives_zero(self):
        f = reconstruct_f(oscillator_raw(), PhasePoint([0.0, 0.0], 0.3))
        np.testing.assert_array_equal(f, np.zeros(2))

    def test_state_independent_pairing_closed_form(self, rng):
        # for constant K the ray integral collapses to K^T z / 2
        mat = rng.uniform(-1, 1, (4, 4))
        k = mat - mat.T
        raw = RawFirstOrderSystem(2, K=lambda z, t: k, D=lambda z, t: np.zeros(4))
        for _ in range(5):
            z = rng.uniform(-2, 2, 4)
            expected = 0.5 * k.T @ z
            assert np.max(np.abs(reconstruct_f(raw, PhasePoint(z)) - expected)) <= 1e-12


class TestReconstructB:
    def test_oscillator_value_with_cross_term(self):
        # at (1, 1), t=0: (1 + nu + 1) / 2
        value = reconstruct_b(oscillator_raw(), PhasePoint([1.0, 1.0], 0.0))
        assert value == pytest.approx(0.5 * (2.0 + NU), abs=1e-8)

    def test_unit_damping_value(self):
        value = reconstruct_b(oscillator_raw(nu=1.0), PhasePoint([1.0, 1.0], 0.0))
        assert value == pytest.approx(1.5, abs=1e-8)

    def test_origin_gives_zero(self):
        value = reconstruct_b(oscillator_raw(), PhasePoint([0.0, 0.0], 0.0))
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_matches_scaled_quadratic_at_random_points(self, rng):
        raw = oscillator_raw()
        for _ in range(5):
            p = PhasePoint(rng.uniform(-1.5, 1.5, 2), rng.uniform(0, 1))
            r, q = p.z
            expected = 0.5 * np.exp(NU * p.t) * (r * r + NU * r * q + q * q)
            value = reconstruct_b(raw, p, quad_nodes=16, check=False)
            assert value == pytest.approx(expected, abs=1e-8)

    def test_gradient_identity_holds_for_self_adjoint_input(self, rng):
        # check=True raises if grad B fails to match -(D + dF/dt) at 1e-6
        raw = oscillator_raw()
        for _ in range(5):
            p = PhasePoint(rng.uniform(-1.5, 1.5, 2), rng.uniform(0, 1))
            reconstruct_b(raw, p, quad_nodes=8, check=True)

    def test_non_self_adjoint_input_raises(self):
        raw = oscillator_raw(perturb=0.1)
        with pytest.raises(InconsistencyError):
            reconstruct_b(raw, PhasePoint([1.0, 1.0], 0.0), quad_nodes=8)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_residual_raises(self):
        # B overflows to inf at this point, so the gradient check reads NaN
        with pytest.raises(InconsistencyError, match="not finite"):
            reconstruct_b(oscillator_raw(), PhasePoint([1e200, 1e200], 0.0))

    def test_pendulum_chain_value(self, rng):
        # to rounding, relative to the sum of the terms' magnitudes, since
        # B can cancel
        raw = chain_raw()
        for p in sample_points(rng, 4, dim=4):
            terms = b_terms(p.z)
            scale = np.exp(CHAIN_NU * p.t)
            value = reconstruct_b(raw, p)
            assert abs(value - scale * sum(terms)) <= 1e-14 * scale * sum(map(abs, terms))

    def test_calls_to_k_and_d_are_pinned(self):
        # 32 D calls for B, 256 for its gradient and one for the residual;
        # the 64 K calls are the two reconstruct_f of dF/dt at p
        base = chain_raw()
        k_calls, d_calls = [], []

        def counted_k(z, t):
            k_calls.append(t)
            return base.K(z, t)

        def counted_d(z, t):
            d_calls.append(t)
            return base.D(z, t)

        raw = RawFirstOrderSystem(base.n, counted_k, counted_d)
        reconstruct_b(raw, PhasePoint([0.4, -0.3, 0.2, 0.5], 0.2), quad_nodes=32, check=True)
        assert (len(k_calls), len(d_calls)) == (64, 289)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        nu=st.floats(0.0, 1.5),
        z=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
        t=st.floats(0.0, 1.0),
    )
    def test_oscillator_value_property(self, nu, z, t):
        r, q = z
        terms = (r * r, nu * r * q, q * q)
        scale = 0.5 * np.exp(nu * t)
        value = reconstruct_b(oscillator_raw(nu), PhasePoint(z, t))
        assert abs(value - scale * sum(terms)) <= 1e-14 * scale * sum(map(abs, terms))


class TestQuadratureRule:
    def test_rule_is_computed_once_per_node_count(self, monkeypatch):
        leggauss = np.polynomial.legendre.leggauss
        degrees = []

        def counted(deg):
            degrees.append(deg)
            return leggauss(deg)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        # 11 nodes are used by no other test, so at most this test fills the entry
        for z in ([1.0, 1.0], [0.5, -0.3]):
            reconstruct_b(oscillator_raw(), PhasePoint(z, 0.2), quad_nodes=11)
        assert len(degrees) <= 1
        nodes, weights = selfadjoint._gauss_legendre_01(11)
        with pytest.raises(ValueError):
            nodes[0] = 0.5
        with pytest.raises(ValueError):
            weights[0] = 0.5

    @pytest.mark.parametrize("quad_nodes", [2.5, 0, True, "32"])
    @pytest.mark.parametrize("fn", [reconstruct_f, reconstruct_b], ids=lambda f: f.__name__)
    def test_node_count_must_be_a_positive_integer(self, fn, quad_nodes):
        with pytest.raises(ValueError, match="quad_nodes"):
            fn(oscillator_raw(), PhasePoint([1.0, 1.0], 0.0), quad_nodes=quad_nodes)



@pytest.mark.parametrize("fn", [reconstruct_f, reconstruct_b], ids=lambda f: f.__name__)
def test_point_of_another_dimension_rejected_before_evaluation(fn):
    # a 4-vector on the 1-dof oscillator used to fail inside numpy's matmul
    # or inside the user's D
    calls = []
    base = oscillator_raw()

    def counted(name, f):
        def wrapped(z, t):
            calls.append(name)
            return f(z, t)

        return wrapped

    raw = RawFirstOrderSystem(1, counted("K", base.K), counted("D", base.D))
    with pytest.raises(ValueError, match="sample dimension 4 does not match system dimension 2"):
        fn(raw, PhasePoint(np.ones(4), 0.0))
    assert calls == []
