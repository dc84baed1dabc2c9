import numpy as np
import pytest

from birkhoff import (
    InconsistencyError,
    PhasePoint,
    RawFirstOrderSystem,
    check_self_adjointness,
    contact_matrix,
    oscillator_system,
    reconstruct_b,
    reconstruct_f,
    selfadjoint,
)

NU = 0.5
CHAIN_N, CHAIN_NU, CHAIN_COUPLING = 2, 0.3, 0.1


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


def chain_raw(n=CHAIN_N, nu=CHAIN_NU, coupling=CHAIN_COUPLING):
    """Raw (K, D) of the pendulum chain q'' + nu q' + sin q + coupling (q_{i-1} + q_{i+1}) = 0.

    K = e^{nu t} J0 with J0 = [[0, -I], [I, 0]].
    """
    j0 = np.zeros((2 * n, 2 * n))
    j0[:n, n:] = -np.eye(n)
    j0[n:, :n] = np.eye(n)

    def neighbours(q):
        out = np.zeros(n)
        out[:-1] += q[1:]
        out[1:] += q[:-1]
        return coupling * out

    def D(z, t):
        q, p = z[:n], z[n:]
        return -np.exp(nu * t) * np.concatenate([nu * p + np.sin(q) + neighbours(q), p])

    return RawFirstOrderSystem(n, lambda z, t: np.exp(nu * t) * j0, D)


def chain_b_terms(z, n=CHAIN_N, nu=CHAIN_NU, coupling=CHAIN_COUPLING):
    """The four terms of the chain's B / e^{nu t}.

    nu q.p / 2, sum(1 - cos q), p.p / 2 and coupling * sum q_i q_{i+1}.
    """
    q, p = z[:n], z[n:]
    return (
        0.5 * nu * q @ p,
        np.sum(1.0 - np.cos(q)),
        0.5 * p @ p,
        coupling * np.sum(q[:-1] * q[1:]),
    )


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

    def test_high_dimension_uses_sampled_closure_triples(self, rng):
        # above 8 phase coordinates, closure triples are sampled (fixed
        # seed); a constant antisymmetric K still passes exactly
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

    def test_state_dependent_pairing_breaks_closure(self, rng):
        # K_01 = -K_10 = z_3 is antisymmetric, but its cyclic sum over
        # (0, 1, 2) is dK_01/dz_3 = 1; every other triple sums to zero
        def k(z, t):
            out = np.zeros((4, 4))
            out[0, 1], out[1, 0] = z[2], -z[2]
            return out

        raw = RawFirstOrderSystem(2, K=k, D=lambda z, t: np.zeros(4))
        report = check_self_adjointness(raw, sample_points(rng, 3, dim=4), tol=1e-7)
        assert not report.passed
        assert report.antisymmetry_violation == 0.0
        assert report.closure_violation == pytest.approx(1.0, abs=1e-9)
        assert report.time_curl_violation == 0.0

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
        # relative to the sum of the terms' magnitudes, since B can cancel
        raw = chain_raw()
        for p in sample_points(rng, 2, dim=4):
            terms = chain_b_terms(p.z)
            scale = np.exp(CHAIN_NU * p.t)
            value = reconstruct_b(raw, p, quad_nodes=16)
            assert abs(value - scale * sum(terms)) <= 1e-8 * scale * sum(map(abs, terms))


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


class TestContactMatrix:
    def test_block_assembly(self):
        raw = RawFirstOrderSystem(
            1,
            K=lambda z, t: np.array([[0.0, -1.0], [1.0, 0.0]]),
            D=lambda z, t: np.array([1.0, 2.0]),
        )
        expected = np.array([[0.0, -1.0, -2.0], [1.0, 0.0, -1.0], [2.0, 1.0, 0.0]])
        np.testing.assert_array_equal(contact_matrix(raw, PhasePoint([0.0, 0.0])), expected)

    def test_zero_right_side_embeds_the_pairing(self):
        k = np.array([[0.0, -3.0], [3.0, 0.0]])
        raw = RawFirstOrderSystem(1, K=lambda z, t: k, D=lambda z, t: np.zeros(2))
        out = contact_matrix(raw, PhasePoint([1.0, 1.0]))
        np.testing.assert_array_equal(out[1:, 1:], k)
        np.testing.assert_array_equal(out[0, :], np.zeros(3))
        np.testing.assert_array_equal(out[:, 0], np.zeros(3))

    def test_oscillator_point(self):
        out = contact_matrix(oscillator_raw(), PhasePoint([1.0, 0.0], 0.0))
        expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_exactly_antisymmetric(self, rng):
        raw = oscillator_raw()
        for _ in range(5):
            out = contact_matrix(raw, PhasePoint(rng.uniform(-2, 2, 2), rng.uniform(0, 1)))
            np.testing.assert_array_equal(out.T, -out)
