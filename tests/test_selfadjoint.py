import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff import (
    InconsistencyError,
    PhasePoint,
    RawFirstOrderSystem,
    check_self_adjointness,
    numdiff,
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


# K = 1e308 tanh(1e12 t) J and D = (0, 1e308 tanh(1e12 z_1)): finite
# everywhere, but at OVERFLOW_POINT every central difference of K in t and
# of D in z_1 overflows
OVERFLOW_POINT = PhasePoint([0.0, 0.3], 0.0)


def overflowing_curl_raw():
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    return RawFirstOrderSystem(
        1,
        K=lambda z, t: 1e308 * np.tanh(1e12 * t) * j,
        D=lambda z, t: np.array([0.0, 1e308 * np.tanh(1e12 * z[0])]),
    )


def counted_chain_raw():
    """The chain's raw system with its K and D calls recorded: (raw, K calls, D calls)."""
    base = chain_raw()
    k_calls, d_calls = [], []

    def counted_k(z, t):
        k_calls.append(t)
        return base.K(z, t)

    def counted_d(z, t):
        d_calls.append(t)
        return base.D(z, t)

    return RawFirstOrderSystem(base.n, counted_k, counted_d), k_calls, d_calls


def monomials(z, powers):
    """Each row of ``powers`` as the monomial prod_j z_j ** powers[k, j]."""
    return np.prod(z**powers, axis=1)


def monomial_jacobian(z, powers):
    """d monomial_k / d z_j of :func:`monomials`."""
    cols = []
    for j in range(z.size):
        lowered = powers.copy()
        lowered[:, j] = np.maximum(powers[:, j] - 1, 0)
        cols.append(powers[:, j] * monomials(z, lowered))
    return np.stack(cols, axis=1)


def polynomial_raw(rng, dim, terms=4):
    """A self-adjoint raw system from a random polynomial F(z, t) and scalar B(z, t).

    F = (C0 + t C1) m(z) and B = (g0 + t g1) . m(z) + |z|^2 / 2 over monomials
    m(z) of degree at most 3, so K = J^T - J with J = dF/dz, and
    D = -(grad B + dF/dt), all analytic.
    """
    powers = rng.integers(0, 3, (terms, dim))
    while np.any(powers.sum(axis=1) > 3):
        high = powers.sum(axis=1) > 3
        powers[high] = rng.integers(0, 3, (int(high.sum()), dim))
    c0, c1 = rng.uniform(-1, 1, (2, dim, terms))
    g0, g1 = rng.uniform(-1, 1, (2, terms))

    def K(z, t):
        jac = (c0 + t * c1) @ monomial_jacobian(z, powers)
        return jac.T - jac

    def D(z, t):
        grad_b = (g0 + t * g1) @ monomial_jacobian(z, powers) + z
        return -(grad_b + c1 @ monomials(z, powers))

    return RawFirstOrderSystem(dim // 2, K, D)


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
        with pytest.raises(ValueError, match=r"state of shape \(4,\) does not match system dim"):
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

    def test_nan_violation_fails_at_its_location(self):
        # dK/dt and curl D both overflow to inf at OVERFLOW_POINT, so entry
        # (0, 1) of dK/dt - curl D is inf - inf; that NaN used to read as
        # 0.0 and pass.  It must also beat the first sample's inf
        raw = overflowing_curl_raw()
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_self_adjointness(raw, [PhasePoint([1.0, 0.0]), OVERFLOW_POINT])
        assert np.isnan(report.time_curl_violation)
        assert report.time_curl_at == (1, (0, 1))
        assert np.isnan(report.max_violation)
        assert not report.passed
        assert report.antisymmetry_violation == report.closure_violation == 0.0

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


    def test_state_dependent_pairing_exact_case(self):
        # F = (0, z1^2) gives K = [[0, 2 z1], [-2 z1, 0]]; the homotopy
        # primitive int_0^1 lam z_j K_ji(lam z) dlam is (-2 z1 z2, 2 z1^2) / 3
        raw = RawFirstOrderSystem(
            1, K=lambda z, t: np.array([[0.0, 2 * z[0]], [-2 * z[0], 0.0]]), D=lambda z, t: -z
        )
        p = PhasePoint([0.7, -0.4], 0.0)
        assert check_self_adjointness(raw, [p]).max_violation == 0.0
        z1, z2 = p.z
        expected = np.array([-2 * z1 * z2, 2 * z1 * z1]) / 3
        assert np.max(np.abs(reconstruct_f(raw, p) - expected)) <= 1e-15

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4]), t=st.floats(0.0, 1.0))
    def test_polynomial_round_trip(self, seed, dim, t):
        # K rebuilt from the reconstructed F is K, and reconstruct_b's check
        # of grad B = -(D + dF/dt) passes; adding A z with A antisymmetric
        # to D breaks the time curl, and the check must still catch it.
        # Both verdicts, and the residual raised, are the all-coordinate
        # oracle's (see TestRadialIdentity)
        rng = np.random.default_rng(seed)
        raw = polynomial_raw(rng, dim)
        z = rng.choice([-1.0, 1.0], dim) * rng.uniform(0.2, 1.0, dim)
        p = PhasePoint(z, t)
        assert check_self_adjointness(raw, [p]).passed
        jac = numdiff.jacobian(lambda y: reconstruct_f(raw, PhasePoint(y, t)), z)
        assert np.max(np.abs(jac.T - jac - raw.K(z, t))) <= 1e-8
        assert_matches_all_coordinate_check(raw, p, passes=True)
        curl = np.zeros((dim, dim))
        curl[0, 1], curl[1, 0] = 1.0, -1.0
        broken = RawFirstOrderSystem(raw.n, raw.K, lambda y, s: raw.D(y, s) + curl @ y)
        assert_matches_all_coordinate_check(broken, p, passes=False)


class TestReconstructB:
    def test_oscillator_value_with_cross_term(self):
        # at (1, 1), t=0: (1 + nu + 1) / 2
        value = reconstruct_b(oscillator_raw(), PhasePoint([1.0, 1.0], 0.0))
        assert value == pytest.approx(0.5 * (2.0 + NU), abs=1e-8)

    def test_unit_damping_value(self):
        value = reconstruct_b(oscillator_raw(nu=1.0), PhasePoint([1.0, 1.0], 0.0))
        assert value == pytest.approx(1.5, abs=1e-8)

    def test_origin_gives_zero(self):
        # -0.0 here used to print as "B = -0"
        value = reconstruct_b(oscillator_raw(), PhasePoint([0.0, 0.0], 0.0))
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0

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
        # 32 D calls for B, 192 for its gradient across the ray (two ray
        # integrals along each of the 3 directions orthogonal to z) and one
        # for D at p, which also gives the radial component; the 64 K calls
        # are the two reconstruct_f of dF/dt at p
        raw, k_calls, d_calls = counted_chain_raw()
        reconstruct_b(raw, PhasePoint([0.4, -0.3, 0.2, 0.5], 0.2), quad_nodes=32, check=True)
        assert (len(k_calls), len(d_calls)) == (64, 225)

    def test_calls_of_the_benchmark_op_are_pinned(self):
        # check_self_adjointness at one point (K: 1 + 8 for closure + 2
        # for dK/dt; D: 8 for its curl) and then a checked reconstruct_b
        raw, k_calls, d_calls = counted_chain_raw()
        p = PhasePoint([0.4, -0.3, 0.2, 0.5], 0.2)
        check_self_adjointness(raw, [p])
        reconstruct_b(raw, p)
        assert (len(k_calls), len(d_calls)) == (75, 233)

    @pytest.mark.parametrize(
        "z, t", [((1.0, 1.0), 20.0), ((1.0, 1.0), 30.0), ((1.0, 1.0), 40.0),
                 ((1.0, 1.0), 60.0), ((1e5, 1e5), 0.0)],
    )
    def test_large_self_adjoint_input_passes(self, z, t):
        # the bound scales with max(1, |grad B|, |D|, |dF/dt|); the absolute
        # 1e-6 it replaces read residuals 4.2e-6, 1.2e-3, 0.30 and 1.5e4 at
        # these times, and 4.7e-6 at z = (1e5, 1e5), and raised
        r, q = z
        expected = 0.5 * np.exp(NU * t) * (r * r + NU * r * q + q * q)
        assert reconstruct_b(oscillator_raw(), PhasePoint(z, t)) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("t", [0.0, 5.0, 40.0])
    def test_curl_break_growing_with_the_system_still_raises(self, t):
        # 0.1 e^{nu t} z_1 added to D_2 breaks the time curl by as much, so
        # it grows with K and D, and the scaled bound must still see it
        base = oscillator_raw()
        raw = RawFirstOrderSystem(
            1, base.K, lambda z, s: base.D(z, s) + 0.1 * np.exp(NU * s) * np.array([0.0, z[0]])
        )
        message = r"residual \S+ exceeds \S+; the input system is likely not self-adjoint"
        with pytest.raises(InconsistencyError, match=message):
            reconstruct_b(raw, PhasePoint([1.0, 1.0], t))

    @settings(max_examples=30)
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


def all_coordinate_check(raw, p, quad_nodes=32):
    """(residual, bound) of grad B = -(D + dF/dt) at p, grad B differenced along every coordinate.

    The oracle for reconstruct_b's check: B and F by a loop over the
    Gauss-Legendre nodes and numdiff.gradient over all dim coordinates,
    the radial one included; the bound is the check's scaled one.
    """
    x, w = np.polynomial.legendre.leggauss(quad_nodes)
    nodes = list(zip((x + 1.0) / 2.0, w / 2.0))

    def b_value(z):
        return -sum(w_i * (z @ raw.D(lam * z, p.t)) for lam, w_i in nodes)

    def f_value(s):
        return sum(w_i * lam * (raw.K(lam * p.z, s).T @ p.z) for lam, w_i in nodes)

    grad = numdiff.gradient(b_value, p.z)
    d_p = raw.D(p.z, p.t)
    dft = numdiff.time_derivative(f_value, p.t)
    resid = np.max(np.abs(grad + d_p + dft))
    return resid, 1e-6 * max(1.0, *(np.max(np.abs(v)) for v in (grad, d_p, dft)))


def reported_residual(raw, p):
    """None if reconstruct_b's check passes at p, else the residual its error prints."""
    try:
        reconstruct_b(raw, p)
    except InconsistencyError as exc:
        return float(re.search(r"residual (\S+) exceeds", str(exc)).group(1))
    return None


def assert_matches_all_coordinate_check(raw, p, passes):
    """reconstruct_b's verdict at p is the oracle's and ``passes``; a raised residual agrees to 1e-3."""
    resid, bound = all_coordinate_check(raw, p)
    assert (resid <= bound) == passes
    got = reported_residual(raw, p)
    if passes:
        assert got is None
    else:
        assert got == pytest.approx(resid, rel=1e-3)


# an antisymmetric matrix: D + CURL z breaks the time curl by CURL
_CURL_HALF = np.random.default_rng(3).uniform(-0.1, 0.1, (4, 4))
CURL = _CURL_HALF - _CURL_HALF.T


class TestRadialIdentity:
    """reconstruct_b's check takes u . grad B = -u . D(p) along u = z / |z|.

    Against the all-coordinate gradient it replaces, the verdict and the
    residual an error prints are the same; the polynomial systems of
    TestReconstructF's round trip are checked the same way.
    """

    @pytest.mark.parametrize(
        "z",
        [
            # the origin: u = e_1, and the curl break vanishes with z
            pytest.param((0.0, 0.0, 0.0, 0.0), id="origin"),
            # the two branches of the reflector: u_1 >= 0 and u_1 < 0
            pytest.param((0.0, 0.3, -0.2, 0.5), id="zero-first-entry"),
            pytest.param((-0.4, 0.3, 0.2, -0.5), id="negative-first-entry"),
            # the difference step scales with |z|_inf; the momenta are large,
            # so the ray integral of D stays exact
            pytest.param((0.3, -0.2, 1e3, -400.0), id="large"),
        ],
    )
    def test_chain_points(self, z):
        raw = chain_raw()
        p = PhasePoint(z, 0.4)
        assert_matches_all_coordinate_check(raw, p, passes=True)
        broken = RawFirstOrderSystem(raw.n, raw.K, lambda y, s: raw.D(y, s) + CURL @ y)
        assert_matches_all_coordinate_check(broken, p, passes=not np.any(p.z))


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
    message = r"state of shape \(4,\) does not match system dimension 2"
    with pytest.raises(ValueError, match=message):
        fn(raw, PhasePoint(np.ones(4), 0.0))
    assert calls == []
