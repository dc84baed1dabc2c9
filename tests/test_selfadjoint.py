import contextlib
import functools
import inspect
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff import (
    EvaluationError,
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

# the node count every ray integral starts at by default
DEFAULT_NODES = inspect.signature(reconstruct_b).parameters["quad_nodes"].default


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

    @pytest.mark.parametrize("t", [20.0, 40.0])
    def test_large_self_adjoint_input_passes(self, t):
        # K = e^{nu t} J: the differences' errors grow with K, and the
        # absolute time-curl violation read 5.9e-6 at t = 20 (failing 1e-7)
        # and 0.59 at t = 40; against max(1, |dK/dt|, |curl D|) it stays small
        report = check_self_adjointness(oscillator_raw(), [PhasePoint([1.0, 1.0], t)])
        assert report.passed
        assert report.max_violation <= 1e-8

    @pytest.mark.parametrize("t", [0.0, 5.0, 40.0])
    def test_curl_break_growing_with_the_system_still_fails(self, t):
        # 0.1 e^{nu t} z_1 added to D_2 breaks the time curl by as much, and
        # |curl D| grows to 0.6 e^{nu t}: relative to max(1, 0.6 e^{nu t})
        # the break reads 0.1 at t = 0 and 1/6 once the scale passes 1
        base = oscillator_raw()
        raw = RawFirstOrderSystem(
            1, base.K, lambda z, s: base.D(z, s) + 0.1 * np.exp(NU * s) * np.array([0.0, z[0]])
        )
        report = check_self_adjointness(raw, [PhasePoint([1.0, 1.0], t)])
        assert not report.passed
        growth = np.exp(NU * t)
        expected = 0.1 * growth / max(1.0, 0.6 * growth)
        assert report.time_curl_violation == pytest.approx(expected, rel=1e-6)
        assert report.time_curl_at == (0, (0, 1))

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
        # whose every ray integral passes at the default 16 nodes (K: 2 x 16
        # for dF/dt; D: 7 x 16 for B's rays and 1 at p)
        raw, k_calls, d_calls = counted_chain_raw()
        p = PhasePoint([0.4, -0.3, 0.2, 0.5], 0.2)
        check_self_adjointness(raw, [p])
        reconstruct_b(raw, p)
        assert (len(k_calls), len(d_calls)) == (43, 121)

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
        for array in selfadjoint._gauss_legendre_01(11):
            with pytest.raises(ValueError):
                array.flat[0] = 0.5

    @pytest.mark.parametrize("quad_nodes", [2.5, 0, True, "32"])
    @pytest.mark.parametrize("fn", [reconstruct_f, reconstruct_b], ids=lambda f: f.__name__)
    def test_node_count_must_be_a_positive_integer(self, fn, quad_nodes):
        with pytest.raises(ValueError, match="quad_nodes"):
            fn(oscillator_raw(), PhasePoint([1.0, 1.0], 0.0), quad_nodes=quad_nodes)

    def test_both_entry_points_start_at_the_same_node_count(self):
        assert inspect.signature(reconstruct_f).parameters["quad_nodes"].default == DEFAULT_NODES


def fixed_rule(at_rows, ends, quad_nodes):
    """The ray integrals of ``ends`` by the fixed ``quad_nodes``-node rule: nodes, weights, product."""
    lam, wgt, _ = selfadjoint._gauss_legendre_01(quad_nodes)
    values = at_rows((ends[:, None, :] * lam[:, None]).reshape(-1, ends.shape[1]))
    return wgt @ values.reshape(len(ends), quad_nodes, -1)


def k_integrand(raw, t):
    """``reconstruct_f``'s integrand on stacks: row k is K(y_k, t)^T y_k."""
    return lambda ys: (ys[:, None, :] @ raw.k_rows(ys, t))[:, 0]


def large_chain_draws():
    """250 chain points, every fourth with z uniform in [-100, 100]^4, the rest in [-1, 1]^4; t in [0, 3]."""
    rng = np.random.default_rng(1)
    draws = []
    for i in range(250):
        size = 100.0 if i % 4 == 3 else 1.0
        draws.append(PhasePoint(rng.uniform(-size, size, 4), rng.uniform(0.0, 3.0)))
    return draws


# the large_chain_draws on which the fixed 32-node rule raised
FIXED_RULE_RAISED = (7, 15, 35, 51, 83, 175)


class TestErrorControlledRule:
    """The ray rule starts at quad_nodes and doubles while a Legendre tail asks."""

    @settings(max_examples=25)
    @given(
        z=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8), t=st.floats(0.0, 1.0)
    )
    def test_converged_start_is_the_fixed_rule_bit_for_bit(self, z, t):
        # two chain rays at 32 nodes, as test_calls_to_k_and_d_are_pinned runs
        raw = chain_raw()
        ends = np.reshape(z, (2, 4))
        d_rows = functools.partial(raw.d_rows, t=t)
        with settled_rules() as sizes:
            got_d = selfadjoint._ray_integral(d_rows, ends, 32)
            got_k = selfadjoint._ray_integral(k_integrand(raw, t), ends, 32)
        assert sizes == [32, 32]
        np.testing.assert_array_equal(got_d, fixed_rule(d_rows, ends, 32))
        np.testing.assert_array_equal(got_k, fixed_rule(k_integrand(raw, t), ends, 32))

    def test_oscillator_at_eight_nodes_is_the_fixed_rule(self, rng):
        # the node count of the acceptance tests' property of B and F
        raw = oscillator_raw()
        for p in sample_points(rng, 5):
            d_rows = functools.partial(raw.d_rows, t=p.t)
            with settled_rules() as sizes:
                got_d = selfadjoint._ray_integral(d_rows, p.z[None], 8)
                got_k = selfadjoint._ray_integral(k_integrand(raw, p.t), p.z[None], 8)
            assert sizes == [8, 8]
            np.testing.assert_array_equal(got_d, fixed_rule(d_rows, p.z[None], 8))
            np.testing.assert_array_equal(got_k, fixed_rule(k_integrand(raw, p.t), p.z[None], 8))

    @pytest.mark.parametrize(
        "degree, batches",
        [(1, [4]), (2, [4, 8]), (5, [4, 8]), (6, [4, 8, 16]), (13, [4, 8, 16]),
         (14, [4, 8, 16, 32])],
    )
    def test_doubling_count_of_a_polynomial(self, degree, batches):
        # lam^d passes at the first Q = 4 * 2^m with d <= Q - 3, where its
        # last two Legendre coefficients vanish; the whole batch of two rays
        # doubles, though the second ray's values are 2^d times smaller
        rows = []

        def at_rows(ys):
            rows.append(len(ys))
            return ys**degree

        got = selfadjoint._ray_integral(at_rows, np.array([[1.0], [0.5]]), 4)
        assert rows == [2 * q for q in batches]
        expected = np.array([[1.0], [0.5**degree]]) / (degree + 1)
        assert np.max(np.abs(got - expected)) <= 1e-15

    @pytest.mark.parametrize(
        "entry, name, rays",
        [
            (lambda raw, p: reconstruct_f(raw, p), "K", 1),
            (lambda raw, p: reconstruct_b(raw, p, check=False), "D", 1),
            # B's ray and the 6 rays across it, before the check's residual
            (lambda raw, p: reconstruct_b(raw, p, check=True), "D", 7),
        ],
        ids=["reconstruct_f", "reconstruct_b-value", "reconstruct_b-check"],
    )
    def test_jump_along_the_ray_raises_non_convergence(self, entry, name, rays):
        # the rule doubles four times, 16 + 32 + 64 + 128 + 256 nodes a ray,
        # and then names the cap, the tail and its scale; not a curl
        base = chain_raw()
        calls = []

        def counted(z, t):
            calls.append(t)
            # doubled where |z|_inf exceeds 0.3, a jump along the ray
            return getattr(base, name)(z, t) * (1.0 + (np.max(np.abs(z)) > 0.3))

        raw = RawFirstOrderSystem(base.n, **{"K": base.K, "D": base.D, name: counted})
        message = (
            r"^ray quadrature did not converge at 256 nodes: Legendre tail (\S+) exceeds "
            r"1e-13 x the largest \|value\| (\S+)$"
        )
        with pytest.raises(InconsistencyError, match=message) as info:
            entry(raw, FAULT_POINT)
        assert "self-adjoint" not in str(info.value)
        error, scale = map(float, re.search(message, str(info.value)).groups())
        assert error > 1e-13 * scale > 0.0
        assert len(calls) == rays * (16 + 32 + 64 + 128 + 256)

    def test_large_chain_draws_pass_with_the_analytic_b(self):
        # the fixed 32-node rule raised on 6 of the 250 draws (all at
        # |z| <= 100, where sin q oscillates along the ray) and its B was
        # off by up to 7.7e-8 relative; the error-controlled rule takes up
        # to 128 nodes there.  All 250 pass; these 6 and every tenth keep
        # the test short
        raw = chain_raw()
        draws = large_chain_draws()
        for i in sorted(set(FIXED_RULE_RAISED) | set(range(0, 250, 10))):
            p = draws[i]
            terms = b_terms(p.z)
            scale = np.exp(CHAIN_NU * p.t)
            value = reconstruct_b(raw, p)
            assert abs(value - scale * sum(terms)) <= 1e-14 * scale * sum(map(abs, terms))

    def test_small_curl_break_still_raises(self):
        # a 1e-5 curl on (z_1, z_2): the fixed 32-node rule raised on 197 of
        # these 200 points; the quadrature tolerance must not hide more
        base = chain_raw()
        curl = np.zeros((4, 4))
        curl[0, 1], curl[1, 0] = 1e-5, -1e-5
        raw = RawFirstOrderSystem(base.n, base.K, lambda y, s: base.D(y, s) + curl @ y)
        rng = np.random.default_rng(2)
        raised = 0
        for _ in range(200):
            p = PhasePoint(rng.uniform(-1.0, 1.0, 4), rng.uniform(0.0, 1.0))
            raised += reported_residual(raw, p) is not None
        assert raised >= 197


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


def loop_oracle(raw, p, quad_nodes):
    """(F, B, residual, bound) at p by the per-row evaluation that the batches replaced.

    Every node of every ray is one call of the system's single-point
    ``k_at`` or ``d_at``, each ray's weights of the fixed ``quad_nodes``
    rule are applied by its own ``tensordot``, and B is differenced across
    the ray by ``numdiff.jacobian``, one point at a time.
    """
    lam, wgt, _ = selfadjoint._gauss_legendre_01(quad_nodes)

    def ray(at, z):
        return np.tensordot(wgt, np.stack([at(y) for y in lam[:, None] * z]), axes=1)

    def f_value(s):
        return ray(lambda y: raw.k_at(y, s).T @ y, p.z)

    def b_value(z):
        return 0.0 - float(z @ ray(lambda y: raw.d_at(y, p.t), z))

    u, across = selfadjoint._ray_frame(p.z)
    step = numdiff.FD_STEP * max(1.0, float(np.max(np.abs(p.z))))
    slopes = numdiff.jacobian(lambda c: b_value(p.z + across @ c), np.zeros(p.z.size - 1), step)
    d_p = raw.d_at(p.z, p.t)
    dft = numdiff.time_derivative(f_value, p.t)
    grad = across @ slopes - (u @ d_p) * u
    resid = float(np.max(np.abs(grad + d_p + dft)))
    bound = 1e-6 * float(np.max(np.abs(np.concatenate(([1.0], grad, d_p, dft)))))
    return f_value(p.t), b_value(p.z), resid, bound


@contextlib.contextmanager
def settled_rules():
    """Record, per ``_ray_integral`` call, the node count of the rule it settled on.

    Yields the list that each call appends its entry to; the entry is the
    last rule size the call looked up.
    """
    settled = []
    rule, integral = selfadjoint._gauss_legendre_01, selfadjoint._ray_integral

    def recorded_rule(nodes):
        settled[-1] = nodes
        return rule(nodes)

    def recorded_integral(*args):
        settled.append(None)
        return integral(*args)

    with mock.patch.multiple(
        selfadjoint, _gauss_legendre_01=recorded_rule, _ray_integral=recorded_integral
    ):
        yield settled


def assert_matches_loop_oracle(raw, p):
    """F, B and the check's residual at p within 1e-13 of the oracle's, relative to their scales.

    The oracle runs the one rule size that every ray integral at p settled
    on.  The residual's scale is the check's own, max(1, |grad B|, |D|, |dF/dt|).
    """
    with settled_rules() as sizes:
        got_f = reconstruct_f(raw, p)
        got_b = reconstruct_b(raw, p, check=False)
        value, got_resid, got_bound = selfadjoint._b_residual(raw, p, DEFAULT_NODES)
    (nodes,) = set(sizes)
    f, b, resid, bound = loop_oracle(raw, p, nodes)
    assert np.max(np.abs(got_f - f)) <= 1e-13 * np.max(np.abs(f))
    assert abs(got_b - b) <= 1e-13 * abs(b)
    assert abs(value - b) <= 1e-13 * abs(b)
    assert abs(got_resid - resid) <= 1e-13 * (bound / 1e-6)
    assert abs(got_bound - bound) <= 1e-13 * bound


class TestLoopOracle:
    """The batched ray integrals and stencils against one call per point."""

    @pytest.mark.parametrize("broken", [False, True], ids=["self-adjoint", "curl-broken"])
    def test_chain(self, broken, rng):
        base = chain_raw()
        raw = base
        if broken:
            raw = RawFirstOrderSystem(base.n, base.K, lambda y, s: base.D(y, s) + CURL @ y)
        for p in sample_points(rng, 5, dim=4) + [PhasePoint([0.3, -0.2, 1e3, -400.0], 0.4)]:
            assert_matches_loop_oracle(raw, p)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4]), t=st.floats(0.0, 1.0))
    def test_polynomial_systems(self, seed, dim, t):
        rng = np.random.default_rng(seed)
        raw = polynomial_raw(rng, dim)
        z = rng.choice([-1.0, 1.0], dim) * rng.uniform(0.2, 1.0, dim)
        assert_matches_loop_oracle(raw, PhasePoint(z, t))

    def test_check_report_matches_per_point_differences(self, rng):
        # the K and D stencils are one batch each; the report is bit for bit
        # the one of numdiff.jacobian's per-point differences
        raw = chain_raw()
        for p in sample_points(rng, 5, dim=4):
            dk = numdiff.jacobian(lambda y: raw.k_at(y, p.t), p.z)
            jac_d = numdiff.jacobian(lambda y: raw.d_at(y, p.t), p.z)
            points, h = numdiff.stencil(p.z)
            np.testing.assert_array_equal(numdiff.stencil_quotient(raw.k_rows(points, p.t), h), dk)
            np.testing.assert_array_equal(
                numdiff.stencil_quotient(raw.d_rows(points, p.t), h), jac_d
            )


FAULT_POINT = PhasePoint([0.4, -0.3, 0.2, 0.5], 0.2)

# the entry points, by the name a fault case gives them
FAULT_ENTRIES = {
    "reconstruct_f": lambda raw: reconstruct_f(raw, FAULT_POINT),
    "reconstruct_b-value": lambda raw: reconstruct_b(raw, FAULT_POINT, check=False),
    "reconstruct_b-check": lambda raw: reconstruct_b(raw, FAULT_POINT),
    "check": lambda raw: check_self_adjointness(raw, [FAULT_POINT]),
}

# (entry, callable, index of the batch's first call of that callable, rows)
# for the first batch of that callable the entry evaluates on the chain; a
# ray's first batch is its rule at the default start
FAULT_BATCHES = [
    pytest.param("reconstruct_f", "K", 0, DEFAULT_NODES, id="reconstruct_f-K"),
    pytest.param("reconstruct_b-value", "D", 0, DEFAULT_NODES, id="reconstruct_b-value-D"),
    # B's ray and the 6 rays across it
    pytest.param("reconstruct_b-check", "D", 0, 7 * DEFAULT_NODES, id="reconstruct_b-check-D"),
    # the first reconstruct_f of dF/dt
    pytest.param("reconstruct_b-check", "K", 0, DEFAULT_NODES, id="reconstruct_b-check-K"),
    # the stencil of dK/dz, after K at the sample
    pytest.param("check", "K", 1, 8, id="check-K"),
    pytest.param("check", "D", 0, 8, id="check-D"),
]


def _with_last_entry(value):
    def fault(out):
        out = out.copy()
        out.flat[-1] = value
        return out

    return fault


# fault -> (what the bad row returns instead of out, the error it raises
# for a callable of result shape ``shape``); K of dF/dt is read at t +- h
FAULTS = {
    "nan": (_with_last_entry(np.nan), lambda shape: r"returned non-finite values at t=0\.2\d*$"),
    "inf": (_with_last_entry(-np.inf), lambda shape: r"returned non-finite values at t=0\.2\d*$"),
    "wrong-shape": (
        lambda out: out[None],
        lambda shape: re.escape(f"must return shape {shape}, got {(1,) + shape}") + "$",
    ),
    "ragged": (
        lambda out: out[:-1],
        lambda shape: re.escape(f"must return shape {shape}, got {(3,) + shape[1:]}") + "$",
    ),
    "complex": (
        lambda out: out + 0j, lambda shape: "must return real numbers, got dtype complex128$"
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("entry, name, start, rows", FAULT_BATCHES)
def test_bad_row_of_a_batch_raises_naming_the_callable(entry, name, start, rows, position, fault):
    # a dtype or shape fault raises at its row; a non-finite one once the
    # whole batch is in, since finiteness is tested over the stack.  No
    # RuntimeWarning either way (the suite turns one into an error)
    at_call = start + {"first": 0, "middle": rows // 2, "last": rows - 1}[position]
    replace, message = FAULTS[fault]
    message = message({"K": (4, 4), "D": (4,)}[name])
    base = chain_raw()
    good = getattr(base, name)
    calls = []

    def bad(z, t):
        calls.append(t)
        out = good(z, t)
        return replace(out) if len(calls) - 1 == at_call else out

    raw = RawFirstOrderSystem(base.n, **{"K": base.K, "D": base.D, name: bad})
    with pytest.raises(EvaluationError, match=f"^{name} {message}"):
        FAULT_ENTRIES[entry](raw)
    assert len(calls) == (start + rows if fault in ("nan", "inf") else at_call + 1)
