import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from birkhoff import (
    AlphaTransform,
    BirkhoffSystem,
    EvaluationError,
    TransversalityError,
    alpha_verify,
    canonical_j,
    darboux_alpha,
    make_scheme,
    numdiff,
    oscillator_system,
    run,
    scaled_canonical_alpha,
    scheme_first_order,
    sigma,
    step,
    transversality_equivalents,
)
from birkhoff.transform import _TIME_CACHE_SIZE, require_transversal
from pendulum_chain import shear_p, sheared_chain

NU = 0.5


def identity_alpha(n=1):
    dim = 2 * n
    eye = np.eye(dim)
    zero = np.zeros((dim, dim))
    return AlphaTransform(
        n=n,
        forward=lambda zh, z, t, t0: (np.array(zh, dtype=float), np.array(z, dtype=float)),
        inverse=lambda wh, w, t, t0: (np.array(wh, dtype=float), np.array(w, dtype=float)),
        blocks=lambda zh, z, t, t0: (eye, zero, zero, eye),
        inverse_blocks=lambda wh, w, t, t0: (eye, zero, zero, eye),
        time_partials=lambda zh, z, t, t0: (np.zeros(dim), np.zeros(dim)),
    )


def random_k_symplectic(rng, t, t0, nu=NU):
    """Random 2x2 matrix M with M^T K(t) M = K(t0) for the scaled pairing."""
    target = np.exp(-nu * (t - t0))
    while True:
        mat = rng.uniform(-1, 1, (2, 2))
        det = np.linalg.det(mat)
        if det > 0.05:
            return mat * np.sqrt(target / det)


class TestStructureMatrices:
    def test_canonical_pairing_squares_to_minus_identity(self):
        for dim in (2, 4, 6):
            j = canonical_j(dim)
            np.testing.assert_array_equal(j @ j, -np.eye(dim))

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            canonical_j(3)

    def test_float_dimension_rejected(self):
        # 4.0 used to raise a bare TypeError from np.eye
        with pytest.raises(ValueError, match="dim must be a positive integer, got 4.0"):
            canonical_j(4.0)


class TestAlphaVerify:
    def test_oscillator_transform_is_compatible(self, osc_alpha, osc_system, rng):
        for _ in range(100):
            zh = rng.uniform(-2, 2, 2)
            z = rng.uniform(-2, 2, 2)
            t, t0 = rng.uniform(0, 2, 2)
            assert alpha_verify(osc_alpha, osc_system, zh, z, t, t0) <= 1e-12

    def test_identity_transform_is_not_compatible(self):
        # pulling back the canonical 4n-pairing through the identity gives
        # the plain pairing, not the split-signature one: gap of norm 2
        sys1 = BirkhoffSystem(
            n=1,
            F=lambda z, t: 0.5 * canonical_j(2) @ z,
            B=lambda z, t: 0.0,
            K=lambda z, t: canonical_j(2),
        )
        residual = alpha_verify(
            identity_alpha(), sys1, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0, 0.0
        )
        assert residual == pytest.approx(2.0, abs=1e-15)

    def test_transform_of_another_dimension_rejected(self, osc_system):
        # a 2-dof transform on the 1-dof oscillator used to fail inside
        # numpy on an array broadcast
        alpha = scaled_canonical_alpha(lambda t: 1.0, 2)
        with pytest.raises(ValueError, match="transform has n = 2 but the system has n = 1"):
            alpha_verify(alpha, osc_system, np.zeros(4), np.zeros(4), 0.1, 0.0)

    def test_state_of_another_length_rejected(self, osc_alpha, osc_system):
        # the oscillator's blocks and K do not read z, so 3-vectors used to
        # certify the transform with a residual of 0.0
        with pytest.raises(ValueError, match="state of shape"):
            alpha_verify(osc_alpha, osc_system, np.zeros(3), np.zeros(3), 0.1, 0.0)

    def test_unscaled_transform_matches_constant_pairing(self, rng):
        alpha = scaled_canonical_alpha(lambda t: 1.0, 1, lam_dot=lambda t: 0.0)
        sys1 = oscillator_system(0.0)
        for _ in range(10):
            residual = alpha_verify(
                alpha, sys1, rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2), *rng.uniform(0, 2, 2)
            )
            assert residual <= 1e-12

    def test_two_degree_of_freedom_scaling(self, rng):
        lam = lambda t: np.exp(0.5 * t)  # noqa: E731
        alpha = scaled_canonical_alpha(lam, 2, lam_dot=lambda t: 0.5 * np.exp(0.5 * t))
        j0 = np.zeros((4, 4))
        j0[:2, 2:] = -np.eye(2)
        j0[2:, :2] = np.eye(2)
        sys4 = BirkhoffSystem(
            n=2,
            F=lambda z, t: 0.5 * lam(t) * np.concatenate([z[2:], -z[:2]]),
            B=lambda z, t: 0.0,
            K=lambda z, t: lam(t) * j0,
        )
        for _ in range(10):
            residual = alpha_verify(
                alpha, sys4, rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4), *rng.uniform(0, 2, 2)
            )
            assert residual <= 1e-12


@pytest.fixture(params=["oscillator", "sheared"])
def midpoint_alpha(request, osc_alpha):
    """The n = 1 oscillator transform and the n = 2 non-diagonal Darboux transform."""
    return osc_alpha if request.param == "oscillator" else sheared_chain()[1]


class TestMidpointStructure:
    def test_round_trips_forward_and_inverse(self, midpoint_alpha, rng):
        dim = midpoint_alpha.dim
        for _ in range(20):
            zh = rng.uniform(-2, 2, dim)
            z = rng.uniform(-2, 2, dim)
            t, t0 = rng.uniform(0, 2, 2)
            wh, w = midpoint_alpha.forward(zh, z, t, t0)
            zh2, z2 = midpoint_alpha.inverse(wh, w, t, t0)
            assert np.max(np.abs(zh2 - zh)) <= 1e-10
            assert np.max(np.abs(z2 - z)) <= 1e-10

    def test_blocks_match_finite_difference_jacobian(self, midpoint_alpha, rng):
        dim = midpoint_alpha.dim
        zh = rng.uniform(-2, 2, dim)
        z = rng.uniform(-2, 2, dim)
        t, t0 = 0.9, 0.2

        def stacked(v):
            wh, w = midpoint_alpha.forward(v[:dim], v[dim:], t, t0)
            return np.concatenate([wh, w])

        fd = numdiff.jacobian(stacked, np.concatenate([zh, z]))
        assert np.max(np.abs(midpoint_alpha.jacobian(zh, z, t, t0) - fd)) <= 1e-6

    def test_inverse_blocks_invert_the_jacobian(self, midpoint_alpha, rng):
        dim = midpoint_alpha.dim
        zh = rng.uniform(-2, 2, dim)
        z = rng.uniform(-2, 2, dim)
        t, t0 = 1.3, 0.4
        wh, w = midpoint_alpha.forward(zh, z, t, t0)
        ai, bi, ci, di = midpoint_alpha.inverse_blocks(wh, w, t, t0)
        inv = np.block([[ai, bi], [ci, di]])
        np.testing.assert_allclose(
            inv @ midpoint_alpha.jacobian(zh, z, t, t0), np.eye(2 * dim), atol=1e-12
        )

    def test_time_partials_match_finite_differences(self, midpoint_alpha, rng):
        dim = midpoint_alpha.dim
        zh = rng.uniform(-2, 2, dim)
        z = rng.uniform(-2, 2, dim)
        t0 = 0.3

        def stacked(t):
            wh, w = midpoint_alpha.forward(zh, z, t, t0)
            return np.concatenate([wh, w])

        fd = numdiff.time_derivative(stacked, 1.1)
        d1, d2 = midpoint_alpha.time_partials(zh, z, 1.1, t0)
        assert np.max(np.abs(np.concatenate([d1, d2]) - fd)) <= 1e-8


class TestScaledCanonicalAlpha:
    def test_oscillator_jacobian_entries(self, osc_alpha):
        # scaling multiplies only the momentum columns; positions carry
        # plain +/-1 and averaging halves
        t, t0 = 0.7, 0.2
        et, e0 = np.exp(NU * t), np.exp(NU * t0)
        expected = np.array(
            [
                [0.0, et, 0.0, -e0],
                [1.0, 0.0, -1.0, 0.0],
                [0.5, 0.0, 0.5, 0.0],
                [0.0, -0.5 * et, 0.0, -0.5 * e0],
            ]
        )
        jac = osc_alpha.jacobian(np.array([1.0, 2.0]), np.array([3.0, 4.0]), t, t0)
        np.testing.assert_allclose(jac, expected, atol=1e-14)

    def test_nonpositive_scaling_rejected(self):
        alpha = scaled_canonical_alpha(lambda t: 1.0 - t, 1)
        with pytest.raises(EvaluationError, match="time scaling must be positive"):
            alpha.forward(np.zeros(2), np.zeros(2), 2.0, 0.0)

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ValueError):
            scaled_canonical_alpha(lambda t: 1.0, 0)


class TestDarbouxAlpha:
    @pytest.mark.parametrize("analytic_p_dot", [True, False], ids=["p_dot", "default_p_dot"])
    def test_sheared_transform_is_compatible(self, analytic_p_dot, rng):
        system, alpha = sheared_chain(analytic_p_dot)
        for _ in range(50):
            zh = rng.uniform(-2, 2, 4)
            z = rng.uniform(-2, 2, 4)
            t, t0 = rng.uniform(0, 2, 2)
            assert alpha_verify(alpha, system, zh, z, t, t0) <= 1e-12

    def test_default_time_partials_match_the_analytic_ones(self, rng):
        _, exact = sheared_chain()
        _, differenced = sheared_chain(analytic_p_dot=False)
        zh = rng.uniform(-2, 2, 4)
        z = rng.uniform(-2, 2, 4)
        at = (zh, z, 1.1, 0.3)
        for a, b in zip(exact.time_partials(*at), differenced.time_partials(*at)):
            assert np.max(np.abs(a - b)) <= 1e-8

    @settings(max_examples=40)
    @given(
        n=st.sampled_from([1, 2]),
        entries=st.lists(st.floats(-2.0, 2.0), min_size=16, max_size=16),
        times=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_constant_darboux_matrix_is_compatible(self, n, entries, times, seed):
        dim = 2 * n
        p = np.array(entries[: dim * dim]).reshape(dim, dim)
        assume(abs(np.linalg.det(p)) > 0.1)
        k = p.T @ -canonical_j(dim) @ p
        system = BirkhoffSystem(
            n=n, F=lambda z, t: -0.5 * k @ z, B=lambda z, t: 0.0, K=lambda z, t: k
        )
        alpha = darboux_alpha(lambda t: p, n)
        zh, z = np.random.default_rng(seed).uniform(-2, 2, (2, dim))
        assert alpha_verify(alpha, system, zh, z, *times) <= 1e-12

    @pytest.mark.parametrize(
        "bad, message",
        [
            pytest.param(np.diag([1.0, 0.0]), "P is singular", id="singular"),
            pytest.param(np.diag([1.0, np.nan]), "P returned non-finite", id="non-finite"),
            pytest.param(np.eye(3), "P must return shape", id="shape"),
        ],
    )
    def test_bad_darboux_matrix_raises_inside_run(self, bad, message):
        # P = I serves the undamped oscillator; from t = 0.25 on P(t) is bad,
        # and the step from t = 0.2 is the first to read it
        system = oscillator_system(0.0)
        alpha = darboux_alpha(
            lambda t: np.eye(2) if t < 0.25 else bad, 1, lambda t: np.zeros((2, 2))
        )
        scheme = make_scheme(system, alpha, 0.0, 1)
        with pytest.raises(EvaluationError, match=message) as info:
            run(lambda z, t: step(system, scheme, z, t, 0.1), np.array([1.0, 0.0]), 0.0, 0.1, 5)
        assert info.value.step_index == 2
        assert len(info.value.trajectory.states) - 1 == 2


class TestPerTimeCache:
    def test_one_order_two_step_evaluates_lam_once_per_time_pair(self):
        # the step reads lam at 0.3, 0.3 +- h and 0.4, and lam_dot at 0.3 and
        # 0.3 +- h, each once; evaluating them on every call took 676 calls
        # to lam and 77 to lam_dot
        lam_calls, lam_dot_calls = [], []

        def lam(t):
            lam_calls.append(t)
            return np.exp(NU * t)

        def lam_dot(t):
            lam_dot_calls.append(t)
            return NU * np.exp(NU * t)

        system = oscillator_system(NU)
        scheme = make_scheme(system, scaled_canonical_alpha(lam, 1, lam_dot=lam_dot), 0.3, 2)
        step(system, scheme, np.array([0.7, -1.3]), 0.3, 0.1)
        assert len(lam_calls) <= 4
        assert len(lam_dot_calls) <= 3

    def test_returned_blocks_are_read_only(self, osc_alpha):
        for block in osc_alpha.blocks(np.zeros(2), np.zeros(2), 0.4, 0.3):
            with pytest.raises(ValueError):
                block[0, 0] = 1.0

    def test_failed_evaluation_is_not_cached(self):
        calls = []

        def lam(t):
            calls.append(t)
            if t > 1.0:
                raise RuntimeError("lam undefined")
            return 1.0 + t

        alpha = scaled_canonical_alpha(lam, 1, lam_dot=lambda t: 1.0)
        z = np.array([1.0, 2.0])
        for _ in range(3):
            with pytest.raises(RuntimeError, match="lam undefined"):
                alpha.forward(z, z, 2.0, 0.0)
        assert calls.count(2.0) == 3
        w_hat, w = alpha.forward(z, z, 0.5, 0.0)
        np.testing.assert_allclose(w_hat, [1.0, 0.0])
        np.testing.assert_allclose(w, [1.0, -2.5])


    def test_inverse_round_trips_as_time_pairs_leave_the_cache(self, rng):
        # the inverse applies the factor diag(P(t), P(t0))^{-1} unmix kept per
        # time pair; the sheared P is not diagonal, and cycling through more
        # pairs than the cache holds recomputes evicted factors
        _, alpha = sheared_chain()
        pairs = [tuple(rng.uniform(0, 2, 2)) for _ in range(3 * _TIME_CACHE_SIZE)]
        for t, t0 in pairs + pairs:
            z_new, z_old = rng.uniform(-2, 2, (2, alpha.dim))
            back_new, back_old = alpha.inverse(*alpha.forward(z_new, z_old, t, t0), t, t0)
            scale = max(np.max(np.abs(z_new)), np.max(np.abs(z_old)))
            assert np.max(np.abs(back_new - z_new)) <= 1e-14 * scale
            assert np.max(np.abs(back_old - z_old)) <= 1e-14 * scale

    def test_inverse_blocks_are_read_only_and_solve_the_darboux_matrix(self):
        _, alpha = sheared_chain()
        n, dim = alpha.n, alpha.dim
        eye, zero = np.eye(n), np.zeros((n, n))
        swap = np.block([[zero, eye], [eye, zero]])
        half = np.diag(np.repeat([0.5, -0.5], n))
        # (y1, y0) = unmix (w_hat, w), from the definition of darboux_alpha
        unmix = np.block([[0.5 * swap, 2.0 * half], [-0.5 * swap, 2.0 * half]])
        t, t0 = 1.3, 0.4
        both = np.block([[shear_p(t), np.zeros((dim, dim))], [np.zeros((dim, dim)), shear_p(t0)]])
        expected = np.linalg.solve(both, unmix)
        blocks = alpha.inverse_blocks(np.zeros(dim), np.zeros(dim), t, t0)
        got = np.block([list(blocks[:2]), list(blocks[2:])])
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
        for block in blocks:
            with pytest.raises(ValueError):
                block[0, 0] = 1.0

    def test_failed_darboux_check_raises_on_every_call(self):
        calls = []

        def p(t):
            calls.append(t)
            return np.eye(2) if t <= 1.0 else np.diag([1.0, 0.0])

        alpha = darboux_alpha(p, 1, lambda t: np.zeros((2, 2)))
        w = np.array([1.0, 2.0])
        for _ in range(3):
            with pytest.raises(EvaluationError, match="P is singular"):
                alpha.inverse(w, w, 2.0, 0.0)
        assert calls.count(2.0) == 3
        z_new, z_old = alpha.inverse(w, w, 0.5, 0.0)
        np.testing.assert_allclose(alpha.forward(z_new, z_old, 0.5, 0.0), (w, w))


class TestSigma:
    def test_identity_blocks_return_the_argument(self, rng):
        mat = rng.uniform(-1, 1, (2, 2))
        eye = np.eye(2)
        zero = np.zeros((2, 2))
        np.testing.assert_allclose(sigma((eye, zero, zero, eye), mat), mat, atol=1e-14)

    def test_first_order_step_matrix_maps_to_symmetric(self, osc_alpha):
        # blocks taken at the step's own time pair (tau, 0)
        tau = 0.1
        mat = scheme_first_order(NU, tau)
        blocks = osc_alpha.blocks(np.zeros(2), np.zeros(2), tau, 0.0)
        n = sigma(blocks, mat)
        assert np.max(np.abs(n - n.T)) <= 1e-12

    def test_singular_denominator_raises_with_determinant(self):
        eye = np.eye(2)
        zero = np.zeros((2, 2))
        with pytest.raises(TransversalityError) as info:
            sigma((zero, eye, eye, zero), np.zeros((2, 2)))
        assert info.value.det == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_matrix_is_not_called_singular(self, bad):
        # a matrix with an entry that is not finite has no determinant: the
        # error says so, with det NaN, where a singular one reports |det|
        with pytest.raises(TransversalityError, match=r"X not finite \(\|det\| = nan\)") as info:
            require_transversal(np.array([[bad, 1.0], [0.0, 1.0]]), "X")
        assert np.isnan(info.value.det)
        singular = r"X singular \(\|det\| = 0.000e\+00\)"
        with pytest.raises(TransversalityError, match=singular) as info:
            require_transversal(np.array([[1.0, 1.0], [0.0, 0.0]]), "X")
        assert info.value.det == 0.0

    def test_round_trip_through_inverse_blocks(self, osc_alpha, rng):
        for _ in range(50):
            zh = rng.uniform(-2, 2, 2)
            z = rng.uniform(-2, 2, 2)
            t, t0 = rng.uniform(0, 2, 2)
            mat = rng.uniform(-1, 1, (2, 2))
            blocks = osc_alpha.blocks(zh, z, t, t0)
            wh, w = osc_alpha.forward(zh, z, t, t0)
            iblocks = osc_alpha.inverse_blocks(wh, w, t, t0)
            try:
                n = sigma(blocks, mat)
                back = sigma(iblocks, n)
            except TransversalityError:
                continue
            assert np.max(np.abs(back - mat)) <= 1e-10

    def test_structure_preserving_jacobians_map_to_symmetric(self, osc_alpha, rng):
        for _ in range(50):
            t0, tau = rng.uniform(0, 1), rng.uniform(0.01, 0.5)
            t = t0 + tau
            mat = random_k_symplectic(rng, t, t0)
            blocks = osc_alpha.blocks(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), t, t0)
            n = sigma(blocks, mat)
            assert np.max(np.abs(n - n.T)) <= 1e-10


class TestTransversalityEquivalents:
    def test_step_matrix_satisfies_all_four(self, osc_alpha):
        tau = 0.1
        mat = scheme_first_order(NU, tau)
        at = (np.zeros(2), np.zeros(2), tau, 0.0)
        n = sigma(osc_alpha.blocks(*at), mat)
        flags = transversality_equivalents(osc_alpha, mat, n, at)
        assert flags == (True, True, True, True)

    def test_identity_blocks_first_condition(self, rng):
        alpha = identity_alpha()
        mat = rng.uniform(-1, 1, (2, 2))
        n = mat.copy()
        flags = transversality_equivalents(alpha, mat, n, (np.zeros(2), np.zeros(2), 0.0, 0.0))
        assert flags[0]

    @pytest.mark.parametrize(
        "states, size, message",
        [
            ((np.zeros(5), np.zeros(5)), 2, r"state of shape \(5,\) does not match"),
            ((np.zeros(2), np.zeros(2)), 3, r"need 2 x 2 M and N, got \(3, 3\), \(3, 3\)"),
        ],
        ids=["state-5", "matrix-3x3"],
    )
    def test_inputs_of_another_size_rejected_before_evaluation(
        self, osc_alpha, states, size, message
    ):
        # both shapes are checked before any transform callable runs
        def unreachable(*args):
            raise AssertionError("a transform callable was evaluated")

        alpha = dataclasses.replace(osc_alpha, blocks=unreachable, forward=unreachable)
        mat = np.eye(size)
        with pytest.raises(ValueError, match=message):
            transversality_equivalents(alpha, mat, mat, (*states, 0.1, 0.0))

    def test_all_four_agree_on_random_trials(self, osc_alpha, rng):
        agreements = 0
        for _ in range(1000):
            t0 = rng.uniform(0, 1)
            tau = rng.uniform(0.01, 0.5)
            t = t0 + tau
            at = (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), t, t0)
            mat = random_k_symplectic(rng, t, t0)
            try:
                n = sigma(osc_alpha.blocks(*at), mat)
            except TransversalityError:
                continue
            flags = transversality_equivalents(osc_alpha, mat, n, at)
            assert len(set(flags)) == 1
            agreements += 1
        assert agreements >= 990
