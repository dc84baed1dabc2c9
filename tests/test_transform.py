import numpy as np
import pytest

from birkhoff import (
    AlphaTransform,
    BirkhoffSystem,
    TransversalityError,
    alpha_verify,
    canonical_j,
    numdiff,
    oscillator_system,
    scaled_canonical_alpha,
    scheme_first_order,
    sigma,
    transversality_equivalents,
)

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


class TestScaledCanonicalAlpha:
    def test_round_trips_forward_and_inverse(self, osc_alpha, rng):
        for _ in range(20):
            zh = rng.uniform(-2, 2, 2)
            z = rng.uniform(-2, 2, 2)
            t, t0 = rng.uniform(0, 2, 2)
            wh, w = osc_alpha.forward(zh, z, t, t0)
            zh2, z2 = osc_alpha.inverse(wh, w, t, t0)
            assert np.max(np.abs(zh2 - zh)) <= 1e-10
            assert np.max(np.abs(z2 - z)) <= 1e-10

    def test_blocks_match_finite_difference_jacobian(self, osc_alpha, rng):
        zh = rng.uniform(-2, 2, 2)
        z = rng.uniform(-2, 2, 2)
        t, t0 = 0.9, 0.2

        def stacked(v):
            wh, w = osc_alpha.forward(v[:2], v[2:], t, t0)
            return np.concatenate([wh, w])

        fd = numdiff.jacobian(stacked, np.concatenate([zh, z]))
        assert np.max(np.abs(osc_alpha.jacobian(zh, z, t, t0) - fd)) <= 1e-6

    def test_inverse_blocks_invert_the_jacobian(self, osc_alpha, rng):
        zh = rng.uniform(-2, 2, 2)
        z = rng.uniform(-2, 2, 2)
        t, t0 = 1.3, 0.4
        wh, w = osc_alpha.forward(zh, z, t, t0)
        ai, bi, ci, di = osc_alpha.inverse_blocks(wh, w, t, t0)
        inv = np.block([[ai, bi], [ci, di]])
        np.testing.assert_allclose(
            inv @ osc_alpha.jacobian(zh, z, t, t0), np.eye(4), atol=1e-12
        )

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

    def test_time_partials_match_finite_differences(self, osc_alpha, rng):
        zh = rng.uniform(-2, 2, 2)
        z = rng.uniform(-2, 2, 2)
        t0 = 0.3

        def stacked(t):
            wh, w = osc_alpha.forward(zh, z, t, t0)
            return np.concatenate([wh, w])

        fd = numdiff.time_derivative(stacked, 1.1)
        d1, d2 = osc_alpha.time_partials(zh, z, 1.1, t0)
        assert np.max(np.abs(np.concatenate([d1, d2]) - fd)) <= 1e-8

    def test_nonpositive_scaling_rejected(self):
        alpha = scaled_canonical_alpha(lambda t: 1.0 - t, 1)
        with pytest.raises(ValueError):
            alpha.forward(np.zeros(2), np.zeros(2), 2.0, 0.0)

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ValueError):
            scaled_canonical_alpha(lambda t: 1.0, 0)


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
