import zlib

import numpy as np
import pytest

from birkhoff import NewtonError
from birkhoff.newton import MAX_ITER, TOL, newton_solve


def circle_and_exponential(x):
    """x0^2 + x1^2 = 4 and e^x0 + x1 = 1 as the pair of terms (u, v)."""
    return np.array([x[0] ** 2 + x[1] ** 2, np.exp(x[0]) + x[1]]), np.array([4.0, 1.0])


def shifted(rhs):
    """Terms (y, rhs) of the residual y - rhs."""
    return lambda y: (y, np.full(np.shape(y), rhs))


class TestNewtonSolve:
    def test_far_start_converges_with_stale_jacobian_refreshes(self):
        calls = []

        def inverse(x):
            calls.append(x.copy())
            return np.linalg.inv(np.array([[2.0 * x[0], 2.0 * x[1]], [np.exp(x[0]), 1.0]]))

        x, rnorm, iters = newton_solve(circle_and_exponential, [3.0, -5.0], inverse)
        # the start's terms set the scale: u(x0) = (34, e^3 - 5)
        assert rnorm <= TOL * 34.0
        u, v = circle_and_exponential(x)
        assert np.max(np.abs(u - v)) == rnorm
        # the matrix is reused across iterations, and refreshed when a
        # stale one stops cutting the residual
        assert 1 < len(calls) < iters
        np.testing.assert_array_equal(calls[0], [3.0, -5.0])

    def test_solve_meeting_its_target_evaluates_nothing_past_it(self):
        # x - 1 = 0 with the chord slope 2 halves the error per update, too
        # little for a stale matrix, so every second update asks for a fresh
        # one; the error 2^-40 meets the target on update 40, a stale one,
        # and the solve ends there without fetching the matrix it flagged
        evals, jac_points = [], []

        def terms(y):
            evals.append(y[0])
            return y, np.ones(1)

        def inverse(y):
            jac_points.append(y[0])
            return np.array([[0.5]])

        x, rnorm, iters = newton_solve(terms, np.zeros(1), inverse)
        assert x[0] == 1.0 - 2.0**-40
        assert rnorm == 2.0**-40
        assert iters == 40
        assert len(evals) == iters + 1
        assert jac_points == [1.0 - 2.0**-k for k in range(0, 40, 2)]

    def test_start_at_its_target_takes_no_update(self):
        # a residual of TOL / 2, not 0, is already converged: no matrix, no
        # second evaluation
        evals = []

        def terms(y):
            evals.append(y.copy())
            return y, np.full(1, 1.0 + TOL / 2)

        def inverse(y):
            raise AssertionError("matrix evaluated at a converged start")

        x, rnorm, iters = newton_solve(terms, np.ones(1), inverse)
        np.testing.assert_array_equal(x, [1.0])
        assert 0.0 < rnorm <= TOL
        assert iters == 0
        assert len(evals) == 1

    def test_iteration_cap_raises(self):
        # a constant residual has no root: every update moves x, none helps
        with pytest.raises(NewtonError) as info:
            newton_solve(lambda y: (np.ones(1), np.zeros(1)), np.zeros(1), lambda y: np.eye(1))
        assert info.value.iterations == MAX_ITER
        assert info.value.residual_norm == 1.0
        np.testing.assert_array_equal(info.value.last_iterate, [-float(MAX_ITER)])

    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_non_finite_residual_never_counts_as_converged(self, scale):
        # the first update lands where the residual is NaN; even a target
        # of TOL * 2e300, from the start's term 2 * scale, must not accept it
        def terms(y):
            return (scale * y if y[0] < 1.0 else np.full(1, np.nan)), np.full(1, 2.0 * scale)

        with pytest.raises(NewtonError) as info:
            newton_solve(terms, np.zeros(1), lambda y: np.eye(1) / scale)
        assert info.value.residual_norm == np.inf
        np.testing.assert_array_equal(info.value.last_iterate, [2.0])

    def test_noisy_residual_stops_at_its_noise_floor(self):
        # deterministic noise of size 1e-10 keeps the residual above the
        # target TOL; the solve ends once a fresh update stops lowering it
        def terms(y):
            return y + 1e-10 * (zlib.crc32(y.tobytes()) / 2**31 - 1), np.full(1, 2.0)

        x, rnorm, iters = newton_solve(terms, np.zeros(1), lambda y: np.eye(1))
        assert iters <= 5
        assert rnorm <= np.sqrt(TOL)
        u, v = terms(x)
        assert np.max(np.abs(u - v)) == rnorm

    def test_non_finite_start_term_does_not_lift_the_target(self):
        # an infinite term at the start leaves the scale at its finite
        # entries; a target of TOL * inf would accept the infinite residual
        with pytest.raises(NewtonError) as info:
            newton_solve(lambda y: (np.full(1, np.inf), y), np.zeros(1), lambda y: np.eye(1))
        assert info.value.residual_norm == np.inf
        assert info.value.iterations == 0

    def test_large_terms_stop_at_the_scaled_target(self):
        # terms of size 1e8, and a chord slope twice the true one, so every
        # update halves the error: the residual 1e8 * 2^-k meets TOL * 1e8
        # after about 40 updates, where the fixed target TOL would need
        # over 60 and run into the iteration cap
        def terms(y):
            return 1e8 * y, np.full(1, 1e8)

        x, rnorm, iters = newton_solve(terms, np.zeros(1), lambda y: np.array([[5e-9]]))
        assert TOL < rnorm <= TOL * 1e8
        assert iters < MAX_ITER
        assert abs(x[0] - 1.0) <= TOL

    def test_slowly_contracting_start_matrix_takes_one_exact_refresh(self):
        # x - 1 = 0 from 0: the start matrix 2 halves the error, too little
        # for a stale matrix, so the exact slope 1 is fetched once, at the
        # first iterate, and lands on the root
        starts, jac_points = [], []

        def start(y):
            starts.append(y[0])
            return np.array([[0.5]])

        def inverse(y):
            jac_points.append(y[0])
            return np.eye(1)

        x, rnorm, iters = newton_solve(shifted(1.0), np.zeros(1), inverse, _start=start)
        assert (x[0], rnorm, iters) == (1.0, 0.0, 2)
        assert starts == [0.0]
        assert jac_points == [0.5]

    def test_start_matrix_at_the_noise_floor_is_refreshed_before_the_stop(self):
        # a start 1e-9 from the root of x - 1 sits below the noise floor
        # sqrt(TOL) and above the target TOL; the matrix -1 moves away from
        # the root.  As a fresh matrix it ends the solve there, as a start
        # matrix it is stale, so the exact one is fetched at the same point
        # and meets the target
        x0 = np.array([1.0 + 1e-9])
        x, rnorm, iters = newton_solve(shifted(1.0), x0, lambda y: -np.eye(1))
        np.testing.assert_array_equal(x, x0)
        assert (rnorm, iters) == (x0[0] - 1.0, 0)

        jac_points = []

        def inverse(y):
            jac_points.append(y.copy())
            return np.eye(1)

        x, rnorm, iters = newton_solve(shifted(1.0), x0, inverse, _start=lambda y: -np.eye(1))
        assert (x[0], rnorm, iters) == (1.0, 0.0, 1)
        np.testing.assert_array_equal(jac_points, [x0])
