import warnings
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

        def inverse(x, ev):
            calls.append(x.copy())
            return np.linalg.inv(np.array([[2.0 * x[0], 2.0 * x[1]], [np.exp(x[0]), 1.0]]))

        x, rnorm, iters, _ = newton_solve(circle_and_exponential, [3.0, -5.0], inverse)
        # the start's terms set the scale: u(x0) = (34, e^3 - 5)
        assert rnorm <= TOL * 34.0
        u, v = circle_and_exponential(x)
        assert np.max(np.abs(u - v)) == rnorm
        # the matrix is reused across iterations, and refreshed when a
        # stale one stops cutting the residual
        assert 1 < len(calls) < iters
        np.testing.assert_array_equal(calls[0], [3.0, -5.0])

    def test_solve_meeting_its_target_evaluates_nothing_past_it(self):
        # x + x^2 / 20 = 1/2 from 0 with the start slope 2, about twice the
        # true one: Broyden's updates (the secant method in one dimension)
        # leave a residual near 6e-14 after update 5, below the target TOL,
        # and the solve ends there with no further evaluation or matrix
        evals, jac_points = [], []

        def terms(y):
            evals.append(y[0])
            return y + y**2 / 20.0, np.full(1, 0.5)

        def inverse(y, ev):
            jac_points.append(y[0])
            return np.array([[0.5]])

        x, rnorm, iters, _ = newton_solve(terms, np.zeros(1), inverse)
        assert 0.0 < rnorm <= TOL
        assert iters == 5
        assert len(evals) == iters + 1
        assert evals[-1] == x[0]
        assert jac_points == [0.0]
        assert abs(x[0] - (np.sqrt(110.0) - 10.0)) <= TOL

    def test_start_at_its_target_takes_no_update(self):
        # a residual of TOL / 2, not 0, is already converged: no matrix, no
        # second evaluation
        evals = []

        def terms(y):
            evals.append(y.copy())
            return y, np.full(1, 1.0 + TOL / 2)

        def inverse(y, ev):
            raise AssertionError("matrix evaluated at a converged start")

        x, rnorm, iters, _ = newton_solve(terms, np.ones(1), inverse)
        np.testing.assert_array_equal(x, [1.0])
        assert 0.0 < rnorm <= TOL
        assert iters == 0
        assert len(evals) == 1

    def test_iteration_cap_raises(self):
        # a constant residual has no root: every update moves x, none helps
        with pytest.raises(NewtonError) as info:
            newton_solve(lambda y: (np.ones(1), np.zeros(1)), np.zeros(1), lambda y, _: np.eye(1))
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
            newton_solve(terms, np.zeros(1), lambda y, _: np.eye(1) / scale)
        assert info.value.residual_norm == np.inf
        np.testing.assert_array_equal(info.value.last_iterate, [2.0])

    def test_noisy_residual_stops_at_its_noise_floor(self):
        # deterministic noise of size 1e-10 keeps the residual above the
        # target TOL; the solve ends once a fresh update stops lowering it
        def terms(y):
            return y + 1e-10 * (zlib.crc32(y.tobytes()) / 2**31 - 1), np.full(1, 2.0)

        x, rnorm, iters, _ = newton_solve(terms, np.zeros(1), lambda y, _: np.eye(1))
        assert iters <= 5
        assert rnorm <= np.sqrt(TOL)
        u, v = terms(x)
        assert np.max(np.abs(u - v)) == rnorm

    def test_returns_the_evaluation_of_its_iterate_not_of_a_turned_down_update(self):
        # the noisy solve above turns down two updates at its last iterate,
        # one from the stale matrix and then one from a fresh matrix, which
        # ends it: its last evaluation is at a turned-down point, and the
        # evaluation it returns, data included, is the one at x
        points = []

        def terms(y):
            points.append(y.copy())
            noise = 1e-10 * (zlib.crc32(y.tobytes()) / 2**31 - 1)
            return y + noise, np.full(1, 2.0), y.copy()

        x, rnorm, iters, ev = newton_solve(terms, np.zeros(1), lambda y, _: np.eye(1))
        assert len(points) == iters + 3
        assert points[-1][0] != x[0]
        np.testing.assert_array_equal(ev[2], x)
        assert np.max(np.abs(ev[0] - ev[1])) == rnorm

    def test_matrices_receive_the_evaluation_at_their_point(self):
        # the start matrix and every refresh are handed terms(x) at the x
        # they are asked for, the start matrix at x0
        asked = []

        def terms(x):
            u, v = circle_and_exponential(x)
            return u, v, x.copy()

        def record(x, ev):
            np.testing.assert_array_equal(ev[2], x)
            asked.append(x.copy())
            return circle_inverse(x)

        x, rnorm, iters, ev = newton_solve(terms, [3.0, -5.0], record, _start=record)
        assert rnorm <= TOL * 34.0
        np.testing.assert_array_equal(asked[0], [3.0, -5.0])
        assert len(asked) > 1
        np.testing.assert_array_equal(ev[2], x)

    def test_non_finite_start_term_does_not_lift_the_target(self):
        # an infinite term at the start leaves the scale at its finite
        # entries; a target of TOL * inf would accept the infinite residual
        with pytest.raises(NewtonError) as info:
            newton_solve(lambda y: (np.full(1, np.inf), y), np.zeros(1), lambda y, _: np.eye(1))
        assert info.value.residual_norm == np.inf
        assert info.value.iterations == 0

    def test_large_terms_stop_at_the_scaled_target(self):
        # the same problem with terms of size 1e8: their roundoff, about
        # 1e-8, sits far above the fixed target TOL, and the solve stops at
        # TOL * 1e8 after the same 5 updates
        def terms(y):
            return 1e8 * (y + y**2 / 20.0), np.full(1, 0.5e8)

        x, rnorm, iters, _ = newton_solve(terms, np.zeros(1), lambda y, _: np.array([[0.5e-8]]))
        assert TOL < rnorm <= TOL * 1e8
        assert iters == 5
        assert abs(x[0] - (np.sqrt(110.0) - 10.0)) <= TOL

    def test_slowly_contracting_start_matrix_takes_one_exact_refresh(self):
        # x - 1 = 0 from 0: the start matrix 2 halves the error, too little
        # for a stale matrix, so the exact slope 1 is fetched once, at the
        # first iterate, and lands on the root
        starts, jac_points = [], []

        def start(y, ev):
            starts.append(y[0])
            return np.array([[0.5]])

        def inverse(y, ev):
            jac_points.append(y[0])
            return np.eye(1)

        x, rnorm, iters, _ = newton_solve(shifted(1.0), np.zeros(1), inverse, _start=start)
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
        x, rnorm, iters, _ = newton_solve(shifted(1.0), x0, lambda y, _: -np.eye(1))
        np.testing.assert_array_equal(x, x0)
        assert (rnorm, iters) == (x0[0] - 1.0, 0)

        jac_points = []

        def inverse(y, ev):
            jac_points.append(y.copy())
            return np.eye(1)

        x, rnorm, iters, _ = newton_solve(shifted(1.0), x0, inverse, _start=lambda y, _: -np.eye(1))
        assert (x[0], rnorm, iters) == (1.0, 0.0, 1)
        np.testing.assert_array_equal(jac_points, [x0])


def circle_inverse(x):
    """Inverse Jacobian of the residual of ``circle_and_exponential``."""
    return np.linalg.inv(np.array([[2.0 * x[0], 2.0 * x[1]], [np.exp(x[0]), 1.0]]))


def scripted(residuals):
    """Terms (r_k, 0) at the k-th evaluation, and the list of points evaluated."""
    points = []

    def terms(x):
        points.append(x.copy())
        return np.array(residuals[len(points) - 1]), np.zeros(len(x))

    return terms, points


class TestBroydenUpdate:
    def test_solve_is_covariant_under_a_linear_change_of_variables(self):
        # r(Q x) from Q^-1 x0, with every inverse H handed in as Q^-1 H,
        # visits Q^-1 times the points of the unmapped solve: Broyden's
        # second update maps H to Q^-1 H, where the first would not
        q = np.array([[2.0, 1.0], [1.0, 1.0]])
        q_inv = np.linalg.inv(q)
        x0 = np.array([3.0, -5.0])
        start = circle_inverse(x0 + 0.3)
        points, mapped = [], []

        def terms(x):
            points.append(x.copy())
            return circle_and_exponential(x)

        def mapped_terms(x):
            mapped.append(q @ x)
            return circle_and_exponential(q @ x)

        x, rnorm, iters, _ = newton_solve(
            terms, x0, lambda x, _: circle_inverse(x), _start=lambda x, _: start
        )
        y, ynorm, yiters, _ = newton_solve(
            mapped_terms,
            q_inv @ x0,
            lambda y, _: q_inv @ circle_inverse(q @ y),
            _start=lambda y, _: q_inv @ start,
        )
        assert iters == yiters > 5
        assert len(points) == len(mapped)
        np.testing.assert_allclose(mapped, points, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(q @ y, x, rtol=0.0, atol=1e-13)
        assert ynorm <= TOL * 34.0

    @pytest.mark.parametrize(
        "r0, r1",
        [
            ([1.0, 1.0], [1.0, 1.0]),
            ([1e200, 1.0], [-1e200, 1.0]),
            ([-1e308, 1.0], [1e308, 1.0]),
            ([1.0, 0.0], [1.0, 1e-310]),
        ],
        ids=["zero", "square-overflows", "overflows", "below-roundoff"],
    )
    def test_degenerate_y_skips_the_update(self, r0, r1):
        # y = r1 - r0 is 0, has a square that overflows, overflows itself,
        # or is so far below the residual that it carries no slope: the
        # second update reuses the first matrix, and the solve warns of
        # nothing
        terms, points = scripted([r0, r1, [0.0, 0.0]])
        inv = np.array([[1.0, 0.5], [0.0, 2.0]]) / max(1.0, abs(r0[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            newton_solve(terms, np.zeros(2), lambda x, _: inv)
        assert len(points) == 3
        np.testing.assert_array_equal(points[2], points[1] - inv @ np.array(r1))

    def test_non_finite_y_skips_the_update(self):
        # a NaN residual after a taken update leaves y non-finite: the
        # update is skipped with no warning, and the next Newton update,
        # not finite, raises
        terms, points = scripted([[1.0, 1.0], [np.nan, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NewtonError, match="non-finite Newton update") as info:
                newton_solve(terms, np.zeros(2), lambda x, _: np.eye(2))
        assert info.value.iterations == 1
        np.testing.assert_array_equal(info.value.last_iterate, [-1.0, -1.0])

    def test_read_only_inverse_is_never_written(self):
        # the gate's inverse is shared and read-only: every update builds
        # a new array, so a solve over many updates leaves it as it was
        start = circle_inverse(np.array([3.3, -4.7]))
        start.flags.writeable = False
        kept = start.copy()
        refreshed = []

        def inverse(x, ev):
            out = circle_inverse(x)
            out.flags.writeable = False
            refreshed.append((out, out.copy()))
            return out

        x, rnorm, iters, _ = newton_solve(
            circle_and_exponential, [3.0, -5.0], inverse, _start=lambda x, _: start
        )
        assert iters > 5 and rnorm <= TOL * 34.0
        np.testing.assert_array_equal(start, kept)
        for out, copy in refreshed:
            np.testing.assert_array_equal(out, copy)
