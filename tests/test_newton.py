import numpy as np
import pytest

from birkhoff import NewtonError
from birkhoff.newton import MAX_ITER, TOL, newton_solve


def circle_and_exponential(x):
    return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, np.exp(x[0]) + x[1] - 1.0])


class TestNewtonSolve:
    def test_far_start_converges_with_stale_jacobian_refreshes(self):
        calls = []

        def jacobian(x):
            calls.append(x.copy())
            return np.array([[2.0 * x[0], 2.0 * x[1]], [np.exp(x[0]), 1.0]])

        x, rnorm, iters = newton_solve(circle_and_exponential, [3.0, -5.0], 4.0, jacobian)
        assert rnorm <= TOL * 4.0
        assert np.max(np.abs(circle_and_exponential(x))) == rnorm
        # the matrix is reused across iterations, and refreshed when a
        # stale one stops cutting the residual
        assert 1 < len(calls) < iters
        np.testing.assert_array_equal(calls[0], [3.0, -5.0])

    def test_singular_jacobian_raises_with_the_last_iterate(self):
        x0 = np.array([0.5, -0.5])
        with pytest.raises(NewtonError) as info:
            newton_solve(lambda y: y - 1.0, x0, 1.0, lambda y: np.zeros((2, 2)))
        np.testing.assert_array_equal(info.value.last_iterate, x0)
        assert info.value.residual_norm == 1.5
        assert info.value.iterations == 0

    def test_iteration_cap_raises(self):
        # a constant residual has no root: every update moves x, none helps
        with pytest.raises(NewtonError) as info:
            newton_solve(lambda y: np.ones(1), np.zeros(1), 1.0, lambda y: np.eye(1))
        assert info.value.iterations == MAX_ITER
        assert info.value.residual_norm == 1.0
        np.testing.assert_array_equal(info.value.last_iterate, [-float(MAX_ITER)])

    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_non_finite_residual_never_counts_as_converged(self, scale):
        # the first update lands where the residual is NaN; even a target
        # of TOL * 1e300 must not accept it
        def residual(y):
            return scale * (y - 2.0) if y[0] < 1.0 else np.full(1, np.nan)

        with pytest.raises(NewtonError) as info:
            newton_solve(residual, np.zeros(1), scale, lambda y: scale * np.eye(1))
        assert info.value.residual_norm == np.inf
        np.testing.assert_array_equal(info.value.last_iterate, [2.0])
