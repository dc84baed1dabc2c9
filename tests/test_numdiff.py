import numpy as np
import pytest

from birkhoff import numdiff

X = np.array([0.3, -1.2, 0.7])


@pytest.mark.parametrize(
    "f",
    [
        lambda x: float(x @ x) * np.sin(x[0]),
        lambda x: np.array([x[0] * x[1], np.exp(x[2]), x[1] ** 3]),
        lambda x: np.outer(x, np.cos(x))[:2],
    ],
    ids=["scalar", "vector", "matrix"],
)
def test_jacobian_stacks_the_partials_on_a_last_axis(f):
    expected = np.stack([numdiff.partial(f, X, j) for j in range(X.size)], axis=-1)
    np.testing.assert_array_equal(numdiff.jacobian(f, X), expected)


def test_gradient_is_the_jacobian():
    assert numdiff.gradient is numdiff.jacobian


@pytest.mark.parametrize(
    "f",
    [
        lambda x: float(x @ x) * np.sin(x[0]),
        lambda x: np.array([x[0] * x[1], np.exp(x[2]), x[1] ** 3]),
        lambda x: np.outer(x, np.cos(x))[:2],
    ],
    ids=["scalar", "vector", "matrix"],
)
@pytest.mark.parametrize("base", [numdiff.FD_STEP, numdiff.NESTED_FD_STEP])
def test_stencil_is_the_jacobian_as_one_batch(f, base):
    # the rows are the points jacobian calls f at, in its order, and the
    # quotient of their stacked values is its result bit for bit
    seen = []

    def recorded(y):
        seen.append(np.array(y))
        return f(y)

    # X's first and last steps take the floor of max(1, |x_j|), its middle one |x_j|
    expected = numdiff.jacobian(recorded, X, base)
    points, h = numdiff.stencil(X, base)
    np.testing.assert_array_equal(points, np.stack(seen))
    np.testing.assert_array_equal(h, [base * max(1.0, abs(v)) for v in X])
    got = numdiff.stencil_quotient(np.stack([f(y) for y in points]), h)
    np.testing.assert_array_equal(got, expected)
