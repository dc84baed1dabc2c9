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
