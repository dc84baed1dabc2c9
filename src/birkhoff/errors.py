"""Exception types shared across the package.

Each numerical failure raises the type of its cause: a failed Newton
solve a :class:`NewtonError`, a bad value from a user callable an
:class:`EvaluationError`, and so on.  An argument the package rejects
before any evaluation (a state of the wrong length, an order outside
1..2) raises ``ValueError`` instead.
"""


class BirkhoffError(Exception):
    """Base class for package-specific failures.

    When raised inside :func:`birkhoff.stepper.run`, the error carries the
    failing step index in ``step_index`` and the states (and residuals)
    accepted before it in ``trajectory``; both are ``None`` otherwise.
    """

    step_index = None
    trajectory = None


class EvaluationError(BirkhoffError):
    """A user-supplied callable returned non-finite or misshaped values.

    Also raised when no identity point of a transform's inverse is found.
    """


class _SingularMatrixError(BirkhoffError):
    """A matrix failed the nonsingularity test.

    Carries the offending |det| in ``det`` (of the matrix with each row
    scaled by its max-abs entry, the quantity the test uses).
    """

    def __init__(self, message: str, det: float):
        super().__init__(f"{message} (|det| = {det:.3e})")
        self.det = det


class RegularityError(_SingularMatrixError):
    """The structure matrix is numerically singular where regularity is required."""


class TransversalityError(_SingularMatrixError):
    """A transversality determinant vanished."""


class NewtonError(BirkhoffError):
    """Newton iteration failed; carries the last iterate, residual norm and iteration count."""

    def __init__(self, message: str, last_iterate, residual_norm: float, iterations: int):
        super().__init__(
            f"{message} after {iterations} iterations, ||r||_inf = {residual_norm:.3e}"
        )
        self.last_iterate = last_iterate
        self.residual_norm = residual_norm
        self.iterations = iterations


class InconsistencyError(BirkhoffError):
    """A reconstruction consistency check failed; input is likely not self-adjoint."""

