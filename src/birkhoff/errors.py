"""Exception types shared across the package."""


class BirkhoffError(Exception):
    """Base class for package-specific failures.

    When raised inside :func:`birkhoff.stepper.run`, the error carries the
    failing step index in ``step_index`` and the states (and residuals)
    accepted before it in ``trajectory``; both are ``None`` otherwise.
    """

    step_index = None
    trajectory = None


class EvaluationError(BirkhoffError):
    """A user-supplied callable returned non-finite or misshaped values."""


class RegularityError(BirkhoffError):
    """The structure matrix is numerically singular where regularity is required."""


class TransversalityError(BirkhoffError):
    """A transversality determinant vanished.

    Carries the offending determinant in ``det`` (of the matrix with each
    row scaled by its max-abs entry, the quantity the nonsingularity test
    uses).
    """

    def __init__(self, message: str, det: float):
        super().__init__(f"{message} (|det| = {abs(det):.3e})")
        self.det = det


class NewtonError(BirkhoffError):
    """Newton iteration failed; carries the last iterate and residual norm."""

    def __init__(self, message: str, last_iterate, residual_norm: float, iterations: int):
        super().__init__(
            f"{message} after {iterations} iterations, ||r||_inf = {residual_norm:.3e}"
        )
        self.last_iterate = last_iterate
        self.residual_norm = residual_norm
        self.iterations = iterations


class StepFailure(BirkhoffError):
    """A one-step solve did not converge; carries the last iterate and residual norm."""

    def __init__(self, message: str, last_iterate, residual_norm: float, t: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual_norm = residual_norm
        self.t = t


class KindError(BirkhoffError):
    """Operation invoked on a system kind it does not support."""


class InconsistencyError(BirkhoffError):
    """A reconstruction consistency check failed; input is likely not self-adjoint."""


class UnsupportedOrderError(BirkhoffError):
    """Requested expansion order lies above the implemented cap."""
