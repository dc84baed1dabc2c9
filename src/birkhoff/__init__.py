"""Structure-preserving one-step schemes and diagnostics for Birkhoffian systems."""

from .core import (
    BirkhoffSystem,
    PhasePoint,
    k_from_f,
    velocity,
)
from .diagnostics import (
    ConvergenceReport,
    convergence_order,
    symplectic_residual,
)
from .errors import (
    BirkhoffError,
    EvaluationError,
    InconsistencyError,
    NewtonError,
    RegularityError,
    StepFailure,
    TransversalityError,
    UnsupportedOrderError,
)
from .genscheme import (
    CoefficientSet,
    GeneratingScheme,
    a_functional,
    coefficients,
    hj_rhs,
    make_scheme,
)
from .oscillator import (
    euler_center,
    exact_solution,
    oscillator_alpha,
    oscillator_system,
    scheme_first_order,
    scheme_second_order,
)
from .selfadjoint import (
    RawFirstOrderSystem,
    SelfAdjointReport,
    check_self_adjointness,
    reconstruct_b,
    reconstruct_f,
)
from .stepper import Trajectory, integrate, run, step, step_jacobian
from .transform import (
    AlphaTransform,
    alpha_verify,
    canonical_j,
    darboux_alpha,
    scaled_canonical_alpha,
    sigma,
    transversality_equivalents,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaTransform",
    "BirkhoffError",
    "BirkhoffSystem",
    "CoefficientSet",
    "ConvergenceReport",
    "EvaluationError",
    "GeneratingScheme",
    "InconsistencyError",
    "NewtonError",
    "PhasePoint",
    "RawFirstOrderSystem",
    "RegularityError",
    "SelfAdjointReport",
    "StepFailure",
    "Trajectory",
    "TransversalityError",
    "UnsupportedOrderError",
    "a_functional",
    "alpha_verify",
    "canonical_j",
    "check_self_adjointness",
    "coefficients",
    "convergence_order",
    "darboux_alpha",
    "euler_center",
    "exact_solution",
    "hj_rhs",
    "integrate",
    "k_from_f",
    "make_scheme",
    "oscillator_alpha",
    "oscillator_system",
    "reconstruct_b",
    "reconstruct_f",
    "run",
    "scaled_canonical_alpha",
    "scheme_first_order",
    "scheme_second_order",
    "sigma",
    "step",
    "step_jacobian",
    "symplectic_residual",
    "transversality_equivalents",
    "velocity",
]
