"""Galerkin finite elements for coupled nonlocal reaction-diffusion
systems on intervals with moving boundaries.

The moving interval (alpha(t), beta(t)) is mapped to (0, 1) by the
boundary-fixing change of variables; the transformed problem is
discretized with Lagrange elements of arbitrary degree in space and a
linearized Crank-Nicolson scheme in time, the nonlocal diffusion
coefficients frozen at extrapolated values so every step is linear.
"""

from .analysis import (
    ErrorRecord,
    ErrorTracker,
    RateFit,
    StudyResult,
    StudyRow,
    convergence_study,
    fit_slope,
    l2_error_vs_function,
    measure,
    write_rows,
)
from .assembly import BandedMatrix, OperatorSet, assemble_load, assemble_static, nonlocal_value
from .discretization import (
    FESpace,
    QuadratureRule,
    build_space,
    evaluate_expansion,
    gauss_legendre,
    interpolate,
    l2_norm,
    natural_cubic_spline,
    space_from_breakpoints,
)
from .geometry import BoundaryMotion, fixed_interval
from .problems import (
    CheckResult,
    ProblemSpec,
    ValidationReport,
    example1,
    example1_forcing,
    example2,
    validate,
)
from .stepper import RunResult, SchemeState, advance, bootstrap_first_step, initialize, run

__version__ = "0.1.0"

__all__ = [
    "BandedMatrix",
    "BoundaryMotion",
    "CheckResult",
    "ErrorRecord",
    "ErrorTracker",
    "FESpace",
    "OperatorSet",
    "ProblemSpec",
    "QuadratureRule",
    "RateFit",
    "RunResult",
    "SchemeState",
    "StudyResult",
    "StudyRow",
    "ValidationReport",
    "advance",
    "assemble_load",
    "assemble_static",
    "bootstrap_first_step",
    "build_space",
    "convergence_study",
    "evaluate_expansion",
    "example1",
    "example1_forcing",
    "example2",
    "fit_slope",
    "fixed_interval",
    "gauss_legendre",
    "initialize",
    "interpolate",
    "l2_norm",
    "l2_error_vs_function",
    "measure",
    "natural_cubic_spline",
    "nonlocal_value",
    "run",
    "space_from_breakpoints",
    "validate",
    "write_rows",
]
