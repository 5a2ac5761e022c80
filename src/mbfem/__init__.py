"""Galerkin finite elements for coupled nonlocal reaction-diffusion
systems on intervals with moving boundaries.

The moving interval (alpha(t), beta(t)) is mapped to (0, 1) by the
boundary-fixing change of variables; the transformed problem is
discretized with Lagrange elements of arbitrary degree in space and a
linearized Crank-Nicolson scheme in time, the nonlocal diffusion
coefficients frozen at extrapolated values so every step is linear.

The package exports what a run needs; everything else is imported from
its module (`mbfem.assembly`, `mbfem.analysis`, ...).
"""

from .analysis import ErrorTracker, convergence_study
from .assembly import nonlocal_value
from .discretization import build_space
from .geometry import BoundaryMotion, fixed_interval
from .problems import ProblemSpec, example1, example2, validate
from .stepper import run

__version__ = "0.1.0"

__all__ = [
    "BoundaryMotion",
    "ErrorTracker",
    "ProblemSpec",
    "build_space",
    "convergence_study",
    "example1",
    "example2",
    "fixed_interval",
    "nonlocal_value",
    "run",
    "validate",
]
