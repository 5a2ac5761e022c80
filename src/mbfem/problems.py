"""Problem definitions.

The data model for coupled nonlocal reaction-diffusion problems on a
moving interval, the two built-in benchmark problems, and hypothesis
validation.  The first benchmark has a manufactured exact solution: a
pair of quartics in the normalized coordinate z = (x - alpha) / gamma
times decaying time factors, with the forcing derived in closed form so
that the pair solves the system exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .discretization import natural_cubic_spline
from .geometry import BoundaryMotion

__all__ = [
    "ProblemSpec",
    "example1",
    "example1_forcing",
    "example2",
    "validate",
    "ValidationReport",
    "CheckResult",
]

_UNBOUNDED = (1e-12, 1e12)


@dataclass(frozen=True)
class ProblemSpec:
    """A coupled system of ne nonlocal reaction-diffusion equations.

    diffusion[i] maps the ne nonlocal values (integrals of the solutions
    over the moving interval) to a positive scalar, with declared bounds
    diffusion_bounds[i] enforced at every evaluation.  forcing and exact
    take physical coordinates (x, t); initial takes x on the initial
    interval.  Initial data must vanish at the initial boundaries
    (compatibility with the Dirichlet condition); `validate` checks this.

    Immutable; all evaluations are pure.
    """

    ne: int
    diffusion: tuple[Callable, ...]
    forcing: tuple[Callable, ...]
    initial: tuple[Callable, ...]
    motion: BoundaryMotion
    T: float
    exact: tuple[Callable, ...] | None = None
    diffusion_bounds: tuple[tuple[float, float], ...] = ()
    name: str = ""

    def __post_init__(self):
        if len(self.diffusion) != self.ne or len(self.forcing) != self.ne:
            raise ValueError("diffusion and forcing must supply one function per equation")
        if len(self.initial) != self.ne:
            raise ValueError("initial data must supply one function per equation")
        if self.exact is not None and len(self.exact) != self.ne:
            raise ValueError("exact solutions must supply one function per equation")
        if not self.diffusion_bounds:
            object.__setattr__(self, "diffusion_bounds", (_UNBOUNDED,) * self.ne)
        if len(self.diffusion_bounds) != self.ne:
            raise ValueError("need one (min, max) bound pair per equation")
        if self.T > self.motion.T:
            raise ValueError(f"final time {self.T} exceeds the motion's domain {self.motion.T}")


# First benchmark: manufactured solution on an expanding interval.
#
#   alpha(t) = -t/(1+t),  beta(t) = 1 + 2t/(1+t),  gamma = (1+4t)/(1+t)
#   u_1 = q_1(z)/(1+t),  u_2 = e^{-t} q_2(z),  z = ((1+t)x + t)/(1+4t)
#
# z equals the boundary-fixing coordinate (x - alpha)/gamma, so z is 0 and
# 1 at the boundaries, where the quartics q_i vanish.  The nonlocal values
# reduce to gamma(t) F_i(t) Q_i with Q_i the exact integrals of q_i.

_Q1_COEFFS = (611.0 / 70.0, -10513.0 / 210.0, 646.0 / 7.0, -1070.0 / 21.0)
_Q2_COEFFS = (2047.0 / 140.0, -27701.0 / 420.0, 691.0 / 7.0, -995.0 / 21.0)
_Q1_INTEGRAL = 703.0 / 1260.0   # int_0^1 q_1
_Q2_INTEGRAL = 1331.0 / 2520.0  # int_0^1 q_2


def _quartic(coeffs, s):
    c1, c2, c3, c4 = coeffs
    return s * (c1 + s * (c2 + s * (c3 + s * c4)))


def _quartic_d1(coeffs, s):
    c1, c2, c3, c4 = coeffs
    return c1 + s * (2.0 * c2 + s * (3.0 * c3 + s * 4.0 * c4))


def _quartic_d2(coeffs, s):
    c1, c2, c3, c4 = coeffs
    return 2.0 * c2 + s * (6.0 * c3 + s * 12.0 * c4)


def _ex1_motion() -> BoundaryMotion:
    return BoundaryMotion(
        alpha=lambda t: -t / (1.0 + t),
        beta=lambda t: 1.0 + 2.0 * t / (1.0 + t),
        alpha_prime=lambda t: -1.0 / (1.0 + t) ** 2,
        beta_prime=lambda t: 2.0 / (1.0 + t) ** 2,
        T=3.0,
    )


def _ex1_z(x, t):
    return ((1.0 + t) * x + t) / (1.0 + 4.0 * t)


def _ex1_nonlocal(t):
    g = (1.0 + 4.0 * t) / (1.0 + t)
    return g * _Q1_INTEGRAL / (1.0 + t), g * _Q2_INTEGRAL * math.exp(-t)


def _ex1_a1(r, s):
    return 2.0 - 1.0 / (1.0 + r * r) + 1.0 / (1.0 + s * s)


def _ex1_a2(r, s):
    return 3.0 + 2.0 / (1.0 + r * r) - 1.0 / (1.0 + s * s)


def example1_forcing(i: int, x, t):
    """Derived forcing of the first benchmark, equation i (0-based).

    Closed form: with u_i = F_i(t) q_i(z) and z the boundary-fixing
    coordinate,

        f_i = F_i' q_i(z) - F_i q_i'(z) b1(z, t) - a_i(I_1, I_2) F_i q_i''(z) / gamma^2

    where I_j(t) = gamma(t) F_j(t) int_0^1 q_j are the nonlocal values of
    the exact pair.
    """
    if i not in (0, 1):
        raise IndexError(f"equation index {i} out of range for a two-equation system")
    if np.any(t < -1e-12) or np.any(t > 3.0 + 1e-12):
        raise ValueError(f"time {t} outside the domain [0, 3]")
    a_bnd = -t / (1.0 + t)
    b_bnd = 1.0 + 2.0 * t / (1.0 + t)
    tol = 1e-9 * 3.5
    if np.any(x < a_bnd - tol) or np.any(x > b_bnd + tol):
        raise ValueError(f"position {x} outside the moving interval at t={t}")

    z = _ex1_z(x, t)
    gamma = (1.0 + 4.0 * t) / (1.0 + t)
    dt2 = (1.0 + t) ** 2
    b1 = (-1.0 / dt2 + (3.0 / dt2) * z) / gamma
    b2 = 1.0 / (gamma * gamma)
    r, s = _ex1_nonlocal(t)
    if i == 0:
        F = 1.0 / (1.0 + t)
        Fp = -1.0 / dt2
        a = _ex1_a1(r, s)
        coeffs = _Q1_COEFFS
    else:
        F = math.exp(-t)
        Fp = -F
        a = _ex1_a2(r, s)
        coeffs = _Q2_COEFFS
    return (
        Fp * _quartic(coeffs, z)
        - F * _quartic_d1(coeffs, z) * b1
        - a * F * _quartic_d2(coeffs, z) * b2
    )


def _ex1_u1(x, t):
    return _quartic(_Q1_COEFFS, _ex1_z(x, t)) / (1.0 + t)


def _ex1_u2(x, t):
    return math.exp(-t) * _quartic(_Q2_COEFFS, _ex1_z(x, t))


def example1() -> ProblemSpec:
    """Two-equation benchmark with a known exact solution, T = 3.

    Diffusion couples through the nonlocal values: a_1(r, s) =
    2 - 1/(1+r^2) + 1/(1+s^2) and a_2(r, s) = 3 + 2/(1+r^2) - 1/(1+s^2).
    At t = 0 the normalized coordinate reduces to x, so the initial data
    are the quartics themselves.
    """
    return ProblemSpec(
        ne=2,
        diffusion=(_ex1_a1, _ex1_a2),
        diffusion_bounds=((1.0, 3.0), (2.0, 5.0)),
        forcing=(
            lambda x, t: example1_forcing(0, x, t),
            lambda x, t: example1_forcing(1, x, t),
        ),
        initial=(
            lambda x: _quartic(_Q1_COEFFS, x),
            lambda x: _quartic(_Q2_COEFFS, x),
        ),
        motion=_ex1_motion(),
        T=3.0,
        exact=(_ex1_u1, _ex1_u2),
        name="example1",
    )


# Second benchmark: spline initial data, no exact solution, T = 1.

_EX2_SHIFT = (2.0 / 3.0) ** 1.5
_EX2_KNOTS_1 = ((0.0, 0.0), (0.2, 1.0), (0.5, 0.5), (1.0, 0.0))
_EX2_KNOTS_2 = ((0.0, 0.0), (0.6, 0.65), (0.8, 1.0), (1.0, 0.0))


def _ex2_motion() -> BoundaryMotion:
    root = math.sqrt(2.0 / 3.0)

    def alpha(t):
        return root - (t + _EX2_SHIFT) ** (1.0 / 3.0)

    def alpha_prime(t):
        return -(t + _EX2_SHIFT) ** (-2.0 / 3.0) / 3.0

    return BoundaryMotion(
        alpha=alpha,
        beta=lambda t: 1.0 - alpha(t),
        alpha_prime=alpha_prime,
        beta_prime=lambda t: -alpha_prime(t),
        T=1.0,
    )


def example2() -> ProblemSpec:
    """Two decaying populations on a symmetrically expanding interval.

    Initial data are natural cubic splines through tabulated points;
    the boundaries satisfy beta(t) = 1 - alpha(t), so the interval stays
    centered at 1/2 while widening.
    """
    spline1 = natural_cubic_spline(_EX2_KNOTS_1)
    spline2 = natural_cubic_spline(_EX2_KNOTS_2)
    return ProblemSpec(
        ne=2,
        diffusion=(
            lambda r, s: 2.0 - 1.0 / (1.0 + s * s),
            lambda r, s: math.exp(-r * r),
        ),
        # exp(-r^2) has infimum 0 over unbounded arguments; the declared
        # lower bound is that closure, positivity per evaluation is automatic
        diffusion_bounds=((1.0, 2.0), (0.0, 1.0)),
        forcing=(
            lambda x, t: 0.1 * x / (1.0 + t) ** 4,
            lambda x, t: np.exp(-(x * x)) / (1.0 + t) ** 6,
        ),
        initial=(spline1, spline2),
        motion=_ex2_motion(),
        T=1.0,
        name="example2",
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "warn" | "fail"
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def status(self) -> str:
        statuses = {c.status for c in self.checks}
        if "fail" in statuses:
            return "fail"
        if "warn" in statuses:
            return "warn"
        return "pass"

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def __str__(self) -> str:
        return "\n".join(f"{c.name}: {c.status.upper()} ({c.detail})" for c in self.checks)


def validate(
    problem: ProblemSpec,
    n_times: int = 101,
    arg_range: float = 10.0,
    n_args: int = 21,
    seed: int = 0,
    require_expanding: bool = True,
) -> ValidationReport:
    """Sample the scheme's hypotheses and report pass/warn/fail per check.

    Checks: positive width over [0, T] (sampled at grid points and
    midpoints), boundary monotonicity alpha' < 0 < beta' (downgraded to a
    warning with require_expanding=False, since the assembly itself does
    not break on shrinking domains), declared diffusion bounds over a
    grid of nonlocal-argument values in [-arg_range, arg_range]^ne (random
    sampling with the given seed when the grid would be too large), and
    compatibility of the initial (and exact, when present) data with the
    homogeneous Dirichlet condition.
    """
    motion = problem.motion
    checks = []

    grid = np.linspace(0.0, problem.T, n_times)
    times = np.sort(np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])]))
    try:
        widths = np.array([motion.gamma(t) for t in times])
        checks.append(
            CheckResult(
                "H1 positive width",
                "pass",
                f"gamma in [{widths.min():.6g}, {widths.max():.6g}] over {len(times)} samples",
            )
        )
    except ValueError as exc:
        checks.append(CheckResult("H1 positive width", "fail", str(exc)))

    ap = np.array([motion.alpha_prime(t) for t in times])
    bp = np.array([motion.beta_prime(t) for t in times])
    n_bad = int(np.count_nonzero((ap >= 0.0) | (bp <= 0.0)))
    if n_bad == 0:
        checks.append(
            CheckResult("H2 boundary monotonicity", "pass", "alpha' < 0 < beta' at all samples")
        )
    else:
        status = "fail" if require_expanding else "warn"
        checks.append(
            CheckResult(
                "H2 boundary monotonicity",
                status,
                f"alpha' < 0 < beta' violated at {n_bad} of {len(times)} samples",
            )
        )

    if n_args**problem.ne <= 20000:
        axes = [np.linspace(-arg_range, arg_range, n_args)] * problem.ne
        pts = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=1)
    else:
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-arg_range, arg_range, size=(20000, problem.ne))
    for i in range(problem.ne):
        lo, hi = problem.diffusion_bounds[i]
        try:
            vals = np.array([float(problem.diffusion[i](*p)) for p in pts])
        except Exception as exc:  # noqa: BLE001  (user-supplied function)
            checks.append(CheckResult(f"H5 diffusion bounds, equation {i}", "fail", repr(exc)))
            continue
        ok = np.all(np.isfinite(vals)) and vals.min() >= lo and vals.max() <= hi
        detail = f"a_{i} in [{vals.min():.6g}, {vals.max():.6g}], declared [{lo:.6g}, {hi:.6g}]"
        checks.append(
            CheckResult(f"H5 diffusion bounds, equation {i}", "pass" if ok else "fail", detail)
        )

    a0 = motion.alpha(0.0)
    b0 = motion.beta(0.0)
    for i in range(problem.ne):
        va = abs(float(problem.initial[i](a0)))
        vb = abs(float(problem.initial[i](b0)))
        ok = va <= 1e-10 and vb <= 1e-10
        checks.append(
            CheckResult(
                f"initial data compatibility, equation {i}",
                "pass" if ok else "fail",
                f"|u0({a0:.6g})| = {va:.3e}, |u0({b0:.6g})| = {vb:.3e}",
            )
        )

    if problem.exact is not None:
        xs = np.linspace(a0, b0, 100)
        for i in range(problem.ne):
            diff = max(
                abs(float(problem.exact[i](x, 0.0)) - float(problem.initial[i](x))) for x in xs
            )
            checks.append(
                CheckResult(
                    f"exact solution matches initial data, equation {i}",
                    "pass" if diff <= 1e-10 else "fail",
                    f"max difference {diff:.3e} at t=0",
                )
            )

    return ValidationReport(checks=tuple(checks))
