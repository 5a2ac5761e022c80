"""Problem definitions.

The data model for coupled nonlocal reaction-diffusion problems on a
moving interval, manufactured problems with polynomial profiles in the
normalized coordinate z = (x - alpha) / gamma times time factors, with
the forcing from one closed-form formula for any motion, the two
built-in benchmark problems (the first is a manufactured one), and
hypothesis validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .discretization import natural_cubic_spline, sample
from .geometry import BoundaryMotion

__all__ = [
    "ProblemSpec",
    "example1",
    "manufactured",
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


def _horner(coeffs, t):
    """The polynomial sum c[j] t**j at t, a float or an array, by the
    recurrence of numpy's `polyval`, r = c[-1] + t*0, then r = c + r*t; an
    `np.polynomial.Polynomial` of these coefficients gives the same bits,
    since its default domain and window map t to 0 + 1*t.  On an array the
    recurrence runs in one new buffer, r = t*0 then r += c[-1], r *= t,
    r += c: IEEE addition and multiplication commute, so each step rounds
    the same two operands as polyval, signed zeros and NaNs included, and
    t is not modified.  Coefficients that are arrays broadcasting to t's
    shape evaluate a batch of polynomials at once."""
    r = t * 0.0
    r += coeffs[-1]
    for c in coeffs[-2::-1]:
        r *= t
        r += c
    return r


def _shared_rows(evaluate, ne: int) -> tuple[Callable, ...]:
    """ne forcings f_i(x, t) that are the rows of one evaluation:
    evaluate(x, t) gives all ne rows, arrays of x's shape.  The first call
    at a (t, points) pair evaluates every row and the other ne - 1 calls
    return theirs.  The evaluation is kept for the last t object
    (`manufactured`'s forcing_scalars rule: a step calls its ne forcings
    with one t object) and the last points' shape and bytes, so points
    mutated in place or another t give fresh values.  Rows are read-only
    views."""
    kept = [(None, None, ())]  # t, the points' key, the rows; replaced whole

    def row(i):
        def f(x, t):
            x = np.asarray(x, dtype=float)
            key = (x.shape, x.tobytes())
            last, last_key, rows = kept[0]
            if last is not t or last_key != key:
                rows = tuple(evaluate(x, t))
                for v in rows:
                    v.flags.writeable = False
                kept[0] = (t, key, rows)
            return rows[i]

        return f

    return tuple(row(i) for i in range(ne))


def manufactured(motion, profiles, time_factors, diffusion, diffusion_bounds, T: float, name: str = "") -> ProblemSpec:
    """The problem whose exact solutions are u_i = F_i(t) q_i(z), with
    z = (x - alpha(t)) / gamma(t), q_i the polynomial of the ascending
    coefficients profiles[i] (zero at z = 0 and 1) and (F_i, F_i') =
    time_factors[i].  Its forcing is

        f_i = F_i' q_i - F_i q_i' b1 - a_i(I) F_i q_i'' / gamma^2,

    with b1 = (alpha' + gamma' z) / gamma and I_j = gamma F_j int_0^1 q_j;
    b1 is affine in z, so f_i is a polynomial in z.  Forcing, exact
    solutions and initial data raise ValueError for t outside the motion's
    domain and for x outside [alpha, beta] widened by 1e-9 max(1, |alpha|,
    |beta|), which covers the rounding of mapped end points.
    """
    if len(time_factors) != len(profiles):
        raise ValueError("need one (F, F') time-factor pair per profile")
    P = np.polynomial.polynomial
    # (F_j, int_0^1 q_j) of every equation, the factors of I_j
    integrals = [(F, _horner(P.polyint(q).tolist(), 1.0)) for (F, _), q in zip(time_factors, profiles)]

    def frame(x, t, g, a, b):
        """z = (x - alpha) / gamma of the points x at t, whose gamma, alpha and
        beta are g, a and b."""
        tol = 1e-9 * max(1.0, abs(a), abs(b))
        x = np.asarray(x)
        if x.size and not (a - tol <= x.min() and x.max() <= b + tol):  # a NaN min or max fails too
            raise ValueError(f"position {x} outside the moving interval [{a}, {b}] at t={t}")
        z = x - a
        z /= g
        return z

    shared = [(None, None)]  # the last t a forcing was called at, and its scalars

    def forcing_scalars(t):
        """gamma, alpha, beta, alpha', gamma' and the a_i arguments at t.  A
        step calls the ne forcings with one t object, so they are evaluated
        once per t object, the same values every forcing would compute."""
        last, values = shared[0]
        if last is not t:
            g = motion.gamma(t)  # checks t
            values = (g, motion.alpha(t), motion.beta(t), motion.alpha_prime(t), motion.gamma_prime(t),
                      [g * Fj(t) * Q for Fj, Q in integrals])
            shared[0] = (t, values)
        return values

    def equation(i):
        (F, dF), a_i, q = time_factors[i], diffusion[i], profiles[i]
        # coefficient m of q, q', z q' and q'', padded to q's length
        terms = list(zip(q, P.polyder(q).tolist() + [0.0], [m * c for m, c in enumerate(q)],
                         P.polyder(q, 2).tolist() + [0.0, 0.0]))

        def u(x, t):
            g = motion.gamma(t)  # checks t
            return F(t) * _horner(q, frame(x, t, g, motion.alpha(t), motion.beta(t)))

        def f(x, t):
            g, a, b, alpha_p, gamma_p, args = forcing_scalars(t)
            z = frame(x, t, g, a, b)
            Ft = F(t)
            s0, s1, s2 = dF(t), -Ft * alpha_p / g, -Ft * gamma_p / g
            s3 = -a_i(*args) * Ft / (g * g)
            return _horner([s0 * c + s1 * c1 + s2 * zc1 + s3 * c2 for c, c1, zc1, c2 in terms], z)

        return u, f

    exact, forcing = zip(*(equation(i) for i in range(len(profiles))))
    return ProblemSpec(
        ne=len(profiles),
        diffusion=tuple(diffusion),
        forcing=forcing,
        initial=tuple((lambda x, u=u: u(x, 0.0)) for u in exact),
        motion=motion,
        T=T,
        exact=exact,
        diffusion_bounds=tuple(diffusion_bounds),
        name=name,
    )


_Q1_COEFFS = (0.0, 611.0 / 70.0, -10513.0 / 210.0, 646.0 / 7.0, -1070.0 / 21.0)
_Q2_COEFFS = (0.0, 2047.0 / 140.0, -27701.0 / 420.0, 691.0 / 7.0, -995.0 / 21.0)


def _ex1_motion() -> BoundaryMotion:
    return BoundaryMotion(
        alpha=lambda t: -t / (1.0 + t),
        beta=lambda t: 1.0 + 2.0 * t / (1.0 + t),
        alpha_prime=lambda t: -1.0 / (1.0 + t) ** 2,
        beta_prime=lambda t: 2.0 / (1.0 + t) ** 2,
        T=3.0,
    )


def _ex1_a1(r, s):
    return 2.0 - 1.0 / (1.0 + r * r) + 1.0 / (1.0 + s * s)


def _ex1_a2(r, s):
    return 3.0 + 2.0 / (1.0 + r * r) - 1.0 / (1.0 + s * s)


def example1() -> ProblemSpec:
    """Two-equation benchmark with a known exact solution, T = 3.

    Diffusion couples through the nonlocal values: a_1(r, s) =
    2 - 1/(1+r^2) + 1/(1+s^2) and a_2(r, s) = 3 + 2/(1+r^2) - 1/(1+s^2).
    At t = 0 the normalized coordinate reduces to x, so the initial data
    are the quartics themselves.
    """
    return manufactured(
        _ex1_motion(),
        profiles=(_Q1_COEFFS, _Q2_COEFFS),
        time_factors=(
            (lambda t: 1.0 / (1.0 + t), lambda t: -1.0 / (1.0 + t) ** 2),
            (lambda t: math.exp(-t), lambda t: -math.exp(-t)),
        ),
        diffusion=(_ex1_a1, _ex1_a2),
        diffusion_bounds=((1.0, 3.0), (2.0, 5.0)),
        T=3.0,
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


N_TIMES = 101
ARG_RANGE = 10.0
N_ARGS = 21


def validate(problem: ProblemSpec, seed: int = 0, require_expanding: bool = True) -> ValidationReport:
    """Sample the scheme's hypotheses and report pass/warn/fail per check.

    Checks: positive width over [0, T] (sampled at N_TIMES grid points and
    their midpoints), boundary monotonicity alpha' < 0 < beta' (downgraded
    to a warning with require_expanding=False, since the assembly itself
    does not break on shrinking domains), declared diffusion bounds over a
    grid of N_ARGS^ne nonlocal-argument values in [-ARG_RANGE, ARG_RANGE]^ne
    (20000 random samples with the given seed when the grid would be
    larger), and compatibility of the initial (and exact, when present)
    data with the homogeneous Dirichlet condition, sampled on whole arrays
    as a run samples them.
    """
    motion = problem.motion
    checks = []

    grid = np.linspace(0.0, problem.T, N_TIMES)
    # Python floats, as a run passes them
    times = np.sort(np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])])).tolist()
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

    if N_ARGS**problem.ne <= 20000:
        axes = [np.linspace(-ARG_RANGE, ARG_RANGE, N_ARGS)] * problem.ne
        pts = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=1)
    else:
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-ARG_RANGE, ARG_RANGE, size=(20000, problem.ne))
    for i in range(problem.ne):
        lo, hi = problem.diffusion_bounds[i]
        try:
            # Python floats, as a run passes them; one row at a time, so the
            # 20000 x ne arguments never exist as float objects all at once
            vals = np.array([float(problem.diffusion[i](*r.tolist())) for r in pts])
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
        with np.errstate(over="ignore", invalid="ignore"):  # the detail names an inf or nan
            va, vb = np.abs(sample(problem.initial[i], np.array([a0, b0])))
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
            with np.errstate(over="ignore", invalid="ignore"):
                diff = np.max(np.abs(sample(problem.exact[i], xs, 0.0) - sample(problem.initial[i], xs)))
            checks.append(
                CheckResult(
                    f"exact solution matches initial data, equation {i}",
                    "pass" if diff <= 1e-10 else "fail",
                    f"max difference {diff:.3e} at t=0",
                )
            )

    return ValidationReport(checks=tuple(checks))
