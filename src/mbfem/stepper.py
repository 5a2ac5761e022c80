"""Linearized Crank-Nicolson time stepping for the coupled system.

Each step of the scheme takes, per equation,

    LHS_i V^(n) = RHS_i V^(n-1) + G,   LHS_i, RHS_i = M/d +- (a_i b2 K - C)/2,

with all coefficients evaluated at the midpoint t_{n-1/2}, where
C(t) = (alpha'/gamma) conv_const + (gamma'/gamma) conv_linear and a_i is
the diffusion coefficient at extrapolated nonlocal values
l(V_bar) = gamma(t_{n-1/2}) * weights . (3/2 V^(n-1) - 1/2 V^(n-2)).
Since RHS_i = 2M/d - LHS_i, the step is solved in the midpoint form
LHS_i U = (2M/d) V^(n-1) + G, V^(n) = U - V^(n-1).
The first step has no V^(-1), so it is bootstrapped with one predictor
solve (diffusion frozen at the initial nonlocal values) and one
corrector solve (diffusion at the averaged predictor level).

The ne systems of one step are mutually independent; coupling enters
only through the already-known nonlocal values.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError

from .assembly import (
    BandedMatrix,
    OperatorSet,
    _solve_condensed,
    assemble_load,
    assemble_static,
    diffusion_scalar,
    nonlocal_value,
)
from .discretization import FESpace, interpolate
from .geometry import time_tolerance

__all__ = ["SchemeState", "RunResult", "StepKernel", "initialize", "bootstrap_first_step", "advance", "run"]

# Elements, counted over all equations, from which StepKernel may solve a step
# by static condensation instead of dgbsv: demos/condensation_crossover.py
# measures the crossover (README, "Performance").
CONDENSE_MIN_ELEMENTS = 512


@dataclass(frozen=True)
class SchemeState:
    """Coefficient vectors at the current and previous time levels.

    Boundary dofs of every stored vector are exactly zero, and every
    vector is read-only from the moment it is made.
    """

    t_index: int
    delta: float
    current: tuple[np.ndarray, ...]
    previous: tuple[np.ndarray, ...] | None

    @property
    def time(self) -> float:
        """The level's time t_index * delta (never by repeated addition)."""
        return self.t_index * self.delta


@dataclass(frozen=True)
class RunResult:
    final: SchemeState
    runtime: float

    @property
    def n_steps(self) -> int:
        return self.final.t_index


def initialize(space: FESpace, problem, delta: float) -> SchemeState:
    """State at n = 0: nodal interpolants of the transformed initial data."""
    motion = problem.motion
    vecs = []
    for u0 in problem.initial:
        with np.errstate(over="ignore", invalid="ignore"):  # interpolate reports a non-finite sample
            v = interpolate(space, lambda y: u0(motion.to_moving(y, 0.0)))
        v.flags.writeable = False
        vecs.append(v)
    return SchemeState(t_index=0, delta=delta, current=tuple(vecs), previous=None)


class StepKernel:
    """The arithmetic of one run's steps, set up by `begin_step` for each.

    Every moving-domain quantity of a step is a function of t alone, so
    `begin_step` evaluates the motion once, at the step's midpoint: the
    width gamma of the nonlocal values, b2, C and the quadrature points of
    the ne loads.  Per equation a step solves the midpoint form
    [(M/d - C/2) + (a_i b2/2) K] U = (2M/d) V^(n-1) + G, in which only
    a_i b2/2 differs between equations.  M/d and 2M/d are formed once per
    d, the base M/d - C/2 once per step by `begin_step`.  `solve_all` lays
    the ne full-width LHS bands end to end in one band `stack` of
    ne nt k + 1 columns, neighbours sharing their boundary column: each
    equation writes D = (a_i b2/2) K into its window and sets the window
    to base + D, in that operand order, and applies 2M/d by BLAS `dgbmv`
    into its window of `stack_rhs` (README, "Performance", states the rule
    its last bits follow).  Like the operator bands, M/d, the base and
    `stack` are row-major, so the elementwise passes and the elimination
    walk band rows; only 2M/d, formed once per d, is in Fortran order, the
    layout `dgbmv` reads without a copy.  The quadrature points are kept in
    Fortran order, so that `assemble_load` contracts them along the
    elements.

    Only the solve of the band differs.  When k >= 2,
    ne nt >= CONDENSE_MIN_ELEMENTS, 4 gamma + dt gamma' > 0 and every
    a_i > 0, `assembly._solve_condensed` eliminates the element-interior
    dofs of all ne nt elements without pivoting, then solves each
    equation's tridiagonal vertex system.  The last two conditions make the
    symmetric part of each interior LHS, M (1/dt + gamma'/(4 gamma)) +
    (a_i b2/2) K, positive definite (the symmetric parts of conv_const and
    conv_linear there are 0 and -M/2), so no pivot can vanish.  Otherwise
    each equation's interior window is solved by LAPACK `dgbsv`.  Either
    way a step makes one `BandedMatrix.solve` call per equation; each
    equation's window of the solution then becomes U - V^(n-1), and the
    ne vectors are read-only views of one solution vector.
    """

    def __init__(self, ops: OperatorSet):
        self.space = ops.space
        self.weights = ops.nonlocal_weights
        self.mass = ops.mass.data
        self.stiffness = ops.stiffness.data
        self.conv_const = ops.conv_const.data
        self.conv_linear = ops.conv_linear.data
        self.kb = ops.mass.kb
        self.dt = self.gamma = self.b2 = self.loads = None
        self.condense = False
        self.quad_points = np.asfortranarray(self.space.element_quad_points)
        self.m_over_dt, self.lhs_base = np.empty(self.mass.shape), np.empty(self.mass.shape)
        self.two_m_over_dt = BandedMatrix(np.empty(self.mass.shape, order="F"), self.kb)
        self.stack = self.stack_rhs = self.work = None

    def begin_step(self, problem, t_mid: float, dt: float) -> None:
        """Set M/dt and 2M/dt (if dt changed), the base M/dt - C/2, b2, gamma
        and the ne loads for a step of length dt about t_mid."""
        if dt != self.dt:
            np.divide(self.mass, dt, out=self.m_over_dt)
            np.add(self.m_over_dt, self.m_over_dt, out=self.two_m_over_dt.data)
            self.dt = dt
        motion = problem.motion
        g = self.gamma = motion.gamma(t_mid)
        gp = motion.gamma_prime(t_mid)
        self.b2 = motion.coeff_b2(t_mid)
        large = self.kb >= 2 and problem.ne * self.space.n_elements >= CONDENSE_MIN_ELEMENTS
        self.condense = large and 4.0 * g + dt * gp > 0.0
        c_half = np.multiply(motion.alpha_prime(t_mid) / (2.0 * g), self.conv_const, out=self.lhs_base)
        c_half += (gp / (2.0 * g)) * self.conv_linear
        np.subtract(self.m_over_dt, c_half, out=self.lhs_base)
        x_q = motion.to_moving(self.quad_points, t_mid)
        with np.errstate(over="ignore", invalid="ignore"):  # assemble_load reports a non-finite forcing
            self.loads = [assemble_load(self.space, problem, i, x_q, t_mid) for i in range(problem.ne)]

    def solve_all(self, problem, nonlocal_values, v_prev, label: str) -> tuple[np.ndarray, ...]:
        """V^(n) of every equation, its diffusion taken at `nonlocal_values`;
        `label` names the step in errors.  Every a_i is computed before the
        first solve, and every equation is solved before the solution is
        checked, so an overflow in the band arithmetic is reported by the
        non-finite-solution check alone."""
        ne, kb = problem.ne, self.kb
        n = len(v_prev[0])
        span = n - 1
        if self.stack is None or self.stack.shape[1] != ne * span + 1:
            self.stack = np.empty((2 * kb + 1, ne * span + 1))
            self.stack_rhs = np.empty(ne * span + 1)
            self.work = None
        band, rhs = self.stack, self.stack_rhs
        with np.errstate(over="ignore", invalid="ignore"):
            a = [diffusion_scalar(problem, i, nonlocal_values) for i in range(ne)]
            for i, a_i in enumerate(a):
                window = slice(i * span, i * span + n)
                diff_half = band[:, window]
                np.multiply(0.5 * a_i * self.b2, self.stiffness, out=diff_half)
                np.add(self.lhs_base, diff_half, out=diff_half)
                np.add(self.two_m_over_dt.matvec(v_prev[i]), self.loads[i], out=rhs[window])
            x = np.zeros(ne * span + 1)
            try:
                if self.condense and min(a) > 0.0:
                    # a shared column holds the right neighbour's band corner,
                    # s 0 with s = a_i b2/2, which is NaN when s overflows; the
                    # equation on the left reads rows 1..k-1 of it, so they are
                    # set to the 0 of a finite s
                    band[:kb, span:-1:span] = 0.0
                    if self.work is None:
                        self.work = np.empty((2, kb, ne * (span // kb)))
                    _solve_condensed(BandedMatrix(band, kb), rhs, x, self.work, ne)
                else:
                    for i in range(ne):
                        inner = slice(i * span + 1, (i + 1) * span)
                        try:
                            x[inner] = BandedMatrix(band[:, inner], kb).solve(rhs[inner])
                        except LinAlgError as exc:
                            exc.system = i
                            raise
            except LinAlgError as exc:
                raise RuntimeError(f"singular Crank-Nicolson system at {label}, equation {exc.system} ({exc})") from exc
            for i in range(ne):
                x[i * span : i * span + n] -= v_prev[i]
        finite = np.isfinite(x)
        if not finite.all():
            raise RuntimeError(f"non-finite solution at {label}, equation {np.argmin(finite) // span}")
        x.flags.writeable = False
        return tuple(x[i * span : i * span + n] for i in range(ne))


def bootstrap_first_step(state: SchemeState, kernel: StepKernel, problem) -> SchemeState:
    """Predictor-corrector step producing V^(1) with second-order accuracy.

    The predictor freezes the diffusion coefficients at the initial
    nonlocal values l(V^(0)) (width factor gamma(t_0), the level the
    vectors live on); the corrector re-solves with the coefficients at
    the averaged level (V^(1,0) + V^(0)) / 2, whose width factor is
    gamma(t_1/2).  All other coefficients sit at t_1/2 in both solves.
    """
    if state.t_index != 0:
        raise ValueError(f"bootstrap expects the initial state, got step {state.t_index}")
    w, v0, dt = kernel.weights, state.current, state.delta
    kernel.begin_step(problem, 0.5 * dt, dt)
    label = f"step 1 (t={dt})"
    g0 = problem.motion.gamma(0.0)
    l_init = [nonlocal_value(w, v, g0) for v in v0]
    predicted = kernel.solve_all(problem, l_init, v0, f"the predictor of {label}")
    l_mid = [nonlocal_value(w, 0.5 * (p + v), kernel.gamma) for p, v in zip(predicted, v0)]
    corrected = kernel.solve_all(problem, l_mid, v0, f"the corrector of {label}")
    return SchemeState(t_index=1, delta=dt, current=corrected, previous=v0)


def advance(state: SchemeState, kernel: StepKernel, problem) -> SchemeState:
    """One linearized Crank-Nicolson step from level n >= 1 to n + 1."""
    if state.previous is None:
        raise ValueError("advance needs two time levels; bootstrap the first step")
    t_new = (state.t_index + 1) * state.delta
    v_bar = [1.5 * v - 0.5 * u for v, u in zip(state.current, state.previous)]
    kernel.begin_step(problem, 0.5 * (state.time + t_new), state.delta)
    l_bar = [nonlocal_value(kernel.weights, v, kernel.gamma) for v in v_bar]
    new = kernel.solve_all(problem, l_bar, state.current, f"step {state.t_index + 1} (t={t_new})")
    return SchemeState(t_index=state.t_index + 1, delta=state.delta, current=new, previous=state.current)


def level_grid(T: float, delta: float) -> np.ndarray:
    """The time levels n * delta, n = 0..N, of a run from 0 to T in N
    equal steps; a delta whose N steps miss T by more than
    `time_tolerance(T)` is a ValueError."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"final time must be finite and nonnegative, got {T!r}")
    ratio = T / delta
    if ratio > 1e9:
        raise ValueError(f"T/delta = {ratio:.3g} exceeds the step-count limit")
    n = round(ratio)
    if abs(n * delta - T) > time_tolerance(T):
        raise ValueError(f"delta={delta!r} does not divide T={T!r} into whole steps (T/delta = {ratio!r})")
    return np.arange(n + 1) * delta  # n * delta, as advance computes it


def run(problem, space: FESpace, delta: float, observers=()) -> RunResult:
    """Integrate the problem from 0 to problem.T over `level_grid`'s levels.

    Observers are callables (step_index, time, coefficient_vectors)
    invoked at every level including 0; the vectors are the state's own,
    which are read-only.
    """
    n_steps = len(level_grid(problem.T, delta)) - 1

    started = _time.perf_counter()
    ops = assemble_static(space)
    state = initialize(space, problem, delta)
    kernel = StepKernel(ops)
    while True:
        for obs in observers:
            obs(state.t_index, state.time, state.current)
        if state.t_index == n_steps:
            break
        step = bootstrap_first_step if state.t_index == 0 else advance
        state = step(state, kernel, problem)

    return RunResult(final=state, runtime=_time.perf_counter() - started)
