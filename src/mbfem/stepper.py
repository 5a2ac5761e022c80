"""Linearized Crank-Nicolson time stepping for the coupled system.

Each step solves, per equation,

    [M/d + (a_i b2 K - C)/2] V^(n) = [M/d - (a_i b2 K - C)/2] V^(n-1) + G

with all coefficients evaluated at the midpoint t_{n-1/2}, where
C(t) = (alpha'/gamma) conv_const + (gamma'/gamma) conv_linear and a_i is
the diffusion coefficient at extrapolated nonlocal values
l(V_bar) = gamma(t_{n-1/2}) * weights . (3/2 V^(n-1) - 1/2 V^(n-2)).
The first step has no V^(-1), so it is bootstrapped with one predictor
solve (diffusion frozen at the initial nonlocal values) and one
corrector solve (diffusion at the averaged predictor level).

The ne systems of one step are mutually independent; coupling enters
only through the already-known nonlocal values.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError

from .assembly import BandedMatrix, OperatorSet, assemble_load, assemble_static, diffusion_scalar, nonlocal_value
from .discretization import FESpace, interpolate
from .geometry import BoundaryMotion

__all__ = ["SchemeState", "RunResult", "initialize", "bootstrap_first_step", "advance", "run"]


@dataclass(frozen=True)
class SchemeState:
    """Coefficient vectors at the current and previous time levels.

    Boundary dofs of every stored vector are exactly zero, and every
    vector is read-only from the moment it is made.  `time` is
    always computed as t_index * delta (never by repeated addition); a
    shortened final step overrides it with the exact final time.
    """

    t_index: int
    time: float
    delta: float
    current: tuple[np.ndarray, ...]
    previous: tuple[np.ndarray, ...] | None


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
        v = interpolate(space, lambda y: u0(motion.to_moving(y, 0.0)))
        v.flags.writeable = False
        vecs.append(v)
    return SchemeState(t_index=0, time=0.0, delta=delta, current=tuple(vecs), previous=None)


class _StepKernel:
    """The band arithmetic of the steps taken with one OperatorSet.

    Per equation a step needs the interior LHS band and the full RHS band

        M/d + (a_i b2 K - C)/2 = M/d + (a_i b2/2) K - C/2,
        M/d - (a_i b2 K - C)/2 = M/d - (a_i b2/2) K + C/2,

    of which only a_i, b2, C and d change between steps.  M/d is kept
    until d changes and C/2 is formed once per step; each equation then
    writes its bands into the same work arrays, with the operand order of
    the expressions above, so every entry is the one those expressions
    give.  The arrays are Fortran-ordered like the operator bands, so an
    interior column slice is contiguous.
    """

    def __init__(self, ops: OperatorSet):
        kb = ops.mass.kb
        self.mass = ops.mass.data
        self.stiffness = ops.stiffness.data
        self.conv_const = ops.conv_const.data
        self.conv_linear = ops.conv_linear.data
        width, n = self.mass.shape
        self.dt = None
        self.m_over_dt, self.c_half, self.scratch, self.diff_half, rhs_band = (
            np.empty((width, n), order="F") for _ in range(5)
        )
        self.rhs_op = BandedMatrix(rhs_band, kb)
        self.lhs = BandedMatrix(np.empty((width, n - 2), order="F"), kb)

    def begin_step(self, motion: BoundaryMotion, t_mid: float, dt: float) -> float:
        """Set M/dt and C/2 for a step of length dt about t_mid; return b2."""
        if dt != self.dt:
            np.divide(self.mass, dt, out=self.m_over_dt)
            self.dt = dt
        g = motion.gamma(t_mid)
        b2 = motion.coeff_b2(t_mid)
        c_half = self.c_half
        np.multiply(motion.alpha_prime(t_mid) / g, self.conv_const, out=c_half)
        np.multiply(motion.gamma_prime(t_mid) / g, self.conv_linear, out=self.scratch)
        np.add(c_half, self.scratch, out=c_half)
        np.multiply(0.5, c_half, out=c_half)
        return b2

    def solve(self, b2: float, a_i: float, v_prev: np.ndarray, load: np.ndarray, where: str) -> np.ndarray:
        """V^(n) of one equation from V^(n-1), its load and its diffusion
        coefficient; `where` names the step and equation in errors."""
        diff_half = self.diff_half
        np.multiply(0.5 * a_i * b2, self.stiffness, out=diff_half)
        lhs = self.lhs.data
        np.add(self.m_over_dt[:, 1:-1], diff_half[:, 1:-1], out=lhs)
        np.subtract(lhs, self.c_half[:, 1:-1], out=lhs)
        rhs_band = self.rhs_op.data
        np.subtract(self.m_over_dt, diff_half, out=rhs_band)
        np.add(rhs_band, self.c_half, out=rhs_band)
        rhs = self.rhs_op.matvec(v_prev) + load
        v_new = np.zeros_like(v_prev)
        try:
            v_new[1:-1] = self.lhs.solve(rhs[1:-1])
        except LinAlgError as exc:
            cond = np.linalg.cond(self.lhs.toarray())
            raise RuntimeError(
                f"singular Crank-Nicolson system at {where} (condition estimate {cond:.3e})"
            ) from exc
        if not np.all(np.isfinite(v_new)):
            raise RuntimeError(f"non-finite solution at {where}")
        v_new.flags.writeable = False
        return v_new


def _begin_step(ops: OperatorSet, problem, t_mid: float, dt: float):
    """The step kernel of these operators (built on their first step), set
    up for a step of length dt about t_mid, with b2 and the ne loads."""
    kernel = ops.step_work.get("kernel")
    if kernel is None:
        kernel = ops.step_work["kernel"] = _StepKernel(ops)
    b2 = kernel.begin_step(problem.motion, t_mid, dt)
    loads = [assemble_load(ops.space, problem, i, t_mid) for i in range(problem.ne)]
    return kernel, b2, loads


def _solve_all(step, problem, nonlocal_values, v_prev, label: str) -> tuple[np.ndarray, ...]:
    """V^(n) of every equation, its diffusion taken at `nonlocal_values`;
    `label` names the step in errors.  An overflow in the band arithmetic
    is reported by the kernel's non-finite-solution check alone."""
    kernel, b2, loads = step
    new = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(problem.ne):
            a_i = diffusion_scalar(problem, i, nonlocal_values)
            new.append(kernel.solve(b2, a_i, v_prev[i], loads[i], f"{label}, equation {i}"))
    return tuple(new)


def bootstrap_first_step(
    state: SchemeState, ops: OperatorSet, problem, dt: float | None = None
) -> SchemeState:
    """Predictor-corrector step producing V^(1) with second-order accuracy.

    The predictor freezes the diffusion coefficients at the initial
    nonlocal values l(V^(0)) (width factor gamma(t_0), the level the
    vectors live on); the corrector re-solves with the coefficients at
    the averaged level (V^(1,0) + V^(0)) / 2, whose width factor is
    gamma(t_1/2).  All other coefficients sit at t_1/2 in both solves.
    """
    if state.t_index != 0:
        raise ValueError(f"bootstrap expects the initial state, got step {state.t_index}")
    motion, w, v0 = problem.motion, ops.nonlocal_weights, state.current
    if dt is None:
        dt = state.delta
    t0 = state.time
    t_mid = t0 + 0.5 * dt
    step = _begin_step(ops, problem, t_mid, dt)
    label = f"step 1 (t={t0 + dt})"
    l_init = [nonlocal_value(w, v, motion, t0) for v in v0]
    predicted = _solve_all(step, problem, l_init, v0, f"the predictor of {label}")
    l_mid = [nonlocal_value(w, 0.5 * (p + v), motion, t_mid) for p, v in zip(predicted, v0)]
    corrected = _solve_all(step, problem, l_mid, v0, f"the corrector of {label}")
    return SchemeState(
        t_index=1,
        time=t0 + dt,
        delta=state.delta,
        current=corrected,
        previous=v0,
    )


def advance(state: SchemeState, ops: OperatorSet, problem, dt: float | None = None) -> SchemeState:
    """One linearized Crank-Nicolson step from level n >= 1 to n + 1.

    An explicit dt (the shortened final step) takes the diffusion
    arguments at V^(n) instead of 3/2 V^(n) - 1/2 V^(n-1): the
    extrapolation weights hold only for a step of the run's own delta,
    so that step is first-order frozen.
    """
    if state.previous is None:
        raise ValueError("advance needs two time levels; bootstrap the first step")
    v_bar = state.current
    if dt is None:
        dt = state.delta
        t_new = (state.t_index + 1) * state.delta
        v_bar = [1.5 * v - 0.5 * u for v, u in zip(state.current, state.previous)]
    else:
        t_new = state.time + dt
    t_mid = 0.5 * (state.time + t_new)
    step = _begin_step(ops, problem, t_mid, dt)
    l_bar = [nonlocal_value(ops.nonlocal_weights, v, problem.motion, t_mid) for v in v_bar]
    new = _solve_all(step, problem, l_bar, state.current, f"step {state.t_index + 1} (t={t_new})")
    return SchemeState(
        t_index=state.t_index + 1,
        time=t_new,
        delta=state.delta,
        current=new,
        previous=state.current,
    )


def level_grid(T: float, delta: float) -> tuple[int, float, np.ndarray]:
    """The time levels of a run from 0 to T with step delta.

    Returns (n_full, remainder, times): level n <= n_full sits at
    n * delta, and when T - n_full * delta exceeds 1e-9 delta one
    shortened final step of that remainder lands exactly on T.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"time step must be positive and finite, got {delta}")
    if not math.isfinite(T):
        raise ValueError(f"final time must be finite, got {T}")
    ratio = T / delta
    if ratio > 1e9:
        raise ValueError(f"T/delta = {ratio:.3g} exceeds the step-count limit")
    n_full = int(round(ratio))
    if abs(ratio - n_full) > 1e-9 * max(1.0, abs(ratio)):
        n_full = int(math.floor(ratio))
    remainder = T - n_full * delta
    times = np.arange(n_full + 1) * delta  # n * delta, as advance computes it
    if remainder > 1e-9 * delta:
        times = np.append(times, T)
    return n_full, remainder, times


def run(problem, space: FESpace, delta: float, observers=()) -> RunResult:
    """Integrate the problem from 0 to problem.T over `level_grid`'s levels.

    Observers are callables (step_index, time, coefficient_vectors)
    invoked at every level including 0; the vectors are the state's own,
    which are read-only.
    If T/delta is not an integer, one shortened final step lands exactly
    on T (see `advance`).
    """
    n_full, remainder, grid = level_grid(problem.T, delta)
    n_steps = len(grid) - 1

    started = _time.perf_counter()
    ops = assemble_static(space)
    state = initialize(space, problem, delta)
    while True:
        for obs in observers:
            obs(state.t_index, state.time, state.current)
        if state.t_index == n_steps:
            break
        short = state.t_index == n_full  # the shortened final step lands on T
        dt = remainder if short else None
        if state.t_index == 0:
            state = bootstrap_first_step(state, ops, problem, dt=dt)
        else:
            state = advance(state, ops, problem, dt=dt)
        if short:
            state = replace(state, time=problem.T)

    return RunResult(final=state, runtime=_time.perf_counter() - started)
