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

from .assembly import OperatorSet, assemble_load, assemble_static, diffusion_scalar, nonlocal_value
from .discretization import FESpace, interpolate
from .geometry import BoundaryMotion

__all__ = ["SchemeState", "RunResult", "initialize", "bootstrap_first_step", "advance", "run"]


@dataclass(frozen=True)
class SchemeState:
    """Coefficient vectors at the current and previous time levels.

    Boundary dofs of every stored vector are exactly zero.  `time` is
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
    times: list[float]
    runtime: float

    @property
    def n_steps(self) -> int:
        return self.final.t_index


def initialize(space: FESpace, problem, delta: float) -> SchemeState:
    """State at n = 0: nodal interpolants of the transformed initial data."""
    motion = problem.motion
    vecs = []
    for u0 in problem.initial:
        vecs.append(interpolate(space, lambda y: u0(motion.to_moving(y, 0.0))))
    return SchemeState(t_index=0, time=0.0, delta=delta, current=tuple(vecs), previous=None)


def _midpoint_system(ops: OperatorSet, motion: BoundaryMotion, t_mid: float):
    """Shared per-step pieces: b2, and the convection band data C/2."""
    g = motion.gamma(t_mid)
    b2 = motion.coeff_b2(t_mid)
    c_half = 0.5 * (
        (motion.alpha_prime(t_mid) / g) * ops.conv_const.data
        + (motion.gamma_prime(t_mid) / g) * ops.conv_linear.data
    )
    return b2, c_half


def _solve_equation(ops, b2, c_half, a_i, dt, v_prev, load, step_label):
    from .assembly import BandedMatrix

    m_over_dt = ops.mass.data / dt
    diff_half = (0.5 * a_i * b2) * ops.stiffness.data
    lhs = BandedMatrix(m_over_dt + diff_half - c_half, ops.mass.kb)
    rhs_op = BandedMatrix(m_over_dt - diff_half + c_half, ops.mass.kb)
    rhs = rhs_op.matvec(v_prev) + load
    v_new = np.zeros_like(v_prev)
    try:
        v_new[1:-1] = lhs.interior().solve(rhs[1:-1])
    except LinAlgError as exc:
        cond = np.linalg.cond(lhs.interior().toarray())
        raise RuntimeError(
            f"singular Crank-Nicolson system at {step_label} (condition estimate {cond:.3e})"
        ) from exc
    if not np.all(np.isfinite(v_new)):
        raise RuntimeError(f"non-finite solution at {step_label}")
    return v_new


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
    motion = problem.motion
    if dt is None:
        dt = state.delta
    t0 = state.time
    t_mid = t0 + 0.5 * dt
    ne = problem.ne
    w = ops.nonlocal_weights

    b2, c_half = _midpoint_system(ops, motion, t_mid)
    loads = [assemble_load(ops.space, problem, i, t_mid) for i in range(ne)]

    l_init = [nonlocal_value(w, state.current[j], motion, t0) for j in range(ne)]
    predicted = []
    for i in range(ne):
        a_i = diffusion_scalar(problem, i, l_init)
        predicted.append(
            _solve_equation(ops, b2, c_half, a_i, dt, state.current[i], loads[i], "the predictor")
        )

    l_mid = [
        nonlocal_value(w, 0.5 * (predicted[j] + state.current[j]), motion, t_mid)
        for j in range(ne)
    ]
    corrected = []
    for i in range(ne):
        a_i = diffusion_scalar(problem, i, l_mid)
        corrected.append(
            _solve_equation(ops, b2, c_half, a_i, dt, state.current[i], loads[i], "the corrector")
        )

    return SchemeState(
        t_index=1,
        time=t0 + dt,
        delta=state.delta,
        current=tuple(corrected),
        previous=state.current,
    )


def advance(
    state: SchemeState,
    ops: OperatorSet,
    problem,
    dt: float | None = None,
    extrapolate: bool = True,
) -> SchemeState:
    """One linearized Crank-Nicolson step from level n >= 1 to n + 1.

    With extrapolate=False the diffusion arguments use V^(n) instead of
    3/2 V^(n) - 1/2 V^(n-1); this first-order freeze is used only for a
    shortened final step, where the constant-step extrapolation weights
    would not hold.
    """
    if state.previous is None:
        raise ValueError("advance needs two time levels; bootstrap the first step")
    motion = problem.motion
    if dt is None:
        dt = state.delta
        t_new = (state.t_index + 1) * state.delta
    else:
        t_new = state.time + dt
    t_mid = 0.5 * (state.time + t_new)
    ne = problem.ne
    w = ops.nonlocal_weights

    b2, c_half = _midpoint_system(ops, motion, t_mid)
    loads = [assemble_load(ops.space, problem, i, t_mid) for i in range(ne)]

    if extrapolate:
        extrap = [1.5 * state.current[j] - 0.5 * state.previous[j] for j in range(ne)]
    else:
        extrap = list(state.current)
    l_bar = [nonlocal_value(w, extrap[j], motion, t_mid) for j in range(ne)]

    step_label = f"step {state.t_index + 1}"
    new = []
    for i in range(ne):
        a_i = diffusion_scalar(problem, i, l_bar)
        new.append(_solve_equation(ops, b2, c_half, a_i, dt, state.current[i], loads[i], step_label))

    return SchemeState(
        t_index=state.t_index + 1,
        time=t_new,
        delta=state.delta,
        current=tuple(new),
        previous=state.current,
    )


def _notify(observers, state: SchemeState) -> None:
    if not observers:
        return
    frozen = []
    for v in state.current:
        c = v.copy()
        c.flags.writeable = False
        frozen.append(c)
    frozen = tuple(frozen)
    for obs in observers:
        obs(state.t_index, state.time, frozen)


def run(problem, space: FESpace, delta: float, observers=()) -> RunResult:
    """Integrate the problem from 0 to problem.T.

    Observers are callables (step_index, time, coefficient_vectors)
    invoked at every level including 0; the vectors are read-only copies.
    If T/delta is not an integer, one shortened final step lands exactly
    on T (see `advance`).
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"time step must be positive and finite, got {delta}")
    if not math.isfinite(problem.T):
        raise ValueError(f"final time must be finite, got {problem.T}")
    ratio = problem.T / delta
    if ratio > 1e9:
        raise ValueError(f"T/delta = {ratio:.3g} exceeds the step-count limit")
    n_full = int(round(ratio))
    if abs(ratio - n_full) > 1e-9 * max(1.0, abs(ratio)):
        n_full = int(math.floor(ratio))
    remainder = problem.T - n_full * delta
    tail = remainder > 1e-9 * delta

    started = _time.perf_counter()
    ops = assemble_static(space)
    state = initialize(space, problem, delta)
    times = [state.time]
    _notify(observers, state)

    if n_full >= 1:
        state = bootstrap_first_step(state, ops, problem)
        times.append(state.time)
        _notify(observers, state)
        while state.t_index < n_full:
            state = advance(state, ops, problem)
            times.append(state.time)
            _notify(observers, state)
        if tail:
            state = advance(state, ops, problem, dt=remainder, extrapolate=False)
            state = replace(state, time=problem.T)
            times.append(state.time)
            _notify(observers, state)
    elif tail:
        # T smaller than one step: a single shortened bootstrap
        state = bootstrap_first_step(state, ops, problem, dt=remainder)
        state = replace(state, time=problem.T)
        times.append(state.time)
        _notify(observers, state)

    return RunResult(final=state, times=times, runtime=_time.perf_counter() - started)
