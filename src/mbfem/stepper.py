"""Linearized Crank-Nicolson time stepping for the coupled system.

Each step of the scheme takes, per equation,

    LHS_i V^(n) = RHS_i V^(n-1) + G,   LHS_i, RHS_i = M/d +- (a_i b2 K - C)/2,

with all coefficients evaluated at the midpoint t_{n-1/2}, where
C(t) = (alpha'/gamma) conv_const + (gamma'/gamma) conv_linear and a_i is
the diffusion coefficient at extrapolated nonlocal values
l(V_bar) = gamma(t_{n-1/2}) * weights . (3/2 V^(n-1) - 1/2 V^(n-2)),
all ne of them from one `nonlocal_value` call on the (ne, n) stack V_bar.
Since RHS_i = 2M/d - LHS_i, the step is solved in the midpoint form
LHS_i U = (2M/d) V^(n-1) + G, V^(n) = U - V^(n-1).
The first step has no V^(-1), so it is bootstrapped with one predictor
solve (diffusion frozen at the initial nonlocal values) and one
corrector solve (diffusion at the averaged predictor level).

The ne systems of one step are mutually independent; coupling enters
only through the already-known nonlocal values.  So a level is stored as
one read-only (ne, n) array whose rows are the equations' coefficient
vectors, and every elementwise phase of a step (the extrapolation V_bar,
the left-hand bands, U - V^(n-1)) is one array pass over all equations.
The step kernel keeps the ne left-hand bands in one (2k+1, ne, n + k - 1)
band: each equation's n columns are followed by k - 1 padding columns, the
interior of an inert padding element (`StepKernel`), so no two equations
share a column and every band row of all equations is contiguous.  A
kernel that may condense keeps them instead as one (k (k + 2), ne, nt + 1)
element-entry store, one contiguous row per entry of an element block.

A step is a function of the level it leaves.  `StepKernel.begin_step(problem,
state)` takes from the state at level n - 1 all that the step to level n
needs: its length d = state.delta, its midpoint t_{n-1/2}, computed as
((n - 1) d + n d)/2, and V^(n-1) = state.current.  `solve_all(problem,
nonlocal_values, stage)` then solves that step at the given nonlocal
values, once per advance and twice, as predictor and corrector, in the
bootstrap, and names a failure `{stage}step n (t=n d)`.
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
    _back_substitute,
    _element_blocks,
    _element_entries,
    _eliminate_interiors,
    _gather_entries,
    _scatter_entries,
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

    `current` and `previous` are (ne, n) arrays, row i the vector of
    equation i.  Boundary dofs of every stored vector are exactly zero, and
    every array is read-only from the moment it is made.
    """

    t_index: int
    delta: float
    current: np.ndarray
    previous: np.ndarray | None

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
    vecs = np.empty((problem.ne, space.n_dofs))
    for v, u0 in zip(vecs, problem.initial):
        with np.errstate(over="ignore", invalid="ignore"):  # interpolate reports a non-finite sample
            v[:] = interpolate(space, lambda y: u0(motion.to_moving(y, 0.0)))
    vecs.flags.writeable = False
    return SchemeState(t_index=0, delta=delta, current=vecs, previous=None)


def _padded(band: np.ndarray, k: int, diagonal: float) -> np.ndarray:
    """`band` followed by k - 1 columns, zero but for `diagonal` on the main
    diagonal: the interior of one padding element."""
    rows, n = band.shape
    out = np.zeros((rows, n + k - 1))
    out[:, :n] = band
    out[k, n:] = diagonal
    return out


class StepKernel:
    """The arithmetic of the steps of one run of ne equations.

    Per equation a step solves the midpoint form
    [(M/d - C/2) + (a_i b2/2) K] U = (2M/d) V^(n-1) + G, in which only
    s_i = a_i b2/2 differs between equations, so `solve_all` builds the ne
    left-hand sides in one stack by two broadcast passes, s_i K, then
    base + s_i K.  A kernel that may condense (`large`: k >= 2 and
    ne nt >= CONDENSE_MIN_ELEMENTS) keeps its operators and the stack in
    the element-entry store of `assembly._gather_entries`, because the
    condensation then sweeps entry (r, c) of every element block as one
    contiguous row and no structural zero; any other kernel keeps
    (2k + 1, n') bands, the layout `dgbsv` reads.  The passes run in one
    operand order on both layouts, so every kept entry has the bits it has
    in the band.

    A step condenses when the kernel is `large`, 4 gamma + dt gamma' > 0 at
    its midpoint and every a_i > 0.  These make the symmetric part of each
    interior LHS, M (1/dt + gamma'/(4 gamma)) + (a_i b2/2) K, positive
    definite (the symmetric parts of conv_const and conv_linear there are 0
    and -M/2), so elimination without pivoting meets no zero pivot.  Any
    other step scatters the store into the band, +0.0 at every entry the
    store does not keep, and solves each equation's window by `dgbsv`.

    Each equation's n columns are followed by k - 1 padding columns, the
    interior of a padding element: diagonal 1 in M, 0 everywhere else in
    M, K and C, meeting its two vertices in no entry.  The condensation
    eliminates the ne (nt + 1) - 1 elements of the store read flat, the
    padding elements among them.  A padding element is inert: its
    multipliers are 0 over its pivots 1/d, so it changes no entry another
    element reads, and each equation's interior values get the bits of a
    condensation of that equation alone.  When s_i overflows, the products
    inf 0 make equation i's padding element NaN, but what it writes lands
    only in boundary and padding entries that no equation's solution reads,
    so the neighbours keep their bits and the error names equation i.
    """

    def __init__(self, ops: OperatorSet, ne: int):
        self.space = ops.space
        self.weights = ops.nonlocal_weights
        k = self.kb = ops.mass.kb
        n, nt = self.space.n_dofs, self.space.n_elements
        self.large = k >= 2 and ne * nt >= CONDENSE_MIN_ELEMENTS
        layout = _gather_entries if self.large else np.asarray
        self.mass = layout(_padded(ops.mass.data, k, 1.0))
        self.stiffness, self.conv_const, self.conv_linear = (
            layout(_padded(band.data, k, 0.0)) for band in (ops.stiffness, ops.conv_const, ops.conv_linear)
        )
        self.unpadded_mass = ops.mass.data
        self.dt = self.state = self.t_mid = self.gamma = self.b2 = self.condense = None
        self.quad_points = np.ascontiguousarray(self.space.element_quad_points.T)
        self.x_q = np.empty_like(self.quad_points)
        self.m_over_dt, self.lhs_base = np.empty_like(self.mass), np.empty_like(self.mass)
        self.two_m_over_dt = BandedMatrix(np.empty((2 * k + 1, n), order="F"), k)
        self.load_work = (np.empty((len(self.space.quad.weights), nt)), np.empty((k + 1, nt)))
        self.loads = np.empty((ne, n))
        stack = self.stack = np.empty((len(self.mass), ne, self.mass.shape[1]))
        # a condensing kernel's band is touched only by a step it does not condense
        band = self.band = np.empty((2 * k + 1, ne, n + k - 1)) if self.large else stack
        rhs, x = self.stack_rhs, self.solution = np.zeros((ne, n + k - 1)), np.zeros((ne, n + k - 1))
        self.rhs_rows = [rhs[i, :n] for i in range(ne)]
        inner, vertices = slice(1, n - 1), slice(k, n - 1, k)
        self.windows = [(BandedMatrix(band[:, i, inner], k), rhs[i, inner], x[i, inner]) for i in range(ne)]
        if self.large:
            self.blocks = _element_blocks(stack.reshape(len(stack), -1), k)
            self.rhs_elements, self.x_elements = (_element_entries(v.reshape(-1), k) for v in (rhs, x))
            self.work = np.empty((2, k, ne * (nt + 1) - 1))
            self.vertex_systems = [
                (BandedMatrix(stack[0 : 2 * k + 1 : k, i, 1:nt], 1), rhs[i, vertices], x[i, vertices])
                for i in range(ne)
            ]

    def begin_step(self, problem, state: SchemeState) -> None:
        """Set up the step that leaves `state`'s level for the next: M/dt and
        2M/dt (if dt = state.delta changed), the midpoint t_mid, the base
        M/dt - C/2, b2, gamma, the quadrature points x_q, one C-ordered
        (q, nt) array, and the ne loads.  gamma, b2 and x_q come from one
        `step_frame` call, with the bits of the motion's gamma, coeff_b2 and
        to_moving.  The ne forcings are called with one t object, t_mid, at
        the same points x_q, the rule `problems._shared_rows` relies on."""
        dt = state.delta
        if dt != self.dt:
            np.divide(self.mass, dt, out=self.m_over_dt)
            two = self.two_m_over_dt.data
            np.add(np.divide(self.unpadded_mass, dt, out=two), two, out=two)
            self.dt = dt
        self.state = state
        t_mid = self.t_mid = 0.5 * (state.time + (state.t_index + 1) * dt)
        motion = problem.motion
        g, self.b2 = motion.step_frame(self.quad_points, t_mid, self.x_q)
        self.gamma = g
        gp = motion.gamma_prime(t_mid)
        self.condense = self.large and 4.0 * g + dt * gp > 0.0
        c_half = np.multiply(motion.alpha_prime(t_mid) / (2.0 * g), self.conv_const, out=self.lhs_base)
        c_half += (gp / (2.0 * g)) * self.conv_linear
        np.subtract(self.m_over_dt, c_half, out=self.lhs_base)
        with np.errstate(over="ignore", invalid="ignore"):  # assemble_load reports a non-finite forcing
            for i, load in enumerate(self.loads):
                assemble_load(self.space, problem, i, self.x_q, t_mid, load, self.load_work)

    def _step_name(self, stage: str) -> str:
        """`{stage}step n (t=n d)`, the name in errors of the step to level
        n; formatted only when one is raised."""
        n = self.state.t_index + 1
        return f"{stage}step {n} (t={n * self.state.delta})"

    def solve_all(self, problem, nonlocal_values, stage: str = "") -> np.ndarray:
        """V^(n) of every equation as a read-only (ne, n) array, the diffusion
        taken at `nonlocal_values` and V^(n-1) the current level of the
        state `begin_step` took; `stage` prefixes the step's name in
        errors.  Every a_i is computed before the first solve, and every
        equation is solved before the solution is checked, so an overflow
        in the band arithmetic is reported by the non-finite-solution check
        alone."""
        n = self.space.n_dofs
        stack, x, v_prev = self.stack, self.solution, self.state.current
        with np.errstate(over="ignore", invalid="ignore"):
            a = [diffusion_scalar(problem, i, nonlocal_values) for i in range(problem.ne)]
            s = 0.5 * np.array(a) * self.b2
            np.multiply(s[None, :, None], self.stiffness[:, None, :], out=stack)
            np.add(self.lhs_base[:, None, :], stack, out=stack)
            for v, load, out in zip(v_prev, self.loads, self.rhs_rows):
                np.add(self.two_m_over_dt.matvec(v), load, out=out)
            condense = self.condense and min(a) > 0.0
            if condense:
                _eliminate_interiors(self.blocks, self.rhs_elements, self.work)
            elif self.large:
                _scatter_entries(stack, self.band)
            try:
                for i, (system, b, u) in enumerate(self.vertex_systems if condense else self.windows):
                    u[:] = system.solve(b)
            except LinAlgError as exc:
                name = self._step_name(stage)
                raise RuntimeError(f"singular Crank-Nicolson system at {name}, equation {i} ({exc})") from exc
            if condense:
                _back_substitute(self.blocks, self.rhs_elements, self.x_elements, self.work)
            new = np.subtract(x[:, :n], v_prev)
        finite = np.isfinite(new)
        if not finite.all():
            raise RuntimeError(f"non-finite solution at {self._step_name(stage)}, equation {np.argmin(finite) // n}")
        new.flags.writeable = False
        return new


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
    w, v0 = kernel.weights, state.current
    kernel.begin_step(problem, state)
    l_init = nonlocal_value(w, v0, problem.motion.gamma(0.0))
    predicted = kernel.solve_all(problem, l_init, "the predictor of ")
    l_mid = nonlocal_value(w, 0.5 * (predicted + v0), kernel.gamma)
    corrected = kernel.solve_all(problem, l_mid, "the corrector of ")
    return SchemeState(t_index=1, delta=state.delta, current=corrected, previous=v0)


def advance(state: SchemeState, kernel: StepKernel, problem) -> SchemeState:
    """One linearized Crank-Nicolson step from level n >= 1 to n + 1."""
    if state.previous is None:
        raise ValueError("advance needs two time levels; bootstrap the first step")
    v_bar = 1.5 * state.current - 0.5 * state.previous
    kernel.begin_step(problem, state)
    l_bar = nonlocal_value(kernel.weights, v_bar, kernel.gamma)
    new = kernel.solve_all(problem, l_bar)
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
    kernel = StepKernel(ops, problem.ne)
    del ops  # the kernel keeps its own copies of the operators it needs
    while True:
        for obs in observers:
            obs(state.t_index, state.time, state.current)
        if state.t_index == n_steps:
            break
        step = bootstrap_first_step if state.t_index == 0 else advance
        state = step(state, kernel, problem)

    return RunResult(final=state, runtime=_time.perf_counter() - started)
