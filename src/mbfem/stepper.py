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
    """The arithmetic of the steps of one run of ne equations, set up by
    `begin_step` for each.

    Every moving-domain quantity of a step is a function of t alone, so
    `begin_step` evaluates the motion once, at the step's midpoint: the
    width gamma of the nonlocal values, b2, C and the quadrature points of
    the ne loads.  Per equation a step solves the midpoint form
    [(M/d - C/2) + (a_i b2/2) K] U = (2M/d) V^(n-1) + G, in which only
    s_i = a_i b2/2 differs between equations.  M/d and 2M/d are formed once
    per d, the base M/d - C/2 once per step by `begin_step`, and the ne
    loads G by `assemble_load` into the rows of one (ne, n) array.

    The kernel keeps M, K, C0 and C1 padded to n' = n + k - 1 = (nt + 1) k
    columns (and so M/d and the base).  The k - 1 padding columns hold one
    padding element: its interior has diagonal 1 in M and 0 everywhere
    else in M, K and C, and it meets its two vertices in no entry.  A
    kernel that may condense (`large`: k >= 2 and ne nt >=
    CONDENSE_MIN_ELEMENTS, fixed here) keeps these five operators, and
    the left-hand sides, in the element-entry store of
    `assembly._gather_entries` instead of as bands: P = k (k + 2) planes of
    nt + 1 slots, one plane per band row R and column residue c = j mod k
    that an element block reaches, so entry (r, c) of every element block
    is one contiguous row and no structural zero is kept or swept.  Any
    other kernel keeps the (2k + 1, n') bands.  `solve_all` writes the ne
    left-hand sides into one C-ordered `stack` of shape (P, ne, nt + 1) or
    (2k + 1, ne, n') with two broadcast passes, s_i K, then base + s_i K,
    in that operand order, so every kept entry gets the bits it gets in
    the band.  The right-hand sides go into the first n columns of the rows
    of an (ne, n') `stack_rhs`, whose padding is made 0: 2M/d, the one band
    in Fortran order (the layout `dgbmv` reads without a copy), is applied
    by one `dgbmv` per equation and formed once per d as M/d + M/d from the
    operator set's unpadded M, the one band of it the kernel keeps (README,
    "Performance", states the rule the last bits follow).  The quadrature
    points are kept in Fortran order, so that `assemble_load` contracts
    them along the elements, and the mapped points x_q that the forcings
    receive are one kept buffer, rewritten by every `begin_step`.  Every
    array is allocated here, and every system is a `BandedMatrix` view made
    here, paired with its views of `stack_rhs` and of the (ne, n')
    `solution`: per equation its interior window of the (2k + 1, ne, n')
    `band` (the stack itself, or for a `large` kernel an `np.empty` band
    that only a step it does not condense writes), columns 1 .. n-2 with
    kb = k; and for a `large` kernel the vertex system of the store, planes
    (0, 0), (k, 0) and (2k, 0) at slots 1 .. nt-1 with kb = 1, contiguous
    rows with no gather.  The views a step writes through are made here
    too: the first n columns of each row of `stack_rhs`, which the `dgbmv`
    products fill, and for a `large` kernel the `_element_blocks` views of
    the store read flat and the (k + 1, E) `_element_entries` views of
    `stack_rhs` and `solution` read flat, with E = ne (nt + 1) - 1, which
    the condensation takes.

    A step solves either all windows or, after `_eliminate_interiors` of
    the flat store, all vertex systems followed by `_back_substitute`; one
    loop makes the step's ne `BandedMatrix.solve` calls, and a singular
    system is an error that names its equation.  It condenses when the
    kernel is `large`, 4 gamma + dt gamma' > 0 (fixed by `begin_step`) and
    every a_i > 0; a `large` kernel's step that does not condense first
    scatters the store into its band, +0.0 at every entry the store does
    not keep, which is the bits the band would hold.  The flat store is
    ne (nt + 1) - 1 elements, the padding element between equations i and
    i + 1 among them, whose interior dofs are eliminated without pivoting.
    The last two conditions make the symmetric part of each interior LHS,
    M (1/dt + gamma'/(4 gamma)) + (a_i b2/2) K, positive definite (the
    symmetric parts of conv_const and conv_linear there are 0 and -M/2),
    so no pivot can vanish.  A padding element is inert: its multipliers
    are 0 over its pivots 1/d, so it changes no entry another element
    reads, and each equation's interior values get the bits of a
    condensation of that equation alone.  When s_i overflows, the products
    inf 0 make equation i's padding element NaN, but what it writes lands
    only in boundary and padding entries that no equation's solution reads,
    so the neighbours keep their bits and the error names equation i.
    Either way the step's (ne, n) result is U - V^(n-1) in one pass.
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
        self.dt = self.gamma = self.b2 = self.condense = None
        self.quad_points = np.asfortranarray(self.space.element_quad_points)
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

    def begin_step(self, problem, t_mid: float, dt: float) -> None:
        """Set M/dt and 2M/dt (if dt changed), the base M/dt - C/2, b2, gamma,
        the quadrature points x_q and the ne loads for a step of length dt
        about t_mid.  gamma, b2 and x_q come from one `step_frame` call,
        with the bits of the motion's gamma, coeff_b2 and to_moving."""
        if dt != self.dt:
            np.divide(self.mass, dt, out=self.m_over_dt)
            two = self.two_m_over_dt.data
            np.add(np.divide(self.unpadded_mass, dt, out=two), two, out=two)
            self.dt = dt
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

    def solve_all(self, problem, nonlocal_values, v_prev: np.ndarray, label) -> np.ndarray:
        """V^(n) of every equation as a read-only (ne, n) array, the diffusion
        taken at `nonlocal_values` and V^(n-1) the rows of `v_prev`; `label`,
        a string or a `_StepLabel`, names the step in errors.  Every a_i is
        computed before the first solve, and every equation is solved before
        the solution is checked, so an overflow in the band arithmetic is
        reported by the non-finite-solution check alone."""
        n = self.space.n_dofs
        stack, x = self.stack, self.solution
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
                raise RuntimeError(f"singular Crank-Nicolson system at {label}, equation {i} ({exc})") from exc
            if condense:
                _back_substitute(self.blocks, self.rhs_elements, self.x_elements, self.work)
            new = np.subtract(x[:, :n], v_prev)
        finite = np.isfinite(new)
        if not finite.all():
            raise RuntimeError(f"non-finite solution at {label}, equation {np.argmin(finite) // n}")
        new.flags.writeable = False
        return new


class _StepLabel:
    """`step n (t=...)`, the name of an advance in error messages: it is
    formatted only when one is raised, not on every step."""

    __slots__ = ("n", "t")

    def __init__(self, n: int, t: float):
        self.n, self.t = n, t

    def __str__(self) -> str:
        return f"step {self.n} (t={self.t})"


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
    l_init = nonlocal_value(w, v0, problem.motion.gamma(0.0))
    predicted = kernel.solve_all(problem, l_init, v0, f"the predictor of {label}")
    l_mid = nonlocal_value(w, 0.5 * (predicted + v0), kernel.gamma)
    corrected = kernel.solve_all(problem, l_mid, v0, f"the corrector of {label}")
    return SchemeState(t_index=1, delta=dt, current=corrected, previous=v0)


def advance(state: SchemeState, kernel: StepKernel, problem) -> SchemeState:
    """One linearized Crank-Nicolson step from level n >= 1 to n + 1."""
    if state.previous is None:
        raise ValueError("advance needs two time levels; bootstrap the first step")
    t_new = (state.t_index + 1) * state.delta
    v_bar = 1.5 * state.current - 0.5 * state.previous
    kernel.begin_step(problem, 0.5 * (state.time + t_new), state.delta)
    l_bar = nonlocal_value(kernel.weights, v_bar, kernel.gamma)
    new = kernel.solve_all(problem, l_bar, state.current, _StepLabel(state.t_index + 1, t_new))
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
