"""Instrumentation installed from outside the program, at the calls into the
public functions of its modules.  Nothing under src/ is edited: functions
are rebound in every mbfem module namespace that refers to them, methods
on their classes, and undone afterwards.

StepTimer is the untraced run's instrumentation: one perf_counter pair
around each time step, and the instant each run's set-up ends.  Tracer is
the traced run's: a span around every layer call, aggregated in memory as
calls, inclusive time and self time (inclusive minus child spans), keyed
by the stepper phase the call happened in.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import replace

LAYERS = ("geometry", "discretization", "assembly", "stepper", "problems", "analysis", "cli")

# Methods are spans too; the module functions come from each module's __all__.
METHODS = {
    "geometry": {"BoundaryMotion": ("gamma", "gamma_prime", "coeff_b2", "to_moving")},
    "discretization": {"FESpace": ("eval_basis",)},
    "assembly": {"BandedMatrix": ("solve", "matvec")},
    "cli": {"SnapshotRecorder": ("__call__",)},
}
# Public or not, these are the layer boundaries the per-layer metrics name.
EXTRA_FUNCTIONS = {"cli": ("parse_problem", "_write_snapshots")}
# format_float runs once per CSV field (about 5e5 calls per solve_large
# write); a span there would dwarf the writer it belongs to, whose time
# cli.write_ms reports inclusively.
NOT_TRACED = {"analysis.format_float"}

ADVANCE = "advance"
BOOTSTRAP = "bootstrap"
OTHER = "other"


def banded_solve_flops(n: int, kb: int) -> int:
    """Flops of one LAPACK gbsv on n unknowns with kl = ku = kb: LU with the
    U band widened to 2 kb by pivoting, then the two triangular solves."""
    return n * (4 * kb * kb + 7 * kb + 1)


class Patches:
    """Rebinds names and undoes every rebinding in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def rebind(self, original, replacement) -> None:
        """Point every mbfem module name bound to `original` at `replacement`."""
        for modname, mod in list(sys.modules.items()):
            if modname == "mbfem" or modname.startswith("mbfem."):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self.set(mod, name, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class SetupDone(Exception):
    """Raised by stepper.initialize in a set-up-only operation, once timed.

    An Exception, so that convergence_study records it as a failed run and
    goes on to set up the next one; the CLI does not catch it."""


class StepTimer:
    """Untraced timing: step samples, set-up ends, and work done.

    Each operation's set-up is summed over its runs: from the operation's
    start (a solve) or the study's build_space call for that run, until
    stepper.initialize returns.  With setup_only set, initialize raises
    SetupDone as soon as it has been timed, so nothing is stepped.  With a
    reference set, it is run between two steps whenever REF_EVERY seconds
    have passed since it last ran, and recorded in refs.
    """

    REF_EVERY = 0.25

    def __init__(self):
        self.samples = []     # seconds per bootstrap/advance call
        self.work = 0         # ne * n_dofs, summed over steps
        self.setup_only = False
        self.reference = None  # callable returning the seconds it ran
        self.refs = []        # (len(samples), start clock, seconds) per reference run
        self._next_ref = 0.0
        self._size = 0
        self._starts = []
        self._ends = []

    def install(self, patches: Patches, mbfem) -> None:
        stepper, analysis = mbfem.stepper, mbfem.analysis
        clock = time.perf_counter
        samples = self.samples

        def initialize(space, problem, delta, _f=stepper.initialize):
            out = _f(space, problem, delta)
            self._ends.append(clock())
            if self.setup_only:
                raise SetupDone
            self._size = problem.ne * space.n_dofs
            return out

        def timed(fn):
            def step(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                t1 = clock()
                samples.append(t1 - t0)
                self.work += self._size
                if self.reference is not None and t1 >= self._next_ref:
                    self.refs.append((len(samples), t1, self.reference()))
                    self._next_ref = clock() + self.REF_EVERY
                return out

            return step

        def build_space(*args, _f=analysis.build_space, **kwargs):
            self._starts.append(clock())
            return _f(*args, **kwargs)

        patches.set(stepper, "initialize", initialize)
        patches.set(stepper, "advance", timed(stepper.advance))
        patches.set(stepper, "bootstrap_first_step", timed(stepper.bootstrap_first_step))
        patches.set(analysis, "build_space", build_space)

    def begin(self, op_start: float) -> None:
        self._starts = []
        self._ends = []
        self._op_start = op_start

    def setup_seconds(self) -> float:
        starts = self._starts or [self._op_start]
        return sum(e - s for s, e in zip(starts, self._ends))


class Tracer:
    """Spans at every layer boundary, aggregated per (phase, span name)."""

    def __init__(self):
        self._open = []      # child-time accumulators of the open spans
        self._phase = OTHER
        self.stats = {}      # (phase, name) -> [calls, inclusive_ns, self_ns]
        self.flops = {ADVANCE: 0, BOOTSTRAP: 0, OTHER: 0}
        self.step_faults = []
        self.observer_hits = 0
        self.rows_written = 0

    def span(self, name, fn, phase=None):
        stack, stats, clock = self._open, self.stats, time.perf_counter_ns

        def traced(*args, **kwargs):
            outer = self._phase
            if phase is not None:
                self._phase = phase
            children = [0]
            stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                s = stats.get((self._phase, name))
                if s is None:
                    s = stats[(self._phase, name)] = [0, 0, 0]
                s[0] += 1
                s[1] += dur
                s[2] += dur - children[0]
                self._phase = outer

        return traced

    def calls(self, phase, name) -> int:
        return self.stats.get((phase, name), (0,))[0]

    def wrap_problem(self, spec):
        """The same ProblemSpec with its forcing and diffusion callables traced."""
        return replace(
            spec,
            forcing=tuple(self.span("problems.forcing", f) for f in spec.forcing),
            diffusion=tuple(self.span("problems.diffusion", a) for a in spec.diffusion),
        )

    def _step(self, name, fn, phase, solves_per_equation):
        traced = self.span(name, fn, phase)
        solve, load = "assembly.BandedMatrix.solve", "assembly.assemble_load"

        def step(state, ops, problem, *args, **kwargs):
            before = self.calls(phase, solve), self.calls(phase, load)
            out = traced(state, ops, problem, *args, **kwargs)
            got = self.calls(phase, solve) - before[0], self.calls(phase, load) - before[1]
            want = solves_per_equation * problem.ne, problem.ne
            if got != want:
                self.step_faults.append(f"{name} to step {out.t_index}: (solves, loads) {got}, expected {want}")
            return out

        return step

    def install(self, patches: Patches, mbfem) -> None:
        for layer in LAYERS:
            mod = getattr(mbfem, layer)
            names = [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]
            for fname in names + list(EXTRA_FUNCTIONS.get(layer, ())):
                fn = getattr(mod, fname)
                span_name = f"{layer}.{fname}"
                if span_name in NOT_TRACED or fn.__module__ != mod.__name__:
                    continue
                patches.rebind(fn, self._function_wrapper(span_name, fn))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    span_name = f"{layer}.{cls_name}.{meth}"
                    patches.set(cls, meth, self._method_wrapper(span_name, getattr(cls, meth)))

    def _function_wrapper(self, span_name, fn):
        if span_name == "stepper.advance":
            return self._step(span_name, fn, ADVANCE, 1)
        if span_name == "stepper.bootstrap_first_step":
            return self._step(span_name, fn, BOOTSTRAP, 2)
        traced = self.span(span_name, fn)
        if span_name == "cli.parse_config":
            def parse_config(*args, **kwargs):
                config = traced(*args, **kwargs)
                return replace(config, problem=self.wrap_problem(config.problem))

            return parse_config
        if span_name == "cli._write_snapshots":
            def write_snapshots(path, rows):
                self.rows_written += len(rows)
                return traced(path, rows)

            return write_snapshots
        return traced

    def _method_wrapper(self, span_name, fn):
        traced = self.span(span_name, fn)
        if span_name == "assembly.BandedMatrix.solve":
            def solve(matrix, rhs):
                self.flops[self._phase] += banded_solve_flops(matrix.data.shape[1], matrix.kb)
                return traced(matrix, rhs)

            return solve
        if span_name == "cli.SnapshotRecorder.__call__":
            def observe(recorder, *args):
                before = len(recorder.rows)
                traced(recorder, *args)
                self.observer_hits += len(recorder.rows) > before

            return observe
        return traced
