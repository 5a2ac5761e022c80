"""Error measurement and convergence studies.

Errors are reported in the moving-domain L2 norm, which under the
boundary-fixing change of variables is sqrt(gamma(t)) times the
fixed-domain norm of the difference, and as the maximum nodal error at
the mapped dof positions.  Observed orders come from least-squares fits
in log-log coordinates.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .discretization import FESpace, build_space, gauss_legendre
from .stepper import level_grid, run

__all__ = [
    "ErrorRecord",
    "ErrorTracker",
    "RateFit",
    "StudyRow",
    "StudyResult",
    "l2_error_vs_function",
    "measure",
    "fit_slope",
    "convergence_study",
    "format_float",
    "write_rows",
]


@dataclass(frozen=True)
class ErrorRecord:
    """Per-equation errors at one time."""

    time: float
    l2_moving: tuple[float, ...]
    max_nodal: tuple[float, ...]


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(error) against log(h or delta)."""

    slope: float
    intercept: float
    r_squared: float
    axis: str = ""
    degree: int | None = None
    equation: int | None = None

    @property
    def reliable(self) -> bool:
        """False flags a contaminated fit (plateau from the other error term)."""
        return self.r_squared >= 0.99


@dataclass(frozen=True)
class StudyRow:
    axis: str
    k: int
    nt: int
    h: float
    delta: float
    equation: int
    l2_error: float
    max_nodal_error: float


@dataclass(frozen=True)
class StudyResult:
    rows: list
    fits: list


def l2_error_vs_function(space: FESpace, coeffs, fn) -> float:
    """Fixed-domain L2 norm of (expansion - fn) by elevated quadrature.

    The rule uses two more points than assembly, and fn is evaluated
    directly rather than interpolated first, so the measurement does not
    share an error term of the measured order.  fn is called once, on the
    (n_elements, q + 2) array of quadrature points.
    """
    rule = gauss_legendre(space.quad.n + 2)
    table, _ = space.eval_basis(rule.points)
    k, jac = space.degree, space.jacobians
    # each element's k + 1 coefficients, neighbours sharing one
    c = sliding_window_view(np.asarray(coeffs, dtype=float), k + 1)[::k]
    y_q = space.breakpoints[:-1, None] + (rule.points + 1.0) * jac[:, None]
    diff = (table @ c[:, :, None])[:, :, 0] - np.asarray(fn(y_q), dtype=float)
    # batched products and a running sum: the element loop's rounding, bit for bit
    per_element = jac * ((diff * diff)[:, None, :] @ rule.weights[:, None])[:, 0, 0]
    return math.sqrt(np.cumsum(per_element)[-1])


def measure(problem, space: FESpace, t: float, vectors) -> ErrorRecord:
    """Errors of the level at time t, coefficient vectors `vectors`, against
    the problem's exact solutions."""
    if problem.exact is None:
        raise ValueError("the problem supplies no exact solutions to measure against")
    motion = problem.motion
    root_gamma = math.sqrt(motion.gamma(t))
    x_dofs = motion.to_moving(space.dof_positions, t)
    l2 = []
    mx = []
    for i in range(problem.ne):
        exact = problem.exact[i]
        l2.append(
            root_gamma
            * l2_error_vs_function(space, vectors[i], lambda y: exact(motion.to_moving(y, t), t))
        )
        nodal = np.asarray(exact(x_dofs, t), dtype=float) - vectors[i]
        mx.append(float(np.max(np.abs(nodal))))
    return ErrorRecord(time=t, l2_moving=tuple(l2), max_nodal=tuple(mx))


def due_steps(times, T: float, delta: float) -> frozenset[int]:
    """The index of the level nearest each requested time in a run from 0
    to T with step delta (the earlier of two equally near).

    The observers that act at requested times act at a level when its step
    index is in this set; a request outside [0, T] is a ValueError.
    """
    levels = level_grid(T, delta).tolist()
    due = set()
    for w in times:
        if not 0.0 <= w <= T:
            raise ValueError(f"requested time {w} outside [0, {T}]")
        i = bisect.bisect_left(levels, w)  # levels[i - 1] < w <= levels[i]
        near = range(max(i - 1, 0), min(i + 1, len(levels)))
        due.add(min(near, key=lambda n: abs(levels[n] - w)))
    return frozenset(due)


class ErrorTracker:
    """Run observer that measures errors at selected times.

    Each requested time is measured at the level nearest to it in a run
    with step `delta` (see `due_steps`).
    """

    def __init__(self, problem, space: FESpace, times, delta: float):
        self.problem = problem
        self.space = space
        self.due = due_steps(times, problem.T, delta)
        self.records: list[ErrorRecord] = []

    def __call__(self, step_index: int, time: float, vectors) -> None:
        if step_index in self.due:
            self.records.append(measure(self.problem, self.space, time, vectors))


def fit_slope(points, axis: str = "", degree: int | None = None, equation: int | None = None) -> RateFit:
    """Ordinary least squares on (log abscissa, log error).  Fewer than
    three points, a nonpositive value or one abscissa for all points is a
    ValueError."""
    pts = [(float(a), float(e)) for a, e in points]
    if len(pts) < 3:
        raise ValueError(f"need at least three points to fit a slope, got {len(pts)}")
    if any(a <= 0.0 or e <= 0.0 for a, e in pts):
        raise ValueError("slope fitting needs positive abscissae and errors")
    if len({a for a, _ in pts}) == 1:
        raise ValueError("slope fitting needs at least two distinct abscissae")
    lx = np.log([a for a, _ in pts])
    ly = np.log([e for _, e in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=min(max(r2, 0.0), 1.0),
        axis=axis,
        degree=degree,
        equation=equation,
    )


def convergence_study(problem, degrees, mesh_sizes, deltas) -> StudyResult:
    """Refine along one axis (mesh or time step) and fit observed orders.

    Exactly one of mesh_sizes/deltas may hold more than one value; the
    other parameter is held fixed and must be fine enough that its error
    stays subdominant (an unreliable-fit flag, r^2 < 0.99, marks plateau
    contamination).  Runs that fail are recorded with NaN errors and
    excluded from the fits without aborting the study; the row of a run
    on no elements (nt = 0) has h = inf.  A problem without exact
    solutions, fewer than three levels, a level repeated on the refined
    axis, a repeated degree, or a delta that does not divide problem.T is a
    ValueError before the first run.
    """
    mesh_sizes = list(mesh_sizes)
    deltas = list(deltas)
    degrees = list(degrees)
    if len(mesh_sizes) > 1 and len(deltas) > 1:
        raise ValueError("vary either the mesh or the time step in one study, not both")
    if problem.exact is None:
        raise ValueError("the problem supplies no exact solutions to measure against")
    axis = "delta" if len(deltas) > 1 else "h"
    levels = deltas if axis == "delta" else mesh_sizes
    if len(levels) < 3 or len(set(levels)) < len(levels):
        raise ValueError(f"need at least three points to fit a slope, at distinct refinement levels; got {levels}")
    if len(set(degrees)) < len(degrees):
        raise ValueError(f"need distinct degrees, got {degrees}")
    for d in deltas:
        level_grid(problem.T, d)
    rows = []
    for k, nt, d in itertools.product(degrees, mesh_sizes, deltas):
        try:
            space = build_space(nt, k)
            final = run(problem, space, d).final
            record = measure(problem, space, final.time, final.current)
            errs, mxs = record.l2_moving, record.max_nodal
        except Exception as exc:  # noqa: BLE001  (reported per run)
            warnings.warn(f"run k={k} nt={nt} delta={d} failed: {exc}", stacklevel=2)
            errs = mxs = (float("nan"),) * problem.ne
        for i in range(problem.ne):
            rows.append(
                StudyRow(
                    axis=axis,
                    k=k,
                    nt=nt,
                    h=1.0 / nt if nt else math.inf,
                    delta=d,
                    equation=i,
                    l2_error=errs[i],
                    max_nodal_error=mxs[i],
                )
            )

    fits = []
    for k in degrees:
        for i in range(problem.ne):
            pts = [
                (r.h if axis == "h" else r.delta, r.l2_error)
                for r in rows
                if r.k == k and r.equation == i and math.isfinite(r.l2_error)
            ]
            if len(pts) < 3:
                warnings.warn(
                    f"too few successful runs to fit k={k} equation={i}", stacklevel=2
                )
                continue
            fits.append(fit_slope(pts, axis=axis, degree=k, equation=i))
    return StudyResult(rows=rows, fits=fits)


# Every float written to CSV: 17 significant digits round-trip binary64 exactly.
FLOAT_FORMAT = "%.17g"


def format_float(x) -> str:
    """One float as FLOAT_FORMAT writes it."""
    return FLOAT_FORMAT % float(x)


def write_rows(path, header, rows) -> None:
    """Write a CSV file: the header, then one line per row.

    Lines end in '\n' on every platform and float fields are written with
    format_float, so identical rows give identical bytes.
    """
    with open(path, "w", newline="") as fp:
        wr = csv.writer(fp, lineterminator="\n")
        wr.writerow(header)
        for row in rows:
            wr.writerow([format_float(v) if isinstance(v, float) else v for v in row])
