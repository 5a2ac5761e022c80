"""Command-line front end.

Subcommands: `solve` (snapshots and, when exact solutions exist, error
tables), `study` (convergence study along one refinement axis), and
`validate` (hypothesis report for a problem).  Run configurations are
flat key=value files; the same format describes user-defined problems
from a fixed catalog of parameterized families, so no expressions are
ever parsed or evaluated.  All CSV output is deterministic byte-for-byte
for identical configs.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .analysis import FLOAT_FORMAT, convergence_study, due_steps, format_float, measure, write_rows
from .discretization import build_space, natural_cubic_spline
from .geometry import BoundaryMotion, fixed_interval, time_tolerance
from .problems import ProblemSpec, _horner, _shared_rows, example1, example2, validate
from .stepper import level_grid, run

__all__ = ["ConfigError", "RunConfig", "parse_config", "main"]


class ConfigError(Exception):
    """Malformed or inconsistent configuration."""


_RUN_KEYS = {
    "problem",
    "nt",
    "k",
    "delta",
    "T",
    "snapshot_time",
    "require_expanding",
}

_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    nt: tuple[int, ...]
    k: tuple[int, ...]
    delta: tuple[float, ...]
    snapshot_times: tuple[float, ...]
    require_expanding: bool


def _tokenize(text: str):
    """key=value pairs with line numbers; '#' starts a comment."""
    pairs = []
    for ln, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        for tok in body.split():
            key, sep, value = tok.partition("=")
            if not sep or not key or not value:
                raise ConfigError(f"line {ln}: expected key=value, got {tok!r}")
            pairs.append((key, value, ln))
    return pairs


def _collect(pairs, allowed, what: str):
    """Ordered key -> list of raw values, one per key occurrence."""
    table: dict[str, list[str]] = {}
    for key, value, ln in pairs:
        if key not in allowed:
            raise ConfigError(f"line {ln}: unknown {what} key {key!r}")
        table.setdefault(key, []).append(value)
    return table


def _one(table, key, convert, default=None):
    values = table.get(key)
    if not values:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    if len(values) > 1:
        raise ConfigError(f"key {key!r} given {len(values)} times, expected once")
    return _convert(key, values[0], convert)


def _many(table, key, convert, default=()):
    """Numeric values additionally split on commas (nt=4,8,16); string
    values stay whole because catalog specs embed commas, so list-valued
    string keys repeat the key instead."""
    values = table.get(key)
    if not values:
        return tuple(default)
    if convert is not str:
        values = [p for v in values for p in v.split(",") if p]
    return tuple(_convert(key, v, convert) for v in values)


def _convert(key, value, convert):
    try:
        if convert is bool:
            return _BOOL[value.lower()]
        return convert(value)
    except (ValueError, KeyError):
        raise ConfigError(f"key {key!r}: cannot read {value!r}") from None


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse a run configuration into a fully validated RunConfig.

    `problem` is either a built-in name (example1, example2) or the path,
    relative to base_dir, of a problem file in the catalog format.
    Repeatable keys (nt, k, delta, snapshot_time) accumulate, so a study
    config lists its refinement levels directly.
    """
    table = _collect(_tokenize(text), _RUN_KEYS, "run")
    name = _one(table, "problem", str)
    if name == "example1":
        problem = example1()
    elif name == "example2":
        problem = example2()
    else:
        path = os.path.join(base_dir, name)
        try:
            with open(path) as fp:
                problem_text = fp.read()
        except OSError as exc:
            raise ConfigError(f"cannot read problem file {name!r}: {exc}") from None
        problem = parse_problem(problem_text)

    t_final = _one(table, "T", float, default=problem.T)
    if not 0.0 < t_final <= problem.motion.T:
        raise ConfigError(
            f"T={t_final} outside the problem's time domain (0, {problem.motion.T}]"
        )
    if t_final != problem.T:
        problem = replace(problem, T=t_final)

    nt = _many(table, "nt", int)
    k = _many(table, "k", int)
    delta = _many(table, "delta", float)
    if not nt or not k or not delta:
        raise ConfigError("nt, k, and delta are required")
    if any(n < 1 for n in nt):
        raise ConfigError(f"nt must be >= 1, got {nt}")
    if any(d < 1 for d in k):
        raise ConfigError(f"k must be >= 1, got {k}")
    for d in delta:
        try:
            level_grid(t_final, d)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    snapshot_times = _many(table, "snapshot_time", float)
    if any(not 0.0 <= s <= t_final for s in snapshot_times):
        raise ConfigError(f"snapshot times must lie in [0, {t_final}]")

    return RunConfig(
        problem=problem,
        nt=nt,
        k=k,
        delta=delta,
        snapshot_times=snapshot_times,
        require_expanding=_one(table, "require_expanding", bool, default=True),
    )


# ---------------------------------------------------------------------------
# User-defined problems.  A deliberately small catalog of parameterized
# families; anything richer should use the library API directly.

_PROBLEM_KEYS = {"ne", "T", "name", "motion"}
# Each motion family's own keys; another family's keys are unknown keys.
_MOTION_KEYS = {"fixed": {"a", "b"}, "rational": {"alpha_num", "alpha_den", "beta_num", "beta_den"}}


def _polynomial(coeffs):
    """The catalog's `poly:` callable: `_horner` on whole arrays."""
    return lambda x: _horner(coeffs, x)


def _divide(a: float, b: float) -> float:
    """a / b, with numpy's nan or signed inf where b is zero and Python
    floats raise."""
    try:
        return a / b
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(a) / b)


def _rational_fn(num, den):
    """num/den and its derivative as functions of a float time, evaluated
    in Python floats with the arithmetic of the `Polynomial` quotient."""
    dnum, dden = (np.polynomial.polynomial.polyder(c).tolist() for c in (num, den))

    def f(t):
        return _divide(_horner(num, t), _horner(den, t))

    def fp(t):
        d = _horner(den, t)
        return _divide(_horner(dnum, t) * d - _horner(num, t) * _horner(dden, t), d * d)

    return f, fp


def _poles(den_coeffs, t_final: float) -> np.ndarray:
    """Zeros of a denominator polynomial in [0, t_final], ascending.

    Rounding splits a root of multiplicity m into m roots about eps^(1/m)
    apart, most of them complex, so a root is judged by value, not by its
    imaginary part: it counts when its real part r lies in [0, t_final]
    and |den(r)| <= 1e-12 sum |c_j| max(1, t_final)^j, which is zero for
    every practical purpose at the scale of den's terms on [0, t_final].
    """
    with np.errstate(all="ignore"):
        roots = np.polynomial.Polynomial(den_coeffs).roots()
        tol = time_tolerance(t_final)
        real = roots.real[(roots.real >= -tol) & (roots.real <= t_final + tol)]
        scale = 1e-12 * np.abs(den_coeffs) @ max(1.0, t_final) ** np.arange(len(den_coeffs))
        return np.sort(real[np.abs(_horner(den_coeffs, real)) <= scale])


def _motion_from_table(table, t_final: float) -> BoundaryMotion:
    """The fixed or rational motion; parse_problem has rejected other families."""
    family = _one(table, "motion", str, default="fixed")
    if family == "fixed":
        a = _one(table, "a", float, default=0.0)
        b = _one(table, "b", float, default=1.0)
        try:
            return fixed_interval(a, b, T=t_final)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    coeffs = {
        key: _many(table, key, float, default=default)
        for key, default in (("alpha_num", ()), ("alpha_den", (1.0,)), ("beta_num", ()), ("beta_den", (1.0,)))
    }
    if not coeffs["alpha_num"] or not coeffs["beta_num"]:
        raise ConfigError("rational motion needs alpha_num and beta_num coefficients")
    for key, c in coeffs.items():
        if not all(math.isfinite(v) for v in c):
            raise ConfigError(f"key {key!r}: coefficients must be finite, got {c}")
    for boundary in ("alpha", "beta"):
        if not any(coeffs[f"{boundary}_den"]):
            raise ConfigError(
                f"the denominator of {boundary} ({boundary}_den) is zero for every t, "
                f"so the interval width gamma(t) = nan is not positive and finite"
            )
        poles = _poles(coeffs[f"{boundary}_den"], t_final)
        if poles.size:
            raise ConfigError(
                f"the denominator of {boundary} ({boundary}_den) has a root at t = {poles[0]:.6g} in [0, {t_final}]"
            )
    alpha, alpha_p = _rational_fn(coeffs["alpha_num"], coeffs["alpha_den"])
    beta, beta_p = _rational_fn(coeffs["beta_num"], coeffs["beta_den"])
    motion = BoundaryMotion(alpha=alpha, beta=beta, alpha_prime=alpha_p, beta_prime=beta_p, T=t_final)
    for t in np.linspace(0.0, t_final, 101):
        motion.gamma(float(t))  # raises if the width closes
    return motion


def _floats(text: str):
    try:
        return tuple(float(p) for p in text.split(",") if p)
    except ValueError:
        raise ConfigError(f"cannot read numbers from {text!r}") from None


def _coefficients(text: str):
    """The coefficients of a `poly:` value, at least one."""
    coeffs = _floats(text)
    if not coeffs:
        raise ValueError("Coefficient array is empty")  # numpy's words
    return coeffs


def _diffusion_from_spec(spec: str, ne: int):
    """Diffusion families, each with bounds derivable from coefficients.

    affine_inverse:c0,c1,..,c_ne  ->  c0 + sum_j c_j / (1 + r_j^2)
    expsq:j                       ->  exp(-r_j^2)
    const:c                       ->  c
    """
    family, _, rest = spec.partition(":")
    if family == "affine_inverse":
        c = _floats(rest)
        if len(c) != ne + 1:
            raise ConfigError(f"affine_inverse needs {ne + 1} coefficients, got {len(c)}")
        if not all(math.isfinite(v) for v in c):
            raise ConfigError(f"affine_inverse coefficients must be finite, got {c}")
        c0, weights = c[0], c[1:]
        lo = c0 + sum(min(0.0, w) for w in weights)
        hi = c0 + sum(max(0.0, w) for w in weights)
        if lo <= 0.0:
            raise ConfigError(f"diffusion can reach {lo} <= 0")

        def a(*r, _c0=c0, _w=weights):
            value = _c0
            for w, rj in zip(_w, r):
                value += w / (1.0 + rj * rj)
            return value

        return a, (lo, hi)
    if family == "expsq":
        try:
            j = int(rest)
        except ValueError:
            raise ConfigError("expsq needs an equation index") from None
        if not 1 <= j <= ne:
            raise ConfigError(f"expsq index {j} outside 1..{ne}")
        return (lambda *r, _j=j - 1: math.exp(-r[_j] * r[_j])), (0.0, 1.0)
    if family == "const":
        c = _floats(rest)
        if len(c) != 1 or not (math.isfinite(c[0]) and c[0] > 0.0):
            raise ConfigError("const needs one positive finite value")
        return (lambda *r, _c=c[0]: _c), (c[0], c[0])
    raise ConfigError(f"unknown diffusion family {family!r}")


def _xpart(spec: str):
    """A space factor as (family, coefficients): poly's, or gaussx's ()."""
    family, _, rest = spec.partition(":")
    if family == "poly":
        return family, _coefficients(rest)
    if family == "gaussx":
        if rest:
            raise ConfigError(f"gaussx takes no arguments, got {rest!r}")
        return family, ()
    raise ConfigError(f"unknown space factor {family!r}")


def _tpart(spec: str):
    family, _, rest = spec.partition(":")
    if family == "tpow":
        p = _floats(rest)
        if len(p) != 1:
            raise ConfigError("tpow needs one exponent")
        return lambda t: (1.0 + t) ** p[0]
    if family == "texp":
        c = _floats(rest)
        if len(c) != 1:
            raise ConfigError("texp needs one rate")
        return lambda t: math.exp(c[0] * t)
    if family == "const":
        c = _floats(rest)
        if len(c) != 1:
            raise ConfigError("const needs one value")
        return lambda t: c[0]
    raise ConfigError(f"unknown time factor {family!r}")


def _forcing_terms(specs):
    """An equation's forcing terms, each written xfactor;tfactor, as
    (space family, poly coefficients, time factor) triples."""
    terms = []
    for spec in specs:
        xs, sep, ts = spec.partition(";")
        if not sep:
            raise ConfigError(f"term {spec!r} needs the form xfactor;tfactor")
        terms.append((*_xpart(xs), _tpart(ts)))
    return terms


def _time_value(ft, t):
    try:
        return ft(t)
    except OverflowError:  # math.exp and float ** raise where numpy gives inf
        return math.inf


def _catalog_forcing(equations):
    """The ne forcings of a problem file from each equation's terms: forcing
    i is the sum, in term order from 0.0, of its terms' space factor times
    time factor.  The ne forcings are the rows of one evaluation per
    (t, points) (`_shared_rows`).  Equations with the same sequence of
    space-factor families are one group, evaluated as an (n_g, *x.shape)
    batch: each poly position is one pass of `_horner`'s recurrence over
    the group's coefficients, padded with zero high-degree coefficients
    (which keeps every bit), and each time factor is an (n_g,) array.  One
    exp(-x^2) serves every gaussx term, and an equation without terms is a
    row of +0.0."""
    groups = {}
    for i, terms in enumerate(equations):
        groups.setdefault(tuple(family for family, _, _ in terms), []).append(i)
    plan = []
    for families, members in groups.items():
        positions = []
        for j, family in enumerate(families):
            coeffs = [equations[i][j][1] for i in members]
            width = max(map(len, coeffs))
            stack = np.array([c + (0.0,) * (width - len(c)) for c in coeffs]).T  # (L, n_g)
            positions.append((family, stack, [equations[i][j][2] for i in members]))
        plan.append((members, positions))
    gaussian = any("gaussx" in families for families in groups)

    def evaluate(x, t):
        column = (-1,) + (1,) * x.ndim  # an (n_g,) array against the batch
        gauss = np.exp(-x**2) if gaussian else None
        rows = [None] * len(equations)
        for members, positions in plan:
            total = np.zeros((len(members), *x.shape))
            for family, stack, time_factors in positions:
                scale = np.array([_time_value(ft, t) for ft in time_factors]).reshape(column)
                if family == "gaussx":
                    total += gauss * scale
                    continue
                r = _horner(stack.reshape(stack.shape[:1] + column), np.broadcast_to(x, total.shape))
                r *= scale
                total += r
            for k, i in enumerate(members):
                rows[i] = total[k, ...]
        return rows

    return _shared_rows(evaluate, len(equations))


def _initial_from_spec(spec: str):
    family, _, rest = spec.partition(":")
    if family == "poly":
        return _polynomial(_coefficients(rest))
    if family == "spline":
        knots = []
        for pair in rest.split(";"):
            xy = _floats(pair)
            if len(xy) != 2:
                raise ConfigError(f"knot {pair!r} is not x,value")
            knots.append(xy)
        return natural_cubic_spline(knots)
    raise ConfigError(f"unknown initial-data family {family!r}")


def parse_problem(text: str) -> ProblemSpec:
    """Parse a user problem file (see README for the catalog)."""
    pairs = _tokenize(text)
    ne_values = [v for key, v, _ in pairs if key == "ne"]
    if len(ne_values) != 1:
        raise ConfigError("problem file needs exactly one ne=")
    ne = _convert("ne", ne_values[0], int)
    if not 1 <= ne <= 16:
        raise ConfigError(f"ne must be in 1..16, got {ne}")

    per_equation = set()
    for i in range(1, ne + 1):
        per_equation |= {f"diffusion{i}", f"forcing{i}", f"initial{i}"}
    families = [v for key, v, _ in pairs if key == "motion"]  # a repeat fails in _one
    family = families[0] if families else "fixed"
    if family not in _MOTION_KEYS:
        raise ConfigError(f"unknown motion family {family!r} (fixed, rational)")
    table = _collect(pairs, _PROBLEM_KEYS | _MOTION_KEYS[family] | per_equation, f"motion={family} problem")

    t_final = _one(table, "T", float)
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise ConfigError(f"T must be positive and finite, got {t_final}")
    motion = _motion_from_table(table, t_final)

    diffusion = []
    bounds = []
    initial = []
    terms = []

    def build(key, builder, *args):
        """builder(*args), its errors named by the key of the value it builds."""
        try:
            return builder(*args)
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None

    for i in range(1, ne + 1):
        a, b = build(f"diffusion{i}", _diffusion_from_spec, _one(table, f"diffusion{i}", str), ne)
        diffusion.append(a)
        bounds.append(b)
        initial.append(build(f"initial{i}", _initial_from_spec, _one(table, f"initial{i}", str)))
        terms.append(build(f"forcing{i}", _forcing_terms, _many(table, f"forcing{i}", str)))

    return ProblemSpec(
        ne=ne,
        diffusion=tuple(diffusion),
        forcing=_catalog_forcing(terms),
        initial=tuple(initial),
        motion=motion,
        T=t_final,
        exact=None,
        diffusion_bounds=tuple(bounds),
        name=_one(table, "name", str, default="user"),
    )


# ---------------------------------------------------------------------------
# Subcommands.


class SnapshotRows:
    """Recorded snapshots as array blocks, one per snapshot hit.

    A block is (time, x, vectors): the level's time, the dof positions in
    the moving domain, and the ne value vectors, kept by reference.  len()
    is the number of CSV rows the blocks make, one per (time, equation,
    dof).
    """

    def __init__(self, y):
        self.y = y
        self.blocks = []

    def append(self, time: float, x, vectors) -> None:
        self.blocks.append((time, x, vectors))

    def __len__(self) -> int:
        return len(self.y) * sum(len(vectors) for _, _, vectors in self.blocks)


class SnapshotRecorder:
    """Observer that keeps the levels at the requested times in `rows`,
    each time snapped to a level of a run with step `delta` (`due_steps`)."""

    def __init__(self, problem, space, times, delta: float):
        self.problem = problem
        self.due = due_steps(times, problem.T, delta)
        self.rows = SnapshotRows(space.dof_positions)

    def __call__(self, step_index: int, time: float, vectors) -> None:
        if step_index in self.due:
            self.rows.append(time, self.problem.motion.to_moving(self.rows.y, time), vectors)


def _format_column(values) -> list[str]:
    return [FLOAT_FORMAT % v for v in values.tolist()]


def _write_snapshots(path, rows: SnapshotRows) -> None:
    """Write snapshots.csv: one (time, equation, y, x, value) line per row.

    The bytes are those write_rows gives for the same rows.  Each column is
    formatted once (y once per file, x once per time) and each (time,
    equation) block is written as one string: a template holding the
    block's fixed fields, filled with the value vector in one `%` (the
    fixed fields are formatted numbers, so they hold no '%').
    """
    ys = _format_column(rows.y)
    with open(path, "w", newline="") as fp:
        fp.write("time,equation,y,x,value\n")
        for time, x, vectors in rows.blocks:
            fields = [f"{a},{b},{FLOAT_FORMAT}" for a, b in zip(ys, _format_column(x))]
            t = format_float(time)
            for i, v in enumerate(vectors):
                lead = f"{t},{i},"
                fp.write((lead + ("\n" + lead).join(fields) + "\n") % tuple(v.tolist()))


def _load_config(args) -> RunConfig:
    try:
        with open(args.config) as fp:
            text = fp.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(args.config)))


def _require_single(config: RunConfig, command: str) -> tuple[int, int, float]:
    if len(config.nt) != 1 or len(config.k) != 1 or len(config.delta) != 1:
        raise ConfigError(f"{command} needs exactly one nt, k, and delta")
    return config.nt[0], config.k[0], config.delta[0]


def _make_out_dir(path: str) -> None:
    """Create the output directory before any work, so a bad --out costs no run."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path!r}: {exc.strerror}") from None


def cmd_solve(args) -> int:
    config = _load_config(args)
    nt, k, delta = _require_single(config, "solve")
    _make_out_dir(args.out)
    problem = config.problem
    space = build_space(nt, k)

    recorder = SnapshotRecorder(problem, space, set(config.snapshot_times) | {problem.T}, delta)
    try:
        result = run(problem, space, delta, observers=[recorder])
        # errors.csv measures the levels snapshots.csv holds
        records = None if problem.exact is None else [
            measure(problem, space, t, vectors) for t, _, vectors in recorder.rows.blocks
        ]
    except (RuntimeError, ValueError) as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1

    snap_path = os.path.join(args.out, "snapshots.csv")
    _write_snapshots(snap_path, recorder.rows)
    written = [snap_path]
    if records is not None:
        err_path = os.path.join(args.out, "errors.csv")
        write_rows(
            err_path,
            ["time", "equation", "l2_error", "max_nodal_error"],
            [
                (r.time, i, l2, mx)
                for r in records
                for i, (l2, mx) in enumerate(zip(r.l2_moving, r.max_nodal))
            ],
        )
        written.append(err_path)

    print(
        f"{problem.name}: {result.n_steps} steps to T={format_float(result.final.time)} "
        f"({space.n_dofs} dofs, degree {k}) in {result.runtime:.2f}s"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_study(args) -> int:
    config = _load_config(args)
    _make_out_dir(args.out)
    problem = config.problem
    result = convergence_study(
        problem,
        degrees=config.k,
        mesh_sizes=config.nt,
        deltas=config.delta,
    )

    study_path = os.path.join(args.out, "study.csv")
    rates_path = os.path.join(args.out, "rates.csv")
    write_rows(
        study_path,
        ["axis", "k", "h", "delta", "equation", "l2_error", "max_nodal_error"],
        [(r.axis, r.k, r.h, r.delta, r.equation, r.l2_error, r.max_nodal_error) for r in result.rows],
    )
    write_rows(
        rates_path,
        ["axis", "k", "equation", "slope", "intercept", "r_squared", "reliable"],
        [(f.axis, f.degree, f.equation, f.slope, f.intercept, f.r_squared, int(f.reliable)) for f in result.fits],
    )

    for fit in result.fits:
        flag = "" if fit.reliable else "  [unreliable fit]"
        print(
            f"axis={fit.axis} k={fit.degree} equation={fit.equation} "
            f"slope={fit.slope:.4f} r_squared={fit.r_squared:.6f}{flag}"
        )
    print(f"wrote {study_path}")
    print(f"wrote {rates_path}")
    failed = sum(1 for r in result.rows if not math.isfinite(r.l2_error))
    if failed:
        print(f"{failed} study rows failed", file=sys.stderr)
        return 1
    return 0


def cmd_validate(args) -> int:
    config = _load_config(args)
    report = validate(
        config.problem,
        seed=args.seed,
        require_expanding=config.require_expanding,
    )
    print(report)
    print(f"overall: {report.status.upper()}")
    return 0 if report.passed else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    about a millisecond, and `parse_args` does not change it."""
    parser = argparse.ArgumentParser(
        prog="mbfem",
        description="Finite-element solver for nonlocal reaction-diffusion systems on moving intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, blurb in (
        ("solve", cmd_solve, "run one configuration and write snapshots.csv (and errors.csv when exact solutions exist)"),
        ("study", cmd_study, "run a convergence study and write study.csv and rates.csv"),
        ("validate", cmd_validate, "check the problem against the scheme's hypotheses"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="path to a key=value run configuration")
        if name == "validate":
            p.add_argument("--seed", type=int, default=0, help="sampling seed of the diffusion-bounds check")
        else:
            p.add_argument("--out", default=".", help="output directory (default: the working directory)")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # precondition violations from the library (e.g. too few refinement
        # levels to fit a slope) are user errors at this boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
