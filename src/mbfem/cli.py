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
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .analysis import ErrorTracker, convergence_study, format_float, take_due, write_rows
from .discretization import build_space, natural_cubic_spline
from .geometry import BoundaryMotion, fixed_interval
from .problems import ProblemSpec, example1, example2, validate
from .stepper import run

__all__ = ["ConfigError", "RunConfig", "parse_config", "main"]


class ConfigError(Exception):
    """Malformed or inconsistent configuration."""


_RUN_KEYS = {
    "problem",
    "nt",
    "k",
    "delta",
    "T",
    "q",
    "snapshot_time",
    "out",
    "emit_moving",
    "require_expanding",
}

_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    problem_name: str
    nt: tuple[int, ...]
    k: tuple[int, ...]
    delta: tuple[float, ...]
    q: int | None
    snapshot_times: tuple[float, ...]
    outdir: str
    emit_moving: bool
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
    if not all(math.isfinite(d) and d > 0.0 for d in delta):
        raise ConfigError(f"delta must be positive and finite, got {delta}")
    q = _one(table, "q", int) if "q" in table else None  # None: the space builder's k+2
    if q is not None and q < 1:
        raise ConfigError(f"q must be >= 1, got {q}")

    snapshot_times = _many(table, "snapshot_time", float)
    if any(not 0.0 <= s <= t_final for s in snapshot_times):
        raise ConfigError(f"snapshot times must lie in [0, {t_final}]")

    return RunConfig(
        problem=problem,
        problem_name=name,
        nt=nt,
        k=k,
        delta=delta,
        q=q,
        snapshot_times=snapshot_times,
        outdir=_one(table, "out", str, default="."),
        emit_moving=_one(table, "emit_moving", bool, default=True),
        require_expanding=_one(table, "require_expanding", bool, default=True),
    )


# ---------------------------------------------------------------------------
# User-defined problems.  A deliberately small catalog of parameterized
# families; anything richer should use the library API directly.

_PROBLEM_KEYS_FIXED = {"ne", "T", "name", "motion", "a", "b"}
_PROBLEM_KEYS_RATIONAL = {"ne", "T", "name", "motion", "alpha_num", "alpha_den", "beta_num", "beta_den"}


def _rational_fn(num_coeffs, den_coeffs):
    num = np.polynomial.Polynomial(num_coeffs)
    den = np.polynomial.Polynomial(den_coeffs)
    dnum = num.deriv()
    dden = den.deriv()

    def f(t):
        return num(t) / den(t)

    def fp(t):
        d = den(t)
        return (dnum(t) * d - num(t) * dden(t)) / (d * d)

    return f, fp


def _poles(den_coeffs, t_final: float) -> np.ndarray:
    """Real roots of a denominator polynomial in [0, t_final], ascending.

    Rounding splits a double root into a complex pair a few 1e-9 off the
    real axis, so a root whose imaginary part is below 1e-6 of its size
    counts as real: near such a pair the denominator comes within about
    1e-12 of zero, a pole for every practical purpose.
    """
    with np.errstate(all="ignore"):
        roots = np.polynomial.Polynomial(den_coeffs).roots()
    real = roots.real[np.abs(roots.imag) <= 1e-6 * np.maximum(1.0, np.abs(roots))]
    tol = 1e-12 * max(1.0, t_final)
    return np.sort(real[(real >= -tol) & (real <= t_final + tol)])


def _motion_from_table(table, t_final: float) -> BoundaryMotion:
    family = _one(table, "motion", str, default="fixed")
    if family == "fixed":
        a = _one(table, "a", float, default=0.0)
        b = _one(table, "b", float, default=1.0)
        if b <= a:
            raise ConfigError(f"fixed interval needs a < b, got [{a}, {b}]")
        return fixed_interval(a, b, T=t_final)
    if family == "rational":
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
            poles = _poles(coeffs[f"{boundary}_den"], t_final)
            if poles.size:
                raise ConfigError(
                    f"the denominator of {boundary} ({boundary}_den) has a root at t = {poles[0]:.6g} in [0, {t_final}]"
                )
        alpha, alpha_p = _rational_fn(coeffs["alpha_num"], coeffs["alpha_den"])
        beta, beta_p = _rational_fn(coeffs["beta_num"], coeffs["beta_den"])
        motion = BoundaryMotion(alpha=alpha, beta=beta, alpha_prime=alpha_p, beta_prime=beta_p, T=t_final)
        # an all-zero denominator has no roots to find; its width is NaN,
        # which gamma reports without numpy's warnings
        with np.errstate(all="ignore"):
            for t in np.linspace(0.0, t_final, 101):
                motion.gamma(float(t))  # raises if the width closes
        return motion
    raise ConfigError(f"unknown motion family {family!r} (fixed, rational)")


def _split_family(spec: str):
    family, _, rest = spec.partition(":")
    return family, rest


def _floats(text: str, key: str):
    try:
        return tuple(float(p) for p in text.split(",") if p)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot read numbers from {text!r}") from None


def _diffusion_from_spec(spec: str, ne: int, key: str):
    """Diffusion families, each with bounds derivable from coefficients.

    affine_inverse:c0,c1,..,c_ne  ->  c0 + sum_j c_j / (1 + r_j^2)
    expsq:j                       ->  exp(-r_j^2)
    const:c                       ->  c
    """
    family, rest = _split_family(spec)
    if family == "affine_inverse":
        c = _floats(rest, key)
        if len(c) != ne + 1:
            raise ConfigError(f"key {key!r}: affine_inverse needs {ne + 1} coefficients, got {len(c)}")
        if not all(math.isfinite(v) for v in c):
            raise ConfigError(f"key {key!r}: affine_inverse coefficients must be finite, got {c}")
        c0, weights = c[0], c[1:]
        lo = c0 + sum(min(0.0, w) for w in weights)
        hi = c0 + sum(max(0.0, w) for w in weights)
        if lo <= 0.0:
            raise ConfigError(f"key {key!r}: diffusion can reach {lo} <= 0")

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
            raise ConfigError(f"key {key!r}: expsq needs an equation index") from None
        if not 1 <= j <= ne:
            raise ConfigError(f"key {key!r}: expsq index {j} outside 1..{ne}")
        return (lambda *r, _j=j - 1: math.exp(-r[_j] * r[_j])), (0.0, 1.0)
    if family == "const":
        c = _floats(rest, key)
        if len(c) != 1 or not (math.isfinite(c[0]) and c[0] > 0.0):
            raise ConfigError(f"key {key!r}: const needs one positive finite value")
        return (lambda *r, _c=c[0]: _c), (c[0], c[0])
    raise ConfigError(f"key {key!r}: unknown diffusion family {family!r}")


def _xpart(spec: str, key: str):
    family, rest = _split_family(spec)
    if family == "poly":
        p = np.polynomial.Polynomial(_floats(rest, key))
        return lambda x: p(x)
    if family == "gaussx":
        return lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    raise ConfigError(f"key {key!r}: unknown space factor {family!r}")


def _tpart(spec: str, key: str):
    family, rest = _split_family(spec)
    if family == "tpow":
        p = _floats(rest, key)
        if len(p) != 1:
            raise ConfigError(f"key {key!r}: tpow needs one exponent")
        return lambda t: (1.0 + t) ** p[0]
    if family == "texp":
        c = _floats(rest, key)
        if len(c) != 1:
            raise ConfigError(f"key {key!r}: texp needs one rate")
        return lambda t: math.exp(c[0] * t)
    if family == "const":
        c = _floats(rest, key)
        if len(c) != 1:
            raise ConfigError(f"key {key!r}: const needs one value")
        return lambda t: c[0]
    raise ConfigError(f"key {key!r}: unknown time factor {family!r}")


def _forcing_from_specs(specs, key: str):
    """Sum of separable terms, each written xfactor;tfactor."""
    terms = []
    for spec in specs:
        xs, sep, ts = spec.partition(";")
        if not sep:
            raise ConfigError(f"key {key!r}: term {spec!r} needs the form xfactor;tfactor")
        terms.append((_xpart(xs, key), _tpart(ts, key)))

    def f(x, t):
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape)
        for fx, ft in terms:
            try:
                ftv = ft(t)
            except OverflowError:  # math.exp and float ** raise where numpy gives inf
                ftv = math.inf
            total = total + fx(x) * ftv
        return total if total.shape else float(total)

    return f


def _initial_from_spec(spec: str, key: str):
    family, rest = _split_family(spec)
    if family == "poly":
        p = np.polynomial.Polynomial(_floats(rest, key))
        return lambda x: p(x)
    if family == "spline":
        knots = []
        for pair in rest.split(";"):
            xy = _floats(pair, key)
            if len(xy) != 2:
                raise ConfigError(f"key {key!r}: knot {pair!r} is not x,value")
            knots.append(xy)
        return natural_cubic_spline(knots)
    raise ConfigError(f"key {key!r}: unknown initial-data family {family!r}")


def parse_problem(text: str) -> ProblemSpec:
    """Parse a user problem file (see README for the catalog)."""
    pairs = _tokenize(text)
    probe = {key for key, _, _ in pairs}
    ne_values = [v for key, v, _ in pairs if key == "ne"]
    if len(ne_values) != 1:
        raise ConfigError("problem file needs exactly one ne=")
    ne = _convert("ne", ne_values[0], int)
    if not 1 <= ne <= 16:
        raise ConfigError(f"ne must be in 1..16, got {ne}")

    per_equation = set()
    for i in range(1, ne + 1):
        per_equation |= {f"diffusion{i}", f"forcing{i}", f"initial{i}"}
    base = _PROBLEM_KEYS_RATIONAL if "alpha_num" in probe or probe.intersection({"alpha_den", "beta_num", "beta_den"}) else _PROBLEM_KEYS_FIXED
    table = _collect(pairs, base | per_equation, "problem")

    t_final = _one(table, "T", float)
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise ConfigError(f"T must be positive and finite, got {t_final}")
    motion = _motion_from_table(table, t_final)

    diffusion = []
    bounds = []
    initial = []
    forcing = []
    for i in range(1, ne + 1):
        a, b = _diffusion_from_spec(_one(table, f"diffusion{i}", str), ne, f"diffusion{i}")
        diffusion.append(a)
        bounds.append(b)
        initial.append(_initial_from_spec(_one(table, f"initial{i}", str), f"initial{i}"))
        forcing.append(_forcing_from_specs(_many(table, f"forcing{i}", str), f"forcing{i}"))

    return ProblemSpec(
        ne=ne,
        diffusion=tuple(diffusion),
        forcing=tuple(forcing),
        initial=tuple(initial),
        motion=motion,
        T=t_final,
        exact=None,
        diffusion_bounds=tuple(bounds),
        name=_one(table, "name", str, default="user"),
    )


# ---------------------------------------------------------------------------
# Subcommands.


class SnapshotRecorder:
    """Observer that collects (time, equation, y, x, value) rows."""

    def __init__(self, problem, space, times, tol: float, emit_moving: bool = True):
        self.problem = problem
        self.space = space
        self.pending = sorted(times)
        self.tol = tol
        self.emit_moving = emit_moving
        self.rows = []

    def __call__(self, step_index: int, time: float, vectors) -> None:
        if not take_due(self.pending, time, self.tol):
            return
        y = self.space.dof_positions
        x = self.problem.motion.to_moving(y, time) if self.emit_moving else y
        for i in range(self.problem.ne):
            for j in range(self.space.n_dofs):
                self.rows.append((time, i, y[j], x[j], vectors[i][j]))


def _write_snapshots(path, rows) -> None:
    write_rows(path, ["time", "equation", "y", "x", "value"], rows)


def _load_config(args) -> RunConfig:
    try:
        with open(args.config) as fp:
            text = fp.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    config = parse_config(text, base_dir=os.path.dirname(os.path.abspath(args.config)))
    if args.out is not None:
        config = replace(config, outdir=args.out)
    return config


def _require_single(config: RunConfig, command: str) -> tuple[int, int, float]:
    if len(config.nt) != 1 or len(config.k) != 1 or len(config.delta) != 1:
        raise ConfigError(f"{command} needs exactly one nt, k, and delta")
    return config.nt[0], config.k[0], config.delta[0]


def cmd_solve(args) -> int:
    config = _load_config(args)
    nt, k, delta = _require_single(config, "solve")
    problem = config.problem
    space = build_space(nt, k, config.q)

    times = set(config.snapshot_times) | {problem.T}
    recorder = SnapshotRecorder(problem, space, times, tol=delta / 2, emit_moving=config.emit_moving)
    observers = [recorder]
    tracker = None
    if problem.exact is not None:
        tracker = ErrorTracker(problem, space, times=sorted(times), tol=delta / 2)
        observers.append(tracker)

    try:
        result = run(problem, space, delta, observers=observers)
    except (RuntimeError, ValueError) as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1

    os.makedirs(config.outdir, exist_ok=True)
    snap_path = os.path.join(config.outdir, "snapshots.csv")
    _write_snapshots(snap_path, recorder.rows)
    written = [snap_path]
    if tracker is not None:
        err_path = os.path.join(config.outdir, "errors.csv")
        write_rows(
            err_path,
            ["time", "equation", "l2_error", "max_nodal_error"],
            [
                (r.time, i, l2, mx)
                for r in tracker.records
                for i, (l2, mx) in enumerate(zip(r.l2_moving, r.max_nodal))
            ],
        )
        written.append(err_path)

    print(
        f"{problem.name or config.problem_name}: {result.n_steps} steps to T={format_float(problem.T)} "
        f"({space.n_dofs} dofs, degree {k}) in {result.runtime:.2f}s"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_study(args) -> int:
    config = _load_config(args)
    problem = config.problem
    result = convergence_study(
        problem,
        degrees=config.k,
        mesh_sizes=config.nt,
        deltas=config.delta,
        q=config.q,
    )

    os.makedirs(config.outdir, exist_ok=True)
    study_path = os.path.join(config.outdir, "study.csv")
    rates_path = os.path.join(config.outdir, "rates.csv")
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


def main(argv=None) -> int:
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
        p.add_argument("--out", default=None, help="output directory (overrides out= in the config)")
        if name == "validate":
            p.add_argument("--seed", type=int, default=0, help="sampling seed of the diffusion-bounds check")
        p.set_defaults(handler=handler)
    args = parser.parse_args(argv)
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
