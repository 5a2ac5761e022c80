#!/usr/bin/env python3
"""mbfem benchmark: the solver driven from one process, as its users drive it.

    python3 bench/run.py --workload study_h --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; mbfem is imported from ./src and
nothing is installed.  The operation of the workload (see workloads.py)
repeats until the next one would end past --seconds, always at least once.

--trace 0 reports the end-to-end metrics; the only instrumentation is one
perf_counter pair around each time step and the instant each run's set-up
ends.  After each operation, set-up-only operations (stopped where
stepper.initialize returns) add set-up samples.  Every time is scaled to a
reference speed measured around it (see REF_S).  --trace 1 runs pairs of
one uninstrumented operation and one that traces every layer, and reports
the per-layer metrics (raw times), the tracing overhead (median over pairs
of traced minus untraced wall time) and the share of traced wall time that
no layer span accounts for.

Every operation's output is checked (checks.py).  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass

import numpy as np

from tracing import ADVANCE, BOOTSTRAP, LAYERS, Patches, SetupDone, StepTimer, Tracer
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# Every traced operation runs inside one of these spans.  A root's self time
# is time that no layer span below it accounts for.
ROOTS = ("cli.main", "analysis.convergence_study")
# The traced run fails its check when more than this share of the traced
# wall time is outside every non-root span.
UNACCOUNTED_LIMIT = 0.02
# After each untraced operation, set-up-only operations run for this share
# of its wall time (at least one), so setup_s is a median of many set-ups
# spread over the whole run.
SETUP_SHARE = 0.1
# The speed of a shared host moves between levels within seconds, by far
# more than the bounds.  So every end-to-end time is scaled to a fixed
# reference speed: the time between two runs of the reference kernel is
# multiplied by REF_S / (the mean time of those two runs).  The kernel runs
# before and after each operation and set-up, and between the steps of an
# operation every StepTimer.REF_EVERY seconds.  REF_S is about the kernel's
# time on a 2-vCPU Xeon at its usual speed, so scaled times read close to
# raw ones there.
REF_S = 0.0075


def load_mbfem():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mbfem", "__init__.py")):
        sys.exit(f"bench: no mbfem sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    mbfem = importlib.import_module("mbfem")
    for layer in LAYERS:
        importlib.import_module(f"mbfem.{layer}")
    if not mbfem.__file__.startswith(src):
        sys.exit(f"bench: imported mbfem from {mbfem.__file__}, not from {src}")
    return mbfem


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as fp:
        libs = sorted({line.split()[-1] for line in fp if "openblas" in line and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads[os.path.basename(path)] = getter()
                break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


@dataclass
class Op:
    start: float           # perf_counter
    wall: float            # seconds, excluding the check
    setup: float           # seconds; NaN when not timed (in a traced run)
    problems: list[str]    # failed checks; empty when correct
    scaled: float = float("nan")  # wall at the reference speed, see REF_S


def reference() -> float:
    """Seconds of a fixed kernel that does not use mbfem: a pure-Python loop
    and small numpy operations, like a time step's mix."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i
    a = np.ones(64)
    for _ in range(600):
        a = a * 1.0000001 + 0.0
    return time.perf_counter() - t0


def operate(workload, timer: StepTimer | None, wrap_problem=None) -> Op:
    start = time.perf_counter()
    if timer is not None:
        timer.begin(start)
    try:
        output = workload.operate(wrap_problem)
        wall = time.perf_counter() - start
        problems = workload.check(output)
    except Exception as exc:  # noqa: BLE001  (a raising operation is a failed one)
        wall = time.perf_counter() - start
        problems = [f"raised {exc!r}"]
    return Op(start, wall, timer.setup_seconds() if timer is not None else float("nan"), problems)


def set_up(workload, timer: StepTimer) -> float:
    """Seconds of one set-up-only operation, stopped where initialize returns."""
    timer.begin(time.perf_counter())
    timer.setup_only = True
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # convergence_study warns of every stopped run
            workload.operate()
    except SetupDone:
        pass
    finally:
        timer.setup_only = False
    return timer.setup_seconds()


def measure(workload, deadline: float, mbfem) -> tuple[list[Op], list[float], StepTimer]:
    """Untraced operations, each followed by set-up-only operations, until
    the next would end after the deadline.  Returns the set-up samples, and
    the step samples in the timer, scaled to the reference speed."""
    patches, timer = Patches(), StepTimer()
    timer.install(patches, mbfem)
    timer.reference = reference
    samples = timer.samples

    def mark():
        """(index of the next step sample, start clock, seconds) of a reference run."""
        return len(samples), time.perf_counter(), reference()

    ops, setups = [], []
    after = mark()
    try:
        while not ops or time.perf_counter() + (1 + SETUP_SHARE) * statistics.median(o.wall for o in ops) <= deadline:
            before, timer.refs = after, []
            op = operate(workload, timer)
            after = mark()
            marks = [before, *timer.refs, after]
            segments = list(zip(marks, marks[1:]))
            scales = [2 * REF_S / (a[2] + b[2]) for a, b in segments]
            starts = [op.start] + [t + ref for _, t, ref in timer.refs]
            ends = [t for _, t, _ in timer.refs] + [op.start + op.wall]
            op.scaled = sum((end - start) * scale for start, end, scale in zip(starts, ends, scales))
            for (a, b), scale in zip(segments, scales):
                samples[a[0]:b[0]] = [t * scale for t in samples[a[0]:b[0]]]
            ops.append(op)
            setups.append(op.setup * scales[0])  # the first segment holds the (first run's) set-up
            until = time.perf_counter() + SETUP_SHARE * op.wall
            while True:
                before = after
                setup = set_up(workload, timer)
                after = mark()
                setups.append(setup * 2 * REF_S / (before[2] + after[2]))
                if time.perf_counter() >= until:
                    break
    finally:
        patches.undo()
    return ops, setups, timer


def trace(workload, deadline: float, mbfem):
    """Pairs of one untraced and one traced operation until the deadline;
    every other pair runs the traced one first."""
    tracer = Tracer()
    untraced, traced = [], []
    while True:
        for is_traced in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not is_traced:
                untraced.append(operate(workload, None))
                continue
            patches = Patches()
            try:
                tracer.install(patches, mbfem)
                faults = len(tracer.step_faults)
                traced.append(operate(workload, None, tracer.wrap_problem))
                traced[-1].problems += tracer.step_faults[faults:]
            finally:
                patches.undo()
        pair = statistics.median(o.wall for o in untraced) + statistics.median(o.wall for o in traced)
        if time.perf_counter() + pair > deadline:
            return untraced, traced, tracer


def end_to_end(ops: list[Op], setups: list[float], timer: StepTimer) -> dict:
    failed = sum(1 for o in ops if o.problems)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(o.scaled for o in ops), "s"),
        "step_us_p90": (float(np.percentile(timer.samples, 90)) * 1e6, "us"),
        "dof_steps_per_s": (timer.work / sum(timer.samples), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((len(ops) - failed) / len(ops), "ratio"),
    }


def unaccounted_share(tracer: Tracer, traced: list[Op]) -> float:
    """Share of the traced wall time outside every non-root span."""
    wall_ns = sum(o.wall for o in traced) * 1e9
    accounted_ns = sum(s[2] for (_, name), s in tracer.stats.items() if name not in ROOTS)
    return (wall_ns - accounted_ns) / wall_ns


def per_layer(tracer: Tracer, traced: list[Op], untraced: list[Op]) -> dict:
    stats = tracer.stats

    def total(name, field, phase=None):
        """Calls (0), inclusive ns (1) or self ns (2) of spans matching name."""
        return sum(
            s[field]
            for (ph, span), s in stats.items()
            if (phase is None or ph == phase) and (span == name or span.startswith(name + "."))
        )

    def per(value, count):
        return value / count if count else 0.0

    steps = total("stepper.advance", 0, ADVANCE)
    runs = total("stepper.run", 0)
    studies = total("analysis.convergence_study", 0)
    solves = total("cli.main", 0)
    observed = total("cli.SnapshotRecorder.__call__", 0)

    def step_us(name, field):
        return per(total(name, field, ADVANCE), steps) / 1e3

    return {
        "geometry.calls_per_step": (per(total("geometry", 0, ADVANCE), steps), "count"),
        "geometry.self_us": (step_us("geometry", 2), "us"),
        "discretization.setup_ms": (
            per(total("discretization.build_space", 1) + total("discretization.interpolate", 1), runs) / 1e6,
            "ms",
        ),
        "assembly.static_ms": (per(total("assembly.assemble_static", 1), runs) / 1e6, "ms"),
        "assembly.load_self_us": (step_us("assembly.assemble_load", 2), "us"),
        "assembly.load_calls_per_step": (per(total("assembly.assemble_load", 0, ADVANCE), steps), "count"),
        "assembly.solve_us": (step_us("assembly.BandedMatrix.solve", 1), "us"),
        "assembly.solve_calls_per_step": (per(total("assembly.BandedMatrix.solve", 0, ADVANCE), steps), "count"),
        "assembly.matvec_us": (step_us("assembly.BandedMatrix.matvec", 1), "us"),
        "assembly.nonlocal_us": (step_us("assembly.nonlocal_value", 2), "us"),
        "assembly.diffusion_us": (step_us("assembly.diffusion_scalar", 2), "us"),
        "assembly.bootstrap_solve_calls": (per(total("assembly.BandedMatrix.solve", 0, BOOTSTRAP), runs), "count"),
        "assembly.solve_flops_per_step": (per(tracer.flops[ADVANCE], steps), "flop-computed"),
        "problems.forcing_us": (step_us("problems.forcing", 1), "us"),
        "problems.diffusion_us": (step_us("problems.diffusion", 1), "us"),
        "stepper.self_us": (step_us("stepper.advance", 2), "us"),
        "stepper.bootstrap_ms": (per(total("stepper.bootstrap_first_step", 1, BOOTSTRAP), runs) / 1e6, "ms"),
        "analysis.measure_ms": (per(total("analysis.measure", 1), studies) / 1e6, "ms"),
        "analysis.fit_ms": (per(total("analysis.fit_slope", 1), studies) / 1e6, "ms"),
        "cli.parse_ms": (per(total("cli.parse_config", 1), solves) / 1e6, "ms"),
        "cli.observer_us": (per(total("cli.SnapshotRecorder.__call__", 1), observed) / 1e3, "us"),
        "cli.snapshot_hit_ratio": (per(tracer.observer_hits, observed), "ratio"),
        "cli.write_ms": (per(total("cli._write_snapshots", 1), solves) / 1e6, "ms"),
        "cli.rows_written": (per(tracer.rows_written, solves), "count"),
        "trace.overhead_s": (statistics.median(t.wall - u.wall for u, t in zip(untraced, traced)), "s"),
        "trace.unaccounted_share": (unaccounted_share(tracer, traced), "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="generates the solve_coupled problem")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mbfem = load_mbfem()
    env = environment()
    workdir_parent = os.path.join(BENCH, ".work")
    os.makedirs(workdir_parent, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir_parent) as workdir:
        workload = WORKLOADS[args.workload](mbfem, args.seed, workdir, ROOT)
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            untraced, traced, tracer = trace(workload, deadline, mbfem)
            ops = [op for pair in zip(untraced, traced) for op in pair]
            metrics = per_layer(tracer, traced, untraced)
        else:
            ops, setups, timer = measure(workload, deadline, mbfem)
            metrics = end_to_end(ops, setups, timer)

    problems = []
    for n, o in enumerate(ops):
        problems += [f"operation {n}: {p}" for p in o.problems[:5]]
        if len(o.problems) > 5:
            problems.append(f"operation {n}: {len(o.problems) - 5} more")
    if args.trace:
        share = metrics["trace.unaccounted_share"][0]
        if not abs(share) <= UNACCOUNTED_LIMIT:
            problems.append(f"layer self-times leave {share:.2%} of traced wall time unaccounted")
    failed = sum(1 for o in ops if o.problems)

    print(f"environment {json.dumps(env)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} operations, walls "
          + ", ".join(f"{o.wall:.3f}" for o in ops) + " s")
    if not args.trace:
        print("  at the reference speed " + ", ".join(f"{o.scaled:.3f}" for o in ops) + " s")
        print(f"  {len(setups)} set-ups, median {statistics.median(setups):.6f} s, "
              f"quartiles {', '.join(f'{q:.6f}' for q in statistics.quantiles(setups, n=4))} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6g} {unit}")
    if not args.trace:
        p50 = float(np.percentile(timer.samples, 50)) * 1e6
        print(f"  {'step_us_p50':32s} {p50:16.6g} us (not gated, see bench/README.md)")
    print(f"  {'fail_ratio':32s} {failed / len(ops):16.6g} failed/attempted")
    for p in problems:
        print(f"CHECK FAILED {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
