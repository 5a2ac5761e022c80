"""Interleaved A/B timing of the step of two mbfem source trees, in one process.

    python3 demos/step_ab.py [REV] [--pairs N]

REV (default HEAD) is a git revision of this repository.  Its src/mbfem is
extracted with `git archive` into a temporary directory under the package
name `mbfem_base`; this works because mbfem imports its own modules only
relatively.  The other side is the `mbfem` on the import path, normally the
working tree.  The script then alternates whole `stepper.run` calls of both
trees, N pairs per case (default 9), with the tree that runs first
alternating from pair to pair, on five cases: example1 at
(nt, k) = (4, 2) and (32, 3), the 8-equation solve_coupled problem of
bench/workloads.py (seed 1, (128, 2)), example2 at (4096, 3), solve_large's
mesh, and example2 at (256, 6), which condenses at the top degree the tests
use.  A run is timed by an observer from level 1 to its last level, so the
figure is µs per `advance`, without set-up and bootstrap.  Each case prints
each side's median µs per step, the median of the per-pair ratios
new / base, the pairs the working tree won and whether the two trees wrote
byte-identical levels: the `tobytes()` of every level of one further,
untimed run of each side.

Running both trees in one process, alternately, cancels most of the drift of
a shared host's speed, so it separates effects of a few percent that
separate processes cannot.  It is for sizing a change only: a claimed gain
needs `bench/run.py` pairs (bench/README.md, "Bounds and steadiness").
"""

import argparse
import hashlib
import importlib
import io
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import replace

import mbfem

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import coupled_problem  # noqa: E402


def load_revision(rev: str, where: str):
    """The package src/mbfem of git revision `rev`, imported as mbfem_base."""
    archive = subprocess.run(["git", "archive", rev, "src/mbfem"], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(where, filter="data")
    (pathlib.Path(where) / "src" / "mbfem").rename(pathlib.Path(where) / "mbfem_base")
    sys.path.insert(0, where)
    return importlib.import_module("mbfem_base")


def cases(pkg):
    """(label, problem, nt, k, delta) of each case, built by `pkg`'s own code."""
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    ex1 = replace(pkg.example1(), T=0.25)
    coupled = replace(cli.parse_problem(coupled_problem(1)), T=0.2)
    return [
        ("example1 (4, 2)", ex1, 4, 2, 1 / 2000),
        ("example1 (32, 3)", ex1, 32, 3, 1 / 2000),
        ("solve_coupled (128, 2)", coupled, 128, 2, 0.001),
        ("example2 (4096, 3)", replace(pkg.example2(), T=0.2), 4096, 3, 0.005),
        ("example2 (256, 6)", replace(pkg.example2(), T=0.2), 256, 6, 0.005),
    ]


def us_per_step(pkg, problem, nt, k, delta) -> float:
    stamps = []
    pkg.run(problem, pkg.build_space(nt, k), delta, observers=[lambda n, t, v: stamps.append(time.perf_counter())])
    return 1e6 * (stamps[-1] - stamps[1]) / (len(stamps) - 2)


def level_digest(pkg, problem, nt, k, delta) -> bytes:
    """SHA-256 of the bytes of every level of one run, in order."""
    digest = hashlib.sha256()
    pkg.run(problem, pkg.build_space(nt, k), delta, observers=[lambda n, t, v: digest.update(v.tobytes())])
    return digest.digest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    parser.add_argument("--pairs", type=int, default=9)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as where:
        base = load_revision(args.rev, where)
        print(f"base: {args.rev} as mbfem_base; new: {pathlib.Path(mbfem.__file__).parent}")
        print(f"{'case':<24}{'base µs':>10}{'new µs':>10}{'new/base':>10}{'wins':>8}{'bytes':>11}")
        for (label, *new_case), (_, *base_case) in zip(cases(mbfem), cases(base)):
            times = {"base": [], "new": []}
            sides = [("base", base, base_case), ("new", mbfem, new_case)]
            for pair in range(args.pairs):
                for side, pkg, case in sides[:: 1 if pair % 2 else -1]:  # alternate which runs first
                    times[side].append(us_per_step(pkg, *case))
            ratios = [n / b for n, b in zip(times["new"], times["base"])]
            wins = sum(r < 1.0 for r in ratios)
            same = level_digest(base, *base_case) == level_digest(mbfem, *new_case)
            print(
                f"{label:<24}{statistics.median(times['base']):>10.1f}{statistics.median(times['new']):>10.1f}"
                f"{statistics.median(ratios):>10.3f}{wins:>5}/{args.pairs}{'identical' if same else 'DIFFERENT':>11}"
            )


if __name__ == "__main__":
    main()
