"""The benchmark's workloads: one operation each, and its correctness check.

study_h       convergence_study on example1 (criteria 1-2's study), 8 runs
solve_large   `mbfem solve` on example2 at nt=4096 k=3, 200 steps
solve_coupled `mbfem solve` on a generated 8-equation catalog problem

Each workload is built once per benchmark run, then `operate` is called
repeatedly; it returns an output that `check` turns into a list
of problems (empty when correct).  Only solve_coupled depends on the seed:
study_h is fixed by the acceptance criteria and solve_large by the tracked
example2 fixture it is checked against.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import replace

import checks

STUDY_DEGREES = (2, 3)
STUDY_MESHES = (4, 8, 16, 32)
STUDY_DELTA = 1 / 2000

LARGE_CONFIG = "problem=example2 nt=4096 k=3 delta=0.005 snapshot_time=0.2,0.4,0.6,0.8\n"
LARGE_ROWS = 5 * 2 * (4096 * 3 + 1)  # (4 snapshot times + T) x ne x n_dofs

COUPLED_NE = 8
COUPLED_NT, COUPLED_K, COUPLED_DELTA = 128, 2, 0.001
COUPLED_TIMES = tuple(i / 20 for i in range(1, 21))  # the last is T = 1
COUPLED_ROWS = len(COUPLED_TIMES) * COUPLED_NE * (COUPLED_NT * COUPLED_K + 1)


def coupled_problem(seed: int) -> str:
    """An 8-equation catalog problem file drawn from the seed.

    Expanding rational motion alpha = -a t/(1+t), beta = 1 + b t/(1+t).
    Every diffusion coefficient reads all 8 nonlocal values with weights of
    magnitude at most 0.1, so its lower bound c0 - 0.8 stays above 0.2 and
    `validate` passes for every seed.  Forcings have two separable terms;
    initial data c1 x(1-x) + c2 x^2(1-x) vanish at both initial boundaries.
    """
    rng = random.Random(seed)

    def num(lo, hi):
        return repr(round(rng.uniform(lo, hi), 6))

    lines = [
        f"# generated by bench/workloads.py from seed {seed}",
        f"ne={COUPLED_NE} T=1 name=coupled8-seed{seed} motion=rational",
        f"alpha_num=0,-{num(0.2, 1.0)} alpha_den=1,1",
        f"beta_num=1,{num(1.2, 2.0)} beta_den=1,1",
    ]
    for i in range(1, COUPLED_NE + 1):
        weights = [rng.choice((-1, 1)) * rng.uniform(0.02, 0.1) for _ in range(COUPLED_NE)]
        c1, c2 = float(num(0.5, 2.0)), float(num(-0.5, 0.5))
        lines += [
            f"diffusion{i}=affine_inverse:{num(1.0, 2.0)}," + ",".join(repr(round(w, 6)) for w in weights),
            f"forcing{i}=poly:{num(-1, 1)},{num(-1, 1)};tpow:-{num(1, 3)}",
            f"forcing{i}=gaussx;texp:-{num(0.5, 2)}",
            f"initial{i}=poly:0,{c1!r},{c2 - c1!r},{-c2!r}",
        ]
    return "\n".join(lines) + "\n"


def _quiet(fn, *args):
    """Call fn with the CLI's console output captured; returns (code, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = fn(*args)
    return code, out.getvalue()


class StudyH:
    name = "study_h"

    def __init__(self, mbfem, seed: int, workdir: str, root: str):
        self.mbfem = mbfem
        self.problem = replace(mbfem.problems.example1(), T=1.0)

    def operate(self, wrap_problem=None):
        problem = wrap_problem(self.problem) if wrap_problem else self.problem
        return self.mbfem.analysis.convergence_study(
            problem, degrees=list(STUDY_DEGREES), mesh_sizes=list(STUDY_MESHES), deltas=[STUDY_DELTA]
        )

    def check(self, result) -> list[str]:
        problems = [f"run k={r.k} nt={r.nt} failed" for r in result.rows if not math.isfinite(r.l2_error)]
        fits = [(f.degree, f.equation, f.slope, f.r_squared) for f in result.fits]
        return problems + checks.check_study_fits(fits, STUDY_DEGREES, self.problem.ne)


class _Solve:
    """`mbfem solve` through mbfem.cli.main, in this process."""

    config_text = ""
    expected_rows = 0

    def __init__(self, mbfem, seed: int, workdir: str, root: str):
        self.mbfem = mbfem
        self.config = os.path.join(workdir, f"{self.name}.cfg")
        self.outdir = os.path.join(workdir, f"{self.name}-out")
        with open(self.config, "w") as fp:
            fp.write(self.config_text)

    def operate(self, wrap_problem=None):
        # the traced run reaches the ProblemSpec through cli.parse_config
        return _quiet(self.mbfem.cli.main, ["solve", "--config", self.config, "--out", self.outdir])

    def check(self, output) -> list[str]:
        code, text = output
        if code != 0:
            return [f"mbfem solve exited {code}: {text.strip()}"]
        snap = checks.read_snapshots(os.path.join(self.outdir, "snapshots.csv"))
        return checks.check_finite(snap) + checks.check_row_count(snap, self.expected_rows) + self.check_values(snap)

    def check_values(self, snap) -> list[str]:
        return []


class SolveLarge(_Solve):
    name = "solve_large"
    config_text = LARGE_CONFIG
    expected_rows = LARGE_ROWS

    def __init__(self, mbfem, seed: int, workdir: str, root: str):
        super().__init__(mbfem, seed, workdir, root)
        self.fixture = checks.read_snapshots(os.path.join(root, "tests", "fixtures", "example2_snapshots.csv"))

    def check_values(self, snap) -> list[str]:
        return checks.check_fixture(snap, self.fixture) + checks.check_decay(snap)


class SolveCoupled(_Solve):
    name = "solve_coupled"
    expected_rows = COUPLED_ROWS

    def __init__(self, mbfem, seed: int, workdir: str, root: str):
        with open(os.path.join(workdir, "coupled.prob"), "w") as fp:
            fp.write(coupled_problem(seed))
        times = ",".join(repr(t) for t in COUPLED_TIMES)
        self.config_text = (
            f"problem=coupled.prob nt={COUPLED_NT} k={COUPLED_K} delta={COUPLED_DELTA} snapshot_time={times}\n"
        )
        super().__init__(mbfem, seed, workdir, root)
        code, text = _quiet(mbfem.cli.main, ["validate", "--config", self.config])
        self.validate_problems = [] if code == 0 else [f"mbfem validate exited {code}: {text.strip()}"]

    def check_values(self, snap) -> list[str]:
        return self.validate_problems


WORKLOADS = {w.name: w for w in (StudyH, SolveLarge, SolveCoupled)}
