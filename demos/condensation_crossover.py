"""Time one equation's step on both of the step kernel's solve paths.

`StepKernel` solves an equation's interior system either by LAPACK `dgbsv`
on the band or by static condensation (eliminate the element-interior
dofs, then one tridiagonal solve on the vertices).  This script times
`StepKernel.solve` on both paths over degrees k = 1..6 and meshes of
64..4096 elements, on example2 at t = 0.1 with dt = 0.005, and marks
the path the kernel's rule picks: condensation for k >= 2 on at least
CONDENSE_MIN_ELEMENTS elements.  Each figure is the best of 5 repeats, in
µs per equation step (RHS product, band, solve).  Rerun it to check the
threshold on another host.

    python3 demos/condensation_crossover.py
"""

import time

import numpy as np

from mbfem import build_space, example2
from mbfem.assembly import assemble_static
from mbfem.stepper import CONDENSE_MIN_ELEMENTS, StepKernel

problem = example2()
rng = np.random.default_rng(0)


def best_us(kernel, condense, v_prev, load, repeats=5):
    kernel.condense = condense
    number = max(1, 20000 // len(v_prev))
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(number):
            kernel.solve(1.0, v_prev, load, "the crossover demo")
        best = min(best, (time.perf_counter() - started) / number)
    return 1e6 * best


sizes = (64, 128, 256, 512, 1024, 2048, 4096)
print(f"µs per equation step, dgbsv / condensed; * marks the rule's choice (N = {CONDENSE_MIN_ELEMENTS})\n")
print("k  " + "".join(f"{nt:>18}" for nt in sizes))
for k in range(1, 7):
    cells = []
    for nt in sizes:
        space = build_space(nt, k)
        kernel = StepKernel(assemble_static(space))
        kernel.condense_work = np.empty((2, k, nt))
        kernel.begin_step(problem, 0.1, 0.005)
        v_prev = rng.standard_normal(space.n_dofs)
        v_prev[[0, -1]] = 0.0
        load = rng.standard_normal(space.n_dofs)
        banded, condensed = best_us(kernel, False, v_prev, load), best_us(kernel, True, v_prev, load)
        pick = k >= 2 and nt >= CONDENSE_MIN_ELEMENTS
        cells.append(f"{banded:.0f}{'' if pick else '*'} / {condensed:.0f}{'*' if pick else ''}")
    print(f"{k}  " + "".join(f"{c:>18}" for c in cells))
