"""Time a whole step's ne solves on both of the step kernel's solve paths.

`StepKernel.solve_all` writes a step's ne left-hand sides into one stack,
each equation's n columns followed by the k - 1 padding columns of an inert
padding element, then solves their interior systems either one at a time
by LAPACK `dgbsv` on each equation's window, or all at once by static
condensation (the element-interior dofs of all ne (nt + 1) - 1 elements of
the stack read flat, the padding elements among them, eliminated together,
then one tridiagonal solve per equation).  A kernel that may condense keeps
the stack as an element-entry store, one that may not as a band, so each
path is timed on the layout a kernel would use for it: dgbsv on a band
kernel and condensation on a store kernel, built with
`stepper.CONDENSE_MIN_ELEMENTS` raised past every mesh or lowered to 1 for
the cell.  Linear elements have no interior dofs and are never condensed.
`begin_step` sets each kernel up for the step that leaves a level, here
level 20 at dt = 0.005 (t = 0.1) with a random V^(n-1), an (ne, n) array
as a level's state holds it.  This script times `solve_all` on both paths
for ne = 1, 2 and 8 equations, degrees k = 1..6 and meshes of 32..4096
elements, on example2's motion with a distinct constant a_i per equation,
and marks the path the kernel's rule picks: condensation for k >= 2 and
ne nt >= CONDENSE_MIN_ELEMENTS.  Each figure is the best of 5 repeats, in
µs per step's ne solves (RHS products, bands and solves).  Rerun it to
check the threshold on another host.

    python3 demos/condensation_crossover.py
"""

import math
import time

import numpy as np

import mbfem.stepper as stepper
from mbfem import ProblemSpec, build_space, example2
from mbfem.assembly import assemble_static


def problem(ne):
    """ne copies of example2's first equation, equation i with a_i = 1 + i / ne."""
    base = example2()
    return ProblemSpec(
        ne=ne,
        diffusion=tuple((lambda *r, a=1.0 + i / ne: a) for i in range(ne)),
        forcing=base.forcing[:1] * ne,
        initial=base.initial[:1] * ne,
        motion=base.motion,
        T=base.T,
    )


def path_kernel(ops, ne, condense):
    """The kernel for ne equations on `ops` that takes the condensed path
    (a store kernel) or the dgbsv path (a band kernel), whatever the size
    rule would pick."""
    rule = stepper.CONDENSE_MIN_ELEMENTS
    stepper.CONDENSE_MIN_ELEMENTS = 1 if condense else math.inf
    try:
        return stepper.StepKernel(ops, ne)
    finally:
        stepper.CONDENSE_MIN_ELEMENTS = rule


def best_us(kernel, p, repeats=5):
    """Best of `repeats` timings of `solve_all`, in µs per call."""
    number = max(1, 40000 // kernel.loads.size)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(number):
            kernel.solve_all(p, (0.0,) * p.ne)
        best = min(best, (time.perf_counter() - started) / number)
    return 1e6 * best


def cell(ne, nt, k, rng, repeats=5):
    """µs per step's ne solves on the dgbsv path and on the condensed path
    (None for k = 1), for ne equations of nt degree-k elements and a random
    V^(n-1)."""
    p = problem(ne)
    space = build_space(nt, k)
    ops = assemble_static(space)
    v_prev = rng.standard_normal((ne, space.n_dofs))
    v_prev[:, [0, -1]] = 0.0
    state = stepper.SchemeState(t_index=20, delta=0.005, current=v_prev, previous=None)
    times = []
    for condense in (False, True)[: 2 if k >= 2 else 1]:
        kernel = path_kernel(ops, ne, condense)
        kernel.begin_step(p, state)
        assert kernel.condense == condense
        times.append(best_us(kernel, p, repeats))
    return times[0], times[1] if k >= 2 else None


def main():
    rng = np.random.default_rng(0)
    sizes = (32, 64, 128, 256, 512, 1024, 2048, 4096)
    rule = stepper.CONDENSE_MIN_ELEMENTS
    print(f"µs per step's ne solves, dgbsv / condensed; * marks the rule's choice (N = {rule})")
    for ne in (1, 2, 8):
        print(f"\nne = {ne}\nk  " + "".join(f"{nt:>16}" for nt in sizes))
        for k in range(1, 7):
            cells = []
            for nt in sizes:
                banded, condensed = cell(ne, nt, k, rng)
                pick = k >= 2 and ne * nt >= rule
                right = "-" if condensed is None else f"{condensed:.0f}{'*' if pick else ''}"
                cells.append(f"{banded:.0f}{'' if pick else '*'} / {right}")
            print(f"{k}  " + "".join(f"{c:>16}" for c in cells))


if __name__ == "__main__":
    main()
