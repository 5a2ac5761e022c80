"""Time a whole step's ne solves on both of the step kernel's solve paths.

`StepKernel.solve_all` writes a step's ne bands into one (2k+1, ne, n + k - 1)
stack, each equation's n columns followed by the k - 1 padding columns of
an inert padding element, then solves their interior systems either one at
a time by LAPACK `dgbsv` on each equation's window, or all at once by
static condensation (the element-interior dofs of all ne (nt + 1) - 1
elements of the stack read flat, the padding elements among them,
eliminated together, then one tridiagonal solve per equation).  V^(n-1) is
an (ne, n) array, one row per equation, as a level's state holds it.
This script times `solve_all` on both paths for ne = 1, 2 and 8 equations,
degrees k = 1..6 and meshes of 32..4096 elements, on example2's motion at
t = 0.1 with dt = 0.005 and a distinct constant a_i per equation, and marks
the path the kernel's rule picks: condensation for k >= 2 and
ne nt >= CONDENSE_MIN_ELEMENTS.  Each figure is the best of 5 repeats, in
µs per step's ne solves (RHS products, bands and solves).  Rerun it to
check the threshold on another host.

    python3 demos/condensation_crossover.py
"""

import time

import numpy as np

from mbfem import ProblemSpec, build_space, example2
from mbfem.assembly import assemble_static
from mbfem.stepper import CONDENSE_MIN_ELEMENTS, StepKernel


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


def best_us(kernel, condense, p, v_prev, repeats=5):
    """Best of `repeats` timings of `solve_all`, in µs per call, with the
    kernel's path pinned by `condense`."""
    number = max(1, 40000 // v_prev.size)
    best = float("inf")
    for _ in range(repeats):
        kernel.condense = condense
        started = time.perf_counter()
        for _ in range(number):
            kernel.solve_all(p, (0.0,) * p.ne, v_prev, "the crossover demo")
        best = min(best, (time.perf_counter() - started) / number)
    return 1e6 * best


def cell(ne, nt, k, rng, repeats=5):
    """µs per step's ne solves on the dgbsv path and on the condensed path,
    for ne equations of nt degree-k elements and a random V^(n-1)."""
    p = problem(ne)
    space = build_space(nt, k)
    kernel = StepKernel(assemble_static(space), ne)
    kernel.begin_step(p, 0.1, 0.005)
    v_prev = rng.standard_normal((ne, space.n_dofs))
    v_prev[:, [0, -1]] = 0.0
    return best_us(kernel, False, p, v_prev, repeats), best_us(kernel, True, p, v_prev, repeats)


def main():
    rng = np.random.default_rng(0)
    sizes = (32, 64, 128, 256, 512, 1024, 2048, 4096)
    print(f"µs per step's ne solves, dgbsv / condensed; * marks the rule's choice (N = {CONDENSE_MIN_ELEMENTS})")
    for ne in (1, 2, 8):
        print(f"\nne = {ne}\nk  " + "".join(f"{nt:>16}" for nt in sizes))
        for k in range(1, 7):
            cells = []
            for nt in sizes:
                banded, condensed = cell(ne, nt, k, rng)
                pick = k >= 2 and ne * nt >= CONDENSE_MIN_ELEMENTS
                cells.append(f"{banded:.0f}{'' if pick else '*'} / {condensed:.0f}{'*' if pick else ''}")
            print(f"{k}  " + "".join(f"{c:>16}" for c in cells))


if __name__ == "__main__":
    main()
