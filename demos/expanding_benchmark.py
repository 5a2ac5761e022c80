"""Solve the two-equation benchmark with a known exact solution.

The interval expands from (0, 1) to (-3/4, 5/2) over t in [0, 3]; the
diffusion coefficients of the two components feed on each other's total
mass.  Because the exact pair is known, the solver's error can be
measured directly: this script integrates with cubic elements and prints
the measured errors at a few times, all far below the solution scale.

    python3 demos/expanding_benchmark.py
"""

from mbfem import ErrorTracker, build_space, example1, nonlocal_value, run
from mbfem.assembly import assemble_static

problem = example1()
space = build_space(16, 3)
delta = 0.01

tracker = ErrorTracker(problem, space, times=[0.5, 1.0, 2.0, 3.0], delta=delta)
result = run(problem, space, delta, observers=[tracker])
print(f"{result.n_steps} steps, {space.n_dofs} dofs, {result.runtime:.2f}s\n")

print("  t     interval                L2 err u1   L2 err u2   max nodal")
for rec in tracker.records:
    a = problem.motion.alpha(rec.time)
    b = problem.motion.beta(rec.time)
    worst = max(rec.max_nodal)
    print(
        f"  {rec.time:3.1f}   ({a:+.4f}, {b:+.4f})   "
        f"{rec.l2_moving[0]:.3e}   {rec.l2_moving[1]:.3e}   {worst:.3e}"
    )

# the nonlocal values the diffusion coefficients saw at the end
weights = assemble_static(space).nonlocal_weights
finals = [
    nonlocal_value(weights, v, problem.motion.gamma(problem.T)) for v in result.final.current
]
print(f"\nfinal masses: {finals[0]:.6f}, {finals[1]:.6f}")
print(f"diffusion coefficients there: a1={problem.diffusion[0](*finals):.6f}, "
      f"a2={problem.diffusion[1](*finals):.6f}")
