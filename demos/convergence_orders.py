"""Measure observed convergence orders on the exact-solution benchmark.

Refining the mesh at a tiny fixed time step shows the spatial order
k+1; refining the time step on a fine mesh shows the second-order time
stepping.  Slopes come from least-squares fits of log error against
log h or log delta; the `reliable` flag (r^2 >= 0.99) marks fits free of
plateau contamination from the frozen parameter.

    python3 demos/convergence_orders.py

The same studies are available from the command line (`mbfem study`),
which also writes study.csv and rates.csv.
"""

from dataclasses import replace

from mbfem import convergence_study, example1

problem = replace(example1(), T=1.0)  # shorter horizon keeps the demo quick


def show(result) -> None:
    for fit in result.fits:
        tag = "" if fit.reliable else "   [unreliable: other term dominates]"
        print(
            f"  degree {fit.degree}, component {fit.equation + 1}: "
            f"slope {fit.slope:5.3f}  (r^2 {fit.r_squared:.5f}){tag}"
        )


print("spatial refinement, delta = 2e-4 frozen:")
spatial = convergence_study(
    problem, degrees=[1, 2, 3], mesh_sizes=[4, 8, 16, 32], deltas=[2e-4]
)
show(spatial)

# the temporal study needs the full horizon: over a short one the error
# at the coarsest steps is still dominated by the bootstrap transient
print("\ntime-step refinement, 32 cubic elements frozen:")
temporal = convergence_study(
    example1(), degrees=[3], mesh_sizes=[32],
    deltas=[1 / 20, 1 / 40, 1 / 80, 1 / 160],
)
show(temporal)

print("\nexpected: spatial slopes k+1, temporal slopes 2")
