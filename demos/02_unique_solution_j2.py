"""Solve the heat problem with the monotone-jump boundary potential.

Preset settings: dx = dt = 0.01, u0 = 2, T = 1.  The
backward-Euler stepper tries every graph segment per step and still finds a
single solution every time: the monotone jump cannot split the trajectory.
"""

import numpy as np

from hvisolve import (
    Mesh1D,
    RotheConfig,
    clarke_subdifferential,
    interpolant_norms,
    potential_j2,
    run,
)


def main():
    mesh = Mesh1D.uniform(100)
    config = RotheConfig.from_step(0.01, 1.0)
    graph = clarke_subdifferential(potential_j2())
    tree = run(config, mesh, graph, np.full(mesh.n, 2.0), branch_policy="all")

    counts = tree.branch_counts()
    print("steps: %d, solutions per step: min %d / max %d"
          % (config.num_steps, min(counts), max(counts)))
    assert max(counts) == 1, "expected a unique discrete solution"

    boundary = tree.boundary_values()
    print("boundary value u(1, t):")
    for k in (0, 10, 25, 50, 75, 100):
        print("  t = %4.2f  u(1) = %8.5f" % (k * config.tau, boundary[k]))
    print("the boundary trajectory decays from 2 through the graph's active")
    print("region (1, 2), where the flux 2 - u(1) drains heat, and then")
    print("relaxes toward 0 under the Dirichlet end alone")

    report = interpolant_norms(mesh, tree.path_states(0), config.tau)
    print("norms of the step-function trajectory:")
    print("  L2(0,T;V)             = %.6f" % report.l2V)
    print("  Linf(0,T;H)           = %.6f" % report.linfH)
    print("  C([0,T];H)            = %.6f" % report.cH)
    print("  L2(0,T;V*) of du/dt   = %.6f" % report.l2Vstar_of_derivative)
    print("  quadratic variation in V* = %.6f" % report.bv2_Vstar)
    envelope = config.horizon * report.l2Vstar_of_derivative**2
    print("  variation envelope T*|du|^2 = %.6f (variation stays below it)" % envelope)


if __name__ == "__main__":
    main()
