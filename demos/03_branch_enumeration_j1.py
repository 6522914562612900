"""Enumerate every discrete solution for the nonmonotone boundary potential.

With the downward jump at r = 1 the per-step inclusion can have up to three
solutions once the boundary value decays into the jump region, so the
trajectory splits into a branch tree.  The extreme branches (per-step max and
min boundary value) bracket all the others.
"""

import numpy as np

from hvisolve import Mesh1D, RotheConfig, clarke_subdifferential, potential_j1, run


def main():
    mesh = Mesh1D.uniform(100)
    config = RotheConfig.from_step(0.01, 1.0, max_branches=64)
    graph = clarke_subdifferential(potential_j1())

    tree = run(config, mesh, graph, np.full(mesh.n, 2.0), branch_policy="all")
    counts = tree.branch_counts()
    first_split = next(k for k, c in enumerate(counts) if c > 1)
    print("full enumeration: max %d simultaneous branches, first split at t = %.2f"
          % (max(counts), first_split * config.tau))
    if tree.truncated:
        print("(tree truncated at %d branches)" % config.max_branches)
    print("branches per step around the split:")
    for k in range(first_split - 2, min(first_split + 10, len(counts))):
        print("  t = %4.2f  branches = %d" % (k * config.tau, counts[k]))

    lo_tree = run(config, mesh, graph, np.full(mesh.n, 2.0), branch_policy="min_boundary")
    hi_tree = run(config, mesh, graph, np.full(mesh.n, 2.0), branch_policy="max_boundary")
    lo = lo_tree.boundary_values()
    hi = hi_tree.boundary_values()
    spread = hi - lo
    print("extreme-branch boundary values:")
    print("  t      min u(1)  max u(1)  spread")
    for k in range(0, config.num_steps + 1, 10):
        print("  %4.2f  %8.5f  %8.5f  %8.5f" % (k * config.tau, lo[k], hi[k], spread[k]))
    print("max spread: %.5f at t = %.2f"
          % (spread.max(), np.argmax(spread) * config.tau))
    print("the min-branch boundary sticks at the jump (u(1) = 1) while the")
    print("max-branch slides past it, so the two solutions separate for good")


if __name__ == "__main__":
    main()
