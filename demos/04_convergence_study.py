"""Step-size refinement study against a fine reference run, plus a
closed-form check on the linear path.

Halving the step shrinks the strongest available error surrogate, the max
H-norm distance at shared time nodes.  For the plain heat problem (flux graph
identically zero) the run is also compared with the separated-variables
series, using a boundary-compatible eigenmode datum.
"""

import math

import numpy as np

from hvisolve import (
    Mesh1D,
    MeshNorms,
    RotheConfig,
    StudyProblem,
    apriori_bound_suite,
    clarke_subdifferential,
    convergence_study,
    heat_series_solution,
    potential_j2,
    run,
    zero_flux_graph,
)


def main():
    mesh = Mesh1D.uniform(100)
    taus = [0.04, 0.02, 0.01]
    reference = 0.0025

    for name, graph in (("pure heat", zero_flux_graph()),
                        ("monotone boundary graph", clarke_subdifferential(potential_j2()))):
        problem = StudyProblem(mesh=mesh, graph=graph, u0=lambda x: 2.0,
                               policy="first", horizon=1.0)
        table = convergence_study(problem, taus, reference)
        print("%s, reference tau = %g:" % (name, reference))
        print("  tau      err_CH        err_L2V       branches")
        for row in table.rows:
            print("  %-7g  %.6e  %.6e  %d" % (row.tau, row.err_CH, row.err_L2V, row.branch_count))

    lam = math.pi / 2.0
    tau = 0.005
    config = RotheConfig.from_step(tau, 1.0)
    tree = run(config, mesh, zero_flux_graph(), lambda x: math.sin(lam * x))
    states = tree.chain_states()
    norms = MeshNorms(mesh)
    err = max(
        norms.h(states[k] - heat_series_solution(mesh.nodes, k * tau, [1.0]))
        for k in range(1, config.num_steps + 1)
    )
    print("eigenmode datum sin(pi x/2), tau = %g:" % tau)
    print("  max H-norm error against the closed form: %.2e" % err)

    # step-independent boundedness of the stability quantities
    graph = clarke_subdifferential(potential_j2())
    trees = [
        run(RotheConfig.from_step(t, 1.0), mesh, graph, lambda x: 2.0,
            branch_policy="min_boundary")
        for t in (0.04, 0.02, 0.01, 0.005)
    ]
    print("stability quantities under step refinement (monotone boundary graph):")
    for line in apriori_bound_suite(trees).lines():
        print("  " + line)


if __name__ == "__main__":
    main()
