"""Step-size refinement study against a fine reference run, plus a
closed-form check on the linear path and the a priori stability quantities.

Halving the step shrinks the strongest available error surrogate, the max
H-norm distance at shared time nodes.  For the plain heat problem (flux graph
identically zero) the run is also compared with the separated-variables
solution of a boundary-compatible eigenmode datum.  Last, the three
quantities the a priori estimates bound are printed over a step sequence.
"""

import math

import numpy as np

from hvisolve import (
    Mesh1D,
    MeshNorms,
    RotheConfig,
    StudyProblem,
    clarke_subdifferential,
    convergence_study,
    potential_j2,
    project_initial,
    run,
    zero_flux_graph,
)


def main():
    mesh = Mesh1D.uniform(100)
    taus = [0.04, 0.02, 0.01]
    reference = 0.0025

    for name, graph in (("pure heat", zero_flux_graph()),
                        ("monotone boundary graph", clarke_subdifferential(potential_j2()))):
        problem = StudyProblem(mesh=mesh, graph=graph, initial=np.full(mesh.n, 2.0),
                               policy="min_boundary", horizon=1.0)
        table = convergence_study(problem, taus, reference)
        print("%s, reference tau = %g:" % (name, reference))
        print("  tau      err_CH        err_L2V       branches")
        for row in table.rows:
            print("  %-7g  %.6e  %.6e  %d" % (row.tau, row.err_CH, row.err_L2V, row.branch_count))

    # the one-mode closed form exp(-lam^2 t) sin(lam x), lam = pi/2
    lam = math.pi / 2.0
    tau = 0.005
    config = RotheConfig.from_step(tau, 1.0)
    tree = run(config, mesh, zero_flux_graph(), project_initial(mesh, lambda x: math.sin(lam * x)))
    assert max(tree.branch_counts()) == 1, "expected a unique discrete solution"
    states = tree.path_states(0)
    norms = MeshNorms(mesh)
    mode = np.sin(lam * mesh.nodes)
    err = max(
        norms.h(states[k] - math.exp(-lam * lam * k * tau) * mode)
        for k in range(1, config.num_steps + 1)
    )
    print("eigenmode datum sin(pi x/2), tau = %g:" % tau)
    print("  max H-norm error against the closed form: %.2e" % err)

    # the three quantities the a priori estimates bound independently of the step
    graph = clarke_subdifferential(potential_j2())
    print("stability quantities under step refinement (monotone boundary graph):")
    print("  tau        max_H      sum|du|_H^2  tau*sum|u|_V^2")
    for tau in (0.04, 0.02, 0.01, 0.005):
        tree = run(RotheConfig.from_step(tau, 1.0), mesh, graph, np.full(mesh.n, 2.0),
                   branch_policy="min_boundary")
        states = np.array(tree.path_states(0))
        print("  %-10g %-10.5f %-12.5f %-10.5f" % (
            tau, norms.h(states[1:]).max(), (norms.h(np.diff(states, axis=0)) ** 2).sum(),
            tau * norms.v_sq(states[1:]).sum()))


if __name__ == "__main__":
    main()
