import numpy as np
import pytest

from hvisolve import (
    Mesh1D,
    MeshNorms,
    PiecewiseQuadraticPotential,
    RotheConfig,
    assemble_mass,
    assemble_stiffness,
    clarke_subdifferential,
    clement_average,
    potential_j1,
    potential_j2,
    project_initial,
    rothe_step_all,
    run,
    zero_flux_graph,
)
from hvisolve import rothe
from oracles import (
    greedy_merge_indices,
    interpolant_gap,
    random_potential,
    schur_scan_solutions,
)


def test_config_validation():
    with pytest.raises(ValueError):
        RotheConfig(tau=0.3, num_steps=3, horizon=1.0)
    with pytest.raises(ValueError):
        RotheConfig.from_step(0.3, 1.0)
    cfg = RotheConfig.from_step(0.01, 1.0)
    assert cfg.num_steps == 100
    with pytest.raises(ValueError):
        RotheConfig.from_step(0.5, 1.0, max_branches=0)


def test_clement_average_zero_and_constant():
    z = clement_average(lambda t: np.zeros(4), tau=0.25, k=1)
    assert np.array_equal(z, np.zeros(4))
    g = np.array([1.0, -2.0, 0.5])
    c = clement_average(lambda t: g, tau=0.25, k=3)
    assert np.allclose(c, g, atol=1e-15)


def test_clement_average_linear_forcing():
    g = np.array([2.0, 4.0])
    tau = 0.125
    avg = clement_average(lambda t: t * g, tau=tau, k=1)
    assert np.allclose(avg, tau / 2 * g, atol=1e-12)


def test_project_initial():
    mesh = Mesh1D.uniform(4)
    assert np.allclose(project_initial(mesh, lambda x: 2.0), 2.0)
    assert np.array_equal(project_initial(mesh, lambda x: 0.0), np.zeros(4))
    assert np.allclose(project_initial(mesh, lambda x: x), [0.25, 0.5, 0.75, 1.0])


def test_step_zero_graph_zero_data():
    mesh = Mesh1D.uniform(5)
    sols = rothe_step_all(mesh, zero_flux_graph(), np.zeros(5), tau=0.1)
    assert len(sols) == 1
    assert np.allclose(sols[0].state, 0.0, atol=1e-14)
    assert sols[0].boundary_flux == 0.0


def test_step_pure_heat_matches_dense_solve():
    mesh = Mesh1D.uniform(7)
    tau = 0.05
    rng = np.random.default_rng(4)
    prev = rng.uniform(-1, 2, mesh.n)
    sols = rothe_step_all(mesh, zero_flux_graph(), prev, tau)
    assert len(sols) == 1
    m = assemble_mass(mesh).to_dense()
    a = m / tau + assemble_stiffness(mesh).to_dense()
    want = np.linalg.solve(a, m @ prev / tau)
    assert np.allclose(sols[0].state, want, atol=1e-10)


def test_step_singular_segment_reported_and_skipped():
    # dyadic data make the folded pivot exactly zero: Schur complement of
    # (M/tau + K) at the boundary node is 3.875 for n=2, dx=1/2, tau=1/12
    mesh = Mesh1D(2, 0.5)
    pot = PiecewiseQuadraticPotential([], [(-1.9375, 0.0, 0.0)])
    graph = clarke_subdifferential(pot)
    failures = []
    sols = rothe_step_all(mesh, graph, np.array([2.0, 2.0]), tau=1 / 12, failures=failures)
    assert sols == []
    assert len(failures) == 1 and failures[0][0] == "a0"


def test_step_parallel_segment_classified():
    # Schur line of n=2, dx=1/2, tau=1/12, prev=[2, 2]: xi = 7.25 - 3.875*r;
    # a segment of slope -3.875 is parallel to it, on it or beside it
    mesh = Mesh1D(2, 0.5)
    for intercept, verdict in ((7.25, "continuum"), (0.0, "no solution")):
        pot = PiecewiseQuadraticPotential([], [(-1.9375, intercept, 0.0)])
        failures = []
        sols = rothe_step_all(mesh, clarke_subdifferential(pot), np.array([2.0, 2.0]),
                              tau=1 / 12, failures=failures)
        assert sols == []
        assert len(failures) == 1 and failures[0][0] == "a0"
        assert verdict in failures[0][1]


def test_singular_segment_does_not_abort_other_segments():
    # first piece reproduces the singular fold; the flat piece after the
    # breakpoint still yields a solution
    mesh = Mesh1D(2, 0.5)
    pot = PiecewiseQuadraticPotential([1.0], [(-1.9375, 0.0, 0.0), (0.0, 0.0, -1.9375)])
    graph = clarke_subdifferential(pot)
    failures = []
    sols = rothe_step_all(mesh, graph, np.array([2.0, 2.0]), tau=1 / 12, failures=failures)
    assert [f[0] for f in failures] == ["a0"]
    assert len(sols) >= 1
    assert all(s.case_tag != "a0" for s in sols)


def test_run_records_dead_tree():
    mesh = Mesh1D(2, 0.5)
    pot = PiecewiseQuadraticPotential([], [(-1.9375, 0.0, 0.0)])
    graph = clarke_subdifferential(pot)
    cfg = RotheConfig(tau=1 / 12, num_steps=2, horizon=1 / 6)
    tree = run(cfg, mesh, graph, lambda x: 2.0)
    assert not tree.completed()
    assert tree.no_solution_level == 1
    assert tree.terminated == [(1, "0")]
    assert tree.step_failures


def test_corner_solution_reported_twice_and_merged_once():
    # n=2, dx=1/2, tau=1/12: Schur complement g = 3.875 and e0 = 3.625*c, so
    # c = (g + 1)/3.625 puts the step on the j1 corner r = 1, xi = 1, where
    # a1 ends and v2 stands
    mesh = Mesh1D(2, 0.5)
    graph = clarke_subdifferential(potential_j1())
    c = 4.875 / 3.625
    sols = rothe_step_all(mesh, graph, np.array([c, c]), tau=1 / 12)
    assert [s.case_tag for s in sols] == ["a1", "v2", "a3"]
    assert np.max(np.abs(sols[0].state - sols[1].state)) < rothe.DEDUPE_TOL
    cfg = RotheConfig(tau=1 / 12, num_steps=1, horizon=1 / 12)
    want = {
        "all": [("0.1", "a1"), ("0.3", "a3")],
        "first": [("0.1", "a1")],
        "min_boundary": [("0.1", "a1")],
        "max_boundary": [("0.3", "a3")],
    }
    for policy, level in want.items():
        tree = run(cfg, mesh, graph, lambda x: c, branch_policy=policy)
        assert [(b.branch_id, b.case_tag) for b in tree.levels[1]] == level, policy


def _merged_indices(states):
    candidates = [rothe.StepSolution(s, "a0", 0.0) for s in states]
    index = {id(c): i for i, c in enumerate(candidates)}
    return [index[id(c)] for c in rothe._merge_duplicates(candidates)]


def test_merge_chain_follows_candidate_order():
    # A ~ B and B ~ C within DEDUPE_TOL but A !~ C: the greedy merge keeps
    # whichever of them comes first and decides the rest against it alone
    tol = rothe.DEDUPE_TOL
    for moved in (0, -1):  # an interior value (equal boundary values), or the boundary value
        a = np.array([0.7, -0.2, 0.3])
        b, c = a.copy(), a.copy()
        b[moved] += 0.6 * tol
        c[moved] += 1.2 * tol
        for order, want in (((a, b, c), [0, 2]), ((b, a, c), [0]), ((a, c, b), [0, 1]),
                            ((c, b, a), [0, 2])):
            states = np.array(order)
            assert _merged_indices(states) == want == greedy_merge_indices(states, tol)


def test_windowed_merge_matches_greedy_oracle():
    tol = rothe.DEDUPE_TOL
    rng = np.random.default_rng(23)
    gaps = tol * np.array([0.0, 0.3, 0.999, 1.001, 1.5, 1.999, 2.001, 3.0, 1e3])
    merged = kept = 0
    for _ in range(300):
        n = int(rng.integers(2, 6))
        base = rng.uniform(-2, 2, (int(rng.integers(1, 8)), n))
        rows = list(base)
        for _ in range(int(rng.integers(1, 20))):
            row = rows[int(rng.integers(len(rows)))].copy()
            kind = rng.integers(3)
            if kind == 0:  # near-duplicate: one coordinate moved by a gap around tol
                row[int(rng.integers(n))] += rng.choice([-1, 1]) * rng.choice(gaps)
            elif kind == 1:  # same boundary value, different interior
                row[int(rng.integers(n - 1))] += rng.choice([-1, 1]) * rng.choice(gaps[1:])
            else:  # every coordinate moved by less than tol
                row += rng.uniform(-0.99, 0.99, n) * tol
            rows.append(row)
        states = np.array(rows)[rng.permutation(len(rows))]
        want = greedy_merge_indices(states, tol)
        assert _merged_indices(states) == want
        merged += len(states) - len(want)
        kept += len(want) - len(base)
    # both decisions occur among the planted rows
    assert merged > 1000 and kept > 1000


def test_step_enumeration_matches_scan_oracle():
    rng = np.random.default_rng(42)
    graphs = [clarke_subdifferential(p()) for p in (potential_j1, potential_j2)]
    cases = []
    for trial in range(20):
        n = int(rng.integers(2, 5))
        tau = float(rng.uniform(0.05, 0.2))
        if trial % 2 == 0:
            prev = rng.uniform(0.7, 1.3, n)  # near the nonmonotone jump: branching likely
        else:
            prev = rng.uniform(-0.5, 2.5, n)
        cases.append((Mesh1D.uniform(n), graphs[trial % 2], prev, tau))
    # random graphs bring negative slopes and several vertical segments;
    # data near a breakpoint put solutions on them
    rng = np.random.default_rng(7)
    for trial in range(40):
        pot = random_potential(rng)
        n = int(rng.integers(2, 6))
        tau = float(rng.uniform(0.05, 0.2))
        prev = rng.choice(pot.breakpoints) + rng.uniform(-0.3, 0.3, n)
        cases.append((Mesh1D.uniform(n), clarke_subdifferential(pot), prev, tau))
    branched = 0
    kinds = set()
    for trial, (mesh, graph, prev, tau) in enumerate(cases):
        sols = rothe_step_all(mesh, graph, prev, tau)
        got = sorted(s.state[-1] for s in sols)
        want = schur_scan_solutions(mesh, graph, prev, tau)
        assert len(got) == len(want), (trial, got, want)
        assert np.allclose(got, want, atol=1e-6), trial
        branched += len(got) > 1
        if trial < 20:
            continue
        for s in sols:
            slope = getattr(graph.segments[int(s.case_tag[1:])], "slope", None)
            kinds.add("vertical" if slope is None else "falling" if slope < 0 else "rising")
    assert branched >= 2  # the corpus must actually exercise multiplicity
    assert kinds == {"vertical", "falling", "rising"}


def test_run_j2_single_branch():
    mesh = Mesh1D.uniform(100)
    cfg = RotheConfig.from_step(0.01, 0.3, max_branches=64)
    tree = run(cfg, mesh, clarke_subdifferential(potential_j2()), lambda x: 2.0, branch_policy="all")
    assert tree.completed()
    assert tree.branch_counts() == [1] * (cfg.num_steps + 1)


def test_run_j1_branches_and_extreme_policies_differ():
    mesh = Mesh1D.uniform(100)
    cfg = RotheConfig.from_step(0.01, 0.5, max_branches=64)
    graph = clarke_subdifferential(potential_j1())
    tree = run(cfg, mesh, graph, lambda x: 2.0, branch_policy="all")
    assert tree.completed()
    assert max(tree.branch_counts()) >= 2
    lo = run(cfg, mesh, graph, lambda x: 2.0, branch_policy="min_boundary").boundary_values()
    hi = run(cfg, mesh, graph, lambda x: 2.0, branch_policy="max_boundary").boundary_values()
    assert np.max(hi - lo) > 1e-6
    assert np.min(hi - lo) >= -1e-12


def test_run_policies_identical_for_linear_graph():
    mesh = Mesh1D.uniform(10)
    cfg = RotheConfig.from_step(0.05, 0.5)
    trees = [
        run(cfg, mesh, zero_flux_graph(), lambda x: 2.0, branch_policy=p)
        for p in ("all", "first")
    ]
    for a, b in zip(trees[0].levels, trees[1].levels):
        assert len(a) == len(b) == 1
        assert np.array_equal(a[0].state, b[0].state)


def test_tree_invariants_on_branching_run():
    mesh = Mesh1D.uniform(50)
    cfg = RotheConfig.from_step(0.02, 0.8, max_branches=64)
    graph = clarke_subdifferential(potential_j1())
    tree = run(cfg, mesh, graph, lambda x: 2.0, branch_policy="all")
    assert tree.completed()
    assert len(tree.levels[0]) == 1
    system = assemble_mass(mesh).scaled(1.0 / cfg.tau) + assemble_stiffness(mesh)
    m = assemble_mass(mesh)
    e_n = np.zeros(mesh.n)
    e_n[-1] = 1.0
    for level in range(1, tree.num_levels):
        branches = tree.levels[level]
        for b in branches:
            prev = tree.levels[level - 1][b.parent].state
            rhs = m.matvec(prev) / cfg.tau
            residual = system.matvec(b.state) + b.boundary_flux * e_n - rhs
            assert np.max(np.abs(residual)) <= 1e-9
            lo, hi = graph.select(b.state[-1])
            assert lo - 1e-10 <= b.boundary_flux <= hi + 1e-10
        for i, a in enumerate(branches):
            for b in branches[i + 1:]:
                assert np.max(np.abs(a.state - b.state)) >= rothe.DEDUPE_TOL


def test_run_with_forcing_reaches_discrete_steady_state():
    # unit source: action vector g_i = integral of the i-th hat function; the
    # scheme's fixed point solves K u = g, whose nodal values are exact for
    # -u'' = 1, u(0)=0, u'(1)=0
    mesh = Mesh1D.uniform(20)
    k = assemble_stiffness(mesh)
    g = np.full(mesh.n, mesh.dx)
    g[-1] = mesh.dx / 2
    cfg = RotheConfig.from_step(0.1, 3.0)
    tree = run(cfg, mesh, zero_flux_graph(), lambda x: 0.0, f=lambda t: g,
               branch_policy="first")
    exact = mesh.nodes - mesh.nodes**2 / 2
    from hvisolve import solve_tridiagonal

    steady = solve_tridiagonal(k, g)
    assert np.allclose(steady, exact, atol=1e-12)  # nodal exactness in 1D
    assert np.max(np.abs(tree.chain_states()[-1] - steady)) < 1e-2


def test_leaf_paths_share_the_root():
    mesh = Mesh1D.uniform(40)
    cfg = RotheConfig.from_step(0.02, 0.9, max_branches=16)
    tree = run(cfg, mesh, clarke_subdifferential(potential_j1()), lambda x: 2.0,
               branch_policy="all")
    assert max(tree.branch_counts()) > 1
    for leaf in range(len(tree.levels[-1])):
        path = tree.path_states(leaf)
        assert len(path) == tree.num_levels
        assert np.array_equal(path[0], tree.levels[0][0].state)


def test_backward_euler_dissipativity_pure_heat():
    mesh = Mesh1D.uniform(30)
    cfg = RotheConfig.from_step(0.02, 0.6)
    tree = run(cfg, mesh, zero_flux_graph(), lambda x: 2.0)
    kit = MeshNorms(mesh)
    h = [kit.h(s) for s in tree.chain_states()]
    assert all(b <= a + 1e-12 for a, b in zip(h, h[1:]))


def test_interpolant_gap_identity():
    # |pc - pl|_{L2(V*)}^2 == tau^2/3 * |pl'|_{L2(V*)}^2 on any branch path
    mesh = Mesh1D.uniform(40)
    cfg = RotheConfig.from_step(0.02, 0.4)
    tree = run(cfg, mesh, clarke_subdifferential(potential_j2()), lambda x: 2.0,
               branch_policy="first")
    states = tree.chain_states()
    kit = MeshNorms(mesh)
    der = [kit.dual(kit.M.matvec(d / cfg.tau)) for d in np.diff(states, axis=0)]
    rhs = cfg.tau**2 / 3.0 * cfg.tau * sum(v * v for v in der)
    lhs = interpolant_gap(mesh, states, cfg.tau) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-10)
