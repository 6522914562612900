import collections
import functools
import gc
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hvisolve import (
    AffineSegment,
    Mesh1D,
    MeshNorms,
    PiecewiseQuadraticPotential,
    RotheConfig,
    SubdifferentialGraph,
    VerticalSegment,
    assemble_mass,
    assemble_stiffness,
    clarke_subdifferential,
    clement_average,
    interpolant_norms,
    potential_j1,
    potential_j2,
    project_initial,
    rothe_step_all,
    run,
    zero_flux_graph,
)
from hvisolve import rothe
from hvisolve.nonsmooth import MEMBERSHIP_TOL
from oracles import (
    boundary_kernel,
    branch_id,
    check_tree,
    exact_solution_count,
    exact_step,
    greedy_merge_indices,
    interpolant_gap,
    is_monotone_step,
    random_potential,
    schur_parallel_j1,
    schur_scan_solutions,
    to_dense,
    tree_branch_ids,
)


def test_config_validation():
    with pytest.raises(ValueError):
        RotheConfig.from_step(0.3, 1.0)
    cfg = RotheConfig.from_step(0.01, 1.0)
    assert cfg.num_steps == 100 and cfg.horizon == 1.0
    with pytest.raises(ValueError):
        RotheConfig.from_step(0.5, 1.0, max_branches=0)
    # non-finite steps and horizons, and steps too small for the horizon
    for build, got in (
        (lambda: RotheConfig(tau=math.nan, num_steps=2), "nan"),
        (lambda: RotheConfig(tau=math.inf, num_steps=2), "inf"),
        (lambda: RotheConfig(tau=0.1, num_steps=0), "0"),
        (lambda: RotheConfig.from_step(math.nan, 1.0), "nan"),
        (lambda: RotheConfig.from_step(math.inf, 1.0), "inf"),
        (lambda: RotheConfig.from_step(0.1, math.nan), "nan"),
        (lambda: RotheConfig.from_step(0.1, math.inf), "inf"),
        (lambda: RotheConfig.from_step(5e-324, 1.0), "inf"),
        # horizon/tau past 2**53 is a whole number whatever tau is
        (lambda: RotheConfig.from_step(1e-300, 0.5), "4.9999999999999995e+299"),
    ):
        with pytest.raises(ValueError, match="got %s$" % re.escape(got)):
            build()


def test_from_step_accepts_every_step_of_a_large_horizon():
    # steps * tau rounds by about horizon * 2**-53: past a few thousand that
    # exceeds an absolute 1e-12, which rejected 128 of these grids at 12345
    # and 229 at 1e5
    for horizon in (0.125, 1.0, 5000.0, 12345.0, 1e5):
        for steps in range(1, 2001):
            assert RotheConfig.from_step(horizon / steps, horizon).num_steps == steps
    with pytest.raises(ValueError, match="does not divide"):  # a near miss still fails
        RotheConfig.from_step(12345.0 / 41 * (1 + 1e-9), 12345.0)


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


def test_run_takes_the_state_it_is_given(monkeypatch):
    mesh, graph = Mesh1D.uniform(10), clarke_subdifferential(potential_j1())
    cfg = RotheConfig.from_step(0.05, 0.3, max_branches=128)
    initial = 1.5 + 0.1 * np.sin(3 * mesh.nodes)
    initial.setflags(write=False)
    before = initial.copy()
    tree = run(cfg, mesh, graph, initial, branch_policy="all")
    assert tree.completed()
    assert not initial.flags.writeable and initial.tobytes() == before.tobytes()
    root = next(tree.level_states())
    assert root.shape == (1, mesh.n) and root[0].tobytes() == initial.tobytes()
    assert not np.shares_memory(tree.levels[0].first, initial)

    def refuse(*args, **kw):
        raise AssertionError("a step ran")

    monkeypatch.setattr(rothe, "rothe_step_all", refuse)
    for bad in (np.full(11, 1.5), np.full((1, 10), 1.5), np.array(1.5)):
        with pytest.raises(ValueError, match=r"\(n,\) = \(10,\), got %s$" % re.escape(
                repr(bad.shape))):
            run(cfg, mesh, graph, bad)


def test_step_zero_graph_zero_data():
    mesh = Mesh1D.uniform(5)
    sols = rothe_step_all(mesh, zero_flux_graph(), np.zeros(5), tau=0.1, failures=[])
    assert len(sols) == 1
    assert np.allclose(sols.states[0], 0.0, atol=1e-14)
    assert sols.flux[0] == 0.0


def test_step_pure_heat_matches_dense_solve():
    mesh = Mesh1D.uniform(7)
    tau = 0.05
    rng = np.random.default_rng(4)
    prev = rng.uniform(-1, 2, mesh.n)
    sols = rothe_step_all(mesh, zero_flux_graph(), prev, tau, failures=[])
    assert len(sols) == 1
    m = to_dense(assemble_mass(mesh))
    a = m / tau + to_dense(assemble_stiffness(mesh))
    want = np.linalg.solve(a, m @ prev / tau)
    assert np.allclose(sols.states[0], want, atol=1e-10)


def test_step_singular_segment_reported_and_skipped():
    # dyadic data make the folded pivot exactly zero: Schur complement of
    # (M/tau + K) at the boundary node is 3.875 for n=2, dx=1/2, tau=1/12
    mesh = Mesh1D(2, 0.5)
    pot = PiecewiseQuadraticPotential([], [(-1.9375, 0.0, 0.0)])
    graph = clarke_subdifferential(pot)
    failures = []
    sols = rothe_step_all(mesh, graph, np.array([2.0, 2.0]), tau=1 / 12, failures=failures)
    assert len(sols) == 0
    assert [f[:2] for f in failures] == [(0, "a0"), (0, "-")]
    assert failures[1][2] == "no solution on any segment, e0 = 7.25"
    with pytest.raises(TypeError):  # no caller can drop the reports by leaving out the list
        rothe_step_all(mesh, graph, np.array([2.0, 2.0]), tau=1 / 12)


def test_step_parallel_segment_classified():
    # Schur line of n=2, dx=1/2, tau=1/12, prev=[2, 2]: xi = 7.25 - 3.875*r;
    # a segment of slope -3.875 is parallel to it, on it or beside it, and so
    # is a slope within PARALLEL_RTOL*g of it, though |g + slope| > PARALLEL_RTOL
    mesh = Mesh1D(2, 0.5)
    near = -1.9375 * (1 - rothe.PARALLEL_RTOL / 2)
    assert rothe.PARALLEL_RTOL < abs(3.875 + 2 * near) <= rothe.PARALLEL_RTOL * 3.875
    for c2, intercept, verdict in ((-1.9375, 7.25, "continuum"), (-1.9375, 0.0, "no solution"),
                                   (near, 0.0, "no solution")):
        pot = PiecewiseQuadraticPotential([], [(c2, intercept, 0.0)])
        failures = []
        sols = rothe_step_all(mesh, clarke_subdifferential(pot), np.array([2.0, 2.0]),
                              tau=1 / 12, failures=failures)
        assert len(sols) == 0
        assert [f[:2] for f in failures] == [(0, "a0"), (0, "-")]
        assert verdict in failures[0][2]


def test_parallel_message_scale_holds_e0():
    # the continuum test compares e0 - intercept with PARALLEL_RTOL times the
    # largest of 1, |e0| and |intercept|: this offset is within it of |e0| only
    ulp = 2.0 ** -52
    e0, intercept = -(5e15 + 2500) * ulp, -(5e15 - 2500) * ulp
    assert rothe.PARALLEL_RTOL * abs(intercept) < abs(e0 - intercept)
    assert abs(e0 - intercept) <= rothe.PARALLEL_RTOL * abs(e0)
    seg = AffineSegment(-np.inf, np.inf, -1.0, intercept)
    assert rothe._parallel_message(seg, e0).startswith("continuum of solutions")
    # no finite boundary value meets a non-finite e0, though inf <= PARALLEL_RTOL*inf
    for e0 in (np.inf, -np.inf, np.nan):
        assert rothe._parallel_message(seg, e0) == (
            "no solution: segment parallel to the Schur line, flux offset %r" % (e0 - intercept,))


def test_singular_segment_does_not_abort_other_segments():
    # first piece reproduces the singular fold; the flat piece after the
    # breakpoint still yields a solution
    mesh = Mesh1D(2, 0.5)
    pot = PiecewiseQuadraticPotential([1.0], [(-1.9375, 0.0, 0.0), (0.0, 0.0, -1.9375)])
    graph = clarke_subdifferential(pot)
    failures = []
    sols = rothe_step_all(mesh, graph, np.array([2.0, 2.0]), tau=1 / 12, failures=failures)
    assert [f[:2] for f in failures] == [(0, "a0")]
    assert len(sols) >= 1
    assert all(rothe.segment_tags(graph)[s] != "a0" for s in sols.segment)


def _same_bits(a, b):
    """Two StepLevels with equal dtypes, shapes and bytes, field by field."""
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip((a.states, a.parent, a.segment, a.flux),
                               (b.states, b.parent, b.segment, b.flux)))


def test_stacked_step_equals_one_row_steps():
    # a stack's interior block is solved by ThomasFactor.solve's row sweep,
    # a lone parent's by its list sweep; the children must agree bit for bit
    # through the step, and the last parent (NaN) has none
    rng = np.random.default_rng(11)
    pots = [potential_j1(), potential_j2(), random_potential(rng), random_potential(rng)]
    sizes = (6, 50, 401, 30)
    branched = 0
    for pot, n in zip(pots, sizes):
        graph = clarke_subdifferential(pot)
        tags = rothe.segment_tags(graph)
        mesh = Mesh1D.uniform(n)
        tau = float(rng.uniform(0.01, 0.2))
        parents = rng.choice(pot.breakpoints) + rng.uniform(-0.4, 0.4, (7, n))
        parents = np.vstack([parents, np.full(n, np.nan)])
        f_k = rng.uniform(-0.3, 0.3, n)
        level = rothe_step_all(mesh, graph, parents, tau, f_k, failures=[])
        want = {"states": [], "parent": [], "tags": [], "flux": []}
        for row, prev in enumerate(parents):
            one = rothe_step_all(mesh, graph, prev, tau, f_k, failures=[])
            assert one.parent.tolist() == [0] * len(one)
            for got, stacked in zip((one.states, one.parent, one.segment, one.flux),
                                    (level.states, level.parent, level.segment, level.flux)):
                assert got.dtype == stacked.dtype and got.shape[1:] == stacked.shape[1:]
            want["states"].extend(one.states)
            want["parent"].extend([row] * len(one))
            want["tags"].extend(tags[s] for s in one.segment)
            want["flux"].extend(one.flux)
            branched += len(one) > 1
        assert one.states.shape == (0, n)  # the NaN parent's lone level
        assert len(level) == len(want["parent"])
        assert level.states.tobytes() == np.reshape(want["states"], (-1, n)).tobytes()
        assert level.parent.tolist() == want["parent"]  # parent-major order
        assert [tags[s] for s in level.segment] == want["tags"]
        assert level.flux.tobytes() == np.array(want["flux"]).tobytes()
        for rows in (parents, parents[0]):  # no forcing is a zero forcing, on both paths
            assert _same_bits(rothe_step_all(mesh, graph, rows, tau, failures=[]),
                              rothe_step_all(mesh, graph, rows, tau, np.zeros(n), failures=[]))
    assert branched >= 3


def test_stacked_step_reports_failures_by_parent_row():
    mesh = Mesh1D(2, 0.5)
    graph = clarke_subdifferential(
        PiecewiseQuadraticPotential([1.0], [(-1.9375, 0.0, 0.0), (0.0, 0.0, -1.9375)]))
    parents = np.array([[2.0, 2.0], [3.0, 3.0], [2.0, 2.0]])
    failures = []
    rothe_step_all(mesh, graph, parents, tau=1 / 12, failures=failures)
    assert [f[:2] for f in failures] == [(0, "a0"), (1, "a0"), (2, "a0")]
    assert failures[0][2] == failures[2][2] != failures[1][2]
    for row, prev in enumerate(parents):  # the float test reports the same failure
        lone = []
        rothe_step_all(mesh, graph, prev, tau=1 / 12, failures=lone)
        assert lone == [(0,) + failures[row][1:]]


def _hand_level(parent, segment):
    states = np.arange(2.0 * len(parent)).reshape(-1, 2)
    return rothe.TreeLevel.of(rothe.StepLevel(states, np.array(parent), np.array(segment),
                                              np.full(len(parent), np.nan)))


def test_require_solved_quotes_the_dying_level():
    # the failure records name parent rows; the quote gives each row's id.
    # Two of four levels: every branch died at step 2, the level count.
    tree = rothe.SolutionTree(
        mesh=Mesh1D(2, 0.5), config=RotheConfig(tau=0.5, num_steps=3), tags=["a0"],
        levels=[_hand_level([-1], [-1]), _hand_level([0] * 5, range(5))],
        step_failures=[(1, 0, "a0", "early")] + [(2, i, "a0", "late %d" % i) for i in range(5)])
    assert tree.no_solution_level == 2 and not tree.completed()
    with pytest.raises(rothe.NoSolutionError) as err:
        tree.require_solved()
    assert str(err.value) == (
        "no isolated solution at step 2 of tau=0.5 (5 step failures at that step): "
        "branch 0.0, a0: late 0; branch 0.1, a0: late 1; branch 0.2, a0: late 2; and 2 more")
    # a deeper dying level: its parents' ids descend through rows of level 1
    tree.levels.append(_hand_level([4, 1, 4], [2, 0, 7]))
    assert tree.no_solution_level == 3 and not tree.completed()
    tree.step_failures += [(3, 2, "v1", "deep"), (3, 0, "a0", "deeper")]
    with pytest.raises(rothe.NoSolutionError) as err:
        tree.require_solved()
    assert str(err.value) == (
        "no isolated solution at step 3 of tau=0.5 (2 step failures at that step): "
        "branch 0.4.7, v1: deep; branch 0.4.2, a0: deeper")
    # a dead end is quoted as any other step failure, by its tag "-"
    tree.step_failures = tree.step_failures[:6] + [(3, 1, "-", "no solution on any segment")]
    with pytest.raises(rothe.NoSolutionError) as err:
        tree.require_solved()
    assert str(err.value) == (
        "no isolated solution at step 3 of tau=0.5 (1 step failure at that step): "
        "branch 0.1.0, -: no solution on any segment")
    tree.levels.append(_hand_level([0], [0]))  # the last step: the tree is complete
    assert tree.no_solution_level is None and tree.require_solved() is tree


def _dead_tree():
    """Dies at step 1, whose only segment is parallel to the Schur line."""
    graph = clarke_subdifferential(PiecewiseQuadraticPotential([], [(-1.9375, 0.0, 0.0)]))
    return run(RotheConfig(tau=1 / 12, num_steps=2), Mesh1D(2, 0.5), graph, np.full(2, 2.0))


def test_run_records_dead_tree():
    tree = _dead_tree()
    assert not tree.completed()
    assert tree.no_solution_level == 1
    assert [f[:3] for f in tree.step_failures] == [(1, 0, "a0"), (1, 0, "-")]


def _parallel_segment_run():
    mesh, tau = Mesh1D.uniform(10), 0.05
    g = rothe._schur_operator(mesh.n, float(mesh.dx), tau).g
    graph = clarke_subdifferential(PiecewiseQuadraticPotential(*schur_parallel_j1(g)))
    tree = run(RotheConfig.from_step(tau, 0.3, max_branches=128), mesh, graph,
               np.full(mesh.n, 1.5), branch_policy="all")
    parallel = [tree.tags[i] for i, seg in enumerate(graph.segments)
                if getattr(seg, "slope", None) == -g]
    return tree, parallel


def test_step_failures_name_every_parent_at_every_level():
    tree, parallel = _parallel_segment_run()
    assert tree.completed() and max(tree.branch_counts()) > 2
    assert len(parallel) == 1
    want = [(k, row, parallel[0]) for k in range(1, len(tree.levels))
            for row in range(len(tree.levels[k - 1]))]
    assert [f[:3] for f in tree.step_failures] == want  # and none tagged "-": no dead end
    assert all(f[3].startswith("no solution: segment parallel") for f in tree.step_failures)
    assert len(want) > len(tree.levels)  # some levels branch: ids well below the root's "0"
    ids = list(tree.level_ids())
    for k, row, _, _ in tree.step_failures:  # the parent row's id, by the oracle's own walk
        assert branch_id(tree, k - 1, row) == ids[k - 1][row]


def _dead_end_tree():
    """94 branches by step 7 on nx=10, none cut, and six dead ends at steps 4-7."""
    graph = clarke_subdifferential(PiecewiseQuadraticPotential(
        [0.0], [(-5.0, 0.0, 0.0), (0.0, 0.0, 0.0)]))
    return run(RotheConfig.from_step(0.05, 0.35, max_branches=128), Mesh1D.uniform(10), graph,
               np.full(10, 1.5), branch_policy="all")


def test_every_childless_parent_has_one_dead_end_record():
    # Recounted from the parent links: with every child kept (policy "all",
    # no cut, no state reached from two parents), a parent has no child in
    # the tree exactly when its step found none, and every row of a dying
    # level has none.
    trees = [_dead_tree(), _row_zero_dies_tree()[0], _dead_end_tree(), _parallel_segment_run()[0],
             run(RotheConfig.from_step(0.05, 0.3), Mesh1D.uniform(10),
                 clarke_subdifferential(potential_j1()), np.full(10, 1.5), branch_policy="all")]
    counts = []
    for tree in trees:
        assert not tree.truncated
        childless = []
        for k in range(1, len(tree.levels) + (not tree.completed())):
            links = set(tree.levels[k].parent.tolist()) if k < len(tree.levels) else set()
            childless += [(k, row) for row in range(len(tree.levels[k - 1])) if row not in links]
        assert [(k, row) for k, row, tag, _ in tree.step_failures if tag == "-"] == childless
        counts.append(len(childless))
    assert counts == [1, 5, 6, 0, 0]


@pytest.mark.parametrize("policy", ["best", "first"])
def test_run_rejects_an_unknown_policy_before_any_step(monkeypatch, policy):
    def refuse(*args, **kw):
        raise AssertionError("run() stepped")

    monkeypatch.setattr(rothe, "rothe_step_all", refuse)
    with pytest.raises(ValueError, match="^unknown branch policy '%s'$" % policy):
        run(RotheConfig(tau=0.1, num_steps=1), Mesh1D.uniform(4), zero_flux_graph(),
            np.zeros(4), branch_policy=policy)


def test_j1_tree_branch_counts():
    # j1 from u0 = 1.5 splits at the fourth step; the path of leaf 0 stays on
    # row 0, so it is each level's stored state, as on a single-branch tree
    tree = run(RotheConfig.from_step(0.05, 0.3), Mesh1D.uniform(10),
               clarke_subdifferential(potential_j1()), np.full(10, 1.5), branch_policy="all")
    assert tree.branch_counts() == [1, 1, 1, 1, 3, 5, 5]
    path = tree.path_states(0)
    assert all(s is level.first for s, level in zip(path, tree.levels, strict=True))


def test_run_derives_no_branch_ids(monkeypatch):
    # ids are made for output and error messages only, never while stepping
    def refuse(self):
        raise AssertionError("run() derived branch ids")

    monkeypatch.setattr(rothe.SolutionTree, "level_ids", refuse)
    tree = run(RotheConfig.from_step(0.05, 0.3, max_branches=128), Mesh1D.uniform(10),
               clarke_subdifferential(potential_j1()), np.full(10, 1.5), branch_policy="all")
    assert tree.completed() and max(tree.branch_counts()) > 1
    tree, _ = _parallel_segment_run()
    assert tree.completed() and len(tree.step_failures) > len(tree.levels)


def test_corner_solution_reported_twice_and_merged_once():
    # n=2, dx=1/2, tau=1/12: Schur complement g = 3.875 and e0 = 3.625*c, so
    # c = (g + 1)/3.625 puts the step on the j1 corner r = 1, xi = 1, where
    # a1 ends and v2 stands
    mesh = Mesh1D(2, 0.5)
    graph = clarke_subdifferential(potential_j1())
    c = 4.875 / 3.625
    sols = rothe_step_all(mesh, graph, np.array([c, c]), tau=1 / 12, failures=[])
    assert [rothe.segment_tags(graph)[s] for s in sols.segment] == ["a1", "v2", "a3"]
    assert np.max(np.abs(sols.states[0] - sols.states[1])) < rothe.DEDUPE_TOL
    cfg = RotheConfig(tau=1 / 12, num_steps=1)
    want = {
        "all": [("0.1", "a1"), ("0.3", "a3")],
        "min_boundary": [("0.1", "a1")],
        "max_boundary": [("0.3", "a3")],
    }
    for policy, level in want.items():
        tree = run(cfg, mesh, graph, np.full(mesh.n, c), branch_policy=policy)
        tags = [tree.tags[s] for s in tree.levels[1].segment]
        assert list(zip(tree_branch_ids(tree)[1], tags)) == level, policy


def test_kept_children_of_one_parent_rise_in_boundary_value():
    # A parent's children come in segment order, and on a Clarke graph a later
    # segment's boundary value lies at most 2*MEMBERSHIP_TOL below an earlier
    # one's; with |w| < 1 two such children lie that close in the max norm, so
    # the merge keeps the first of them.  The kept rows then rise strictly, and
    # the first kept child of a single-parent level is the min_boundary pick.
    rng = np.random.default_rng(33)
    branching = 0
    for trial in range(1000):
        pot = (potential_j1, potential_j2, lambda: random_potential(rng))[trial % 3]()
        graph = clarke_subdifferential(pot)
        mesh = Mesh1D.uniform(int(rng.integers(2, 101)))
        tau = float(mesh.dx) ** 2 * 10.0 ** rng.uniform(-3, 2)
        op = rothe._schur_operator(mesh.n, float(mesh.dx), tau)
        # aim the constant parent's e0, linear in the constant, at the window
        # g*b + [lo, hi] of a breakpoint b, where the step may branch
        b = float(rng.choice(pot.breakpoints))
        lo, hi = graph.select(b)
        e0_of_one = rothe._interiors(op, np.ones((1, mesh.n)), tau, None)[1][0]
        c = (op.g * b + rng.uniform(lo - 0.2, hi + 0.2)) / e0_of_one
        step = rothe_step_all(mesh, graph, np.full(mesh.n, c), tau, failures=[])
        kept = rothe._merge_duplicates(step.states)
        assert np.all(np.diff(step.states[kept, -1]) > 0), trial
        assert rothe._select(step.states, kept, "min_boundary").tolist() == kept[:1].tolist()
        branching += len(kept) > 1
    assert branching >= 150  # the trials must actually branch


def test_interior_response_is_below_one_in_max_norm():
    for nx in (2, 10, 100, 1600):
        dx = float(Mesh1D.uniform(nx).dx)
        for e in range(-9, 7):
            assert np.abs(rothe._schur_operator(nx, dx, 10.0 ** e).w).max() < 1, (nx, e)


def test_membership_tolerance_at_segment_ends():
    # n=2, dx=1/2, tau=1/12: g = 3.875 and e0 = 3.625*c for prev = [c, c].
    # j = 0 left of r = 1 and r - 1 right of it: a0 is xi = 0 on (-inf, 1],
    # v1 stands at r = 1 over xi in [0, 1], a2 is xi = 1 on [1, inf)
    mesh = Mesh1D(2, 0.5)
    graph = clarke_subdifferential(
        PiecewiseQuadraticPotential([1.0], [(0.0, 0.0, 0.0), (0.0, 1.0, -1.0)]))
    tags = rothe.segment_tags(graph)
    g, tol = 3.875, MEMBERSHIP_TOL
    for e0, want in (
        (g * (1 + 0.5 * tol), ["a0", "v1"]),  # a0 at r = 1 + tol/2
        (g * (1 + 3 * tol), ["v1"]),
        (g * (1 - 0.2 * tol), ["a0", "v1"]),  # v1 at xi = -0.775*tol
        (g * (1 - tol), ["a0"]),
        (g * (1 - 0.5 * tol) + 1, ["v1", "a2"]),  # a2 at r = 1 - tol/2
        (g * (1 - 3 * tol) + 1, ["v1"]),
        (g + 1 + 0.5 * tol, ["v1", "a2"]),  # v1 at xi = 1 + tol/2
        (g + 1 + 3 * tol, ["a2"]),
    ):
        c = e0 / 3.625
        level = rothe_step_all(mesh, graph, np.array([c, c]), tau=1 / 12, failures=[])
        assert [tags[s] for s in level.segment] == want, e0


def test_segment_ends_widened_by_the_tolerance_are_inside():
    # A zero parent without forcing has e0 = 0, so every segment's t is 0.0;
    # each segment but the middle one has an end at exactly 0.0 once widened
    # by MEMBERSHIP_TOL, and the closed test takes it
    tol = MEMBERSHIP_TOL
    graph = SubdifferentialGraph([
        AffineSegment(-math.inf, -tol, 0.5, 0.0), AffineSegment(-tol, tol, 0.0, 0.0),
        VerticalSegment(0.0, tol, 1.0), VerticalSegment(0.0, -1.0, -tol),
        AffineSegment(tol, math.inf, 2.0, 0.0)])
    level = rothe_step_all(Mesh1D.uniform(4), graph, np.zeros(4), 0.1, failures=[])
    assert level.segment.tolist() == [0, 1, 2, 3, 4]
    assert not level.states.any() and not level.flux.any()


def _merged_indices(states):
    return rothe._merge_duplicates(np.asarray(states)).tolist()


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


def test_merge_window_holds_equal_boundary_values_past_2_to_21():
    # From 2**21 on, b + 2*DEDUPE_TOL rounds to b: the window must still hold
    # the rows equal to b, or exact duplicates are never compared
    for b in (1.0, 4e6, -4e6, 1e12):
        states = np.array([[0.5, b], [0.5, b], [0.25, b]])
        assert _merged_indices(states) == [0, 2] == greedy_merge_indices(states, rothe.DEDUPE_TOL)


def test_cut_breaks_boundary_ties_by_row():
    # Children on one vertical segment share its boundary value exactly (j1's
    # v2 at r = 1); among equal boundary values the cut ranks the earlier row
    # first, so its picks do not depend on the sort numpy uses
    rng = np.random.default_rng(5)
    for size, cap in ((40, 7), (120, 64), (17, 16)):
        states = np.zeros((size, 3))
        states[:, -1] = rng.choice([0.0, 1.0, 1.0, 2.0], size)
        kept = np.sort(rng.choice(size + 10, size, replace=False))
        by_rank = sorted(range(size), key=lambda i: (states[i, -1], i))
        ranks = np.round(np.linspace(0, size - 1, cap)).astype(int)
        want = kept[sorted(by_rank[i] for i in ranks)]
        padded = np.zeros((size + 10, 3))
        padded[kept] = states
        assert rothe._spread_by_boundary(padded, kept, cap).tolist() == want.tolist()


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
        sols = rothe_step_all(mesh, graph, prev, tau, failures=[])
        got = sorted(sols.states[:, -1])
        want = schur_scan_solutions(mesh, graph, prev, tau)
        assert len(got) == len(want), (trial, got, want)
        assert np.allclose(got, want, atol=1e-6), trial
        branched += len(got) > 1
        if trial < 20:
            continue
        for s in sols.segment:
            slope = getattr(graph.segments[s], "slope", None)
            kinds.add("vertical" if slope is None else "falling" if slope < 0 else "rising")
    assert branched >= 2  # the corpus must actually exercise multiplicity
    assert kinds == {"vertical", "falling", "rising"}


def test_run_j2_single_branch():
    mesh = Mesh1D.uniform(100)
    cfg = RotheConfig.from_step(0.01, 0.3, max_branches=64)
    tree = run(cfg, mesh, clarke_subdifferential(potential_j2()), np.full(mesh.n, 2.0),
               branch_policy="all")
    assert tree.completed()
    assert tree.branch_counts() == [1] * (cfg.num_steps + 1)


def test_run_j1_branches_and_extreme_policies_differ():
    mesh = Mesh1D.uniform(100)
    cfg = RotheConfig.from_step(0.01, 0.5, max_branches=64)
    graph = clarke_subdifferential(potential_j1())
    trees = {p: run(cfg, mesh, graph, np.full(mesh.n, 2.0), branch_policy=p)
             for p in ("all", "min_boundary", "max_boundary")}
    for tree in trees.values():
        assert tree.completed()
        check_tree(tree, graph)
    assert max(trees["all"].branch_counts()) >= 2
    lo = trees["min_boundary"].boundary_values()
    hi = trees["max_boundary"].boundary_values()
    assert np.max(hi - lo) > 1e-6
    assert np.min(hi - lo) >= -1e-12
    # the greedy extremes bracket the uncapped envelope: their boundary values
    # are, bit for bit, each level's least and greatest r of the full tree
    full = trees["all"]
    assert not full.truncated
    assert np.array_equal(lo, [level.r.min() for level in full.levels])
    assert np.array_equal(hi, [level.r.max() for level in full.levels])


def test_truncation_keeps_the_envelope():
    # j1 at the bench's settings branches to 99 per level: cut to 64, every
    # level still holds the lowest and the highest boundary value of the
    # uncapped tree
    mesh, graph = Mesh1D.uniform(100), clarke_subdifferential(potential_j1())
    full, cut = [run(RotheConfig.from_step(0.0025, 0.5, max_branches=cap), mesh, graph,
                     np.full(mesh.n, 2.0), branch_policy="all") for cap in (128, 64)]
    assert not full.truncated and max(full.branch_counts()) > 64
    assert cut.truncated and max(cut.branch_counts()) == 64 and cut.completed()
    check_tree(cut, graph)
    for a, b in zip(full.levels, cut.levels):
        assert b.r.max() == a.r.max()
        assert b.r.min() == a.r.min()
        assert np.all(np.diff(b.parent) >= 0)  # kept rows stay in their order


def test_extreme_branches_bracket_every_branch():
    # comparison principle: for tau >= dx^2/6, M/tau + K is an M-matrix, so
    # e0 rises with the parent, w <= 0, and the least and greatest roots of
    # e0 in g*r + dj(r) rise with e0; the min_boundary and max_boundary
    # chains then bound every state of the full tree from below and above
    rng = np.random.default_rng(2024)
    branching = 0
    for _ in range(100):
        pot = random_potential(rng)
        graph = clarke_subdifferential(pot)
        mesh = Mesh1D.uniform(int(rng.integers(6, 16)))
        tau = float(mesh.dx) ** 2 / 6 * float(rng.uniform(1.0, 40.0))
        c = float(rng.choice(pot.breakpoints)) + float(rng.uniform(-0.5, 0.5))
        amp = float(rng.uniform(-0.5, 0.5))
        cfg = RotheConfig(tau=tau, num_steps=4, max_branches=10**6)
        datum = project_initial(mesh, lambda x: c + amp * np.sin(3 * x))
        trees = {p: run(cfg, mesh, graph, datum, branch_policy=p)
                 for p in ("all", "min_boundary", "max_boundary")}
        for tree in trees.values():
            tree.require_solved()
        assert not trees["all"].truncated
        lo = trees["min_boundary"].path_states(0)
        hi = trees["max_boundary"].path_states(0)
        for k, states in enumerate(trees["all"].level_states()):
            assert np.all(states >= lo[k] - 1e-9), k
            assert np.all(states <= hi[k] + 1e-9), k
        branching += max(trees["all"].branch_counts()) > 1
    assert branching >= 5  # the trials must actually branch


def test_run_policies_identical_for_linear_graph():
    mesh = Mesh1D.uniform(10)
    cfg = RotheConfig.from_step(0.05, 0.5)
    trees = [
        run(cfg, mesh, zero_flux_graph(), np.full(mesh.n, 2.0), branch_policy=p)
        for p in ("all", "min_boundary")
    ]
    for a, b in zip(trees[0].level_states(), trees[1].level_states(), strict=True):
        assert len(a) == len(b) == 1
        assert np.array_equal(a, b)


def test_tree_invariants_on_branching_run():
    mesh = Mesh1D.uniform(50)
    cfg = RotheConfig.from_step(0.02, 0.8, max_branches=64)
    graph = clarke_subdifferential(potential_j1())
    tree = run(cfg, mesh, graph, np.full(mesh.n, 2.0), branch_policy="all")
    assert tree.completed()
    assert len(tree.levels[0]) == 1
    assert check_tree(tree, graph) == sum(tree.branch_counts()[1:])
    for level, ids, states in zip(tree.levels, tree.level_ids(), tree.level_states(),
                                  strict=True):
        # one record per level, one distinct branch id per row
        arrays = (states, level.parent, level.segment, level.flux, level.r)
        assert all(len(a) == len(level) for a in arrays)
        assert len(set(ids)) == len(ids) == len(level)
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                assert np.max(np.abs(a - b)) >= rothe.DEDUPE_TOL


def test_tree_memory_is_its_level_arrays():
    # j1-enumerate's tree, 5363 rows over 201 levels of n = 100, holds its link
    # arrays (parent, segment, flux, r) and one state per level, about one path:
    # 0.47 MB with the array headers.  Every row's state would add 4.3 MB, and
    # stored branch ids, strings that grow with the depth, 2.1 MB.
    mesh, graph = Mesh1D.uniform(100), clarke_subdifferential(potential_j1())
    cfg = RotheConfig.from_step(0.0025, 0.5, max_branches=128)
    run(RotheConfig(tau=cfg.tau, num_steps=1), mesh, graph, np.full(mesh.n, 2.0))  # warm the cache
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tree = run(cfg, mesh, graph, np.full(mesh.n, 2.0), branch_policy="all")
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert sum(tree.branch_counts()) == 5363
    links = sum(a.nbytes for level in tree.levels
                for a in (level.parent, level.segment, level.flux, level.r))
    path = len(tree.levels) * mesh.n * 8
    widest = max(tree.branch_counts()) * mesh.n * 8
    assert held <= 2 * links + path + widest, (held, links, path, widest)


def _traced(fn, *args):
    """fn(*args), the peak bytes it held above what was held before, and the
    bytes its result holds when it returns, by tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - before, held - before
    finally:
        if not tracing:
            tracemalloc.stop()


def _traced_peak(fn, *args):
    """Peak bytes that fn(*args) holds above what was held before, by tracemalloc."""
    return _traced(fn, *args)[1]


def _wide_stack(mesh, m):
    # boundary values from 0.4 to 3.6 cross j1's branching range: ~1 child per parent
    return np.linspace(0.2, 1.8, m)[:, None] * np.linspace(0.5, 2.0, mesh.n)


def test_step_scratch_is_bounded_by_its_stack():
    # Besides its children the step holds at most two (m, n) blocks at a
    # time: 2.6 blocks here with numpy's fixed ufunc buffers.  Keeping rhs
    # and y to the end, or copying y to gather from it, passes 4.
    mesh, graph = Mesh1D.uniform(100), clarke_subdifferential(potential_j1())
    parents = _wide_stack(mesh, 400)
    step = rothe_step_all(mesh, graph, parents, 0.0025, failures=[])  # warm the operator cache
    assert len(step) >= len(parents)
    step_all = functools.partial(rothe_step_all, failures=[])
    assert _traced_peak(step_all, mesh, graph, parents, 0.0025) < 4 * parents.nbytes


def test_norm_scratch_is_bounded_by_its_path():
    # The path's M products and their whitened copy: 2.5 stacks here with a
    # block's scratch and numpy's buffers.  Copying the path whole passes 3.
    mesh = Mesh1D.uniform(100)
    path = list(_wide_stack(mesh, 400))
    stack = len(path) * mesh.n * 8
    assert _traced_peak(interpolant_norms, mesh, path, 0.01) < 3 * stack


def _j1_enumerate_run():
    mesh, graph = Mesh1D.uniform(100), clarke_subdifferential(potential_j1())
    cfg = RotheConfig.from_step(0.0025, 0.5, max_branches=128)
    run(RotheConfig(tau=cfg.tau, num_steps=1), mesh, graph, np.full(mesh.n, 2.0))  # warm the cache
    return functools.partial(run, cfg, mesh, graph, np.full(mesh.n, 2.0), branch_policy="all")


def test_boundary_history_gives_every_row_its_flux_offset():
    # A child is T parent + r*q, so a row's e0 = flux + g*r is a convolution
    # of its own boundary history: the dense kernel of oracles.boundary_kernel,
    # built with no rothe code, gives every row's e0 on the j1-enumerate tree
    # and on a branching nx=10 tree with dead ends.
    for tree in (_j1_enumerate_run()(), _dead_end_tree()):
        assert max(tree.branch_counts()) > 90 and not tree.truncated
        g, h, phi = boundary_kernel(tree.mesh, tree.config.tau, len(tree.levels) - 1,
                                    tree.levels[0].first)
        history = np.zeros((1, 0))
        for k, level in enumerate(tree.levels[1:], start=1):
            history = history[level.parent]  # r_1..r_{k-1} along each row's path
            e0 = phi[k - 1] + history @ h[:k - 1][::-1]
            err = np.abs(level.flux + g * level.r - e0) / np.maximum(1.0, np.abs(e0))
            assert err.max() <= 1e-12, (k, err.max())
            history = np.concatenate((history, level.r[:, None]), axis=1)


def test_run_keeps_the_step_block_of_a_whole_level():
    # Above its finished tree, run() holds the level it steps from, the step's
    # scratch and its children: 5.0 widest-level blocks on j1-enumerate, whose
    # levels keep every child.  Copying each kept level through take() reads
    # 6.2.
    tree, peak, held = _traced(_j1_enumerate_run())
    widest = max(tree.branch_counts()) * tree.mesh.n * 8
    assert peak - held < 5.4 * widest, (peak, held, widest)


def test_replay_steps_the_level_before_in_place():
    # The replay holds two levels, the interior solve of the one before and
    # its children: 4.7 widest-level blocks on j1-enumerate.  Gathering the
    # parents of rows 1.. before stepping them reads 5.8.
    tree = _j1_enumerate_run()()
    widest = max(tree.branch_counts()) * tree.mesh.n * 8
    replay = functools.partial(collections.deque, maxlen=0)
    assert _traced_peak(replay, tree.level_states()) < 5.2 * widest


def test_run_with_forcing_reaches_discrete_steady_state():
    # unit source: action vector g_i = integral of the i-th hat function; the
    # scheme's fixed point solves K u = g, whose nodal values are exact for
    # -u'' = 1, u(0)=0, u'(1)=0
    mesh = Mesh1D.uniform(20)
    k = assemble_stiffness(mesh)
    g = np.full(mesh.n, mesh.dx)
    g[-1] = mesh.dx / 2
    cfg = RotheConfig.from_step(0.1, 3.0)
    tree = run(cfg, mesh, zero_flux_graph(), np.full(mesh.n, 0.0), f=lambda t: g,
               branch_policy="min_boundary")
    assert check_tree(tree, zero_flux_graph(), f=lambda t: g) == cfg.num_steps
    with pytest.raises(AssertionError):  # the certificate does read the forcing
        check_tree(tree, zero_flux_graph())
    exact = mesh.nodes - mesh.nodes**2 / 2
    from hvisolve import solve_tridiagonal

    steady = solve_tridiagonal(k, g)
    assert np.allclose(steady, exact, atol=1e-12)  # nodal exactness in 1D
    assert np.max(np.abs(tree.path_states(0)[-1] - steady)) < 1e-2


def test_leaf_paths_share_the_root():
    mesh = Mesh1D.uniform(40)
    cfg = RotheConfig.from_step(0.02, 0.9, max_branches=16)
    tree = run(cfg, mesh, clarke_subdifferential(potential_j1()), np.full(mesh.n, 2.0),
               branch_policy="all")
    assert max(tree.branch_counts()) > 1
    for leaf in range(len(tree.levels[-1])):
        path = tree.path_states(leaf)
        assert len(path) == len(tree.levels)
        assert np.array_equal(path[0], tree.levels[0].first)


def _row_zero_dies_tree(f=None):
    """Two branches per level from step 1 on, whose row 0 dies at every later
    step: left of 0 the potential -3 r^2 makes g*r + flux fall (g = 4.58), so
    the lower branch's next e0 is below every value it takes, and leaf 0
    descends from row 1 on levels 1-5."""
    graph = clarke_subdifferential(PiecewiseQuadraticPotential(
        [0.0], [(-3.0, 0.0, 0.0), (0.0, 0.0, 0.0)]))
    tree = run(RotheConfig.from_step(0.05, 0.3), Mesh1D.uniform(6), graph, np.full(6, 1.5),
               f=f, branch_policy="all")
    return tree, graph


def _row_zero_cut_tree():
    """128 branches from step 7 on, cut to evenly spaced boundary values; the
    cuts drop row 0, so leaf 0's path leaves it on 6 levels."""
    graph = clarke_subdifferential(PiecewiseQuadraticPotential(
        [0.0], [(-8.0, 0.0, 0.0), (0.0, 0.0, 0.0)]))
    tree = run(RotheConfig.from_step(0.02, 0.3, max_branches=128), Mesh1D.uniform(10), graph,
               np.full(10, 1.5), branch_policy="all")
    return tree, graph


def test_replayed_states_are_the_stepped_states(monkeypatch):
    # Each level's states as run() stepped from them, against the replay of
    # every level and of every leaf's path, bit for bit, on trees whose path 0
    # leaves row 0, one of them with a forcing that varies in time (quadratic
    # in t, which both Simpson's rule and the oracle's quadrature integrate).
    def forcing(t):
        return np.full(6, 0.3 + 4 * t - 9 * t * t)

    stepped, step_all = [], rothe.rothe_step_all

    def recording(mesh, graph, parents, *args, **kw):
        stepped.append(np.array(parents))
        return step_all(mesh, graph, parents, *args, **kw)

    monkeypatch.setattr(rothe, "rothe_step_all", recording)
    trees = [_row_zero_dies_tree(), _row_zero_dies_tree(forcing), _row_zero_cut_tree()]
    monkeypatch.undo()
    assert [t.branch_counts()[-1] for t, _ in trees] == [2, 2, 128]
    assert trees[2][0].truncated and "-" not in [f[2] for f in trees[2][0].step_failures]
    for (tree, graph), f in zip(trees, (None, forcing, None)):
        assert check_tree(tree, graph, f=f) == sum(tree.branch_counts()[1:])
        stacks = list(tree.level_states())
        ran, stepped = stepped[:len(tree.levels) - 1], stepped[len(tree.levels) - 1:]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(ran, stacks[:-1], strict=True))
        assert any(tree.path_rows(0))
        for leaf in range(len(tree.levels[-1])):
            path = tree.path_states(leaf)
            for k, (row, state) in enumerate(zip(tree.path_rows(leaf), path, strict=True)):
                assert state.tobytes() == stacks[k][row].tobytes(), (leaf, k)
    assert stepped == []


def test_path_replays_only_where_it_leaves_row_zero(monkeypatch):
    calls, interiors = [], rothe._interiors

    def counted(op, parents, *args):
        calls.append(len(parents))
        return interiors(op, parents, *args)

    monkeypatch.setattr(rothe, "_interiors", counted)
    tree, _ = _row_zero_dies_tree()
    calls.clear()  # the run's own steps
    tree.path_states(0)
    assert calls == [1] * sum(1 for row in tree.path_rows(0) if row)  # one column per level
    calls.clear()
    j1 = run(RotheConfig.from_step(0.05, 0.3, max_branches=128), Mesh1D.uniform(10),
             clarke_subdifferential(potential_j1()), np.full(10, 1.5), branch_policy="all")
    calls.clear()
    assert max(j1.branch_counts()) > 1 and not any(j1.path_rows(0))
    j1.path_states(0)
    j1.boundary_values(0)
    assert calls == []


def test_require_solved_sees_a_non_finite_row_past_row_zero(monkeypatch):
    # a NaN in the interior of a kept row past row 0, where the tree keeps
    # no state: run() records it as it steps
    step_all, calls = rothe.rothe_step_all, []

    def poisoned(*args, **kw):
        step = step_all(*args, **kw)
        calls.append(len(step))
        if len(calls) == 4:
            step.states[-1, 0] = np.nan
        return step

    monkeypatch.setattr(rothe, "rothe_step_all", poisoned)
    tree = run(RotheConfig.from_step(0.05, 0.3, max_branches=128), Mesh1D.uniform(10),
               clarke_subdifferential(potential_j1()), np.full(10, 1.5), branch_policy="all")
    assert calls[3] >= 2 and len(tree.levels[4]) >= 2
    assert tree.completed() and not tree.finite
    assert all(np.isfinite(level.first).all() and np.isfinite(level.r).all()
               for level in tree.levels)  # row 0 and the boundary values are finite
    with pytest.raises(FloatingPointError, match="non-finite state in the solution tree"):
        tree.require_solved()


def test_backward_euler_dissipativity_pure_heat():
    mesh = Mesh1D.uniform(30)
    cfg = RotheConfig.from_step(0.02, 0.6)
    tree = run(cfg, mesh, zero_flux_graph(), np.full(mesh.n, 2.0))
    kit = MeshNorms(mesh)
    assert max(tree.branch_counts()) == 1
    h = [kit.h(s) for s in tree.path_states(0)]
    assert all(b <= a + 1e-12 for a, b in zip(h, h[1:]))


def test_interpolant_gap_identity():
    # |pc - pl|_{L2(V*)}^2 == tau^2/3 * |pl'|_{L2(V*)}^2 on any branch path
    mesh = Mesh1D.uniform(40)
    cfg = RotheConfig.from_step(0.02, 0.4)
    tree = run(cfg, mesh, clarke_subdifferential(potential_j2()), np.full(mesh.n, 2.0),
               branch_policy="min_boundary")
    states = tree.path_states(0)
    kit = MeshNorms(mesh)
    der = [np.linalg.norm(kit.whiten(kit.M.matvec(d / cfg.tau))) for d in np.diff(states, axis=0)]
    rhs = cfg.tau**2 / 3.0 * cfg.tau * sum(v * v for v in der)
    lhs = interpolant_gap(mesh, states, cfg.tau) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_step_membership_matches_exact_rational_step():
    # One step from each parent against the same step in exact arithmetic:
    # the float step accepts the segments whose exact solution lies on them,
    # except where the exact margin is within MEMBERSHIP_TOL of the row scale.
    # First the j1 corner of test_corner_solution_reported_twice_and_merged_once
    # (exactly, r lies 3e-17 past a1's end and the flux 2e-16 past v2's top),
    # then every level of float trees over 20 random graphs.
    c = 4.875 / 3.625
    steps = [(Mesh1D(2, 0.5), clarke_subdifferential(potential_j1()), np.array([[c, c]]), 1 / 12)]
    rng = np.random.default_rng(29)
    for trial in range(20):
        pot = random_potential(rng)
        graph = clarke_subdifferential(pot)
        mesh = Mesh1D.uniform(int(rng.integers(2, 9)))
        tau = float(rng.uniform(0.02, 0.2))
        c0 = float(rng.choice(pot.breakpoints) + rng.uniform(-0.3, 0.3))
        c1 = float(rng.uniform(-0.5, 0.5))
        tree = run(RotheConfig(tau=tau, num_steps=3, max_branches=8), mesh, graph,
                   project_initial(mesh, lambda x: c0 + c1 * x))
        steps.extend((mesh, graph, states, tau) for states in tree.level_states())
    accepted, tolerated, rows = {}, 0, 0
    for mesh, graph, parents, tau in steps:
        step = rothe_step_all(mesh, graph, parents, tau, failures=[])
        for row, prev in enumerate(parents.tolist()):
            g, e0, cases = exact_step(mesh.n, graph, prev, tau)
            mine = step.parent == row
            got = dict(zip(step.segment[mine].tolist(),
                           zip(step.states[mine, -1].tolist(), step.flux[mine].tolist())))
            for idx, case in enumerate(cases):
                assert case is not None  # g dwarfs every slope here
                r, flux, margin = case
                scale = max(1, *map(abs, prev), abs(e0), abs(g * r), abs(r), abs(flux))
                if (margin >= 0) != (idx in got):
                    assert abs(margin) <= MEMBERSHIP_TOL * scale, (mesh, prev, tau, idx, margin)
                    tolerated += 1
                if idx in got:
                    kind = type(graph.segments[idx]).__name__
                    accepted[kind] = accepted.get(kind, 0) + 1
                    r_got, flux_got = got[idx]
                    assert abs(r_got - float(r)) <= 1e-12 * float(scale)
                    assert abs(flux_got - float(flux)) <= 1e-12 * float(scale)
            rows += 1
    assert rows >= 60 and tolerated == 2
    assert len(accepted) == 2 and min(accepted.values()) >= 3, accepted


def test_no_forcing_adds_a_zero_vector_to_signed_zeros():
    # -0.0 + 0.0 is 0.0: a parent of negative zeros steps to positive zeros
    # both without a forcing and with a zero forcing, as run() writes them
    mesh = Mesh1D.uniform(6)
    graph = clarke_subdifferential(potential_j2())
    parent = -0.0 * mesh.nodes
    for rows in (parent, np.vstack([parent, parent])):
        none = rothe_step_all(mesh, graph, rows, 0.1, None, failures=[])
        zero = rothe_step_all(mesh, graph, rows, 0.1, np.zeros(mesh.n), failures=[])
        assert _same_bits(none, zero)
        assert not np.signbit(none.states).any()
    tree = run(RotheConfig.from_step(0.1, 0.3), mesh, graph, -0.0 * mesh.nodes)
    assert tree.step_forcing(1) is None
    stacks = list(tree.level_states())
    assert np.signbit(stacks[0]).all() and not np.signbit(np.concatenate(stacks[1:])).any()


def _probed_offsets(graph, g):
    """e0 on a grid of quarters, and at each vertical segment's ends and midpoint."""
    offsets = [Fraction(k, 4) for k in range(-60, 61)]
    for seg in graph.vertical:
        offsets += [g * Fraction(seg.r) + Fraction(xi)
                    for xi in (seg.xi_lo, (seg.xi_lo + seg.xi_hi) / 2, seg.xi_hi)]
    return offsets


def test_monotone_step_has_one_solution_for_every_offset():
    # the discrete form of the paper's uniqueness condition, on the oracles
    # alone: r -> g*r + dj(r) monotone gives one merged child for every e0
    g = exact_step(4, zero_flux_graph(), [0.0] * 4, 0.5)[0]
    rng = np.random.default_rng(29)
    monotone = other = 0
    while monotone < 30:
        graph = clarke_subdifferential(random_potential(rng, max_curvature=2.0))
        if not is_monotone_step(graph, g):
            other += 1
            continue
        monotone += 1
        for e0 in _probed_offsets(graph, g):
            assert exact_solution_count(graph, g, e0) == 1, (graph, e0)
    assert other > monotone  # slopes below -g and downward jumps were drawn too
    j1 = clarke_subdifferential(potential_j1())  # a downward jump from 1 to 0 at r = 1
    assert not is_monotone_step(j1, g)
    counts = [exact_solution_count(j1, g, e0) for e0 in _probed_offsets(j1, g)]
    assert max(counts) == 3 and min(counts) == 1


def test_extreme_branch_spread_falls_as_tau_halves():
    # j1 from u0 = 2: the largest gap between the min_boundary and
    # max_boundary runs' boundary values over t in [0, 1], as `branches`
    # prints it.  It falls 1.13-1.27x per halving, peaking near t = 0.38
    mesh = Mesh1D.uniform(100)
    graph = clarke_subdifferential(potential_j1())
    spreads = []
    for tau in (0.04, 0.02, 0.01, 0.005, 0.0025):
        lo, hi = (run(RotheConfig.from_step(tau, 1.0), mesh, graph, np.full(mesh.n, 2.0),
                      branch_policy=policy).require_solved().boundary_values()
                  for policy in ("min_boundary", "max_boundary"))
        spread = hi - lo
        assert 0.35 <= np.argmax(spread) * tau <= 0.4, tau
        spreads.append(float(spread.max()))
    assert all(1.1 < a / b < 1.3 for a, b in zip(spreads, spreads[1:])), spreads
    assert abs(spreads[0] - 0.2643) < 1e-4 and abs(spreads[-1] - 0.1331) < 1e-4, spreads
