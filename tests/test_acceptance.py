"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them) and holding
its stated runtime budget."""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from hvisolve import (
    AbstractConstants,
    Mesh1D,
    MeshNorms,
    RotheConfig,
    StudyProblem,
    assemble_mass,
    assemble_stiffness,
    bv2_seminorm,
    check_conditions,
    clarke_subdifferential,
    convergence_study,
    interpolant_norms,
    potential_j1,
    potential_j2,
    project_initial,
    rothe_step_all,
    run,
    zero_flux_graph,
)
from oracles import (
    apriori_bound_suite,
    brute_force_bv2,
    check_tree,
    fd_directional_sup,
    heat_series_solution,
    interpolant_gap,
    random_potential,
    schur_scan_solutions,
)


@contextmanager
def criterion(num, title, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print("ACCEPTANCE %02d %-28s FAIL" % (num, title))
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit_s
    print("ACCEPTANCE %02d %-28s %s (%.2fs, limit %gs)"
          % (num, title, "PASS" if ok else "FAIL", elapsed, limit_s))
    assert ok, "runtime %.2fs exceeded the %gs budget" % (elapsed, limit_s)


def preset_mesh():
    return Mesh1D.uniform(100)


def preset_config(tau=0.01, horizon=1.0):
    return RotheConfig.from_step(tau, horizon, max_branches=64)


def test_criterion_01_galerkin_row_exactness():
    with criterion(1, "Galerkin-row exactness", 1.0):
        dx = dt = Fraction(1, 100)
        mesh = Mesh1D(100, dx)
        m, k = assemble_mass(mesh), assemble_stiffness(mesh)
        d = dt / dx**2
        assert d == 100
        scale = dt / dx

        def scaled(vm, vk):
            return vm / dt * scale + vk * scale

        for i in range(1, mesh.n - 1):
            (ml, md, mu), (kl, kd, ku) = m.row(i), k.row(i)
            assert scaled(ml, kl) == Fraction(1, 6) - d
            assert scaled(md, kd) == Fraction(2, 3) + 2 * d
            assert scaled(mu, ku) == Fraction(1, 6) - d
        (ml, md, _), (kl, kd, _) = m.row(mesh.n - 1), k.row(mesh.n - 1)
        assert scaled(ml, kl) == Fraction(1, 6) - d
        assert scaled(md, kd) == Fraction(1, 3) + d
        (_, md, mu), (_, kd, ku) = m.row(0), k.row(0)
        assert scaled(md, kd) == Fraction(2, 3) + 2 * d
        assert scaled(mu, ku) == Fraction(1, 6) - d


def _dj1_closed(r):
    if r < 0.0:
        return (0.0, 0.0)
    if r < 1.0:
        return (r, r)
    if r == 1.0:
        return (0.0, 1.0)
    return (0.0, 0.0)


def _dj2_closed(r):
    if r < 1.0:
        return (0.0, 0.0)
    if r == 1.0:
        return (0.0, 1.0)
    if r < 2.0:
        return (2.0 - r, 2.0 - r)
    return (0.0, 0.0)


def test_criterion_02_subdifferential_oracle():
    with criterion(2, "subdifferential oracle", 5.0):
        rng = np.random.default_rng(1)
        samples = np.concatenate([np.linspace(-3.0, 4.0, 9997), [0.0, 1.0, 2.0]])
        assert len(samples) == 10000
        for pot, closed in ((potential_j1(), _dj1_closed), (potential_j2(), _dj2_closed)):
            g = clarke_subdifferential(pot)
            for r in samples:
                lo, hi = g.select(float(r))
                wlo, whi = closed(float(r))
                if wlo != whi:
                    assert (lo, hi) == (wlo, whi)  # interval values are exact
                else:
                    assert lo == hi
                    assert abs(lo - wlo) <= 1e-12
            points = list(pot.breakpoints) + list(rng.uniform(-3.0, 4.0, 500))
            for r in points:
                lo, hi = g.select(r)
                assert abs(fd_directional_sup(pot, r, +1.0) - hi) <= 1e-6
                assert abs(fd_directional_sup(pot, r, -1.0) - (-lo)) <= 1e-6


def test_criterion_03_uniqueness_for_j2():
    with criterion(3, "uniqueness for j2 preset", 10.0):
        graph = clarke_subdifferential(potential_j2())
        tree = run(preset_config(), preset_mesh(), graph, np.full(100, 2.0), branch_policy="all")
        assert tree.completed()
        assert tree.branch_counts() == [1] * 101
        check_tree(tree, graph)


def test_criterion_04_multiplicity_for_j1():
    with criterion(4, "multiplicity for j1 preset", 30.0):
        mesh = preset_mesh()
        graph = clarke_subdifferential(potential_j1())
        tree = run(preset_config(), mesh, graph, np.full(mesh.n, 2.0), branch_policy="all")
        assert tree.completed()
        assert max(tree.branch_counts()) >= 2
        check_tree(tree, graph)
        lo = run(preset_config(), mesh, graph, np.full(mesh.n, 2.0),
                 branch_policy="min_boundary").boundary_values()
        hi = run(preset_config(), mesh, graph, np.full(mesh.n, 2.0),
                 branch_policy="max_boundary").boundary_values()
        assert float(np.max(hi - lo)) > 1e-6


def test_criterion_05_step_solver_completeness():
    with criterion(5, "step-solver completeness", 30.0):
        rng = np.random.default_rng(2024)
        graphs = [
            clarke_subdifferential(potential_j1()),
            clarke_subdifferential(potential_j2()),
            clarke_subdifferential(random_potential(rng)),
            clarke_subdifferential(random_potential(rng)),
        ]
        branched = 0
        for trial in range(100):
            n = int(rng.integers(2, 5))
            mesh = Mesh1D.uniform(n)
            tau = float(rng.uniform(0.04, 0.25))
            graph = graphs[trial % 4]
            if trial % 4 == 0:
                prev = rng.uniform(0.6, 1.4, n)  # near the nonmonotone jump
            else:
                prev = rng.uniform(-0.5, 2.5, n)
            f_k = rng.uniform(-0.3, 0.3, n) if trial % 5 == 0 else None
            sols = rothe_step_all(mesh, graph, prev, tau, f_k, failures=[])
            got = sorted(sols.states[:, -1])
            want = schur_scan_solutions(mesh, graph, prev, tau, f_k)
            assert len(got) == len(want), (trial, got, want)
            assert np.allclose(got, want, atol=1e-6), (trial, got, want)
            branched += len(got) > 1
        assert branched >= 5


def test_criterion_06_interpolant_identity():
    with criterion(6, "interpolant gap identity", 5.0):
        mesh = preset_mesh()
        runs = [
            (clarke_subdifferential(potential_j2()), "min_boundary"),
            (clarke_subdifferential(potential_j1()), "min_boundary"),
            (zero_flux_graph(), "min_boundary"),
        ]
        for graph, policy in runs:
            cfg = preset_config()
            tree = run(cfg, mesh, graph, np.full(mesh.n, 2.0), branch_policy=policy)
            assert tree.completed()
            check_tree(tree, graph)
            states = tree.path_states(0)
            lhs = interpolant_gap(mesh, states, cfg.tau) ** 2
            du = interpolant_norms(mesh, states, cfg.tau).l2Vstar_of_derivative
            rhs = cfg.tau**2 / 3.0 * du**2
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_criterion_07_apriori_bounds():
    with criterion(7, "a priori bound envelopes", 60.0):
        mesh = preset_mesh()
        for pot in (potential_j1(), potential_j2()):
            graph = clarke_subdifferential(pot)
            runs = [
                run(preset_config(tau), mesh, graph, np.full(mesh.n, 2.0),
                    branch_policy="min_boundary")
                for tau in (0.04, 0.02, 0.01, 0.005)
            ]
            assert all(t.completed() for t in runs)
            for tree in runs:
                check_tree(tree, graph)
            verdict = apriori_bound_suite(runs)
            assert verdict.ok, verdict.violations


def test_criterion_08_convergence_trend():
    with criterion(8, "convergence trend", 120.0):
        mesh = preset_mesh()
        for graph in (zero_flux_graph(), clarke_subdifferential(potential_j2())):
            problem = StudyProblem(mesh=mesh, graph=graph, initial=np.full(mesh.n, 2.0),
                                   policy="min_boundary", horizon=1.0)
            table = convergence_study(problem, [0.04, 0.02, 0.01], 0.0025)
            errs = [r.err_CH for r in table.rows]
            assert errs[0] > errs[1] > errs[2] > 0

        # closed-form check on the linear path with a boundary-compatible
        # eigenmode datum
        lam = math.pi / 2.0
        tau = 0.005
        cfg = RotheConfig.from_step(tau, 1.0)
        initial = project_initial(mesh, lambda x: math.sin(lam * x))
        tree = run(cfg, mesh, zero_flux_graph(), initial)
        kit = MeshNorms(mesh)
        assert max(tree.branch_counts()) == 1
        states = tree.path_states(0)
        err = max(
            kit.h(states[k] - heat_series_solution(mesh.nodes, k * tau, [1.0]))
            for k in range(1, cfg.num_steps + 1)
        )
        assert err <= 5e-3, err


def test_criterion_09_bv2_correctness():
    with criterion(9, "quadratic variation checks", 10.0):
        rng = np.random.default_rng(77)
        for trial in range(25):
            length = int(rng.integers(2, 13))
            if trial % 2:
                values, norm = list(rng.uniform(-2, 2, size=length)), np.abs
            else:
                values = list(rng.uniform(-2, 2, size=(length, 2)))
                norm = lambda d: np.linalg.norm(d, axis=-1)
            assert bv2_seminorm(values, norm) == brute_force_bv2(values, norm)

        mesh = preset_mesh()
        runs = [
            (clarke_subdifferential(potential_j1()), "min_boundary"),
            (clarke_subdifferential(potential_j2()), "min_boundary"),
            (zero_flux_graph(), "min_boundary"),
        ]
        for graph, policy in runs:
            cfg = preset_config()
            tree = run(cfg, mesh, graph, np.full(mesh.n, 2.0), branch_policy=policy)
            check_tree(tree, graph)
            report = interpolant_norms(mesh, tree.path_states(0), cfg.tau)
            envelope = cfg.horizon * report.l2Vstar_of_derivative**2
            assert report.bv2_Vstar <= envelope * (1 + 1e-9)


def test_criterion_10_condition_checker():
    with criterion(10, "condition checker", 1.0):
        r = check_conditions(AbstractConstants(alpha=1.0, beta=0.0, c=0.3, iota_norm=1.0))
        assert r.aux_b
        assert r.tau0_bc == math.inf
        r = check_conditions(AbstractConstants(alpha=1.0, beta=2.0, c=0.3, iota_norm=1.0))
        assert r.aux_b and r.tau0_bc == pytest.approx(0.5)
        r = check_conditions(
            AbstractConstants(alpha=1.0, beta=0.0, c=0.3, iota_norm=1.0, m1=2.0, m2=1.0, m3=1.0)
        )
        assert r.h_const is True
