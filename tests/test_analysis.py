import math

import numpy as np
import pytest

from hvisolve import (
    AbstractConstants,
    Mesh1D,
    RotheConfig,
    StudyProblem,
    apriori_bound_suite,
    assemble_mass,
    assemble_stiffness,
    bv2_seminorm,
    check_conditions,
    clarke_subdifferential,
    constant_datum_amplitudes,
    convergence_study,
    heat_series_solution,
    interpolant_norms,
    potential_j2,
    run,
    zero_flux_graph,
)
from oracles import brute_force_bv2, dense_dual_norm, interpolant_gap


# ---------------------------------------------------------------------------
# quadratic-variation seminorm

def test_bv2_scalar_examples():
    assert bv2_seminorm([0.0, 1.0, 0.0], abs) == 2.0
    assert bv2_seminorm([0.0, 1.0, 2.0], abs) == 4.0  # skipping the middle wins
    assert bv2_seminorm([3.0] * 6, abs) == 0.0


def test_bv2_matches_brute_force():
    rng = np.random.default_rng(17)
    for trial in range(30):
        length = int(rng.integers(2, 13))
        if trial % 2:
            values = list(rng.uniform(-2, 2, size=length))
            norm = abs
        else:
            values = list(rng.uniform(-2, 2, size=(length, 3)))
            norm = np.linalg.norm
        assert bv2_seminorm(values, norm) == brute_force_bv2(values, norm)


def test_bv2_invariant_under_repeating_snapshots():
    rng = np.random.default_rng(33)
    values = list(rng.uniform(-1, 1, size=5))
    repeated = [values[0], values[0], values[1], values[2], values[2], values[2],
                values[3], values[4]]
    assert bv2_seminorm(repeated, abs) == pytest.approx(bv2_seminorm(values, abs), rel=1e-14)


# ---------------------------------------------------------------------------
# interpolant norms

def test_interpolant_norms_zero_path():
    mesh = Mesh1D.uniform(5)
    report = interpolant_norms(mesh, [np.zeros(5)] * 4, tau=0.25)
    assert report.l2V == report.linfH == report.cH == 0.0
    assert report.l2Vstar_of_derivative == report.bv2_Vstar == 0.0


def test_interpolant_norms_single_step_derivative():
    mesh = Mesh1D.uniform(2)
    c = np.array([0.3, -0.7])
    report = interpolant_norms(mesh, [np.zeros(2), c], tau=1.0)
    m = assemble_mass(mesh)
    assert report.l2Vstar_of_derivative == pytest.approx(dense_dual_norm(mesh, m.matvec(c)), rel=1e-12)


def _dense_norm_report(mesh, snaps, tau):
    """The five NormReport fields from dense matrices and the dense dual norm."""
    m = assemble_mass(mesh).to_dense().astype(float)
    mk = m + assemble_stiffness(mesh).to_dense().astype(float)
    h = [math.sqrt(s @ m @ s) for s in snaps]
    l2V = math.sqrt(tau * sum(s @ mk @ s for s in snaps[1:]))
    du = [dense_dual_norm(mesh, m @ (b - a) / tau) for a, b in zip(snaps, snaps[1:])]
    l2Vstar_du = math.sqrt(tau * sum(v * v for v in du))
    bv2 = brute_force_bv2(list(snaps), lambda v: dense_dual_norm(mesh, m @ v))
    return [l2V, max(h[1:]), max(h), l2Vstar_du, bv2]


def test_interpolant_norms_match_dense_oracle():
    rng = np.random.default_rng(29)
    for _ in range(12):
        n = int(rng.integers(2, 13))
        steps = int(rng.integers(1, 7))
        tau = float(rng.uniform(0.01, 0.5))
        snaps = rng.uniform(-2, 2, (steps + 1, n))
        mesh = Mesh1D.uniform(n)
        got = interpolant_norms(mesh, snaps, tau).csv_row()
        assert got == pytest.approx(_dense_norm_report(mesh, snaps, tau), rel=1e-12)


def test_bv2_of_paper_j2_path_matches_dense_oracle():
    mesh = Mesh1D.uniform(100)
    cfg = RotheConfig.from_step(0.01, 1.0)
    tree = run(cfg, mesh, clarke_subdifferential(potential_j2()), lambda x: 2.0,
               branch_policy="first")
    states = tree.chain_states()
    assert len(states) == 101
    m = assemble_mass(mesh).to_dense().astype(float)
    want = bv2_seminorm(states, lambda v: dense_dual_norm(mesh, m @ v))
    assert interpolant_norms(mesh, states, cfg.tau).bv2_Vstar == pytest.approx(want, rel=1e-12)


def test_gap_equals_scaled_derivative_norm_pure_heat():
    mesh = Mesh1D.uniform(25)
    cfg = RotheConfig.from_step(0.04, 0.6)
    states = run(cfg, mesh, zero_flux_graph(), lambda x: 2.0).chain_states()
    report = interpolant_norms(mesh, states, cfg.tau)
    gap = interpolant_gap(mesh, states, cfg.tau)
    assert gap == pytest.approx(cfg.tau / math.sqrt(3.0) * report.l2Vstar_of_derivative, rel=1e-10)


def test_bv2_bounded_by_derivative_envelope():
    mesh = Mesh1D.uniform(25)
    cfg = RotheConfig.from_step(0.04, 0.6)
    for graph in (zero_flux_graph(), clarke_subdifferential(potential_j2())):
        tree = run(cfg, mesh, graph, lambda x: 2.0, branch_policy="first")
        report = interpolant_norms(mesh, tree.chain_states(), cfg.tau)
        envelope = cfg.horizon * report.l2Vstar_of_derivative**2
        assert report.bv2_Vstar <= envelope * (1 + 1e-9)


# ---------------------------------------------------------------------------
# condition checker

def test_conditions_case_b_example():
    report = check_conditions(AbstractConstants(alpha=1.0, beta=0.5, c=0.3, iota_norm=1.0))
    assert report.aux_b
    assert report.tau0_bc == pytest.approx(2.0)


def test_conditions_beta_zero_gives_unrestricted_step():
    report = check_conditions(AbstractConstants(alpha=1.0, beta=0.0, c=0.3, iota_norm=1.0))
    assert report.aux_b
    assert report.tau0_bc == math.inf


def test_conditions_uniqueness_constants():
    report = check_conditions(
        AbstractConstants(alpha=1.0, beta=0.0, c=0.5, iota_norm=1.0, m1=2.0, m2=1.0, m3=1.0)
    )
    assert report.h_const is True
    report = check_conditions(
        AbstractConstants(alpha=1.0, beta=0.0, c=0.5, iota_norm=2.0, m1=2.0, m2=1.0, m3=1.0)
    )
    assert report.h_const is False


def test_conditions_case_a_reports_both_thresholds():
    report = check_conditions(
        AbstractConstants(alpha=1.0, beta=1.0, c=2.0, iota_norm=1.0, p_norm=0.5)
    )
    assert report.aux_a
    assert report.tau0_coercive_a == pytest.approx(1.0 / (1.0 + 2.0 * 0.5))
    assert report.tau_restriction_a == pytest.approx(1.0 / (4.0 * (1.0 + 2.0 * 0.25)))
    assert report.h_const is True  # case A alone guarantees uniqueness constants


def test_conditions_reject_bad_sigma():
    with pytest.raises(ValueError):
        AbstractConstants(alpha=1.0, beta=0.0, c=1.0, iota_norm=1.0, d_sigma=(1.0, 2.0))
    report = check_conditions(
        AbstractConstants(alpha=0.1, beta=0.0, c=1.0, iota_norm=1.0, d_sigma=(1.0, 1.5))
    )
    assert report.aux_c and not report.aux_b


def test_conditions_monotone_in_alpha_and_c():
    rng = np.random.default_rng(12)
    for _ in range(50):
        alpha = float(rng.uniform(0.1, 3.0))
        c = float(rng.uniform(0.1, 3.0))
        iota = float(rng.uniform(0.2, 2.0))
        base = check_conditions(AbstractConstants(alpha=alpha, beta=0.0, c=c, iota_norm=iota))
        if base.aux_b:
            up = check_conditions(AbstractConstants(alpha=alpha * 1.5, beta=0.0, c=c, iota_norm=iota))
            down = check_conditions(AbstractConstants(alpha=alpha, beta=0.0, c=c * 0.5, iota_norm=iota))
            assert up.aux_b and down.aux_b


# ---------------------------------------------------------------------------
# bound suite and convergence study

def _heat_tree(mesh, tau, horizon):
    cfg = RotheConfig.from_step(tau, horizon)
    return run(cfg, mesh, zero_flux_graph(), lambda x: 2.0, branch_policy="first")


def test_apriori_suite_pure_heat_bounded():
    mesh = Mesh1D.uniform(20)
    runs = [_heat_tree(mesh, tau, 0.4) for tau in (0.04, 0.02, 0.01)]
    verdict = apriori_bound_suite(runs)
    assert verdict.ok
    assert len(verdict.rows) == 3
    assert not verdict.violations


def test_apriori_verdict_renders_lines():
    mesh = Mesh1D.uniform(10)
    runs = [_heat_tree(mesh, tau, 0.4) for tau in (0.04, 0.02)]
    lines = apriori_bound_suite(runs).lines()
    assert lines[0].startswith("tau")
    assert len(lines) == 4  # header, two rows, verdict
    assert lines[-1].endswith("yes")


def test_apriori_suite_rejects_bad_ordering():
    mesh = Mesh1D.uniform(10)
    runs = [_heat_tree(mesh, tau, 0.4) for tau in (0.01, 0.02)]
    with pytest.raises(ValueError):
        apriori_bound_suite(runs)
    with pytest.raises(ValueError):
        apriori_bound_suite(runs[:1])


def test_convergence_zero_error_against_itself():
    mesh = Mesh1D.uniform(10)
    problem = StudyProblem(mesh=mesh, graph=zero_flux_graph(), u0=lambda x: 2.0, horizon=0.4)
    table = convergence_study(problem, [0.04], 0.04, enforce_separation=False)
    assert table.rows[0].err_CH == 0.0
    assert table.rows[0].err_L2V == 0.0


def test_convergence_requires_separated_reference():
    mesh = Mesh1D.uniform(10)
    problem = StudyProblem(mesh=mesh, graph=zero_flux_graph(), u0=lambda x: 2.0, horizon=0.4)
    with pytest.raises(ValueError):
        convergence_study(problem, [0.04, 0.02], 0.01)
    with pytest.raises(ValueError):
        # reference nodes must coincide with every coarse node
        convergence_study(problem, [0.04, 0.025], 0.00625)


def test_convergence_pure_heat_errors_shrink():
    mesh = Mesh1D.uniform(20)
    problem = StudyProblem(mesh=mesh, graph=zero_flux_graph(), u0=lambda x: 2.0, horizon=0.4)
    table = convergence_study(problem, [0.04, 0.02, 0.01], 0.0025)
    errs = table.err_ch_values()
    assert errs[0] > errs[1] > errs[2] > 0
    assert table.rows[0].tau > table.rows[1].tau > table.rows[2].tau
    assert not table.branch_mismatch


def test_bound_and_convergence_sums_match_dense_loops():
    # per-vector loops over dense matrices, with the coarse interval of each
    # reference interval m taken as ceil(m/ratio)
    mesh = Mesh1D.uniform(12)
    graph = clarke_subdifferential(potential_j2())
    m = assemble_mass(mesh).to_dense().astype(float)
    mk = m + assemble_stiffness(mesh).to_dense().astype(float)
    problem = StudyProblem(mesh=mesh, graph=graph, u0=lambda x: 2.0, horizon=0.4)
    ref_tau = 0.005
    ref_tree = problem.solve(ref_tau)
    ref = ref_tree.chain_states()
    table = convergence_study(problem, [0.04, 0.02], ref_tau)
    for row in table.rows:
        tree = problem.solve(row.tau)
        states = tree.chain_states()
        ratio = round(row.tau / ref_tau)
        err_ch = max(math.sqrt((states[k] - ref[k * ratio]) @ m @ (states[k] - ref[k * ratio]))
                     for k in range(1, len(states)))
        acc = 0.0
        for i in range(1, len(ref)):
            d = states[-(-i // ratio)] - ref[i]
            acc += ref_tau * (d @ mk @ d)
        assert row.err_CH == pytest.approx(err_ch, rel=1e-12)
        assert row.err_L2V == pytest.approx(math.sqrt(acc), rel=1e-12)

        q1 = max(math.sqrt(s @ m @ s) for s in states[1:])
        q2 = sum((b - a) @ m @ (b - a) for a, b in zip(states, states[1:]))
        q3 = row.tau * sum(s @ mk @ s for s in states[1:])
        got = apriori_bound_suite([tree, ref_tree]).rows[0][1:]
        assert got == pytest.approx((q1, q2, q3), rel=1e-12)


# ---------------------------------------------------------------------------
# separated-variables reference solution

def test_heat_series_satisfies_the_pde():
    amps = constant_datum_amplitudes(2.0, 400)
    x, t, h = 0.43, 0.2, 1e-4
    u_t = (heat_series_solution([x], t + h, amps)[0]
           - heat_series_solution([x], t - h, amps)[0]) / (2 * h)
    u_xx = (heat_series_solution([x + h], t, amps)[0]
            - 2 * heat_series_solution([x], t, amps)[0]
            + heat_series_solution([x - h], t, amps)[0]) / h**2
    assert u_t == pytest.approx(u_xx, abs=1e-5)


def test_heat_series_boundary_conditions():
    amps = constant_datum_amplitudes(2.0, 400)
    assert heat_series_solution([0.0], 0.13, amps)[0] == 0.0
    h = 1e-6
    flux = (heat_series_solution([1.0], 0.13, amps)[0]
            - heat_series_solution([1.0 - h], 0.13, amps)[0]) / h
    assert flux == pytest.approx(0.0, abs=1e-4)
