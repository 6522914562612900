"""Rothe interpolant norms, the quadratic-variation seminorm, step-size
conditions, empirical bound suites, and the convergence-study harness.

Norm conventions: the discrete dual norm of a step function's time derivative
uses the action vector M*(u^k - u^{k-1})/tau of the difference quotient, i.e.
the image of the H-inner product, measured through the (M+K)-Riesz map:
||g||_{V*}^2 = g^T (M+K)^{-1} g.  With M+K = L D L^T factored once per mesh,
that is the Euclidean norm of the whitened vector y = D^{-1/2} L^{-1} g.  All
snapshots are whitened together, y_k = D^{-1/2} L^{-1} M u^k, in one forward
sweep; the dual norm of (u^j - u^k, .)_H is then ||y_j - y_k||_2, with the
difference taken after the map, so no Gram-matrix cancellation enters.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fem1d import assemble_mass, assemble_stiffness, factor_ldl, solve_tridiagonal
from .rothe import RotheConfig, run


# ---------------------------------------------------------------------------
# interpolant norms

@dataclass
class NormReport:
    """Norm values of one Rothe interpolant pair."""

    l2V: float
    linfH: float
    cH: float
    l2Vstar_of_derivative: float
    bv2_Vstar: float

    CSV_HEADER = ["l2V", "linfH", "cH", "l2Vstar_du", "bv2"]

    def csv_row(self):
        return [self.l2V, self.linfH, self.cH, self.l2Vstar_of_derivative, self.bv2_Vstar]


class MeshNorms:
    """H, V and V* norms of P1 functions on one mesh.

    M and K are assembled once and M+K = L D L^T is factored once; ``whiten``
    maps action vectors g to D^{-1/2} L^{-1} g, whose Euclidean norm is the
    dual norm of g.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.M = assemble_mass(mesh)
        self.MK = self.M + assemble_stiffness(mesh)
        self.L, pivots = factor_ldl(self.MK)
        self.sqrt_d = np.sqrt(pivots)

    def h(self, c):
        """L2 norm of the P1 function with nodal coefficients c, or of each stack row."""
        return np.sqrt(_quadratic_form(self.M, c))

    def v_sq(self, c):
        """Squared full H1 norm c^T (M+K) c, of a vector or of each stack row."""
        return _quadratic_form(self.MK, c)

    def whiten(self, g):
        """D^{-1/2} L^{-1} g for an action vector, or for each column of an
        (n, m) array, returned as m rows."""
        return solve_tridiagonal(self.L, g).T / self.sqrt_d

    def dual(self, g):
        """Dual norm sqrt(g^T (M+K)^{-1} g) of the functional with action vector g."""
        return _euclidean(self.whiten(g))


def _quadratic_form(a, c):
    # np.maximum lets a NaN through: an overflowed state never reads as norm 0
    return np.maximum(0.0, np.einsum("...i,...i->...", c, a.matvec(c)))


def _euclidean(y):
    return math.sqrt(y @ y)


def interpolant_norms(mesh, states, tau):
    """Norms of the Rothe interpolants of the snapshot path ``states`` (u^0..u^N)
    with step ``tau``, in closed form over the snapshot rows."""
    kit = MeshNorms(mesh)
    states = np.asarray(states, dtype=float)
    h_norms = kit.h(states)
    l2V = math.sqrt(tau * kit.v_sq(states[1:]).sum())
    y = kit.whiten(kit.M.matvec(states).T)
    dy = np.diff(y, axis=0) / tau
    l2Vstar_du = math.sqrt(tau * np.einsum("ij,ij->", dy, dy))
    bv2 = bv2_seminorm(list(y), _euclidean)
    return NormReport(l2V, float(h_norms[1:].max()), float(h_norms.max()), l2Vstar_du, bv2)


def bv2_seminorm(values, norm):
    """Supremum over increasing index subsequences of the sum of squared
    increments, norm(values[m_j] - values[m_{j-1}])**2.

    Exact dynamic programming over pairs: for a piecewise-constant-in-time
    function the supremum over partitions is attained at jump points, and
    dropping an index can only help through the squared increments, so the
    optimum is a path from the first to the last index.
    """
    n = len(values)
    if n < 2:
        return 0.0
    best = [0.0] * n
    for i in range(1, n):
        best[i] = max(best[j] + norm(values[i] - values[j]) ** 2 for j in range(i))
    return best[-1]


# ---------------------------------------------------------------------------
# abstract-condition checker

@dataclass
class AbstractConstants:
    """Constants of the abstract operator and potential assumptions.

    alpha, beta: coercivity of the elliptic operator; a, b: its growth;
    c: growth of the multivalued term; iota_norm: norm of the map into the
    space carrying the multivalued term; p_norm: norm of the factoring map
    from H (case A), when one exists; d_sigma: (d, sigma) of the directional
    growth condition (case C); m1, m2, m3: monotonicity constants for the
    uniqueness criterion.
    """

    alpha: float
    beta: float
    c: float
    iota_norm: float
    a: float = 0.0
    b: float = 1.0
    p_norm: float | None = None
    d_sigma: tuple | None = None
    m1: float | None = None
    m2: float | None = None
    m3: float | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            for v in value if isinstance(value, tuple) else (value,):
                if v is not None and not math.isfinite(v):
                    raise ValueError("%s must be finite, got %r" % (name, value))
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.d_sigma is not None:
            d, sigma = self.d_sigma
            if d < 0:
                raise ValueError("d must be nonnegative")
            if not 1.0 <= sigma < 2.0:
                raise ValueError("sigma must lie in [1, 2), got %r" % (sigma,))


@dataclass
class ConditionReport:
    aux_a: bool
    aux_b: bool
    aux_c: bool
    tau0_coercive_a: float | None
    tau_restriction_a: float | None
    tau0_bc: float | None
    h_const: bool | None

    @property
    def any_aux(self):
        return self.aux_a or self.aux_b or self.aux_c

    def lines(self):
        out = []
        out.append("H_aux A: %s" % ("holds" if self.aux_a else "not available"))
        if self.aux_a:
            out.append("  tau0 (coercivity)      = %g" % self.tau0_coercive_a)
            out.append("  tau restriction (bounds) < %g" % self.tau_restriction_a)
        out.append("H_aux B: %s" % ("holds" if self.aux_b else "fails"))
        out.append("H_aux C: %s" % ("holds" if self.aux_c else "not available"))
        if self.aux_b or self.aux_c:
            out.append("  tau0 (cases B/C)       = %s"
                       % ("inf" if self.tau0_bc == math.inf else "%g" % self.tau0_bc))
        out.append("solvable per-step problem: %s" % ("yes" if self.any_aux else "no"))
        if self.h_const is None:
            out.append("H_const: undetermined (monotonicity constants missing)")
        else:
            out.append("H_const: %s (uniqueness %s)"
                       % ("holds" if self.h_const else "fails",
                          "guaranteed" if self.h_const else "not guaranteed"))
        return out


def check_conditions(k: AbstractConstants) -> ConditionReport:
    """Decide which per-step solvability cases hold and their step thresholds.

    Case A reports two values: the coercivity threshold 1/(beta + c*|p|) and
    the stricter bound-derivation restriction 1/(4*(beta + c*|p|^2)); the
    exponent on |p| differs between the two derivations, so both are exposed
    instead of reconciled.  Cases B and C share tau0 = 1/beta (infinite when
    beta = 0).
    """
    aux_a = k.p_norm is not None
    aux_b = k.alpha > k.c * k.iota_norm ** 2
    aux_c = k.d_sigma is not None

    tau0_a = tau_restr_a = None
    if aux_a:
        denom = k.beta + k.c * k.p_norm
        tau0_a = math.inf if denom == 0 else 1.0 / denom
        denom2 = k.beta + k.c * k.p_norm ** 2
        tau_restr_a = math.inf if denom2 == 0 else 1.0 / (4.0 * denom2)

    tau0_bc = None
    if aux_b or aux_c:
        tau0_bc = math.inf if k.beta == 0 else 1.0 / k.beta

    h_const = None
    if aux_a:
        h_const = True
    elif k.m1 is not None and k.m3 is not None:
        h_const = k.m1 >= k.m3 * k.iota_norm ** 2

    return ConditionReport(aux_a, aux_b, aux_c, tau0_a, tau_restr_a, tau0_bc, h_const)


# ---------------------------------------------------------------------------
# a priori bound suite

@dataclass
class BoundSuiteVerdict:
    ok: bool
    rows: list  # (tau, max_H, sum_sq_increments_H, tau_sum_V_sq)
    violations: list

    def lines(self):
        out = ["tau        max_H      sum|du|_H^2  tau*sum|u|_V^2"]
        for tau, q1, q2, q3 in self.rows:
            out.append("%-10g %-10.5f %-12.5f %-10.5f" % (tau, q1, q2, q3))
        out.append("bounded within 2x of coarsest: %s" % ("yes" if self.ok else "NO"))
        out.extend("violated: " + v for v in self.violations)
        return out


def _lemma_quantities(tree):
    kit = MeshNorms(tree.mesh)
    states = np.array(tree.chain_states())
    q1 = kit.h(states[1:]).max()
    q2 = (kit.h(np.diff(states, axis=0)) ** 2).sum()
    q3 = tree.config.tau * kit.v_sq(states[1:]).sum()
    return float(q1), float(q2), float(q3)


def apriori_bound_suite(runs):
    """Empirical boundedness of the three per-step estimate quantities.

    ``runs`` holds single-branch solution trees of the same problem over a
    decreasing step sequence.  Each quantity must stay within twice its value
    at the coarsest step; the factor is the test's decision, standing in for
    existence of a step-independent constant.
    """
    if len(runs) < 2:
        raise ValueError("need at least two runs")
    taus = [t.config.tau for t in runs]
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("runs must come in strictly decreasing tau order")
    rows = []
    violations = []
    names = ("max_H", "sum_sq_increments_H", "tau_sum_V_sq")
    base = None
    for tree in runs:
        q = _lemma_quantities(tree)
        rows.append((tree.config.tau, *q))
        if base is None:
            base = q
        else:
            for name, val, ref in zip(names, q, base):
                if val > 2.0 * ref:
                    violations.append(
                        "%s at tau=%g: %g > 2*%g" % (name, tree.config.tau, val, ref)
                    )
    return BoundSuiteVerdict(not violations, rows, violations)


# ---------------------------------------------------------------------------
# convergence study

@dataclass
class StudyProblem:
    """One fixed space discretization plus data, solved over several steps."""

    mesh: object
    graph: object
    u0: object
    f: object = None
    policy: str = "first"
    horizon: float = 1.0
    max_branches: int = 64

    def solve(self, tau):
        config = RotheConfig.from_step(tau, self.horizon, max_branches=self.max_branches)
        tree = run(config, self.mesh, self.graph, self.u0, self.f, self.policy)
        if not tree.completed():
            raise RuntimeError("run at tau=%g died at level %r" % (tau, tree.no_solution_level))
        return tree


@dataclass
class ConvergenceRow:
    tau: float
    err_CH: float
    err_L2V: float
    branch_count: int


@dataclass
class ConvergenceTable:
    rows: list
    reference_tau: float
    branch_mismatch: bool = False

    CSV_HEADER = ["tau", "err_CH", "err_L2V", "branch_count"]

    def csv_rows(self):
        return [[r.tau, r.err_CH, r.err_L2V, r.branch_count] for r in self.rows]

    def err_ch_values(self):
        return [r.err_CH for r in self.rows]


def _coincident_ratio(tau, reference_tau):
    ratio = tau / reference_tau
    r = round(ratio)
    if r < 1 or abs(ratio - r) > 1e-9:
        raise ValueError("tau=%g has no coincident nodes with reference tau=%g" % (tau, reference_tau))
    return int(r)


def convergence_study(problem, tau_list, reference_tau, enforce_separation=True):
    """Errors of each tau-run against a fine-step reference run.

    err_CH is the max H-norm difference over the coarse run's own time nodes;
    err_L2V integrates the squared V-norm difference of the two
    piecewise-constant interpolants over the reference intervals.  Only
    coincident time nodes enter, so every tau must be an integer multiple of
    the reference step, and the reference step must be at most a quarter of
    the smallest tau (``enforce_separation=False`` lifts that scale gap, for
    degenerate self-comparisons).
    """
    taus = sorted(tau_list, reverse=True)
    if enforce_separation and reference_tau > min(taus) / 4.0 + 1e-15:
        raise ValueError("reference tau must be at most min(tau_list)/4")
    kit = MeshNorms(problem.mesh)
    ref_tree = problem.solve(reference_tau)
    ref_states = np.array(ref_tree.path_states(0))
    rows = []
    for tau in taus:
        ratio = _coincident_ratio(tau, reference_tau)
        tree = problem.solve(tau)
        states = np.array(tree.path_states(0))
        err_ch = kit.h(states[1:] - ref_states[ratio::ratio]).max()
        # coarse interval k = ceil(m/ratio) holds reference interval m
        diff = np.repeat(states[1:], ratio, axis=0) - ref_states[1:]
        err_l2v = math.sqrt(reference_tau * kit.v_sq(diff).sum())
        rows.append(ConvergenceRow(tau, float(err_ch), err_l2v, tree.max_branch_count))
    mismatch = len({r.branch_count for r in rows} | {ref_tree.max_branch_count}) > 1
    return ConvergenceTable(rows, reference_tau, branch_mismatch=mismatch)


# ---------------------------------------------------------------------------
# closed form for the pure-heat path

def heat_series_solution(x, t, amplitudes):
    """Separated-variables solution sum_m a_m exp(-lam_m^2 t) sin(lam_m x)."""
    x = np.asarray(x, dtype=float)
    u = np.zeros_like(x)
    for m, a in enumerate(amplitudes, start=1):
        lam = (m - 0.5) * math.pi
        u += a * math.exp(-lam * lam * t) * np.sin(lam * x)
    return u


def constant_datum_amplitudes(value, count):
    """Series amplitudes of the constant initial datum: 2*value/lam_m."""
    return [2.0 * value / ((m - 0.5) * math.pi) for m in range(1, count + 1)]
