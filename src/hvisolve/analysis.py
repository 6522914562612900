"""Rothe interpolant norms, the quadratic-variation seminorm, step-size
conditions, and the convergence-study harness.

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
from dataclasses import dataclass, field

import numpy as np

from .fem1d import (
    TridiagonalSystem,
    assemble_mass,
    assemble_stiffness,
    factor_tridiagonal,
    solve_tridiagonal,
)
from .rothe import RotheConfig, run

NORM_BLOCK = 32  # path rows read per step of interpolant_norms' walk


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


class MeshNorms:
    """H, V and V* norms of P1 functions on one mesh.

    M and K are assembled once and M+K = L D L^T is factored once; ``whiten``
    maps action vectors g to D^{-1/2} L^{-1} g, whose Euclidean norm is the
    dual norm of g.
    """

    def __init__(self, mesh):
        self.M = assemble_mass(mesh)
        self.MK = self.M + assemble_stiffness(mesh)
        # On a symmetric matrix the Thomas multipliers are L's subdiagonal and the pivots
        # D; a zero upper diagonal makes solve_tridiagonal(L, g) the sweep L^{-1} g.
        f = factor_tridiagonal(self.MK)
        self.L = TridiagonalSystem(np.array(f.mult), np.ones(mesh.n), np.zeros(mesh.n - 1))
        self.sqrt_d = np.sqrt(f.pivots)

    def h(self, c):
        """L2 norm of the P1 function with nodal coefficients c, or of each stack row."""
        return self.h_and_action(c)[0]

    def h_and_action(self, c):
        """``h(c)`` and the action vector M c it is computed from: one M
        product serves the H norms and, through ``whiten``, the dual ones."""
        action = self.M.matvec(c)
        return np.sqrt(_quadratic_form(c, action)), action

    def v_sq(self, c):
        """Squared full H1 norm c^T (M+K) c, of a vector or of each stack row."""
        return _quadratic_form(c, self.MK.matvec(c))

    def whiten(self, g):
        """D^{-1/2} L^{-1} g for an action vector, or for each column of an
        (n, m) array, returned as m rows."""
        y = solve_tridiagonal(self.L, g).T
        y /= self.sqrt_d
        return y


def _quadratic_form(c, ac):
    """c . ac, of a vector or of each stack row, with ac = A c."""
    # np.maximum lets a NaN through: an overflowed state never reads as norm 0
    return np.maximum(0.0, np.einsum("...i,...i->...", c, ac))


def _euclidean(y):
    """Euclidean norm of a vector, or of each row of a stack."""
    return np.sqrt(np.einsum("...i,...i->...", y, y))


def interpolant_norms(mesh, states, tau):
    """Norms of the Rothe interpolants of the snapshot path ``states`` (u^0..u^N)
    with step ``tau``, in closed form over the snapshot rows.

    The path is read NORM_BLOCK rows at a time, so it is never copied whole:
    only the M products of its rows, which the whitening needs together, are
    held as one stack.  Each row's norms have the same bits as from one stack.
    """
    kit = MeshNorms(mesh)
    h_norms, v_sq = np.empty(len(states)), np.empty(len(states))
    action = np.empty((len(states), mesh.n))
    for start in range(0, len(states), NORM_BLOCK):
        rows = slice(start, start + NORM_BLOCK)
        block = np.asarray(states[rows], dtype=float)
        h_norms[rows], action[rows] = kit.h_and_action(block)
        v_sq[rows] = kit.v_sq(block)
    l2V = math.sqrt(tau * v_sq[1:].sum())
    y = kit.whiten(action.T)
    del action
    bv2 = bv2_seminorm(y, _euclidean)
    dy = np.diff(y, axis=0)
    dy /= tau
    l2Vstar_du = math.sqrt(tau * np.einsum("ij,ij->", dy, dy))
    return NormReport(l2V, float(h_norms[1:].max()), float(h_norms.max()), l2Vstar_du, bv2)


def bv2_seminorm(values, norm):
    """Supremum over increasing index subsequences of the sum of squared
    increments, norm(values[m_j] - values[m_{j-1}])**2.

    ``values`` is a sequence of numbers or a stack of rows, and ``norm`` a
    row norm: it maps the stack of differences ``values[:i] - values[i]``
    to their norms.  Exact dynamic programming, one array expression per
    index: for a piecewise-constant-in-time function the supremum over
    partitions is attained at jump points, and dropping an index can only
    help through the squared increments, so the optimum is a path from the
    first to the last index.  Differences are taken before the norm, so no
    Gram-matrix cancellation enters.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 2:
        return 0.0
    best = np.zeros(n)
    for i in range(1, n):
        best[i] = (best[:i] + norm(values[:i] - values[i]) ** 2).max()
    return float(best[-1])


# ---------------------------------------------------------------------------
# abstract-condition checker

@dataclass
class AbstractConstants:
    """Constants of the abstract operator and potential assumptions.

    alpha, beta: coercivity of the elliptic operator; a, b: its growth;
    c: growth of the multivalued term; iota_norm: norm of the map into the
    space carrying the multivalued term; p_norm: norm of the factoring map
    from H (case A), when one exists; d, sigma: the directional growth
    condition (case C), given together or not at all; m1, m2, m3:
    monotonicity constants for the uniqueness criterion.
    """

    alpha: float
    beta: float
    c: float
    iota_norm: float
    a: float = 0.0
    b: float = 1.0
    p_norm: float | None = None
    d: float | None = None
    sigma: float | None = None
    m1: float | None = None
    m2: float | None = None
    m3: float | None = None

    def __post_init__(self):
        if (self.d is None) != (self.sigma is None):
            raise ValueError("d and sigma must be given together")
        for name, value in vars(self).items():
            if value is not None and not math.isfinite(value):
                raise ValueError("%s must be finite, got %r" % (name, value))
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.d is not None:
            if self.d < 0:
                raise ValueError("d must be nonnegative")
            if not 1.0 <= self.sigma < 2.0:
                raise ValueError("sigma must lie in [1, 2), got %r" % (self.sigma,))


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
    aux_c = k.d is not None

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
# convergence study

@dataclass
class StudyProblem:
    """One mesh, graph and nodal ``initial`` state, unforced, solved over several steps."""

    mesh: object
    graph: object
    initial: object
    policy: str = "first"
    horizon: float = 1.0
    max_branches: int = RotheConfig.max_branches

    def solve(self, tau):
        config = RotheConfig.from_step(tau, self.horizon, max_branches=self.max_branches)
        return run(config, self.mesh, self.graph, self.initial, None, self.policy).require_solved()


@dataclass
class ConvergenceRow:
    tau: float
    err_CH: float
    err_L2V: float
    branch_count: int


@dataclass
class ConvergenceTable:
    """The error rows, plus each run's step failures as (tau, count, first
    quoted failure), the coarse runs in row order and then the reference."""

    rows: list
    branch_mismatch: bool = False
    failures: list = field(default_factory=list)


def convergence_study(problem, tau_list, reference_tau):
    """Errors of each tau-run against a fine-step reference run.

    err_CH is the max H-norm difference over the coarse run's own time nodes;
    err_L2V integrates the squared V-norm difference of the two
    piecewise-constant interpolants over the reference intervals.  Every step
    must divide the horizon (RotheConfig decides), and only coincident time
    nodes enter: each tau must span a whole number, at least 4, of reference
    steps.  A step given twice, or two taus of one time grid, is an error.
    """
    taus = sorted(tau_list, reverse=True)
    if not taus:
        raise ValueError("tau_list needs at least one step, got %r" % (tau_list,))
    ref_steps = RotheConfig.from_step(reference_tau, problem.horizon).num_steps
    ratios = []
    for tau in taus:
        ratio, rest = divmod(ref_steps, RotheConfig.from_step(tau, problem.horizon).num_steps)
        if rest or ratio < 4:
            raise ValueError("each tau must be a multiple of at least 4 reference steps "
                             "(reference tau=%r), got tau=%r" % (reference_tau, tau))
        if ratio in ratios:
            raise ValueError("repeated step tau=%r: its time grid is already in the list" % tau)
        ratios.append(ratio)
    kit = MeshNorms(problem.mesh)
    ref_tree = problem.solve(reference_tau)
    ref_states = np.array(ref_tree.path_states(0))
    rows, failures = [], []
    for tau, ratio in zip(taus, ratios):
        tree = problem.solve(tau)
        failures.append((tau, *tree.failure_summary()))
        states = np.array(tree.path_states(0))
        err_ch = kit.h(states[1:] - ref_states[ratio::ratio]).max()
        # coarse interval k = ceil(m/ratio) holds reference interval m
        diff = np.repeat(states[1:], ratio, axis=0) - ref_states[1:]
        err_l2v = math.sqrt(reference_tau * kit.v_sq(diff).sum())
        rows.append(ConvergenceRow(tau, float(err_ch), err_l2v, tree.max_branch_count))
    failures.append((reference_tau, *ref_tree.failure_summary()))
    mismatch = len({r.branch_count for r in rows} | {ref_tree.max_branch_count}) > 1
    return ConvergenceTable(rows, branch_mismatch=mismatch, failures=failures)

