"""Backward-Euler time stepping with exhaustive per-step solution enumeration.

Each step solves the discrete inclusion

    (M/tau + K) a + e_n * dj(a_n)  ∋  M*prev/tau + f_k,

where dj is a multivalued boundary graph acting on the last nodal value.
Eliminating the interior unknowns (the Schur complement of A = M/tau + K at
the boundary node) leaves one scalar relation: a boundary value r requires
the flux xi = e0 - g*r, and the interior is then y - r*w.  The slope g, the
interior response w and the Thomas factor of the interior matrix depend only
on (mesh, tau) and are built once; each parent state costs one substitution
on that factor for y and e0.  Every graph segment is
then intersected with the line xi = e0 - g*r by one scalar test: an affine
segment gives r = (e0 - intercept)/(g + slope), checked against its interval;
a vertical segment at r0 checks e0 - g*r0 against its flux interval.  A
segment parallel to the line has no solution or a continuum of them; both are
reported, never skipped silently.  Otherwise each segment holds at most one
solution, so trying every segment recovers the complete solution set.  A
solution at a corner of the graph, where two segments meet, is reported by
both; ``run`` merges coinciding states once per level.
"""

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from .fem1d import (
    Mesh1D,
    ThomasFactor,
    TridiagonalSystem,
    assemble_mass,
    assemble_stiffness,
    factor_tridiagonal,
    solve_tridiagonal,
)
from .nonsmooth import VerticalSegment

log = logging.getLogger(__name__)

ACCEPT_TOL = 1e-12  # interval membership when accepting a segment's candidate
PARALLEL_RTOL = 1e-12  # |g + slope| <= PARALLEL_RTOL*g: segment parallel to the Schur line
DEDUPE_TOL = 1e-10  # max-norm distance below which two states of a level are merged

BRANCH_POLICIES = ("all", "min_boundary", "max_boundary", "first")


class NoSolutionError(RuntimeError):
    """Raised when a step admits no solution on any graph segment."""


@dataclass
class RotheConfig:
    """Time grid and branch bookkeeping parameters.

    num_steps * tau must equal horizon.
    """

    tau: float
    num_steps: int
    horizon: float = 1.0
    max_branches: int = 64

    def __post_init__(self):
        if self.tau <= 0 or self.num_steps < 1:
            raise ValueError("tau must be positive and num_steps >= 1")
        if self.max_branches < 1:
            raise ValueError("max_branches must be at least 1, got %r" % (self.max_branches,))
        if abs(self.num_steps * self.tau - self.horizon) > 1e-12:
            raise ValueError(
                "num_steps*tau = %r must equal horizon %r"
                % (self.num_steps * self.tau, self.horizon)
            )

    @classmethod
    def from_step(cls, tau, horizon=1.0, **kw):
        """Derive the step count, requiring tau to divide the horizon."""
        steps = round(horizon / tau)
        if steps < 1 or abs(steps * tau - horizon) > 1e-12:
            raise ValueError("tau=%r does not divide horizon=%r" % (tau, horizon))
        return cls(tau=tau, num_steps=steps, horizon=horizon, **kw)


@dataclass
class StepSolution:
    state: np.ndarray
    case_tag: str
    boundary_flux: float


@dataclass
class Branch:
    state: np.ndarray
    parent: int | None
    case_tag: str
    boundary_flux: float | None
    branch_id: str


@dataclass
class SolutionTree:
    """Per-time-step record of all retained discrete solutions."""

    mesh: object
    config: RotheConfig
    policy: str
    levels: list = field(default_factory=list)
    truncated: bool = False
    no_solution_level: int | None = None
    terminated: list = field(default_factory=list)  # (level, branch_id) of dead ends
    step_failures: list = field(default_factory=list)  # (level, branch_id, case_tag, message)

    @property
    def num_levels(self):
        return len(self.levels)

    def branch_counts(self):
        return [len(level) for level in self.levels]

    @property
    def max_branch_count(self):
        return max(self.branch_counts())

    def completed(self):
        return self.no_solution_level is None and self.num_levels == self.config.num_steps + 1

    def path_states(self, leaf_index=0):
        """Root-to-leaf nodal states, following parent links from the last level."""
        states = []
        level = self.num_levels - 1
        idx = leaf_index
        while level >= 0:
            branch = self.levels[level][idx]
            states.append(branch.state)
            idx = branch.parent if branch.parent is not None else 0
            level -= 1
        states.reverse()
        return states

    def chain_states(self):
        """States of a single-branch tree; fails if any level branched."""
        if any(len(level) != 1 for level in self.levels):
            raise ValueError("tree has branching levels; pick a leaf explicitly")
        return [level[0].state for level in self.levels]

    def boundary_values(self, leaf_index=0):
        return np.array([s[-1] for s in self.path_states(leaf_index)])


def clement_average(f, tau, k):
    """Mean action vector of f over ((k-1)*tau, k*tau).

    Composite Simpson with 8 panels; f maps a time to the action vector of
    the forcing functional on the nodal basis.
    """
    a = (k - 1) * tau
    h = tau / 8.0
    weights = (1, 4, 2, 4, 2, 4, 2, 4, 1)
    acc = None
    for j, w in enumerate(weights):
        v = np.asarray(f(a + j * h), dtype=float)
        acc = w * v if acc is None else acc + w * v
    return acc * (h / 3.0) / tau


def project_initial(mesh, u0):
    """Nodal interpolation of the initial datum at the free nodes x_1..x_n.

    The Dirichlet node x_0 is excluded, so data that violate the boundary
    condition (like a nonzero constant) are taken as-is at the free nodes.
    """
    return np.array([float(u0(x)) for x in mesh.nodes])


@dataclass(frozen=True)
class _SchurOperator:
    """What one backward-Euler step needs of (mesh, tau), built once.

    ``interior`` is the Thomas factor of A = M/tau + K without its last row
    and column, and ``coupling`` the entry joining the interior to the
    boundary node.  ``w = interior^{-1} A[:-1, -1]`` and the Schur complement
    ``g = A[-1, -1] - coupling * w[-1]`` turn the last equation into
    xi = e0 - g*r.
    """

    mass: TridiagonalSystem
    interior: ThomasFactor
    coupling: float
    w: np.ndarray
    g: float


@functools.lru_cache(maxsize=16)
def _schur_operator(n, dx, tau):
    # Keyed on plain numbers, not on the mesh: Mesh1D(2, Fraction(1, 2)) and
    # Mesh1D(2, 0.5) compare and hash equal.
    mesh = Mesh1D(n, dx)
    mass = assemble_mass(mesh)
    a = mass.scaled(1.0 / tau) + assemble_stiffness(mesh)
    interior = TridiagonalSystem(a.lower[:-1], a.diag[:-1], a.upper[:-1])
    coupling = float(a.upper[-1])
    col = np.zeros(n - 1)
    col[-1] = coupling
    # A second elimination, once per cache entry: it keeps a caller for
    # rothe.solve_tridiagonal, the name bench/tracing.py wraps as the step solve.
    w = solve_tridiagonal(interior, col)
    w.setflags(write=False)  # shared by every caller of the cache
    g = float(a.diag[-1] - a.lower[-1] * w[-1])
    return _SchurOperator(mass, factor_tridiagonal(interior), coupling, w, g)


def _parallel_message(seg, e0):
    if abs(e0 - seg.intercept) <= PARALLEL_RTOL * max(1.0, abs(e0), abs(seg.intercept)):
        return "continuum of solutions: segment lies on the Schur line for r in [%r, %r]" % (
            seg.r_lo, seg.r_hi)
    return "no solution: segment parallel to the Schur line, flux offset %r" % (
        e0 - seg.intercept,)


def rothe_step_all(mesh, graph, prev, tau, f_k=None, failures=None):
    """All solutions of one backward-Euler step, as StepSolution records.

    Segments are tried left to right along the graph, and each segment the
    Schur line meets gives one record.  At a corner of the graph both
    adjoining segments report the same state (for j1 at r = 1, where ``a1``
    ends and ``v2`` stands); ``run`` merges them.  An affine segment
    parallel to the Schur line (no solution, or a continuum of them) is
    reported into ``failures`` as (case tag, message) and yields no
    solution; the other segments still run.  An empty result means the step
    has no isolated solution at all.
    """
    op = _schur_operator(mesh.n, float(mesh.dx), float(tau))
    rhs = op.mass.matvec(np.asarray(prev, dtype=float)) / tau
    if f_k is not None:
        rhs = rhs + np.asarray(f_k, dtype=float)
    y = op.interior.solve(rhs[:-1])
    e0 = float(rhs[-1] - op.coupling * y[-1])
    g = op.g

    found = []
    for idx, seg in enumerate(graph.segments):
        if isinstance(seg, VerticalSegment):
            tag = "v%d" % idx
            r = seg.r
            flux = e0 - g * r
            if not seg.xi_lo - ACCEPT_TOL <= flux <= seg.xi_hi + ACCEPT_TOL:
                continue
        else:
            tag = "a%d" % idx
            s = g + seg.slope
            if abs(s) <= PARALLEL_RTOL * g:
                msg = _parallel_message(seg, e0)
                log.debug("segment %s: %s", tag, msg)
                if failures is not None:
                    failures.append((tag, msg))
                continue
            r = (e0 - seg.intercept) / s
            if not seg.contains(r, ACCEPT_TOL):
                continue
            flux = seg.value(r)
        found.append(StepSolution(np.append(y - r * op.w, r), tag, flux))
    return found


def _merge_duplicates(candidates):
    """Candidates in order, without those within DEDUPE_TOL (max norm) of a kept one.

    Two states within DEDUPE_TOL of each other have boundary values within it
    too, so each candidate is compared only with the kept states whose
    boundary value lies within 2*DEDUPE_TOL of its own (the factor 2 covers
    rounding in the window ends), found in the boundary values sorted once.
    """
    if len(candidates) < 2:
        return candidates
    states = np.stack([c.state for c in candidates])
    bounds = states[:, -1]
    order = np.argsort(bounds, kind="stable")
    ranked = bounds[order]
    starts = np.searchsorted(ranked, bounds - 2 * DEDUPE_TOL, side="left").tolist()
    stops = np.searchsorted(ranked, bounds + 2 * DEDUPE_TOL, side="right").tolist()
    kept = np.zeros(len(states), dtype=bool)
    for i, (lo, hi) in enumerate(zip(starts, stops)):
        if hi - lo > 1:  # the window always holds candidate i itself
            near = order[lo:hi]
            near = near[kept[near]]
            if (np.abs(states[near] - states[i]).max(axis=1) < DEDUPE_TOL).any():
                continue
        kept[i] = True
    return [c for c, k in zip(candidates, kept.tolist()) if k]


def _select(candidates, policy):
    if policy == "all":
        return candidates
    if policy == "first":
        return candidates[:1]
    if policy == "min_boundary":
        return [min(candidates, key=lambda b: b.state[-1])]
    if policy == "max_boundary":
        return [max(candidates, key=lambda b: b.state[-1])]
    raise ValueError("unknown branch policy %r" % (policy,))


def run(config, mesh, graph, u0, f=None, branch_policy="all"):
    """Step the inclusion over the whole horizon, growing a SolutionTree.

    Forcing always passes through per-interval averaging (a zero closure
    substitutes when f is None), keeping a single code path.  Branches that
    admit no successor are terminated and recorded; if every branch dies the
    tree stops early with ``no_solution_level`` set.  The candidates of a
    level are merged (corner solutions, states reached from two parents)
    before the branch policy picks among them.
    """
    if branch_policy not in BRANCH_POLICIES:
        raise ValueError("unknown branch policy %r" % (branch_policy,))
    if f is None:
        f = lambda t: np.zeros(mesh.n)

    tree = SolutionTree(mesh=mesh, config=config, policy=branch_policy)
    root = Branch(project_initial(mesh, u0), None, "init", None, "0")
    tree.levels.append([root])

    for k in range(1, config.num_steps + 1):
        f_k = clement_average(f, config.tau, k)
        candidates = []
        for parent_idx, parent in enumerate(tree.levels[-1]):
            fails = []
            sols = rothe_step_all(mesh, graph, parent.state, config.tau, f_k, failures=fails)
            for tag, msg in fails:
                tree.step_failures.append((k, parent.branch_id, tag, msg))
            if not sols:
                tree.terminated.append((k, parent.branch_id))
                continue
            for sol in sols:
                seg_index = int(sol.case_tag[1:])
                candidates.append(
                    Branch(
                        sol.state,
                        parent_idx,
                        sol.case_tag,
                        sol.boundary_flux,
                        "%s.%d" % (parent.branch_id, seg_index),
                    )
                )
        kept = _select(_merge_duplicates(candidates), branch_policy) if candidates else []
        if len(kept) > config.max_branches:
            kept = kept[: config.max_branches]
            tree.truncated = True
        if not kept:
            tree.no_solution_level = k
            break
        tree.levels.append(kept)
    return tree


TRAJECTORY_HEADER = ["t", "branch_id", "parent_id", "case_tag"]


def trajectory_rows(tree):
    """Rows of the branch-trajectory table: one per branch per level.

    Columns: t, branch_id, parent_id, case_tag, alpha_1..alpha_n, xi.  The
    root row has empty parent and flux fields.
    """
    rows = []
    for level, branches in enumerate(tree.levels):
        t = level * tree.config.tau
        for b in branches:
            parent_id = ""
            if b.parent is not None:
                parent_id = tree.levels[level - 1][b.parent].branch_id
            flux = "" if b.boundary_flux is None else b.boundary_flux
            rows.append([t, b.branch_id, parent_id, b.case_tag, *b.state.tolist(), flux])
    return rows
