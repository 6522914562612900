"""Backward-Euler time stepping with exhaustive per-step solution enumeration.

Each step solves the discrete inclusion

    (M/tau + K) a + e_n * dj(a_n)  ∋  M*prev/tau + f_k,

where dj is a multivalued boundary graph acting on the last nodal value.
Eliminating the interior unknowns (the Schur complement of A = M/tau + K at
the boundary node) leaves one scalar relation: a boundary value r requires
the flux xi = e0 - g*r, and the interior is then y - r*w.  The slope g, the
interior response w and the Thomas factor of the interior matrix depend only
on (mesh, tau) and are built once.

A step takes a whole level of the branch tree at once, its m parents as an
(m, n) stack.  One mass matvec gives the m right-hand sides and one
ThomasFactor.solve of their (n-1, m) interior block gives every y and e0.
One segment table, built per call, holds a tuple (vertical, r0, slope,
intercept, shift, scale, lo, hi) per graph segment, and one loop on Python
floats tests each parent's e0 against it as lo <= (e0 - shift)/scale <= hi:
an affine segment gives r = (e0 - intercept)/(g + slope), checked against
its interval; a vertical segment at r0 checks e0 - g*r0 against its flux
interval.  The solve does the same arithmetic per column for one parent as
for many, so a child's bits never depend on which other parents share its
level.

A segment parallel to the lines xi = e0 - g*r has no solution or a
continuum of them; both are reported, never skipped silently.
Otherwise each segment holds at most one solution per parent, so trying
every segment recovers the complete solution set.  A solution at a corner
of the graph, where two segments meet, is reported by both; ``run`` merges
coinciding states once per level.

A step returns its children as one StepLevel record of arrays (states,
parent rows, segment indices, fluxes).  ``run`` steps from the full states
of the current level alone; the tree keeps of each level its links, fluxes
and boundary values, and the state of row 0 (a TreeLevel).  Since a child
is y[parent] - r*w with y of its parent alone, SolutionTree.level_states
re-derives every other state bit for bit through the same interior solve
(_interiors, _with_boundary) from the root.  Failure records name parents
by row.  Only SolutionTree.level_ids makes branch ids, from the parent
links: the root is ``0`` and a child's id is its parent's id, a dot and its
segment index.
"""

import functools
import itertools
import math
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
from .nonsmooth import MEMBERSHIP_TOL, VerticalSegment

PARALLEL_RTOL = 1e-12  # |g + slope| <= PARALLEL_RTOL*g: segment parallel to the Schur line
DEDUPE_TOL = 1e-10  # max-norm distance below which two states of a level are merged
QUOTED_FAILURES = 3  # step failures of the dying level quoted by SolutionTree.require_solved

BRANCH_POLICIES = ("all", "min_boundary", "max_boundary", "first")


class NoSolutionError(RuntimeError):
    """Raised when no branch of a level has an isolated solution on any graph segment."""


def _require_positive_finite(name, value):
    if not (math.isfinite(value) and value > 0):
        raise ValueError("%s must be positive and finite, got %r" % (name, value))


@dataclass
class RotheConfig:
    """Time grid of num_steps steps of size tau, and the branch cap; the one
    place that decides whether a time grid is valid."""

    tau: float
    num_steps: int
    max_branches: int = 64

    def __post_init__(self):
        _require_positive_finite("tau", self.tau)
        if self.num_steps < 1:
            raise ValueError("num_steps must be at least 1, got %r" % (self.num_steps,))
        if self.max_branches < 1:
            raise ValueError("max_branches must be at least 1, got %r" % (self.max_branches,))

    @property
    def horizon(self):
        return self.num_steps * self.tau

    @classmethod
    def from_step(cls, tau, horizon=1.0, **kw):
        """Derive the step count, requiring tau to divide the horizon."""
        _require_positive_finite("tau", tau)
        _require_positive_finite("horizon", horizon)
        ratio = horizon / tau  # inf for a subnormal tau
        if not ratio < 2**53:  # every float this large is whole: nothing left to check
            raise ValueError("tau=%r is too small for horizon=%r: horizon/tau must be "
                             "below 2**53, got %r" % (tau, horizon, ratio))
        steps = round(ratio)
        if steps < 1 or abs(steps * tau - horizon) > 1e-12 * max(1.0, horizon):
            raise ValueError("tau=%r does not divide horizon=%r: horizon/tau must be a "
                             "whole number, got %r" % (tau, horizon, ratio))
        return cls(tau=tau, num_steps=steps, **kw)


@dataclass(frozen=True)
class StepLevel:
    """The solutions of one backward-Euler step from a stack of parents.

    Child i is ``states[i]``, stepped from parent row ``parent[i]`` and found
    on ``graph.segments[segment[i]]`` with boundary flux ``flux[i]``.  The
    children come parent by parent, each parent's segments left to right.
    """

    states: np.ndarray
    parent: np.ndarray
    segment: np.ndarray
    flux: np.ndarray

    def __len__(self):
        return len(self.states)

    def take(self, rows):
        """The children at ``rows``, in that order."""
        return StepLevel(*(a[rows] for a in (self.states, self.parent, self.segment, self.flux)))


@dataclass(frozen=True)
class TreeLevel:
    """What a SolutionTree keeps of one level: the ``parent`` row, ``segment``
    index, ``flux`` and boundary value ``r`` of every row, and ``first``, the
    state of row 0.  SolutionTree.level_states re-derives the other states."""

    parent: np.ndarray
    segment: np.ndarray
    flux: np.ndarray
    r: np.ndarray
    first: np.ndarray

    def __len__(self):
        return len(self.r)

    @classmethod
    def of(cls, level):
        """The record of a StepLevel; it shares no memory with its states."""
        return cls(level.parent, level.segment, level.flux, level.states[:, -1].copy(),
                   level.states[0].copy())


@dataclass
class SolutionTree:
    """Per-time-step record of all retained discrete solutions.

    ``levels[k]`` is the TreeLevel of the branches kept at step k; a child's
    ``parent`` is a row of level k-1 and its ``segment`` indexes ``tags``, the
    graph's segment tags.  The root level holds the initial state, with parent
    and segment -1 and flux NaN.  Only row 0 of a level keeps its state;
    ``level_states`` and ``path_states`` re-derive the others from the root by
    stepping with ``forcing``, the ``f`` given to ``run``, calling it again
    for each level they replay: it must give the same vector for the same t,
    or they differ from the stepped states.  ``finite`` is False once ``run``
    kept a non-finite state.  Records of ``terminated`` and ``step_failures``
    at level k hold a ``parent_row`` of level k-1 too; only ``level_ids``
    derives branch ids.
    """

    mesh: object
    config: RotheConfig
    tags: list
    levels: list = field(default_factory=list)
    forcing: object = None
    finite: bool = True
    truncated: bool = False
    terminated: list = field(default_factory=list)  # (level, parent_row) of dead ends
    step_failures: list = field(default_factory=list)  # (level, parent_row, case_tag, message)

    def level_ids(self):
        """The branch id of each row, one list per level, each derived from
        the one before: a child's id is its parent's id, a dot and its
        segment index.  Only one level's list is held at a time."""
        ids = None
        for level in self.levels:
            ids = ["0"] if ids is None else ["%s.%d" % (ids[p], s) for p, s in zip(
                level.parent.tolist(), level.segment.tolist())]
            yield ids

    def step_forcing(self, k):
        """The forcing vector of step k as ``run`` steps with it, None without forcing."""
        return None if self.forcing is None else clement_average(self.forcing, self.config.tau, k)

    def _stepped(self, k, parents, rows, r):
        """The states of boundary values ``r`` that step k reaches from the
        rows ``rows`` of the stack ``parents``, through the step's own
        interior solve: the bits ``run`` found."""
        op = _schur_operator(self.mesh.n, float(self.mesh.dx), float(self.config.tau))
        y, _ = _interiors(op, parents, self.config.tau, self.step_forcing(k))
        interior = y[rows]
        del y
        return _with_boundary(op, interior, r)

    def level_states(self):
        """The (m, n) stack of each level's states, in order, as ``run`` found
        them, bit for bit: the whole stack before is stepped, as ``run`` stepped
        it, and rows 1.. take their parents' interiors and their stored
        boundary values.  Two levels are held at a time."""
        states = None
        for k, level in enumerate(self.levels):
            if len(level) == 1:
                states = level.first[None, :]
            else:
                states = np.concatenate((level.first[None, :], self._stepped(
                    k, states, level.parent[1:], level.r[1:])))
            yield states

    def quote_failures(self, level):
        """Each step failure of ``level`` as ``branch <id>, <case tag>: <message>``."""
        failures = [f[1:] for f in self.step_failures if f[0] == level]
        ids = next(itertools.islice(self.level_ids(), level - 1, None)) if failures else None
        return ["branch %s, %s: %s" % (ids[row], tag, msg) for row, tag, msg in failures]

    def failure_summary(self):
        """The number of step failures and the first of them, quoted as
        ``step <k>, branch <id>, <case tag>: <message>`` (None without one)."""
        if not self.step_failures:
            return 0, None
        k = self.step_failures[0][0]
        return len(self.step_failures), "step %d, %s" % (k, self.quote_failures(k)[0])

    @property
    def num_levels(self):
        return len(self.levels)

    def branch_counts(self):
        return [len(level) for level in self.levels]

    @property
    def max_branch_count(self):
        return max(self.branch_counts())

    @property
    def no_solution_level(self):
        """The step at which every branch died, the level count; None once completed."""
        return None if self.completed() else self.num_levels

    def completed(self):
        return self.num_levels == self.config.num_steps + 1

    def path_rows(self, leaf_index=0):
        """Row of each level on the root-to-leaf path, following parent links
        from the last level."""
        rows = [leaf_index]
        for level in reversed(self.levels[1:]):
            rows.append(int(level.parent[rows[-1]]))
        rows.reverse()
        return rows

    def path_states(self, leaf_index=0):
        """Root-to-leaf nodal states, one per level; a state off row 0 is
        stepped from the one before it, as in ``level_states``."""
        path = []
        for k, (level, row) in enumerate(zip(self.levels, self.path_rows(leaf_index))):
            path.append(level.first if row == 0 else self._stepped(
                k, path[-1][None, :], [0], level.r[row:row + 1])[0])
        return path

    def chain_states(self):
        """States of a single-branch tree; fails if any level branched."""
        if any(len(level) != 1 for level in self.levels):
            raise ValueError("tree has branching levels; pick a leaf explicitly")
        return [level.first for level in self.levels]

    def boundary_values(self, leaf_index=0):
        return np.array([level.r[row] for level, row in zip(self.levels,
                                                             self.path_rows(leaf_index))])

    def require_solved(self):
        """This tree; NoSolutionError if it died early, quoting the step failures
        of the dying level; FloatingPointError if ``run`` kept a non-finite state."""
        if not self.completed():
            level = self.no_solution_level
            quoted = self.quote_failures(level)
            msg = "%s at step %r of tau=%r (%d step failure%s at that step)" % (
                "no isolated solution" if quoted else "no solution on any segment",
                level, self.config.tau, len(quoted), "" if len(quoted) == 1 else "s")
            if quoted:
                more = len(quoted) - QUOTED_FAILURES
                msg += ": " + "; ".join(quoted[:QUOTED_FAILURES]) + (
                    "; and %d more" % more if more > 0 else "")
            raise NoSolutionError(msg)
        if not self.finite:
            raise FloatingPointError("non-finite state in the solution tree")
        return self


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
    # |inf - intercept| <= PARALLEL_RTOL * inf holds, yet no finite r meets an infinite e0
    scale = max(1.0, abs(e0), abs(seg.intercept))
    if math.isfinite(e0) and abs(e0 - seg.intercept) <= PARALLEL_RTOL * scale:
        return "continuum of solutions: segment lies on the Schur line for r in [%r, %r]" % (
            seg.r_lo, seg.r_hi)
    return "no solution: segment parallel to the Schur line, flux offset %r" % (
        e0 - seg.intercept,)


def segment_tags(graph):
    """Case tag of each graph segment: ``a<i>`` for affine, ``v<i>`` for vertical."""
    return [("v%d" if isinstance(seg, VerticalSegment) else "a%d") % i
            for i, seg in enumerate(graph.segments)]


def _segment_table(graph, g):
    """One tuple (vertical, r0, slope, intercept, shift, scale, lo, hi) per
    graph segment, tested as lo <= (e0 - shift)/scale <= hi with each
    closed interval widened by MEMBERSHIP_TOL, and the indices of the
    segments parallel to the Schur line, whose interval is empty."""
    tol = MEMBERSHIP_TOL
    table, parallel = [], []
    for idx, seg in enumerate(graph.segments):
        if isinstance(seg, VerticalSegment):
            table.append((True, seg.r, 0.0, 0.0, g * seg.r, 1.0, seg.xi_lo - tol, seg.xi_hi + tol))
        elif abs(g + seg.slope) <= PARALLEL_RTOL * g:
            parallel.append(idx)
            table.append((False, 0.0, 0.0, 0.0, 0.0, 1.0, math.inf, -math.inf))
        else:
            table.append((False, 0.0, seg.slope, seg.intercept, seg.intercept, g + seg.slope,
                          seg.r_lo - tol, seg.r_hi + tol))
    return table, parallel


def _interiors(op, parents, tau, f_k):
    """The interior solve of one step from each row of the (m, n) stack
    ``parents``: y, the (m, n-1) interior at boundary value 0, and e0, where
    a boundary value r needs the flux e0 - g*r.  Each row's bits depend on
    that row alone."""
    rhs = op.mass.matvec(parents)
    rhs /= tau
    rhs += 0.0 if f_k is None else np.asarray(f_k, dtype=float)  # a zero vector's bits
    y = op.interior.solve(rhs[:, :-1].T).T
    return y, rhs[:, -1] - op.coupling * y[:, -1]


def _with_boundary(op, interior, r):
    """Child states from ``interior``, their parents' rows of y, and their
    boundary values ``r``: ``interior - r*w`` (computed in place), then ``r``."""
    interior -= r[:, None] * op.w
    return np.concatenate((interior, r[:, None]), axis=1)


def rothe_step_all(mesh, graph, parents, tau, f_k=None, *, failures):
    """All solutions of one backward-Euler step from each row of ``parents``.

    ``parents`` is an (m, n) stack of states; a single state counts as a
    stack of one.  The children come as a StepLevel, parent by parent and
    each parent's segments left to right; a parent whose step has no
    isolated solution has none.  At a corner of the graph both adjoining
    segments report the same state (for j1 at r = 1, where ``a1`` ends and
    ``v2`` stands); ``run`` merges them.  An affine segment parallel to the
    Schur line (no solution, or a continuum of them) yields no child and is
    reported into the list ``failures``, which every caller passes, once per
    parent, as (parent row, case tag, message); the other segments still run.
    """
    op = _schur_operator(mesh.n, float(mesh.dx), float(tau))
    parents = np.asarray(parents, dtype=float)
    if parents.ndim == 1:
        parents = parents[None, :]
    y, e0 = _interiors(op, parents, tau, f_k)
    e0 = e0.tolist()
    table, parallel = _segment_table(graph, op.g)
    rows, segs, r, flux = [], [], [], []
    for row, e in enumerate(e0):
        for idx, (vertical, r0, slope, intercept, shift, scale, lo, hi) in enumerate(table):
            t = (e - shift) / scale
            if lo <= t <= hi:
                rows.append(row)
                segs.append(idx)
                r.append(r0 if vertical else t)
                flux.append(t if vertical else slope * t + intercept)
    if parallel:
        tags = segment_tags(graph)
        for row, offset in enumerate(e0):
            for idx in parallel:
                failures.append((row, tags[idx], _parallel_message(graph.segments[idx], offset)))

    rows = np.array(rows, dtype=np.intp)
    interior = y[rows]
    del y  # from here on, the interiors and r*w are the only blocks held
    states = _with_boundary(op, interior, np.array(r, dtype=float))
    return StepLevel(states, rows, np.array(segs, dtype=np.intp), np.array(flux, dtype=float))


def _merge_duplicates(states):
    """Indices of the rows of ``states`` kept, in order, when each row within
    DEDUPE_TOL (max norm) of an earlier kept row is dropped.

    Two states within DEDUPE_TOL of each other have boundary values within it
    too, so each row is compared only with the kept rows whose boundary value
    lies within 2*DEDUPE_TOL of its own, found in the boundary values sorted
    once.  The factor 2 is slack: rounding is monotone, so a boundary value
    within DEDUPE_TOL of b already lies in [fl(b - DEDUPE_TOL), fl(b + DEDUPE_TOL)].
    """
    if len(states) < 2:
        return np.arange(len(states))
    bounds = states[:, -1]
    order = np.argsort(bounds, kind="stable")  # any sort: a window is read as a set of rows
    ranked = bounds[order]
    starts = np.searchsorted(ranked, bounds - 2 * DEDUPE_TOL, side="left").tolist()
    # side="right" keeps a row's equals in its window where b + 2*DEDUPE_TOL rounds to b
    stops = np.searchsorted(ranked, bounds + 2 * DEDUPE_TOL, side="right").tolist()
    kept = np.zeros(len(states), dtype=bool)
    for i, (lo, hi) in enumerate(zip(starts, stops)):
        if hi - lo > 1:  # the window always holds row i itself
            near = order[lo:hi]
            near = near[kept[near]]
            if (np.abs(states[near] - states[i]).max(axis=1) < DEDUPE_TOL).any():
                continue
        kept[i] = True
    return np.flatnonzero(kept)


def _select(states, kept, policy):
    """The entries of ``kept``, row indices into ``states``, that the branch policy picks."""
    if policy == "all":
        return kept
    if policy == "first":
        return kept[:1]
    bounds = states[kept, -1]
    return kept[[bounds.argmin() if policy == "min_boundary" else bounds.argmax()]]


def _spread_by_boundary(states, kept, cap):
    """``cap`` entries of ``kept``, in their order, at evenly spaced ranks of
    their boundary values: the lowest, and for a cap above one the highest,
    are always among them, so a cut level keeps the envelope of the level."""
    order = np.argsort(states[kept, -1], kind="stable")  # ties go to the earlier row
    ranks = np.round(np.linspace(0, len(kept) - 1, cap)).astype(np.intp)
    return kept[np.sort(order[ranks])]


def run(config, mesh, graph, initial, f=None, branch_policy="all"):
    """Grow a SolutionTree from ``initial``, the nodal state at x_1..x_n.

    Forcing is averaged over each step interval (a zero vector when f is
    None), and again for each level the tree's replay steps: f must give the
    same vector for the same t.  Each level is stepped in one call, all of its
    branches at once.  Dead ends and step failures are recorded by parent row;
    if every branch dies the tree stops early, at ``no_solution_level``.  The
    children of a level are merged (corner solutions, states reached from two
    parents) before the branch policy picks among them; a level beyond
    ``config.max_branches`` is cut to evenly spaced boundary values.
    """
    if branch_policy not in BRANCH_POLICIES:
        raise ValueError("unknown branch policy %r" % (branch_policy,))
    initial = np.array(initial, dtype=float)  # a copy: the tree never shares the caller's array
    if initial.shape != (mesh.n,):
        raise ValueError("initial must have shape (n,) = (%d,), got %r" % (mesh.n, initial.shape))
    tree = SolutionTree(mesh=mesh, config=config, tags=segment_tags(graph), forcing=f)

    def keep(level):
        tree.levels.append(TreeLevel.of(level))
        tree.finite = tree.finite and bool(np.isfinite(level.states).all())

    level = StepLevel(initial[None, :], np.array([-1]), np.array([-1]), np.array([np.nan]))
    keep(level)
    for k in range(1, config.num_steps + 1):
        fails = []
        step = rothe_step_all(mesh, graph, level.states, config.tau, tree.step_forcing(k),
                              failures=fails)
        tree.step_failures.extend((k,) + fail for fail in fails)
        stepped = set(step.parent.tolist())
        if len(stepped) < len(level):
            tree.terminated.extend((k, row) for row in range(len(level)) if row not in stepped)
        if not len(step):
            break
        kept = _select(step.states, _merge_duplicates(step.states), branch_policy)
        if len(kept) > config.max_branches:
            kept = _spread_by_boundary(step.states, kept, config.max_branches)
            tree.truncated = True
        level = step if len(kept) == len(step) else step.take(kept)  # kept is increasing
        keep(level)
    return tree
