"""Independent reference computations used by the test suite.

Everything here deliberately avoids the library's solution paths: dense numpy
linear algebra instead of the tridiagonal elimination, grid scanning instead
of segment folding, exhaustive subsequence enumeration instead of dynamic
programming, finite differences instead of exact graph values, all-pairs
comparison instead of a window on sorted boundary values, and branch ids
spelled out from each row's own root-to-leaf walk instead of level by level.

Two test-only helpers live here too: the empirical a priori bound suite,
which measures with the library's MeshNorms, and the separated-variables
series solution of the pure heat problem.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hvisolve import AffineSegment, MeshNorms, PiecewiseQuadraticPotential, VerticalSegment


def to_dense(sys):
    """The full matrix of a TridiagonalSystem, in the dtype of its diagonal."""
    n = sys.size
    a = np.zeros((n, n), dtype=sys.diag.dtype)
    a[np.arange(n), np.arange(n)] = sys.diag
    a[np.arange(1, n), np.arange(n - 1)] = sys.lower
    a[np.arange(n - 1), np.arange(1, n)] = sys.upper
    return a


def dense_mass_and_stiffness(mesh):
    """Dense float M and K of the P1 hat basis on the free nodes x_1..x_n,
    from their closed-form entries: M has 2dx/3 on the diagonal, dx/3 in the
    last row (half support) and dx/6 off it; K has 2/dx, 1/dx and -1/dx."""
    n, dx = mesh.n, float(mesh.dx)
    m = np.diag(np.full(n, 2 * dx / 3))
    k = np.diag(np.full(n, 2 / dx))
    m[-1, -1], k[-1, -1] = dx / 3, 1 / dx
    i = np.arange(n - 1)
    m[i, i + 1] = m[i + 1, i] = dx / 6
    k[i, i + 1] = k[i + 1, i] = -1 / dx
    return m, k


def dense_step_matrix(mesh, tau):
    m, k = dense_mass_and_stiffness(mesh)
    return m, m / tau + k


def boundary_kernel(mesh, tau, steps, initial):
    """The boundary-history recurrence of the unforced step, from dense numpy.

    With A = M/tau + K from dense_step_matrix, a step from ``prev`` to the
    boundary value r gives the child T prev + r*q: T solves the interior rows
    at boundary value 0 and q = (-w, 1), w = A_II^{-1} A_Ib.  Its flux is
    e0 - g*r, with g = A_bb - A_bI w and e0 = ell(prev) a linear functional.
    So step k of a branch whose levels 1..k-1 have boundary values r_j has
    e0 = phi[k-1] + sum_j h[k-1-j] r_j.  Returns g and the arrays
    h[i] = ell T^i q and phi[i] = ell T^i initial, for i < steps.
    """
    m, a = dense_step_matrix(mesh, tau)
    solve = functools.partial(np.linalg.solve, a[:-1, :-1])
    w = solve(a[:-1, -1])
    g = a[-1, -1] - a[-1, :-1] @ w
    t = np.zeros_like(m)
    t[:-1] = solve(m[:-1] / tau)
    ell = m[-1] / tau - a[-1, :-1] @ t[:-1]
    h, phi = np.empty(steps), np.empty(steps)
    v, u = np.append(-w, 1.0), np.asarray(initial, dtype=float)
    for i in range(steps):
        h[i], phi[i] = ell @ v, ell @ u
        v, u = t @ v, t @ u
    return float(g), h, phi


@functools.lru_cache(maxsize=8)
def _dense_mass_plus_stiffness(mesh):
    m, k = dense_mass_and_stiffness(mesh)
    return m + k


def dense_dual_norm(mesh, g):
    """sqrt(g^T (M+K)^{-1} g) from a dense solve: the discrete V* norm of the
    functional with action vector g."""
    g = np.asarray(g, dtype=float)
    return float(np.sqrt(g @ np.linalg.solve(_dense_mass_plus_stiffness(mesh), g)))


def interpolant_gap(mesh, states, tau):
    """sqrt of the time integral of ||pc(t) - pl(t)||_{V*}^2, where pc and pl
    are the piecewise constant and piecewise linear interpolants of the
    snapshot path ``states`` with step ``tau``.

    Both interpolants are evaluated at two Gauss points per step interval,
    which is exact for the quadratic integrand: at t = (k - 1 + theta)*tau,
    pc(t) = u^k and pl(t) = (1 - theta)*u^{k-1} + theta*u^k.
    """
    m = dense_mass_and_stiffness(mesh)[0]
    acc = 0.0
    for prev, cur in zip(states, states[1:]):
        for theta in (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)):
            pl = (1.0 - theta) * prev + theta * cur
            acc += 0.5 * tau * dense_dual_norm(mesh, m @ (cur - pl)) ** 2
    return math.sqrt(acc)


def schur_scan_solutions(mesh, graph, prev, tau, f_k=None, grid=1e-5, tol=1e-9):
    """All boundary values solving one step, found by scalar grid scanning.

    Eliminates the interior unknowns with dense solves, so the last equation
    becomes xi_required(r) = e0 - gslope*r; then walks every affine segment on
    a fine grid looking for sign changes of xi_required - xi_segment, and
    checks every vertical segment directly.  Returns sorted boundary values.
    """
    n = mesh.n
    m, a = dense_step_matrix(mesh, tau)
    rhs = m @ np.asarray(prev, dtype=float) / tau
    if f_k is not None:
        rhs = rhs + np.asarray(f_k, dtype=float)

    a_int = a[: n - 1, : n - 1]
    col = a[: n - 1, n - 1]
    row = a[n - 1, : n - 1]

    def xi_required(r):
        interior = np.linalg.solve(a_int, rhs[: n - 1] - col * r)
        return rhs[n - 1] - row @ interior - a[n - 1, n - 1] * r

    e0 = xi_required(0.0)
    gslope = e0 - xi_required(1.0)
    assert gslope > 0, "Schur complement of the step matrix must be positive"
    assert abs(xi_required(2.0) - (e0 - 2 * gslope)) <= 1e-8 * max(1.0, abs(e0))

    roots = []
    for seg in graph.segments:
        if isinstance(seg, VerticalSegment):
            xi = e0 - gslope * seg.r
            if seg.xi_lo - tol <= xi <= seg.xi_hi + tol:
                roots.append(seg.r)
            continue
        # phi(r) = xi_required(r) - xi_segment(r) = (e0 - q) - (gslope + slope)*r.
        # Any solution on this segment satisfies phi = 0, so it suffices to
        # scan a band around the line crossing, clipped to the segment.
        s_total = gslope + seg.slope
        if abs(s_total) < 1e-9:
            assert abs(e0 - seg.intercept) > tol, "degenerate parallel segment"
            continue
        center = (e0 - seg.intercept) / s_total
        band = 0.5 / abs(s_total) + grid
        lo = max(seg.r_lo - 10 * tol, center - band)
        hi = min(seg.r_hi + 10 * tol, center + band)
        if not lo < hi:
            continue
        count = int(np.ceil((hi - lo) / grid)) + 1
        rs = np.linspace(lo, hi, max(count, 2))
        phi = (e0 - gslope * rs) - (seg.slope * rs + seg.intercept)
        sign_change = np.nonzero(phi[:-1] * phi[1:] <= 0.0)[0]
        for i in sign_change:
            if phi[i] == phi[i + 1]:
                root = rs[i]
            else:
                root = rs[i] - phi[i] * (rs[i + 1] - rs[i]) / (phi[i + 1] - phi[i])
            if seg.r_lo - tol <= root <= seg.r_hi + tol:
                roots.append(float(root))
            break  # phi is affine: at most one root per segment

    out = []
    for r in sorted(roots):
        if not out or abs(r - out[-1]) > 1e-9:
            out.append(r)
    return out


def _exact_solve(a, columns):
    """a^{-1} applied to each of ``columns``, by dense Gaussian elimination
    in exact arithmetic (a is nonsingular, so a nonzero pivot always exists)."""
    n = len(a)
    rows = [list(a[i]) + [c[i] for c in columns] for i in range(n)]
    for j in range(n):
        pivot = next(i for i in range(j, n) if rows[i][j] != 0)
        rows[j], rows[pivot] = rows[pivot], rows[j]
        for i in range(n):
            if i != j and rows[i][j] != 0:
                ratio = rows[i][j] / rows[j][j]
                rows[i] = [x - ratio * y for x, y in zip(rows[i], rows[j])]
    return [[rows[i][n + c] / rows[i][i] for i in range(n)] for c in range(len(columns))]


def exact_step(n, graph, prev, tau):
    """One unforced backward-Euler step from ``prev`` in Fraction arithmetic.

    Every float given (prev, tau, the segment data) is taken as the rational
    it is; the mesh is the exact one of n free nodes, dx = 1/n, and
    A = M/tau + K is built from the closed-form P1 entries.  Eliminating the
    interior gives xi = e0 - g*r.  Returns (g, e0, cases) with one case per
    graph segment: None for a segment parallel to that line, else
    (r, flux, margin), where margin >= 0 exactly when the solution of the
    line lies on the segment, and |margin| is its distance to the nearer
    segment end (in r for an affine segment, in flux for a vertical one).
    No tolerance is used.
    """
    dx, tau = Fraction(1, n), Fraction(tau)
    u = [Fraction(v) for v in prev]
    m_diag = [2 * dx / 3] * (n - 1) + [dx / 3]
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = m_diag[i] / tau + (2 if i < n - 1 else 1) / dx
        if i:
            a[i][i - 1] = a[i - 1][i] = dx / 6 / tau - 1 / dx
    rhs = [(m_diag[i] * u[i] + sum(dx / 6 * u[j] for j in (i - 1, i + 1) if 0 <= j < n)) / tau
           for i in range(n)]
    interior = [row[: n - 1] for row in a[: n - 1]]
    y, w = _exact_solve(interior, [rhs[: n - 1], [row[n - 1] for row in a[: n - 1]]])
    coupling = a[n - 1][n - 2]
    g = a[n - 1][n - 1] - coupling * w[-1]
    e0 = rhs[n - 1] - coupling * y[-1]
    return g, e0, exact_cases(graph, g, e0)


def exact_cases(graph, g, e0):
    """Where the line xi = e0 - g*r meets each graph segment, in Fraction
    arithmetic: the cases of exact_step for a step with Schur complement g
    and flux offset e0 (both rationals)."""
    cases = []
    for seg in graph.segments:
        if isinstance(seg, VerticalSegment):
            r = Fraction(seg.r)
            flux = e0 - g * r
            ends = [flux - Fraction(seg.xi_lo), Fraction(seg.xi_hi) - flux]
        elif g + Fraction(seg.slope) == 0:
            cases.append(None)
            continue
        else:
            r = (e0 - Fraction(seg.intercept)) / (g + Fraction(seg.slope))
            flux = Fraction(seg.slope) * r + Fraction(seg.intercept)
            ends = [r - Fraction(seg.r_lo) if math.isfinite(seg.r_lo) else math.inf,
                    Fraction(seg.r_hi) - r if math.isfinite(seg.r_hi) else math.inf]
        cases.append((r, flux, min(ends)))
    return cases


def exact_solution_count(graph, g, e0, tol=1e-9):
    """The number of distinct boundary values r solving the step of
    exact_cases, those within ``tol`` of the last counted one counted once:
    a corner is reported by two segments, whose float ends meet only up to
    rounding."""
    rs = sorted(case[0] for case in exact_cases(graph, g, e0) if case and case[2] >= 0)
    return sum(1 for i, r in enumerate(rs) if i == 0 or r - rs[i - 1] > tol)


def is_monotone_step(graph, g):
    """Whether r -> g*r + dj(r) is monotone: every affine slope above -g and
    every vertical segment an upward jump (its left neighbour's value at its
    point is the lower end)."""
    segs = graph.segments
    return (all(g + Fraction(seg.slope) > 0 for seg in graph.affine)
            and all(segs[i - 1].value(seg.r) < segs[i + 1].value(seg.r)
                    for i, seg in enumerate(segs) if isinstance(seg, VerticalSegment)))


def semi_discrete_heat(mesh, a0, times):
    """The exact solution of M a' + K a = 0 from a(0) = a0, the zero-flux
    semi-discrete heat equation, at each of ``times``: with M = L L^T and
    S = L^{-1} K L^{-T} = Q diag(lam) Q^T from a dense eigh, L^T a(t) =
    Q exp(-lam t) Q^T L^T a0.  An (len(times), n) array."""
    m, k = dense_mass_and_stiffness(mesh)
    low = np.linalg.cholesky(m)
    half = np.linalg.solve(low, k)  # L^{-1} K
    lam, q = np.linalg.eigh(np.linalg.solve(low, half.T))  # L^{-1} (L^{-1} K)^T
    coef = q.T @ (low.T @ np.asarray(a0, dtype=float))
    return np.array([np.linalg.solve(low.T, q @ (np.exp(-lam * t) * coef)) for t in times])


def step_mean(f, tau, k):
    """Mean of the action vector f(t) over ((k-1)*tau, k*tau), by 5-point
    Gauss-Legendre quadrature: exact up to rounding for f polynomial in t of
    degree at most 9, where the library's Simpson rule is exact to degree 3."""
    nodes, weights = np.polynomial.legendre.leggauss(5)
    times = (k - 0.5) * tau + 0.5 * tau * nodes
    return sum(w * np.asarray(f(t), dtype=float) for w, t in zip(weights, times)) / 2.0


def branch_id(tree, k, row):
    """Id of row ``row`` of level ``k``: "0", then ".<segment>" for every
    step of the path that the parent links lead from the root to it."""
    segments = []
    for level in reversed(tree.levels[1:k + 1]):
        segments.append(int(level.segment[row]))
        row = int(level.parent[row])
    assert row == 0, row  # the root level has one row
    return "".join(["0"] + [".%d" % s for s in reversed(segments)])


def tree_branch_ids(tree):
    """The id of every row of every level, by branch_id: O(rows * depth)."""
    return [[branch_id(tree, k, row) for row in range(len(level))]
            for k, level in enumerate(tree.levels)]


def check_tree(tree, graph, f=None, rtol=1e-12, tol=1e-12):
    """Dense certificate of a solution tree: every branch solves the step
    inclusion it claims, against its parent.

    Each row of the residual (M/tau + K) a + e_n*xi - M a_parent/tau - f_k,
    with matrices from dense_step_matrix and f_k = step_mean(f, tau, k) for
    the forcing ``f`` given to ``run`` (none when f is None), must be within
    ``rtol`` of that row's scale, the sum of the magnitudes of its terms.
    The boundary pair (a_n, xi) must lie, within ``tol``, on the graph
    segment that the branch's case tag names: affine tags ``a<i>`` by the
    segment's closed interval and line, vertical tags ``v<i>`` by its point
    and flux interval.  The states are those ``tree.level_states()``
    replays, with each level's stored boundary values ``r`` as their last
    entries.  The ids ``tree.level_ids()`` derives must be those of
    tree_branch_ids, and distinct within each level.
    """
    tau = tree.config.tau
    m, a = dense_step_matrix(tree.mesh, tau)
    ids = tree_branch_ids(tree)
    assert list(tree.level_ids()) == ids
    assert all(len(set(level)) == len(level) for level in ids)
    checked = 0
    stacks = tree.level_states()
    prev_states = next(stacks)
    for k, states in enumerate(stacks, start=1):
        f_k = np.zeros(tree.mesh.n) if f is None else step_mean(f, tau, k)
        level = tree.levels[k]
        assert states.shape == (len(level), tree.mesh.n)
        assert np.array_equal(states[:, -1], level.r)
        for i, bid in enumerate(ids[k]):
            state, prev = states[i], prev_states[level.parent[i]]
            xi = float(level.flux[i])
            tag = tree.tags[level.segment[i]]
            terms = a @ state - m @ prev / tau - f_k
            terms[-1] += xi
            scale = np.abs(a) @ np.abs(state) + np.abs(m) @ np.abs(prev) / tau + np.abs(f_k)
            scale[-1] += abs(xi)
            worst = np.max(np.abs(terms) / scale)
            assert worst <= rtol, (k, bid, worst)

            r = state[-1]
            seg = graph.segments[int(tag[1:])]
            if tag[0] == "v":
                assert isinstance(seg, VerticalSegment), tag
                assert abs(r - seg.r) <= tol, (bid, r, seg)
                assert seg.xi_lo - tol <= xi <= seg.xi_hi + tol, (bid, xi, seg)
            else:
                assert isinstance(seg, AffineSegment), tag
                assert seg.r_lo - tol <= r <= seg.r_hi + tol, (bid, r, seg)
                line = seg.slope * r + seg.intercept
                assert abs(xi - line) <= tol * max(1.0, abs(xi)), (bid, xi, line)
            checked += 1
        prev_states = states
    return checked


def greedy_merge_indices(states, tol):
    """Indices of the rows kept when merging ``states`` in order: a row is
    dropped when its max-norm distance to an earlier kept row is below
    ``tol``.  Compares every row with every kept row, O(B^2)."""
    keep = []
    for i, s in enumerate(states):
        if not any(np.abs(states[j] - s).max() < tol for j in keep):
            keep.append(i)
    return keep


def fd_directional_sup(j, r, d, steps=(1e-3, 1e-4, 1e-5, 1e-6)):
    """Limsup difference-quotient estimate of the directional derivative.

    For each step the supremum over base offsets {0, -step*d} captures both
    one-sided quotients; the estimate at the finest step is returned.
    """
    est = None
    for lam in steps:
        est = max(
            (j(r + off + lam * d) - j(r + off)) / lam for off in (0.0, -lam * d)
        )
    return est


def brute_force_bv2(values, norm):
    """Max over all increasing index subsequences of the sum of squared steps."""
    n = len(values)
    best = 0.0
    indices = range(n)
    for size in range(2, n + 1):
        for combo in itertools.combinations(indices, size):
            total = 0.0
            for a, b in zip(combo, combo[1:]):
                total += norm(values[b] - values[a]) ** 2
            best = max(best, total)
    return best


def schur_parallel_j1(g):
    """Breakpoints and (c2, c1, c0) pieces of a continuous potential: j1 up to
    r = 3, then a piece whose derivative has the Schur line's slope -g on
    [3, 4], past the reach of u0 = 1.5 (j1's flux is never negative), then
    constant.  Every parent of every level of a run with Schur complement g
    records one parallel-segment failure, and the run survives them."""
    c2, c1, c0 = -g / 2, 3 * g, 0.5 - 4.5 * g
    return [0.0, 1.0, 3.0, 4.0], [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 0.5),
                                  (c2, c1, c0), (0.0, 0.0, (c2 * 4.0 + c1) * 4.0 + c0)]


def random_potential(rng, max_breaks=3, max_curvature=0.8):
    """Random continuous piecewise-quadratic potential with affine tails."""
    n_breaks = int(rng.integers(1, max_breaks + 1))
    breaks = np.sort(rng.uniform(-2.0, 2.5, size=n_breaks))
    while np.any(np.diff(breaks) < 0.2):
        breaks = np.sort(rng.uniform(-2.0, 2.5, size=n_breaks))
    pieces = [(0.0, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))]
    for i, r in enumerate(breaks):
        c2 = 0.0 if i == n_breaks - 1 else float(rng.uniform(-max_curvature, max_curvature))
        c1 = float(rng.uniform(-1, 1))
        prev_val = (pieces[-1][0] * r + pieces[-1][1]) * r + pieces[-1][2]
        c0 = prev_val - (c2 * r + c1) * r
        pieces.append((c2, c1, c0))
    return PiecewiseQuadraticPotential(breaks.tolist(), pieces)


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
    assert max(tree.branch_counts()) == 1, "apriori_bound_suite takes single-branch trees"
    kit = MeshNorms(tree.mesh)
    states = np.array(tree.path_states(0))
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


def heat_series_solution(x, t, amplitudes):
    """Separated-variables solution sum_m a_m exp(-lam_m^2 t) sin(lam_m x)."""
    x = np.asarray(x, dtype=float)
    u = np.zeros_like(x)
    for m, a in enumerate(amplitudes, start=1):
        lam = (m - 0.5) * math.pi
        u += a * math.exp(-lam * lam * t) * np.sin(lam * x)
    return u
