"""Independent reference computations used by the test suite.

Everything here deliberately avoids the library's solution paths: dense numpy
linear algebra instead of the tridiagonal elimination, grid scanning instead
of segment folding, exhaustive subsequence enumeration instead of dynamic
programming, finite differences instead of exact graph values, and all-pairs
comparison instead of a window on sorted boundary values.
"""

import functools
import itertools
import math

import numpy as np

from hvisolve import (
    AffineSegment,
    PiecewiseQuadraticPotential,
    VerticalSegment,
    assemble_mass,
    assemble_stiffness,
)


def dense_step_matrix(mesh, tau):
    m = assemble_mass(mesh).to_dense().astype(float)
    k = assemble_stiffness(mesh).to_dense().astype(float)
    return m, m / tau + k


@functools.lru_cache(maxsize=8)
def _dense_mass_plus_stiffness(mesh):
    return (assemble_mass(mesh).to_dense() + assemble_stiffness(mesh).to_dense()).astype(float)


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
    m = assemble_mass(mesh).to_dense().astype(float)
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
