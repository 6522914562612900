"""Piecewise-quadratic potentials and their exact Clarke subdifferential graphs.

A potential j is given by quadratic pieces between breakpoints r_1 < ... < r_M,
continuous across breakpoints.  Its generalized gradient is then representable
exactly: affine segments (the piecewise derivatives) plus vertical segments
filling every derivative jump with the convex hull of the one-sided limits.
That hull is taken regardless of jump direction, so nonmonotone (downward)
jumps are covered too.
"""

import bisect
import math
from dataclasses import dataclass

# Closed-interval membership at breakpoints, absolute.
MEMBERSHIP_TOL = 1e-12
# Relative tolerance for value agreement of adjacent pieces at a breakpoint.
CONTINUITY_RTOL = 1e-12
# Relative derivative jump at a breakpoint above which a vertical segment fills it.
JUMP_RTOL = 1e-12


class PotentialError(ValueError):
    """Raised for potentials violating their structural invariants."""


class PiecewiseQuadraticPotential:
    """A locally Lipschitz j: R -> R made of quadratic pieces.

    Parameters
    ----------
    breakpoints : sequence of float
        Strictly increasing; may be empty (a single global piece).
    pieces : sequence of (c2, c1, c0)
        len(breakpoints) + 1 coefficient triples; piece i is
        j(r) = c2*r**2 + c1*r + c0 on the i-th interval.  Adjacent pieces
        must agree in value at the shared breakpoint.
    """

    def __init__(self, breakpoints, pieces):
        self.breakpoints = tuple(float(r) for r in breakpoints)
        self.pieces = tuple((float(c2), float(c1), float(c0)) for c2, c1, c0 in pieces)
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise PotentialError(
                "need exactly len(breakpoints)+1 pieces, got %d for %d breakpoints"
                % (len(self.pieces), len(self.breakpoints))
            )
        if not all(map(math.isfinite, self.breakpoints + sum(self.pieces, ()))):
            raise PotentialError("breakpoints and coefficients must be finite")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise PotentialError("breakpoints must be strictly increasing")
        for i, r in enumerate(self.breakpoints):
            left = self._piece_value(i, r)
            right = self._piece_value(i + 1, r)
            scale = max(1.0, abs(left), abs(right))
            if abs(left - right) > CONTINUITY_RTOL * scale:
                raise PotentialError(
                    "discontinuous at breakpoint r=%g: %r vs %r" % (r, left, right)
                )

    def _piece_value(self, i, r):
        c2, c1, c0 = self.pieces[i]
        return (c2 * r + c1) * r + c0

    def piece_index(self, r):
        """Index of the piece whose interval contains r (left piece at a breakpoint)."""
        return bisect.bisect_left(self.breakpoints, r)

    def __call__(self, r):
        return self._piece_value(self.piece_index(r), r)

    def __repr__(self):
        return "PiecewiseQuadraticPotential(breakpoints=%r, pieces=%r)" % (
            list(self.breakpoints),
            list(self.pieces),
        )


@dataclass(frozen=True)
class AffineSegment:
    """xi = slope*r + intercept on the closed interval [r_lo, r_hi]."""

    r_lo: float
    r_hi: float
    slope: float
    intercept: float

    def value(self, r):
        return self.slope * r + self.intercept

    def contains(self, r):
        return self.r_lo - MEMBERSHIP_TOL <= r <= self.r_hi + MEMBERSHIP_TOL


@dataclass(frozen=True)
class VerticalSegment:
    """The full interval [xi_lo, xi_hi] attached at the single point r."""

    r: float
    xi_lo: float
    xi_hi: float


class SubdifferentialGraph:
    """Closed graph of a generalized gradient, ordered left to right.

    ``segments`` interleaves AffineSegment (whose r-intervals tile R with no
    gaps) and VerticalSegment entries placed where the one-sided derivative
    limits differ.
    """

    def __init__(self, segments):
        self.segments = tuple(segments)
        self.affine = tuple(s for s in self.segments if isinstance(s, AffineSegment))
        self.vertical = tuple(s for s in self.segments if isinstance(s, VerticalSegment))
        if not self.affine:
            raise PotentialError("graph needs at least one affine segment")
        if not (self.affine[0].r_lo == -math.inf and self.affine[-1].r_hi == math.inf):
            raise PotentialError("affine segments must cover all of R")
        for a, b in zip(self.affine, self.affine[1:]):
            if a.r_hi != b.r_lo:
                raise PotentialError("affine segments must tile R without gaps")

    def select(self, r):
        """The set returned by the graph at r, as a closed interval (lo, hi)."""
        lo, hi = math.inf, -math.inf
        for seg in self.segments:
            if isinstance(seg, AffineSegment):
                if seg.contains(r):
                    v = seg.value(r)
                    lo = min(lo, v)
                    hi = max(hi, v)
            elif abs(r - seg.r) <= MEMBERSHIP_TOL:
                lo = min(lo, seg.xi_lo)
                hi = max(hi, seg.xi_hi)
        return lo, hi

    def __repr__(self):
        return "SubdifferentialGraph(%r)" % (list(self.segments),)


def clarke_subdifferential(j):
    """Exact generalized gradient graph of a piecewise-quadratic potential.

    For piecewise-C1 scalar functions the generalized gradient is the
    derivative where it exists and the convex hull of the one-sided limits at
    kinks; both are exactly representable here.
    """
    cuts = (-math.inf,) + j.breakpoints + (math.inf,)
    segments = []
    for i, (c2, c1, _) in enumerate(j.pieces):
        if i > 0:
            r = j.breakpoints[i - 1]
            left = segments[-1].value(r)
            right = 2.0 * c2 * r + c1
            scale = max(1.0, abs(left), abs(right))
            if abs(left - right) > JUMP_RTOL * scale:
                segments.append(VerticalSegment(r, min(left, right), max(left, right)))
        segments.append(AffineSegment(cuts[i], cuts[i + 1], 2.0 * c2, c1))
    return SubdifferentialGraph(segments)


class UnboundedGrowthError(ValueError):
    """Raised when no finite linear growth constant exists for a graph."""


def growth_constant(g):
    """Smallest c >= 0 with |xi| <= c*(1+|r|) for every (r, xi) on the graph.

    The ratio |slope*r + intercept|/(1+|r|) is piecewise monotone between
    segment endpoints, r = 0, and zeros of the numerator, so the supremum is
    attained at those points or in the r -> +-inf limit (where it equals
    |slope| of the unbounded segments).
    """
    best = 0.0
    for seg in g.segments:
        if isinstance(seg, VerticalSegment):
            best = max(best, max(abs(seg.xi_lo), abs(seg.xi_hi)) / (1.0 + abs(seg.r)))
            continue
        for r in (seg.r_lo, seg.r_hi):
            if math.isfinite(r):
                best = max(best, abs(seg.value(r)) / (1.0 + abs(r)))
            else:
                best = max(best, abs(seg.slope))
        if seg.r_lo < 0.0 < seg.r_hi:  # at an end r = 0, value(0) == intercept is counted above
            best = max(best, abs(seg.intercept))
    if not math.isfinite(best):
        raise UnboundedGrowthError("graph grows faster than linearly")
    return best


def potential_j1():
    """Kink potential: 0, then r^2/2 on (0,1), then 1/2.

    Its gradient jumps down from 1 to 0 at r=1 (a nonmonotone jump), so the
    graph carries the vertical segment [0,1] there.
    """
    return PiecewiseQuadraticPotential(
        breakpoints=[0.0, 1.0],
        pieces=[(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 0.5)],
    )


def potential_j2():
    """Kink potential: 0, then (1-(r-2)^2)/2 on (1,2), then 1/2.

    Its gradient jumps up from 0 to 1 at r=1 (a monotone jump) and decreases
    with slope -1 on (1,2).
    """
    return PiecewiseQuadraticPotential(
        breakpoints=[1.0, 2.0],
        pieces=[(0.0, 0.0, 0.0), (-0.5, 2.0, -1.5), (0.0, 0.0, 0.5)],
    )


def zero_flux_graph():
    """The trivial graph xi = 0 on all of R (plain homogeneous Neumann end)."""
    return SubdifferentialGraph([AffineSegment(-math.inf, math.inf, 0.0, 0.0)])
