import math
import re
import types

import numpy as np
import pytest

from hvisolve import (
    AffineSegment,
    PiecewiseQuadraticPotential,
    PotentialError,
    SubdifferentialGraph,
    VerticalSegment,
    clarke_subdifferential,
    growth_constant,
    potential_j1,
    potential_j2,
    zero_flux_graph,
)
from hvisolve import nonsmooth
from oracles import fd_directional_sup, random_potential


def test_j1_subdifferential_matches_closed_form():
    g = clarke_subdifferential(potential_j1())
    assert g.segments == (
        AffineSegment(-np.inf, 0.0, 0.0, 0.0),
        AffineSegment(0.0, 1.0, 1.0, 0.0),
        VerticalSegment(1.0, 0.0, 1.0),
        AffineSegment(1.0, np.inf, 0.0, 0.0),
    )


def test_j2_subdifferential_matches_closed_form():
    g = clarke_subdifferential(potential_j2())
    assert g.segments == (
        AffineSegment(-np.inf, 1.0, 0.0, 0.0),
        VerticalSegment(1.0, 0.0, 1.0),
        AffineSegment(1.0, 2.0, -1.0, 2.0),
        AffineSegment(2.0, np.inf, 0.0, 0.0),
    )


def test_globally_smooth_quadratic_has_single_affine_segment():
    j = PiecewiseQuadraticPotential([], [(0.5, 0.0, 0.0)])
    g = clarke_subdifferential(j)
    assert g.segments == (AffineSegment(-np.inf, np.inf, 1.0, 0.0),)


def test_potential_rejects_discontinuity():
    with pytest.raises(PotentialError):
        PiecewiseQuadraticPotential([1.0], [(0.0, 0.0, 0.0), (0.0, 0.0, 0.3)])
    with pytest.raises(PotentialError):  # a gap of 1e-9 is far above CONTINUITY_RTOL
        PiecewiseQuadraticPotential([1.0], [(0.0, 0.0, 0.0), (0.0, 0.0, 1e-9)])


def test_small_derivative_jump_gets_a_vertical_segment():
    # a jump of 1e-9 is far above JUMP_RTOL: the graph must fill it
    j = PiecewiseQuadraticPotential([1.0], [(0.0, 0.0, 0.0), (0.0, 1e-9, -1e-9)])
    assert clarke_subdifferential(j).vertical == (VerticalSegment(1.0, 0.0, 1e-9),)


def test_potential_rejects_unordered_breakpoints():
    with pytest.raises(PotentialError):
        PiecewiseQuadraticPotential(
            [1.0, 1.0], [(0.0, 0.0, 0.0)] * 3
        )


@pytest.mark.parametrize("breakpoints, pieces", [
    ([np.inf], [(0.0, 0.0, 0.0)] * 2),
    ([], [(np.nan, 0.0, 0.0)]),
    ([], [(0.0, -np.inf, 0.0)]),
    ([1.0], [(0.0, np.nan, 0.0), (0.0, 0.0, 0.0)]),
    ([1e200], [(1.0, 0.0, 0.0), (0.0, 0.0, 5.0)]),
], ids=["breakpoint-inf", "curvature-nan", "slope-minus-inf", "nan-across-breakpoint",
        "value-overflows-at-breakpoint"])
def test_potential_rejects_non_finite(breakpoints, pieces):
    with pytest.raises(PotentialError):
        PiecewiseQuadraticPotential(breakpoints, pieces)


def test_graph_of_an_overflowing_slope_is_rejected():
    # finite values, but the slope 2*1e308 overflows: no graph, not one
    # without the vertical segment its jump at r = 1 needs
    pot = PiecewiseQuadraticPotential([1.0], [(1e308, 0.0, 0.0), (0.0, 0.0, 1e308)])
    with pytest.raises(PotentialError, match="is not finite$"):
        clarke_subdifferential(pot)


@pytest.mark.parametrize("segments, message", [
    ([VerticalSegment(0.0, 0.0, 1.0)], "graph needs at least one affine segment"),
    ([AffineSegment(0.0, math.inf, 0.0, 0.0)], "affine segments must cover all of R"),
    ([AffineSegment(-math.inf, 0.0, 0.0, 0.0), AffineSegment(1.0, math.inf, 0.0, 0.0)],
     "affine segments must tile R without gaps"),
    ([AffineSegment(-math.inf, math.inf, math.inf, 0.0)], "is not finite"),
    ([AffineSegment(-math.inf, math.inf, 0.0, math.nan)], "is not finite"),
    ([AffineSegment(-math.inf, 1e300, 1e300, 0.0), AffineSegment(1e300, math.inf, 0.0, 0.0)],
     "is not finite"),
    ([AffineSegment(-math.inf, math.inf, 0.0, 0.0), VerticalSegment(0.0, -math.inf, 1.0)],
     "is not finite"),
], ids=["no-affine", "not-covering", "gap", "slope-inf", "intercept-nan",
        "value-overflows-at-end", "vertical-inf"])
def test_graph_rejects_bad_segments(segments, message):
    with pytest.raises(PotentialError, match=re.escape(message)):
        SubdifferentialGraph(segments)


def test_potential_values():
    j1, j2 = potential_j1(), potential_j2()
    assert j1(2.0) == 0.5
    assert j1(0.5) == 0.125
    assert j2(1.0) == 0.0


def test_graph_selection_examples():
    g1 = clarke_subdifferential(potential_j1())
    g2 = clarke_subdifferential(potential_j2())
    assert g1.select(1.0) == (0.0, 1.0)
    assert g1.select(0.5) == (0.5, 0.5)
    assert g2.select(3.0) == (0.0, 0.0)


def test_growth_constant_zero_graph():
    assert growth_constant(zero_flux_graph()) == 0.0


def _sampled_growth(g, lo=-10.0, hi=10.0, num=200001):
    # vectorized over affine segments plus the verticals
    rs = np.linspace(lo, hi, num)
    best = 0.0
    for seg in g.segments:
        if isinstance(seg, VerticalSegment):
            best = max(best, max(abs(seg.xi_lo), abs(seg.xi_hi)) / (1.0 + abs(seg.r)))
        else:
            sel = rs[(rs >= seg.r_lo) & (rs <= seg.r_hi)]
            if len(sel):
                best = max(best, float(np.max(np.abs(seg.slope * sel + seg.intercept) / (1.0 + np.abs(sel)))))
    return best


def test_growth_constant_builtin_potentials_vs_sampling():
    g1 = clarke_subdifferential(potential_j1())
    g2 = clarke_subdifferential(potential_j2())
    # |xi| <= 1 everywhere with the binding ratio 1/2 at r = 1 for both graphs
    assert growth_constant(g1) == pytest.approx(0.5, abs=1e-12)
    assert growth_constant(g2) == pytest.approx(0.5, abs=1e-12)
    assert growth_constant(g2) <= 1.0
    assert growth_constant(g1) == pytest.approx(_sampled_growth(g1), abs=1e-4)
    assert growth_constant(g2) == pytest.approx(_sampled_growth(g2), abs=1e-4)


def test_growth_constant_random_graphs_vs_sampling():
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = clarke_subdifferential(random_potential(rng))
        assert growth_constant(g) == pytest.approx(_sampled_growth(g), abs=1e-4)


def _check_directional(j, g, points):
    for r in points:
        lo, hi = g.select(r)
        for d, want in ((1.0, hi), (-1.0, -lo)):
            est = fd_directional_sup(j, r, d)
            assert est == pytest.approx(want, abs=1e-6), (r, d)


def test_directional_derivative_matches_graph_support():
    rng = np.random.default_rng(11)
    for j in (potential_j1(), potential_j2()):
        g = clarke_subdifferential(j)
        points = list(j.breakpoints) + list(rng.uniform(-2.0, 3.0, size=25))
        _check_directional(j, g, points)
    for _ in range(5):
        j = random_potential(rng)
        g = clarke_subdifferential(j)
        points = list(j.breakpoints) + list(rng.uniform(-2.5, 3.0, size=15))
        _check_directional(j, g, points)


def test_graph_selection_upper_semicontinuous_near_breakpoints():
    rng = np.random.default_rng(3)
    graphs = [clarke_subdifferential(j) for j in (potential_j1(), potential_j2())]
    graphs += [clarke_subdifferential(random_potential(rng)) for _ in range(3)]
    for g in graphs:
        for v in g.vertical:
            lo, hi = g.select(v.r)
            for eps in (1e-4, 1e-6, 1e-8):
                for r in (v.r - eps, v.r + eps):
                    a, b = g.select(r)
                    assert lo - 1e-3 <= a <= b <= hi + 1e-3
                    # accumulation points for eps -> 0 land inside the set
                    if eps <= 1e-8:
                        assert lo - 1e-6 <= a <= b <= hi + 1e-6


def _integrate_selection(g, a, b, panels=64):
    """Midpoint quadrature of the single-valued selection, split at kinks."""
    cuts = [a] + [v.r for v in g.vertical if a < v.r < b] + [b]
    cuts += [s.r_hi for s in g.affine if a < s.r_hi < b]
    cuts = sorted(set(cuts))
    total = 0.0
    for p, q in zip(cuts, cuts[1:]):
        xs = np.linspace(p, q, panels + 1)
        mids = 0.5 * (xs[:-1] + xs[1:])
        total += sum(g.select(m)[0] * (q - p) / panels for m in mids)
    return total


def test_integrating_graph_recovers_potential():
    rng = np.random.default_rng(23)
    potentials = [potential_j1(), potential_j2()] + [random_potential(rng) for _ in range(3)]
    for j in potentials:
        g = clarke_subdifferential(j)
        for a, b in ((-1.5, 2.7), (0.25, 1.0), (-0.3, 0.9)):
            got = _integrate_selection(g, a, b)
            assert got == pytest.approx(j(b) - j(a), abs=1e-9)


def test_linear_tails_flag():
    # affine unbounded pieces of j give flat unbounded segments of its graph
    def tail_slopes(j):
        return [seg.slope for seg in clarke_subdifferential(j).segments
                if isinstance(seg, AffineSegment) and not np.isfinite([seg.r_lo, seg.r_hi]).all()]

    assert tail_slopes(potential_j1()) == [0.0, 0.0]
    assert tail_slopes(PiecewiseQuadraticPotential([], [(0.5, 0.0, 0.0)])) == [1.0]


def test_graph_layer_runs_on_plain_floats():
    assert not [v for v in vars(nonsmooth).values()
                if isinstance(v, types.ModuleType) and v.__name__.split(".")[0] == "numpy"]
    graph = clarke_subdifferential(potential_j1())
    assert graph.affine[0].r_lo == -math.inf and graph.affine[-1].r_hi == math.inf
    lo, hi = graph.select(1.0)
    assert (type(lo), type(hi), lo, hi) == (float, float, 0.0, 1.0)
    assert type(growth_constant(graph)) is float
