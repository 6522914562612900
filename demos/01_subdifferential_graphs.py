"""Build the two worked boundary potentials and inspect their generalized
gradient graphs.

The first potential has a nonmonotone (downward) derivative jump at r = 1,
the second a monotone (upward) one.  Both graphs carry the full interval
[0, 1] at the jump, which is what lets the boundary condition be multivalued.
"""

import numpy as np

from hvisolve import (
    clarke_subdifferential,
    growth_constant,
    potential_j1,
    potential_j2,
)


def describe(name, pot):
    graph = clarke_subdifferential(pot)
    print("potential %s: breakpoints %s" % (name, list(pot.breakpoints)))
    for seg in graph.segments:
        print("   ", seg)
    print("  growth constant (smallest c with |xi| <= c(1+|r|)):", growth_constant(graph))
    for r in (-1.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        lo, hi = graph.select(r)
        value = pot(r)
        pretty = "{%g}" % lo if lo == hi else "[%g, %g]" % (lo, hi)
        print("  j(%4.1f) = %7.4f   dj(%4.1f) = %s" % (r, value, r, pretty))
    print()


def main():
    describe("j1 (nonmonotone jump)", potential_j1())
    describe("j2 (monotone jump)", potential_j2())

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the plot")
        return
    fig, axes = plt.subplots(1, 2, figsize=(9, 3.2), sharey=True)
    for ax, (name, pot) in zip(axes, [("j1", potential_j1()), ("j2", potential_j2())]):
        graph = clarke_subdifferential(pot)
        for seg in graph.affine:
            lo = max(seg.r_lo, -1.0)
            hi = min(seg.r_hi, 3.0)
            rs = np.linspace(lo, hi, 50)
            ax.plot(rs, seg.slope * rs + seg.intercept, "b-")
        for seg in graph.vertical:
            ax.plot([seg.r, seg.r], [seg.xi_lo, seg.xi_hi], "b-")
        ax.set_title("boundary graph of %s" % name)
        ax.set_xlabel("r")
    axes[0].set_ylabel("xi")
    fig.tight_layout()
    fig.savefig("subdifferential_graphs.png", dpi=120)
    print("wrote subdifferential_graphs.png")


if __name__ == "__main__":
    main()
