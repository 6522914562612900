"""Evaluate the abstract solvability and uniqueness conditions on a few
constant sets.

The per-step elliptic inclusion is solvable below a step threshold tau0 that
depends on which structural case holds: a factoring map through H (case A),
a coercivity margin over the multivalued growth (case B), or a one-sided
growth bound on the directional derivative (case C).  A separate inequality
between the monotonicity constants yields uniqueness.
"""

from hvisolve import AbstractConstants, check_conditions


def show(title, constants):
    print(title)
    for line in check_conditions(constants).lines():
        print("  " + line)
    print()


def main():
    show(
        "coercivity margin alone (case B), no damping:",
        AbstractConstants(alpha=1.0, beta=0.0, c=0.3, iota_norm=1.0),
    )
    show(
        "case B with damping beta = 2 (finite step threshold):",
        AbstractConstants(alpha=1.0, beta=2.0, c=0.3, iota_norm=1.0),
    )
    show(
        "factoring map through H (case A), both thresholds reported:",
        AbstractConstants(alpha=1.0, beta=1.0, c=2.0, iota_norm=1.0, p_norm=0.5),
    )
    show(
        "directional growth bound (case C):",
        AbstractConstants(alpha=0.1, beta=0.5, c=1.0, iota_norm=1.0, d=1.0, sigma=1.5),
    )
    show(
        "uniqueness constants supplied (m1 >= m3 |iota|^2):",
        AbstractConstants(alpha=1.0, beta=0.0, c=0.3, iota_norm=1.0, m1=2.0, m2=1.0, m3=1.0),
    )
    print("note: the nonmonotone-jump boundary graph violates the one-sided")
    print("monotonicity behind m3, which is exactly why its discrete")
    print("trajectories can branch while the monotone-jump one stays unique")


if __name__ == "__main__":
    main()
