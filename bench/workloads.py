"""The benchmark's fixed workloads: CLI argv plus the facts the gate needs.

Why each workload was chosen is in BENCHMARK.json and README.md.

Inputs are fixed on purpose.  Varying them makes a different workload: small
changes of u0 move j1-enumerate's parent-step count by up to 50% and push the
branch tree into the max-branches cap, so the benchmark seed only reorders
repeats, never the inputs.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    # Problem data the gate's dense check rebuilds the Galerkin rows from.
    potential: str
    nx: int
    tau: float
    u0: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "j1-enumerate",
            ("run", "--potential", "j1", "--nx", "100", "--dt", "0.0025", "--T", "0.5",
             "--u0", "const:2", "--policy", "all", "--max-branches", "128"),
            "j1", 100, 0.0025, 2.0,
        ),
        Workload(
            "j2-preset",
            ("run", "--preset", "paper-j2"),
            "j2", 100, 0.01, 2.0,
        ),
    )
}

# A tiny branching run for checking the gate itself (see selftest.py).
SELFTEST = Workload(
    "selftest",
    ("run", "--potential", "j1", "--nx", "10", "--dt", "0.05", "--T", "0.3",
     "--u0", "const:1.5", "--policy", "all", "--max-branches", "128"),
    "j1", 10, 0.05, 1.5,
)


def by_name(name):
    if name == SELFTEST.name:
        return SELFTEST
    return WORKLOADS[name]
