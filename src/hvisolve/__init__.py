"""Rothe-type solver for a 1D heat problem with a multivalued, nonmonotone
boundary condition, built from exact subdifferential graphs of
piecewise-quadratic potentials."""

from .analysis import (
    AbstractConstants,
    BoundSuiteVerdict,
    ConditionReport,
    ConvergenceTable,
    MeshNorms,
    NormReport,
    StudyProblem,
    apriori_bound_suite,
    bv2_seminorm,
    check_conditions,
    convergence_study,
    heat_series_solution,
    interpolant_norms,
)
from .fem1d import (
    Mesh1D,
    SingularSystemError,
    ThomasFactor,
    TridiagonalSystem,
    assemble_mass,
    assemble_stiffness,
    factor_tridiagonal,
    solve_tridiagonal,
)
from .nonsmooth import (
    AffineSegment,
    PiecewiseQuadraticPotential,
    PotentialError,
    SubdifferentialGraph,
    UnboundedGrowthError,
    VerticalSegment,
    clarke_subdifferential,
    growth_constant,
    potential_j1,
    potential_j2,
    zero_flux_graph,
)
from .rothe import (
    NoSolutionError,
    RotheConfig,
    SolutionTree,
    clement_average,
    project_initial,
    rothe_step_all,
    run,
)

__version__ = "0.1.0"
