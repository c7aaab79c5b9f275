"""Stochastic exponential time-differencing solvers for semilinear SPDEs.

The package assembles finite-element / finite-volume generators on
rectangle grids, samples Q-Wiener increments from refinement-consistent
Brownian paths, applies phi-function actions by uniformization, and
integrates SPDE trajectories with exponential (SETDM0/SETDM1) or
semi-implicit schemes. `harness` runs Monte-Carlo convergence studies;
`cli` exposes everything as the `setd` command.
"""

from .darcy import FaceVelocities, PermeabilityField, solve_darcy, solve_pressure
from .errors import (
    ConfigError,
    DegenerateFitError,
    DivergenceError,
    InvalidArgumentError,
    KrylovConvergenceError,
    SETDError,
    SolverError,
)
from .grid import Grid, build_grid
from .harness import (
    ConvergenceReport,
    StudyConfig,
    advection_study,
    build_problem,
    fit_order,
    linear_additive_study,
    run_study,
)
from .integrators import (
    ProblemDef,
    Scheme,
    SchemeConfig,
    Trajectory,
    run,
    semi_implicit_step,
    setdm0_step,
    setdm1_step,
)
from .krylov import dense_phi, fused_action, phi0_action, phi1_action
from .noise import NoisePath, NoiseSpec, make_path, sample_increment
from .operators import DiscreteProblem, assemble_fem, assemble_fv, quadrature_weights
from .reference import (
    SpectralState,
    evolve_exact,
    exact_linear_step,
    finest_reference,
    linear_state,
)

__all__ = [
    "ConfigError",
    "ConvergenceReport",
    "DegenerateFitError",
    "DiscreteProblem",
    "DivergenceError",
    "FaceVelocities",
    "Grid",
    "InvalidArgumentError",
    "KrylovConvergenceError",
    "NoisePath",
    "NoiseSpec",
    "PermeabilityField",
    "ProblemDef",
    "SETDError",
    "Scheme",
    "SchemeConfig",
    "SolverError",
    "SpectralState",
    "StudyConfig",
    "Trajectory",
    "advection_study",
    "assemble_fem",
    "assemble_fv",
    "build_grid",
    "build_problem",
    "dense_phi",
    "evolve_exact",
    "exact_linear_step",
    "finest_reference",
    "fit_order",
    "fused_action",
    "linear_additive_study",
    "linear_state",
    "make_path",
    "phi0_action",
    "phi1_action",
    "quadrature_weights",
    "run",
    "run_study",
    "sample_increment",
    "semi_implicit_step",
    "setdm0_step",
    "setdm1_step",
    "solve_darcy",
    "solve_pressure",
]

__version__ = "0.1.0"
