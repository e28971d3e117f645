"""Penalized stochastic p-Laplace equation: scheme, solver, verification.

A cell-centered 1-D simulator for the semi-implicit Euler-Maruyama
discretization of a parabolic p-Laplace equation with box penalization,
Lipschitz reaction, multiplicative truncated Q-Wiener noise and zero-flux
boundaries.  Each time step solves one strongly monotone operator
equation; the harness checks every computable inequality behind the
scheme's well-posedness.
"""

from .config import ParseError, RunConfig, ValidationError, emit_config, parse_config
from .harness import (
    CHECKLIST,
    McSummary,
    RefinementTable,
    VerificationReport,
    estimate_cp,
    manufactured_problem,
    manufactured_state,
    run_deterministic_convergence,
    run_eps_study,
    run_mc,
    run_pathwise_refinement,
    verify_all,
)
from .mesh import (
    Grid1D,
    GridFunction,
    inner,
    norm_l2,
    norm_w1p,
)
from .model import (
    InitialDatum,
    ModelParams,
    ReactionSpec,
    SourceSpec,
    make_initial,
    yosida_derivative,
    yosida_penalty,
    yosida_potential,
)
from .noise import NoiseModel, PathIncrements, bump_profile
from .operators import OperatorContext, TridiagonalMatrix
from .solver import (
    NonConvergence,
    SolveReport,
    SolverConfig,
    apriori_slack,
    solve,
    stability_slacks,
)
from .stepper import Trajectory, run_path, step

__version__ = "0.1.0"
