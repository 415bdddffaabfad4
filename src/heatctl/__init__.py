"""Minimal-time and minimal-norm control of a 1D semilinear heat equation."""

from .core import (
    ControlSignal,
    DegenerateCostateError,
    DimensionMismatchError,
    EnumerationBudgetError,
    NoFeasibleBoundError,
    NonlinearityReport,
    NonlinearitySpec,
    SolverDivergenceError,
    SpatialGrid,
    StateTrajectory,
    TargetBall,
    l2_norm,
    make_nonlinearity,
    validate_initial_state,
    validate_nonlinearity,
)
from .oracle import (
    LevelBracket,
    ScalarInstance,
    bruteforce_minimal_norm_bracket,
    scalar_minimal_norm,
    scalar_minimal_time,
)
from .pde import (
    AdjointTrajectory,
    DirichletSpectrum,
    control_scaling_gap,
    decay_envelope_check,
    dirichlet_eigs,
    hitting_time,
    linear_free_state,
    linear_response,
    principal_eigenvalue,
    solve_adjoint,
    solve_forward,
)
from .reach import (
    FreeRun,
    ReachOptions,
    ReachResult,
    dual_bound_enclosure,
    dual_lower_bound,
    gradient_fd_check,
    min_terminal_norm,
)
from .solvers import (
    EquivalenceBoundReport,
    EquivalenceTimeReport,
    Problem,
    ValueCurve,
    ValuePoint,
    bangbang_report,
    free_decay_time,
    minimal_norm,
    minimal_norm_curve,
    minimal_time,
    minimal_time_curve,
    verify_equivalence_bound,
    verify_equivalence_time,
)

__version__ = "0.1.0"
