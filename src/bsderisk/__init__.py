"""Monte Carlo engine for dynamic convex risk measures driven by
quadratic-exponential backward equations on jump-diffusion paths."""

__version__ = "0.1.0"

from .errors import (
    BsdeRiskError,
    ConfigParseError,
    ConfigValidationError,
    EstimatorFailure,
    RootFailure,
    SignedDensityFailure,
    SolverFailure,
    UnsupportedPayoff,
)
from .market import (
    AffinePayoff,
    ClippedPayoff,
    ExpAffinePayoff,
    JumpMark,
    LevyModel,
    PathBundle,
    Payoff,
    PolynomialPayoff,
    PortfolioPayoff,
    TimeGrid,
    build_grid,
    simulate_paths,
    terminal_values,
)
from .drivers import (
    Driver,
    LinearForm,
    make_entropic_driver,
    make_qexp_driver,
    make_sublinear_driver,
)
from .bsde import (
    RegressionConfig,
    condexp_at_node,
    residual_replay,
    solve_bsde,
)
from .measure import (
    DoleansReport,
    doleans_check,
    doleans_dade,
    weighted_condexp,
)
from .risk import (
    axiom_suite,
    dynamic_risk,
    entropic_closed_form,
    entropic_coherent_static,
)
from .allocation import (
    AllocationReport,
    build_allocation_report,
    convex_representation,
)
from .malliavin import (
    clark_ocone,
    entropic_controls,
    gamma_exponential_check,
    malliavin_derivative,
)
from .reporting import Row, RunReport, emit_report, read_report
from .scenario import ScenarioConfig, apply_overrides, build_scenario, load_config, run_scenario

__all__ = [
    "__version__",
    "BsdeRiskError",
    "ConfigParseError",
    "ConfigValidationError",
    "EstimatorFailure",
    "RootFailure",
    "SignedDensityFailure",
    "SolverFailure",
    "UnsupportedPayoff",
    "AffinePayoff",
    "ClippedPayoff",
    "ExpAffinePayoff",
    "JumpMark",
    "LevyModel",
    "PathBundle",
    "Payoff",
    "PolynomialPayoff",
    "PortfolioPayoff",
    "TimeGrid",
    "build_grid",
    "simulate_paths",
    "terminal_values",
    "Driver",
    "LinearForm",
    "make_entropic_driver",
    "make_qexp_driver",
    "make_sublinear_driver",
    "RegressionConfig",
    "condexp_at_node",
    "residual_replay",
    "solve_bsde",
    "DoleansReport",
    "doleans_check",
    "doleans_dade",
    "weighted_condexp",
    "axiom_suite",
    "dynamic_risk",
    "entropic_closed_form",
    "entropic_coherent_static",
    "AllocationReport",
    "build_allocation_report",
    "convex_representation",
    "clark_ocone",
    "entropic_controls",
    "gamma_exponential_check",
    "malliavin_derivative",
    "Row",
    "RunReport",
    "emit_report",
    "read_report",
    "ScenarioConfig",
    "apply_overrides",
    "build_scenario",
    "load_config",
    "run_scenario",
]
