"""Simulation and mean-field toolkit for random client migration between
parallel processor-sharing servers."""

__version__ = "0.1.0"

from .model import (
    ConfigError,
    Policy,
    SystemConfig,
    SystemState,
    empirical_measure,
    rls_accepts,
    tail_sums,
)
from .ctmc import (
    SimulationError,
    simulate_closed,
    simulate_coupled,
    simulate_open,
    step,
)
from .balance import (
    BalanceTimeResult,
    lower_bound_estimates,
    measure_balance_time,
    balance_time_bound,
)
from .meanfield import (
    FixedPoint,
    OdeState,
    RlsEquilibrium,
    SolverError,
    equilibrium_rls,
    g_of_z,
    integrate,
    mean_occupancy,
    rhs_rlo,
    rhs_rlo_tail,
    rhs_rls,
    sojourn_time,
    solve_fixed_point_rlo,
    st_leq,
    throughput,
)
from .experiments import (
    SojournSummary,
    StabilityReport,
    ThroughputRow,
    counts_from_measure,
    drift_exclusion_threshold,
    kurtz_deviation,
    lyapunov_drift,
    measure_sojourns,
    stability_probe,
    throughput_comparison,
)

__all__ = [
    "__version__",
    "BalanceTimeResult", "ConfigError",
    "FixedPoint", "OdeState",
    "Policy", "RlsEquilibrium", "SimulationError", "SojournSummary",
    "SolverError", "StabilityReport", "SystemConfig", "SystemState",
    "ThroughputRow",
    "counts_from_measure", "drift_exclusion_threshold",
    "empirical_measure", "equilibrium_rls", "g_of_z", "integrate",
    "kurtz_deviation",
    "lower_bound_estimates", "lyapunov_drift",
    "mean_occupancy", "measure_balance_time", "measure_sojourns",
    "rhs_rlo", "rhs_rlo_tail", "rhs_rls", "rls_accepts",
    "simulate_closed", "simulate_coupled", "simulate_open", "sojourn_time",
    "solve_fixed_point_rlo", "st_leq", "stability_probe", "step",
    "tail_sums", "balance_time_bound", "throughput", "throughput_comparison",
]
