"""clocksync: two stochastically driven mechanical clocks sharing a cavity.

Simulation and analysis of cavity-mediated clock synchronization and its
thermodynamic cost: effective dissipative coupling, NESS covariances and
entropy production rates, Langevin trajectories, tick statistics, and
quench transients.
"""

__version__ = "0.1.0"

from .errors import (BranchSelectionError, ClockSyncError, ConfigError,
                     ConstantSeriesError, EnsembleError, FrameMismatchError,
                     LyapunovSolveError, PlateauError, StabilityError,
                     ThresholdError, TickExtractionError, TurningPointError)
from .model import (EffectiveCoupling, LinearDynamics, NormalModes,
                    PhysicalParams, cavity_susceptibility, effective_coupling,
                    full_drift_and_diffusion, normal_modes_closed_form,
                    normal_modes_numeric, paper_preset, reduced_drift_matrix)
from .steadystate import (CovarianceState, EntropyRates, analytic_sync_degree,
                          entropy_rates, occupations, solve_lyapunov,
                          steady_state)
from .trajectory import (Trajectory, displacements, propagate_exact,
                         run_ensemble)
from .metrics import (SyncMetrics, TransientResult, power_spectrum,
                      transient_time)
from .experiments import (SweepRow, find_threshold, find_turning_point,
                          sweep_coupling, transient_experiment)

__all__ = [
    "BranchSelectionError", "ClockSyncError", "ConfigError",
    "ConstantSeriesError", "CovarianceState", "EffectiveCoupling",
    "EnsembleError", "EntropyRates", "FrameMismatchError", "LinearDynamics",
    "LyapunovSolveError", "NormalModes", "PhysicalParams", "PlateauError",
    "StabilityError", "SweepRow", "SyncMetrics", "ThresholdError",
    "TickExtractionError", "Trajectory",
    "TransientResult", "TurningPointError", "analytic_sync_degree",
    "cavity_susceptibility", "displacements", "effective_coupling",
    "entropy_rates", "find_threshold", "find_turning_point",
    "full_drift_and_diffusion", "normal_modes_closed_form",
    "normal_modes_numeric", "occupations", "paper_preset", "power_spectrum",
    "propagate_exact", "reduced_drift_matrix", "run_ensemble",
    "solve_lyapunov", "steady_state", "sweep_coupling",
    "transient_experiment", "transient_time",
]
