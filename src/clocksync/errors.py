"""Exception hierarchy. The CLI maps these onto exit codes (see cli.py)."""


class ClockSyncError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ClockSyncError):
    """Invalid or unparseable run configuration (CLI exit code 2)."""


class StabilityError(ClockSyncError):
    """Drift matrix has an eigenvalue with non-negative real part."""


class LyapunovSolveError(ClockSyncError):
    """Lyapunov solve failed or its residual exceeds tolerance."""


class FrameMismatchError(ClockSyncError):
    """Operation received dynamics/covariance in the wrong frame or size."""


class BranchSelectionError(ClockSyncError):
    """Mechanical and optical eigenvalue branches cannot be told apart."""


class ConstantSeriesError(ClockSyncError):
    """Correlation of a constant series is undefined."""


class EnsembleError(ClockSyncError):
    """Ensemble too small or inconsistent for the requested statistic."""


class TickExtractionError(ClockSyncError, ValueError):
    """Oscillator phase is not advancing, or a record has too few ticks."""


class PlateauError(ClockSyncError):
    """Transient correlation has not reached a plateau in the window."""


class ThresholdError(ClockSyncError):
    """Synchronization threshold not bracketed by the sweep."""


class TurningPointError(ClockSyncError):
    """Entropy production rate has no interior maximum in the sweep."""
