"""Exception and warning types shared across the package."""


class SimulationError(Exception):
    """Base class for solver and pipeline failures."""


class ConvergenceError(SimulationError):
    """Steady-state search failed; carries the best residual seen."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class StiffIntegrationError(SimulationError):
    """Explicit time integration hit a step-size underflow."""


class FitError(SimulationError):
    """Line-shape fit found no line, or did not converge."""


class ProbeError(SimulationError):
    """Automatic filter-probe selection could not resolve the line."""


class CutoffError(SimulationError):
    """No Fock cutoff converges: a lossless cavity pumped at or above
    transparency, or a climb whose next cutoff is over the orbit cap.
    drift is the last measured moment drift, None if none was measured."""

    def __init__(self, message, drift=None):
        super().__init__(message)
        self.drift = drift


class MemoryBudgetError(SimulationError):
    """Requested exact-solver dimension exceeds the memory budget."""


class BelowThresholdError(SimulationError):
    """Analytic linewidth formula evaluated outside its lasing domain."""


class ClosureWarning(UserWarning):
    """A factorized quantity left its physical range and was clamped."""
