"""Steady-state simulator for lasing in the superradiant crossover regime.

Second-order moment-closure dynamics of N atoms in a lossy cavity, filter
cavity emission spectra, closed-form linewidth predictions, collective
spin (Dicke) diagnostics, an exact small-N master-equation reference
solver, and a deterministic parameter-sweep runner.  All internal rates
are angular frequencies (rad/s); external interfaces use Hz.
"""

__version__ = "0.1.0"

from .analytic import (LimitLinewidths, crossover_linewidth, limit_linewidths,
                       tieri_linewidth)
from .cumulant import (MomentState, SolverConfig, initial_state, integrate,
                       rhs, steady_state)
from .dicke import (BranchRates, DickePoint, classify_regime,
                    collective_threshold, dicke_numbers, lowering_amplitude,
                    pump_branching)
from .errors import (BelowThresholdError, ConvergenceError, CutoffError,
                     FitError, MemoryBudgetError, ProbeError,
                     SimulationError, StiffIntegrationError)
from .model import (ETA_EXP, PRESET_NAMES, DerivedRates, SystemParams,
                    derived, from_hz, load_config, params_to_config, preset,
                    to_hz)
from .spectrum import (FilterProbe, LinewidthResult, LorentzianFit,
                       ResponsePoles, SpectrumScan, auto_probe,
                       fit_lorentzian, linewidth, pole_linewidth, scan)
from .sweep import EtaGrid, Observables, SweepConfig, SweepRow, run_grid

__all__ = [
    "__version__",
    "LimitLinewidths", "crossover_linewidth", "limit_linewidths",
    "tieri_linewidth",
    "MomentState", "SolverConfig", "initial_state", "integrate", "rhs",
    "steady_state",
    "BranchRates", "DickePoint", "classify_regime",
    "collective_threshold", "dicke_numbers", "lowering_amplitude",
    "pump_branching",
    "BelowThresholdError", "ConvergenceError", "CutoffError", "FitError",
    "MemoryBudgetError", "ProbeError", "SimulationError",
    "StiffIntegrationError",
    "ETA_EXP", "PRESET_NAMES", "DerivedRates", "SystemParams", "derived",
    "from_hz", "load_config", "params_to_config", "preset", "to_hz",
    "oracle_spectrum", "oracle_steady_state",
    "FilterProbe", "LinewidthResult", "LorentzianFit", "ResponsePoles",
    "SpectrumScan", "auto_probe", "fit_lorentzian",
    "linewidth", "pole_linewidth", "scan",
    "EtaGrid", "Observables", "SweepConfig", "SweepRow", "run_grid",
]

# The oracle imports scipy.sparse when it loads, so its names are imported
# on first access (PEP 562) and `import srlaser` needs numpy only.
_ORACLE_NAMES = frozenset(("oracle_spectrum", "oracle_steady_state"))


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
