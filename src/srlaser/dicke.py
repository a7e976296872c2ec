"""Collective-spin (Dicke) observables, pump branching and regime labels."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .cumulant import MomentState
from .errors import ClosureWarning
from .model import SystemParams, derived

_TRIANGLE_EPS = 1e-9

REGIME_SUBRADIANT = "subradiant"
REGIME_SUPERRADIANT = "superradiant"
REGIME_SUPERRADIANT_LASING = "superradiant_lasing"
REGIME_CONVENTIONAL = "conventional-like"
REGIME_DECOUPLED = "decoupled"


@dataclass(frozen=True)
class DickePoint:
    j_eff: float
    m_eff: float
    j_over_n: float
    m_over_n: float


@dataclass(frozen=True)
class BranchRates:
    """Pump-induced transition rates out of |J, M>.

    up_in_j keeps J, down_j lowers J by one, up_j raises J by one; they
    sum to eta (N/2 - M).
    """

    up_in_j: float
    down_j: float
    up_j: float

    @property
    def total(self) -> float:
        return self.up_in_j + self.down_j + self.up_j


def dicke_numbers(state: MomentState, params: SystemParams,
                  zz_corr: float | None = None) -> DickePoint:
    """Effective (J, M) from second-order moments.

    M = N <sigma^z> / 2 exactly.  <J^2> needs the two-atom sigma^z
    correlation; by default it is factorised as <sigma^z>^2, or pass the
    exact value via zz_corr.  A (numerically) negative <J^2> is clamped
    to zero with a warning.
    """
    n = params.n_atoms
    s = state.inversion
    zz = s * s if zz_corr is None else zz_corr
    m_eff = 0.5 * n * s
    j_sq = 0.75 * n + 0.25 * n * (n - 1) * (4.0 * state.pair_corr.real + zz)
    if j_sq < 0.0:
        warnings.warn(
            f"factorised <J^2> = {j_sq:.3e} < 0; clamping to 0", ClosureWarning
        )
        j_sq = 0.0
    j_eff = 0.5 * (math.sqrt(1.0 + 4.0 * j_sq) - 1.0)
    return DickePoint(
        j_eff=j_eff, m_eff=m_eff, j_over_n=j_eff / n, m_over_n=m_eff / n
    )


def lowering_amplitude(j: float, m: float) -> float:
    """Collective emission amplitude sqrt((J - M + 1)(J + M))."""
    if abs(m) > j + _TRIANGLE_EPS:
        raise ValueError(f"|M| = {abs(m)} exceeds J = {j}")
    product = (j - m + 1.0) * (j + m)
    return math.sqrt(max(product, 0.0))


def _check_triangle(n: int, j: float, m: float) -> None:
    if j < -_TRIANGLE_EPS or j > 0.5 * n + _TRIANGLE_EPS:
        raise ValueError(f"J = {j} outside [0, N/2] for N = {n}")
    if abs(m) > j + _TRIANGLE_EPS:
        raise ValueError(f"|M| = {abs(m)} exceeds J = {j}")


def pump_branching(n: int, j: float, m: float, eta: float) -> BranchRates:
    """Incoherent-pump branching rates out of the Dicke state |J, M>."""
    _check_triangle(n, j, m)
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    up_j = eta * (n - 2.0 * j) * (j + m + 1.0) * (j + m + 2.0) \
        / (4.0 * (j + 1.0) * (2.0 * j + 1.0))
    if j < _TRIANGLE_EPS:
        # J = 0 carries no in-shell or down channel; everything raises J.
        return BranchRates(0.0, 0.0, up_j)
    up_in_j = eta * (2.0 + n) * (j - m) * (j + m + 1.0) / (4.0 * j * (j + 1.0))
    down_j = eta * (n + 2.0 * j + 2.0) * (j - m) * (j - m - 1.0) \
        / (4.0 * j * (2.0 * j + 1.0))
    return BranchRates(up_in_j, down_j, up_j)


def classify_regime(state: MomentState, params: SystemParams) -> str:
    """Operating-regime label (one of the REGIME_* strings) from pump
    strength and photon number.

    Evaluation order: decoupled when g = 0, since no atom couples to the
    cavity; subradiant when the pump is below the single-atom
    cavity-enhanced decay rate; superradiant while the cavity holds less
    than one photon; superradiant lasing once eta also exceeds gamma; the
    remainder is conventional-like.
    """
    n_photons = state.photon_number
    if math.isnan(n_photons):
        raise ValueError("photon_number is NaN; cannot classify")
    if params.g == 0.0:
        return REGIME_DECOUPLED
    if params.eta < derived(params).purcell:
        return REGIME_SUBRADIANT
    if n_photons < 1.0:
        return REGIME_SUPERRADIANT
    if params.eta > params.gamma:
        return REGIME_SUPERRADIANT_LASING
    return REGIME_CONVENTIONAL


def collective_threshold(params: SystemParams) -> float:
    """Atom number (kappa / g)^2 above which sqrt(N) g exceeds kappa; inf
    at g = 0."""
    if params.g == 0.0:
        return math.inf
    return (params.kappa / params.g) ** 2
