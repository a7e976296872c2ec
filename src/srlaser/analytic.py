"""Closed-form linewidth expressions and their limiting cases."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BelowThresholdError
from .model import SystemParams, derived


@dataclass(frozen=True)
class LimitLinewidths:
    """The four limiting widths of the crossover formula, rad/s."""

    n_purcell: float
    collective_rabi: float
    strong_pump: float
    cavity: float


def tieri_linewidth(params: SystemParams) -> float:
    """Crossover laser linewidth of the driven steady state.

    Delta_nu = 1/2 (C + Gamma)/(C d0 - Gamma) * Gamma/(eta + gamma)
    * 4 g^2 kappa / (kappa + Gamma)^2 with C = N * 4 g^2 / kappa.  The
    rate in the third factor's denominator is the repump rate (here eta).
    Valid above threshold, C d0 > Gamma.
    """
    d = derived(params)
    c_coll = d.c_collective
    big_gamma = d.big_gamma
    if d.d0 is None:
        raise BelowThresholdError(
            "bare inversion d0 undefined (eta + gamma = 0); below threshold"
        )
    if c_coll * d.d0 <= big_gamma:
        raise BelowThresholdError(
            f"C d0 = {c_coll * d.d0:.4e} <= Gamma = {big_gamma:.4e}; below threshold"
        )
    four_g2_kappa = d.purcell * params.kappa**2  # 4 g^2 kappa
    return (
        0.5
        * (c_coll + big_gamma) / (c_coll * d.d0 - big_gamma)
        * big_gamma / (params.eta + params.gamma)
        * four_g2_kappa / (params.kappa + big_gamma) ** 2
    )


def crossover_linewidth(params: SystemParams, m_eff: float) -> float:
    """Pole linewidth valid across the whole crossover.

    Delta_nu = (Gamma + kappa)/2 * (sqrt(1 + 4 (Gamma/kappa
    - 2 M Gamma_c / kappa) / (Gamma/kappa + 1)^2) - 1), with M = m_eff the
    effective collective Jz projection of the operating point (N <sigma^z>
    / 2).  Undefined for a lossless cavity, kappa = 0, which raises
    ValueError.
    """
    d = derived(params)
    kappa = params.kappa
    if kappa <= 0.0:
        raise ValueError(f"kappa = {kappa:.4e}; the formula needs a lossy cavity")
    big_gamma = d.big_gamma
    ratio = big_gamma / kappa
    radicand = 1.0 + 4.0 * (ratio - 2.0 * m_eff * d.purcell / kappa) \
        / (ratio + 1.0) ** 2
    if radicand < 0.0:
        raise ValueError(f"negative radicand {radicand:.4e}; outside validity")
    return 0.5 * (big_gamma + kappa) * (math.sqrt(radicand) - 1.0)


def limit_linewidths(params: SystemParams) -> LimitLinewidths:
    """The four limits: N Gamma_c, 2 sqrt(N) g, (Gamma kappa - 4 N g^2)/
    (Gamma + kappa), and kappa.  With neither loss nor decoherence,
    Gamma + kappa = 0, the strong-pump limit does not exist and is nan."""
    d = derived(params)
    loss = d.big_gamma + params.kappa
    # 4 N g^2 = 4 (sqrt(N) g)^2 stays finite at kappa = 0, where N Gamma_c is not
    strong_pump = (d.big_gamma * params.kappa - 4.0 * d.collective_coupling**2) / loss \
        if loss > 0.0 else math.nan
    return LimitLinewidths(
        n_purcell=d.c_collective,
        collective_rabi=2.0 * d.collective_coupling,
        strong_pump=strong_pump,
        cavity=params.kappa,
    )
