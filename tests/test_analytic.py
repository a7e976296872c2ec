from __future__ import annotations

import math

import numpy as np
import pytest

from srlaser import (
    BelowThresholdError,
    SystemParams,
    crossover_linewidth,
    derived,
    limit_linewidths,
    preset,
    tieri_linewidth,
    to_hz,
)


# ------------------------------------------------------- mean-field formula

def test_tieri_balanced_pump_is_below_threshold():
    p = SystemParams(n_atoms=100, g=0.1, kappa=1.0, gamma=0.05, eta=0.05)
    with pytest.raises(BelowThresholdError):
        tieri_linewidth(p)
    with pytest.raises(BelowThresholdError, match="d0 undefined"):
        tieri_linewidth(p.updated(gamma=0.0, eta=0.0))


def test_tieri_weak_gain_is_below_threshold():
    # C d0 < Gamma: tiny coupling cannot sustain the mean-field solution
    p = SystemParams(n_atoms=2, g=1e-4, kappa=1.0, gamma=0.01, eta=0.2)
    with pytest.raises(BelowThresholdError, match="below"):
        tieri_linewidth(p)


def test_tieri_regression_value():
    # frozen by direct evaluation at sr88, N=1e4, eta=20 gamma
    p = preset("sr88", n_atoms=10**4, eta=20 * preset("sr88").gamma)
    v = tieri_linewidth(p)
    assert v == pytest.approx(2.5063854896e3, rel=1e-9)
    assert to_hz(v) == pytest.approx(398.9036, rel=1e-6)


def test_tieri_matches_direct_arithmetic():
    # independent re-evaluation, with chi > 0 pinning Gamma = eta + gamma + 2 chi
    p = SystemParams(n_atoms=50, g=0.25, kappa=1.0, gamma=0.01, eta=0.2, chi=0.03)
    big_c = p.n_atoms * 4.0 * p.g**2 / p.kappa
    big_gamma = p.eta + p.gamma + 2.0 * p.chi
    d0 = (p.eta - p.gamma) / (p.eta + p.gamma)
    expected = (0.5 * (big_c + big_gamma) / (big_c * d0 - big_gamma)
                * big_gamma / (p.eta + p.gamma)
                * 4.0 * p.g**2 * p.kappa / (p.kappa + big_gamma) ** 2)
    v = tieri_linewidth(p)
    assert v == pytest.approx(expected, rel=1e-13)


# ------------------------------------------------------- crossover formula

def test_crossover_regression_value():
    p = preset("sr88", n_atoms=10**4, eta=20 * preset("sr88").gamma)
    v = crossover_linewidth(p, -1234.5)
    assert v == pytest.approx(5.7699430478e6, rel=1e-9)


def test_crossover_collective_purcell_limit():
    # M=-N/2, Gamma=0, weak collective coupling: result -> N Gamma_c
    for two_rabi, tol in ((1e-2, 1e-3), (5e-3, 1e-3)):
        g = two_rabi / (2.0 * math.sqrt(100))
        p = SystemParams(n_atoms=100, g=g, kappa=1.0, gamma=0.0)
        assert crossover_linewidth(p, -50.0) == pytest.approx(
            derived(p).c_collective, rel=tol)


def test_crossover_collective_rabi_limit():
    # M=-N/2, Gamma=0, deep strong coupling: result -> 2 sqrt(N) g
    g = 100.0 / (2.0 * math.sqrt(100))
    p = SystemParams(n_atoms=100, g=g, kappa=1.0, gamma=0.0)
    rabi = 2.0 * derived(p).collective_coupling
    assert crossover_linewidth(p, -50.0) == pytest.approx(rabi, rel=1e-2)


def test_crossover_strong_pump_form():
    # M=+N/2 at small radicand reduces to (Gamma kappa - 4 N g^2)/(Gamma + kappa)
    g = math.sqrt(0.099 / 400.0)
    p = SystemParams(n_atoms=100, g=g, kappa=1.0, gamma=0.0, eta=0.1)
    expected = (0.1 - 4 * 100 * g * g) / 1.1
    assert crossover_linewidth(p, 50.0) == pytest.approx(expected, rel=1e-2)


def test_crossover_lossless_cavity_raises():
    p = SystemParams(n_atoms=2, g=0.04, kappa=0.0, gamma=0.1, eta=0.01)
    with pytest.raises(ValueError, match="lossy cavity"):
        crossover_linewidth(p, -0.8)


def test_crossover_cavity_asymptote():
    # Gamma far above every other rate: width saturates at kappa
    p = SystemParams(n_atoms=100, g=math.sqrt(1.0 / 400.0), kappa=1.0, gamma=0.0,
                     eta=400.0)
    assert crossover_linewidth(p, 0.0) == pytest.approx(1.0, rel=1e-2)


def test_crossover_negative_radicand_raises():
    # deep inverted collective coupling at Gamma=0 drives the radicand negative
    p = SystemParams(n_atoms=100, g=1.0, kappa=1.0, gamma=0.0)
    with pytest.raises(ValueError, match="radicand"):
        crossover_linewidth(p, 50.0)


def test_crossover_small_radicand_expansion():
    # radicand argument < 1e-2 happens for Gamma >> kappa, or for
    # Gamma ~ 2 M Gamma_c cancellation; both reduce to the printed quotient
    cases = []
    for ratio in (500.0, 1000.0, 5000.0):
        for m in (-50.0, 0.0, 50.0):
            cases.append((1.0, ratio, 1e-3, 100, m))
    for delta in (2e-4, -2e-4, 1e-3):
        gamma_big = 0.1
        purcell = (gamma_big - delta) / 100.0  # 2 M Gamma_c = Gamma - delta
        cases.append((1.0, gamma_big, purcell, 100, 50.0))
    for kappa, gamma_big, purcell, n, m in cases:
        # kappa = 1, so purcell = 4 g^2 and Gamma = gamma with no pump or dephasing
        p = SystemParams(n_atoms=n, g=math.sqrt(purcell / 4.0), kappa=kappa,
                         gamma=gamma_big)
        arg = 4.0 * (gamma_big / kappa - 2.0 * m * purcell / kappa) \
            / (gamma_big / kappa + 1.0) ** 2
        assert abs(arg) < 1e-2
        expansion = (gamma_big - 2.0 * m * purcell) / (gamma_big / kappa + 1.0)
        assert crossover_linewidth(p, m) == pytest.approx(expansion, rel=1e-2)


def test_crossover_strictly_decreasing_in_m():
    p = preset("sr88", n_atoms=1000, eta=10 * preset("sr88").gamma)
    values = []
    for m in np.linspace(-500.0, 500.0, 101):
        try:
            values.append(crossover_linewidth(p, m))
        except ValueError:
            break  # radicand turns negative at large M and stays negative
    assert len(values) > 20
    assert np.all(np.diff(values) < 0.0)


def test_crossover_sign_tracks_net_damping():
    # positive while Gamma > 2 M Gamma_c; the inverted-gain side comes out
    # negative (unstable branch), not erroring, since the radicand stays >= 0
    rng = np.random.default_rng(5)
    seen_negative = 0
    for _ in range(200):
        n = int(rng.integers(1, 10**4))
        p = SystemParams(
            n_atoms=n,
            g=10.0 ** rng.uniform(-3, 0),
            kappa=10.0 ** rng.uniform(-1, 2),
            gamma=10.0 ** rng.uniform(-4, -1),
            eta=10.0 ** rng.uniform(-4, 1),
        )
        m = rng.uniform(-0.5, 0.5) * n
        d = derived(p)
        try:
            v = crossover_linewidth(p, m)
        except ValueError:
            continue
        if d.big_gamma > 2.0 * m * d.purcell:
            assert v > 0.0
        else:
            assert v <= 0.0
            seen_negative += 1
    assert seen_negative > 0


# ----------------------------------------------------------------- limits

def test_limit_values_sr88():
    p = preset("sr88", n_atoms=100)
    lim = limit_linewidths(p)
    assert to_hz(lim.collective_rabi) == pytest.approx(212e3, rel=1e-12)
    assert lim.n_purcell == pytest.approx(derived(p).c_collective, rel=1e-12)
    assert lim.cavity == p.kappa


def test_strong_pump_identity():
    # (Gamma kappa - 4 N g^2)/(Gamma + kappa) == (Gamma - N Gamma_c)/(Gamma/kappa + 1)
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = SystemParams(
            n_atoms=int(rng.integers(1, 500)),
            g=10.0 ** rng.uniform(-3, 1),
            kappa=10.0 ** rng.uniform(-2, 2),
            gamma=10.0 ** rng.uniform(-4, 0),
            eta=10.0 ** rng.uniform(-4, 2),
            chi=10.0 ** rng.uniform(-6, 0),
        )
        d = derived(p)
        lim = limit_linewidths(p)
        alt = (d.big_gamma - d.c_collective) / (d.big_gamma / p.kappa + 1.0)
        assert lim.strong_pump == pytest.approx(alt, rel=1e-12)


def test_strong_pump_limit_of_a_lossless_cavity():
    # kappa = 0: (Gamma kappa - 4 N g^2)/(Gamma + kappa) = -4 N g^2 / Gamma
    lim = limit_linewidths(SystemParams(n_atoms=2, g=0.04, kappa=0.0, gamma=0.1, eta=0.01))
    assert lim.strong_pump == pytest.approx(-4 * 2 * 0.04**2 / 0.11, rel=1e-12)
    assert lim.n_purcell == math.inf


@pytest.mark.parametrize("g", [0.1, 0.0])
def test_strong_pump_limit_without_loss_or_decoherence_is_nan(g):
    # Gamma + kappa = 0: (Gamma kappa - 4 N g^2) / (Gamma + kappa) does not exist
    lim = limit_linewidths(SystemParams(n_atoms=2, g=g, kappa=0.0, gamma=0.0, eta=0.0))
    assert math.isnan(lim.strong_pump)
    assert lim.collective_rabi == 2.0 * math.sqrt(2.0) * g and lim.cavity == 0.0

