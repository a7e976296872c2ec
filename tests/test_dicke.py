from __future__ import annotations

import math

import numpy as np
import pytest

import srlaser as sr
from srlaser import (
    ETA_EXP,
    MomentState,
    SystemParams,
    classify_regime,
    collective_threshold,
    dicke_numbers,
    lowering_amplitude,
    preset,
    pump_branching,
)
from srlaser.dicke import (
    REGIME_CONVENTIONAL,
    REGIME_DECOUPLED,
    REGIME_SUBRADIANT,
    REGIME_SUPERRADIANT,
    REGIME_SUPERRADIANT_LASING,
)
from srlaser.errors import ClosureWarning

from oracle_reference import atomic_collective_ops, dicke_basis


def _state(n=0.0, c=0j, s=0.0, p=0j):
    return MomentState(photon_number=n, atom_photon=c, inversion=s, pair_corr=p)


def _triangle(n):
    """All (J, M) lattice points for N atoms."""
    j = 0.5 * n
    ladder = []
    while j >= -1e-9:
        m = -j
        while m <= j + 1e-9:
            ladder.append((j, m))
            m += 1.0
        j -= 1.0
    return ladder


# ---------------------------------------------------------------- branching

@pytest.mark.parametrize("n", range(1, 21))
def test_branch_sum_rule(n):
    eta = 0.37
    for j, m in _triangle(n):
        rates = pump_branching(n, j, m, eta)
        expected = eta * (0.5 * n - m)
        assert rates.up_in_j >= 0 and rates.down_j >= 0 and rates.up_j >= 0
        if expected == 0.0:
            assert rates.total == pytest.approx(0.0, abs=1e-15)
        else:
            assert rates.total == pytest.approx(expected, rel=1e-12)


def test_branch_boundary_zeros():
    # top of ladder M=J: only the J-raising channel remains
    r = pump_branching(6, 2.0, 2.0, 1.0)
    assert r.up_in_j == 0.0 and r.down_j == 0.0 and r.up_j > 0.0
    # M = J-1 kills the J-lowering numerator
    assert pump_branching(6, 2.0, 1.0, 1.0).down_j == 0.0
    # maximal shell J=N/2 cannot raise J
    assert pump_branching(6, 3.0, 0.0, 1.0).up_j == 0.0


def test_branch_pinned_values():
    eta = 0.81
    r = pump_branching(4, 2.0, -2.0, eta)
    assert r.up_in_j == pytest.approx(eta, rel=1e-12)
    assert r.down_j == pytest.approx(3.0 * eta, rel=1e-12)
    assert r.up_j == pytest.approx(0.0, abs=1e-15)

    r = pump_branching(4, 1.0, 1.0, eta)
    assert r.up_in_j == pytest.approx(0.0, abs=1e-15)
    assert r.down_j == pytest.approx(0.0, abs=1e-15)
    assert r.up_j == pytest.approx(eta, rel=1e-12)

    r = pump_branching(4, 1.0, -1.0, eta)
    assert r.up_in_j == pytest.approx(1.5 * eta, rel=1e-12)
    assert r.down_j == pytest.approx(4.0 / 3.0 * eta, rel=1e-12)
    assert r.up_j == pytest.approx(eta / 6.0, rel=1e-12)
    assert r.total == pytest.approx(3.0 * eta, rel=1e-12)


def test_branch_j0_defined_by_continuity():
    r = pump_branching(4, 0.0, 0.0, 1.0)
    assert r.up_in_j == 0.0 and r.down_j == 0.0
    assert r.up_j == pytest.approx(2.0, rel=1e-12)  # eta (N/2 - 0)


def test_branch_rejects_outside_triangle():
    with pytest.raises(ValueError):
        pump_branching(4, 3.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        pump_branching(4, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        pump_branching(4, 1.0, 0.0, -1.0)


# ------------------------------------------------------- lowering amplitude

def test_lowering_amplitude_ladder():
    assert lowering_amplitude(2.0, -2.0) == 0.0
    assert lowering_amplitude(1.0, 1.0) == pytest.approx(math.sqrt(2.0))
    # half-inverted shell of N=100: amplitude ~ N/2, superradiant scaling
    assert lowering_amplitude(50.0, 0.0) == pytest.approx(math.sqrt(51.0 * 50.0))
    with pytest.raises(ValueError):
        lowering_amplitude(1.0, 2.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lowering_amplitude_matches_matrix_elements(n):
    # <J,M| J+ J- |J,M> = (J-M+1)(J+M) on the brute-force atomic space
    ops = atomic_collective_ops(n)
    jpjm = ops["jp"] @ ops["jm"]
    for j, m, vec in dicke_basis(n):
        norm = float(np.real(vec.conj() @ (jpjm @ vec)))
        assert norm == pytest.approx(lowering_amplitude(j, m) ** 2, abs=1e-10)


# ------------------------------------------------------------ dicke numbers

def test_dicke_numbers_pure_boundary_states():
    p4 = SystemParams(n_atoms=4, g=0.1, kappa=1.0, gamma=0.1)
    ground = dicke_numbers(_state(s=-1.0), p4)
    assert ground.j_eff == pytest.approx(2.0, rel=1e-12)
    assert ground.m_eff == pytest.approx(-2.0, rel=1e-12)
    inverted = dicke_numbers(_state(s=1.0), p4)
    assert inverted.j_eff == pytest.approx(2.0, rel=1e-12)
    assert inverted.m_eff == pytest.approx(2.0, rel=1e-12)
    assert ground.j_over_n == pytest.approx(0.5)
    assert ground.m_over_n == pytest.approx(-0.5)


def test_dicke_numbers_triplet_needs_exact_zz():
    # |1,0> of two atoms: s=0, p=1/2, <sz sz> = -1 exactly
    p2 = SystemParams(n_atoms=2, g=0.1, kappa=1.0, gamma=0.1)
    point = dicke_numbers(_state(s=0.0, p=0.5), p2, zz_corr=-1.0)
    assert point.j_eff == pytest.approx(1.0, rel=1e-12)
    assert point.m_eff == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dicke_numbers_recover_every_dicke_state(n):
    # averaged pair moments of |J,M| reproduce (J, M) through the quadratic solve
    params = SystemParams(n_atoms=n, g=0.1, kappa=1.0, gamma=0.1)
    ops = atomic_collective_ops(n)
    for j, m, vec in dicke_basis(n):
        def ev(op):
            return float(np.real(vec.conj() @ (op @ vec)))
        s = 2.0 * ev(ops["jz"]) / n
        if n > 1:
            pair_pm = (ev(ops["jp"] @ ops["jm"]) - (0.5 * n + ev(ops["jz"])))
            p = pair_pm / (n * (n - 1))
            zz = (4.0 * ev(ops["jz"] @ ops["jz"]) - n) / (n * (n - 1))
        else:
            p, zz = 0.0, None
        point = dicke_numbers(_state(s=s, p=p), params, zz_corr=zz)
        assert point.j_eff == pytest.approx(j, abs=1e-8)
        assert point.m_eff == pytest.approx(m, abs=1e-8)


def test_dicke_numbers_clamps_negative_j2():
    p4 = SystemParams(n_atoms=4, g=0.1, kappa=1.0, gamma=0.1)
    with pytest.warns(ClosureWarning):
        point = dicke_numbers(_state(s=0.0, p=-0.3), p4)
    assert point.j_eff == 0.0


# ----------------------------------------------------------------- regimes

def test_classify_subradiant_below_purcell_rate():
    p = preset("sr88", n_atoms=100)
    purcell = sr.derived(p).purcell
    regime = classify_regime(_state(n=0.01), p.updated(eta=purcell / 10))
    assert regime == REGIME_SUBRADIANT


def test_classify_order_of_evaluation():
    p = SystemParams(n_atoms=10, g=1.0, kappa=1.0, gamma=0.5, eta=5.0)
    assert classify_regime(_state(n=0.5), p) == REGIME_SUPERRADIANT
    assert classify_regime(_state(n=10.0), p) == REGIME_SUPERRADIANT_LASING
    weak_pump = p.updated(eta=4.1, gamma=4.2, chi=0.0)
    assert classify_regime(_state(n=10.0), weak_pump) == REGIME_CONVENTIONAL
    # g = 0 comes first: purcell = 0 would otherwise pass every pump test
    decoupled = p.updated(g=0.0)
    assert classify_regime(_state(n=0.0), decoupled) == REGIME_DECOUPLED
    assert classify_regime(_state(n=10.0), decoupled) == REGIME_DECOUPLED


def test_classify_flagship_point_is_superradiant_lasing():
    p = preset("sr88", n_atoms=10**5, eta=ETA_EXP)
    state = sr.steady_state(p)
    assert classify_regime(state, p) == REGIME_SUPERRADIANT_LASING
    assert state.photon_number > 1.0


def test_classify_rejects_nan():
    p = SystemParams(n_atoms=2, g=0.1, kappa=1.0, gamma=0.1)
    with pytest.raises(ValueError, match="NaN"):
        classify_regime(_state(n=math.nan), p)


# -------------------------------------------------------------- thresholds

def test_collective_threshold_values():
    # the atom number (kappa / g)^2 above which sqrt(N) g exceeds kappa
    sr88 = collective_threshold(preset("sr88"))
    assert sr88 == pytest.approx((160.0 / 10.6) ** 2, rel=1e-12)

    sr87 = collective_threshold(preset("sr87"))
    assert sr87 == pytest.approx(4.407e9, rel=1e-3)

    assert collective_threshold(SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=0.1)) == 1.0

    no_coupling = collective_threshold(SystemParams(n_atoms=2, g=0.0, kappa=1.0, gamma=0.1))
    assert no_coupling == math.inf
