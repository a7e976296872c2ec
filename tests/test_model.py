from __future__ import annotations

import dataclasses
import functools
import math
import pickle

import numpy as np
import pytest

from srlaser import (
    ETA_EXP,
    PRESET_NAMES,
    SystemParams,
    derived,
    from_hz,
    load_config,
    params_to_config,
    preset,
    to_hz,
)
from srlaser.model import MAX_HZ

TWO_PI = 2.0 * math.pi


def test_rejects_nonpositive_atom_count():
    with pytest.raises(ValueError, match="n_atoms"):
        SystemParams(n_atoms=0, g=1.0, kappa=1.0, gamma=0.1)
    with pytest.raises(ValueError, match="n_atoms"):
        SystemParams(n_atoms=-3, g=1.0, kappa=1.0, gamma=0.1)


def test_rejects_non_integral_atom_count():
    with pytest.raises(ValueError, match="n_atoms"):
        SystemParams(n_atoms=2.5, g=1.0, kappa=1.0, gamma=0.1)
    with pytest.raises(ValueError, match="n_atoms"):
        load_config({"preset": "sr88", "n_atoms": 100.7})
    with pytest.raises(ValueError, match="n_atoms"):
        load_config({"preset": "sr88", "n_atoms": math.inf})
    p = load_config({"preset": "sr88", "n_atoms": 1000.0})
    assert p.n_atoms == 1000 and isinstance(p.n_atoms, int)


@pytest.mark.parametrize("flag", [True, np.True_])
def test_rejects_a_bool_atom_count(flag):
    # int(True) is 1, but a bool is not a count
    with pytest.raises(ValueError, match="n_atoms must be an integer >= 1"):
        SystemParams(n_atoms=flag, g=1.0, kappa=1.0, gamma=0.1)
    with pytest.raises(ValueError, match="n_atoms must be an integer >= 1"):
        load_config({"preset": "sr88", "n_atoms": flag})


@pytest.mark.parametrize("field", ["g", "kappa", "gamma", "eta", "chi"])
def test_rejects_negative_and_nonfinite_rates(field):
    with pytest.raises(ValueError, match=field):
        SystemParams(**{"n_atoms": 2, "g": 1.0, "kappa": 1.0, "gamma": 0.1, field: -1.0})
    with pytest.raises(ValueError, match=field):
        SystemParams(**{"n_atoms": 2, "g": 1.0, "kappa": 1.0, "gamma": 0.1, field: math.nan})


@pytest.mark.parametrize("value", ["1.0", None, [1.0], 1j, True, np.True_])
@pytest.mark.parametrize("field", ["g", "kappa", "gamma", "eta", "chi", "omega_a", "omega_c"])
def test_rejects_a_rate_that_is_not_a_real_number(field, value):
    # a ValueError, not math.isfinite's TypeError; a bool is not a rate
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        SystemParams(**{"n_atoms": 2, "g": 1.0, "kappa": 1.0, "gamma": 0.1, field: value})


def test_detuning_is_atom_minus_cavity():
    p = SystemParams(n_atoms=1, g=1.0, kappa=1.0, gamma=0.1, omega_a=3.0, omega_c=1.0)
    assert p.detuning == 2.0
    with pytest.raises(ValueError, match="omega_a must be finite"):
        p.updated(omega_a=math.inf)


def test_updated_returns_modified_copy():
    p = SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=0.1)
    q = p.updated(eta=0.5)
    assert q.eta == 0.5 and p.eta == 0.0 and q.g == p.g


def test_preset_names_and_unknown_preset():
    assert PRESET_NAMES == ("sr87", "sr88")
    with pytest.raises(KeyError, match="sr87, sr88"):
        preset("sr99")


def test_preset_override_keywords():
    p = preset("sr88", n_atoms=100, eta=from_hz(75e3))
    assert p.n_atoms == 100
    assert p.eta == pytest.approx(TWO_PI * 75e3)
    assert p.g == preset("sr88").g


def test_sr88_purcell_rate():
    # 4 g^2 / kappa = 4 * (10.6 kHz)^2 / 160 kHz = 2.809 kHz
    d = derived(preset("sr88"))
    assert to_hz(d.purcell) == pytest.approx(2.81e3, rel=5e-3)
    assert to_hz(d.purcell) == pytest.approx(2809.0, rel=1e-12)


def test_sr87_purcell_rate():
    # 4 * (2.41 Hz)^2 / 160 kHz = 0.145 mHz: the narrow-transition floor
    d = derived(preset("sr87"))
    assert to_hz(d.purcell) == pytest.approx(1.452025e-4, rel=1e-6)


def test_flagship_pump_rate_constant():
    assert to_hz(ETA_EXP) == pytest.approx(23.87e3, rel=1e-12)


def test_derived_rates_formulas():
    p = SystemParams(n_atoms=50, g=0.3, kappa=2.0, gamma=0.05, eta=0.4, chi=0.02)
    d = derived(p)
    assert d.purcell == pytest.approx(4 * 0.09 / 2.0, rel=1e-14)
    assert d.big_gamma == pytest.approx(0.05 + 0.4 + 0.04, rel=1e-14)
    assert d.c_collective == pytest.approx(50 * d.purcell, rel=1e-14)
    assert d.d0 == pytest.approx((0.4 - 0.05) / 0.45, rel=1e-14)
    assert d.collective_coupling == pytest.approx(math.sqrt(50) * 0.3, rel=1e-14)


def test_derived_degenerate_cases():
    quiet = SystemParams(n_atoms=2, g=0.1, kappa=1.0, gamma=0.0)
    assert derived(quiet).d0 is None
    no_cavity = SystemParams(n_atoms=2, g=0.1, kappa=0.0, gamma=0.1)
    assert derived(no_cavity).purcell == math.inf
    empty = SystemParams(n_atoms=2, g=0.0, kappa=0.0, gamma=0.1)
    assert derived(empty).purcell == 0.0


def _every_field_set():
    return SystemParams(n_atoms=40, g=0.3, kappa=2.0, gamma=0.05, eta=0.4, chi=0.02,
                        omega_a=0.7, omega_c=-0.2)


def test_derived_is_computed_once_per_instance():
    p = _every_field_set()
    first = derived(p)
    assert derived(p) is first
    again = derived(dataclasses.replace(p))
    assert again == first and again is not first


def test_cached_rates_leave_equality_hash_and_repr_alone():
    p = _every_field_set()
    before = (hash(p), repr(p), dataclasses.astuple(p))
    derived(p)
    assert (hash(p), repr(p), dataclasses.astuple(p)) == before
    fresh = dataclasses.replace(p)
    assert p == fresh and fresh == p and hash(fresh) == hash(p)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.kappa = 3.0


def test_updated_params_get_their_own_rates():
    p = _every_field_set()
    rates = derived(p)
    q = p.updated(kappa=4.0)
    assert derived(q).purcell == 4.0 * 0.3**2 / 4.0 != rates.purcell
    assert derived(q).c_collective == 40 * derived(q).purcell
    assert derived(p) is rates


def test_rates_are_a_plain_instance_slot_without_a_lock():
    # functools.cached_property takes a lock on its first read before
    # Python 3.12; derived fills the instance's __dict__ itself
    assert not [name for cls in SystemParams.__mro__ for name, value in vars(cls).items()
                if isinstance(value, functools.cached_property)]
    p = _every_field_set()
    assert "_rates" not in vars(p)
    rates = derived(p)
    assert vars(p)["_rates"] is rates and derived(p) is rates
    for copy in (p.updated(), dataclasses.replace(p), p.updated(eta=0.4)):
        assert "_rates" not in vars(copy)
        assert derived(copy) == rates and derived(copy) is not rates


def test_pickled_params_keep_equal_rates():
    # the sweep's worker pool pickles the base params of every cell
    p = _every_field_set()
    rates = derived(p)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p)
    assert derived(q) == rates
    cold = pickle.loads(pickle.dumps(_every_field_set()))
    assert derived(cold) == rates


@pytest.mark.parametrize("value", [1e-3, 1.0, 7.5e3, 160e3, 23.87e3, 1e9])
def test_unit_round_trip(value):
    assert to_hz(from_hz(value)) == pytest.approx(value, rel=1e-12)
    assert from_hz(to_hz(value)) == pytest.approx(value, rel=1e-12)


def test_load_config_from_preset_with_overrides():
    p = load_config({"preset": "sr88", "n_atoms": 1000, "eta_hz": 75e3,
                     "kappa_hz": 200e3})
    assert p.n_atoms == 1000
    assert to_hz(p.kappa) == pytest.approx(200e3)
    assert to_hz(p.g) == pytest.approx(10.6e3)
    assert to_hz(p.eta) == pytest.approx(75e3)


@pytest.mark.parametrize("key,value", [
    ("eta_hz", -5), ("kappa_hz", -3), ("gamma_hz", -1e-9), ("chi_hz", -0.5),
    ("g_hz", math.inf), ("eta_hz", math.nan), ("detuning_hz", math.nan),
    ("detuning_hz", -math.inf), ("detuning_hz", 1e308), ("detuning_hz", -1e308),
    ("eta_hz", 1e308), pytest.param("kappa_hz", 10**400, id="kappa_hz-10**400"),
])
def test_load_config_names_a_bad_rate_in_hz(key, value):
    # the rad/s value SystemParams would reject (or overflow to) is never shown
    with pytest.raises(ValueError) as raised:
        load_config({"preset": "sr88", "n_atoms": 10, key: value})
    message = str(raised.value)
    assert message.startswith(f"{key} must be finite and ")
    assert message.endswith(f", got {value} Hz")


def test_load_config_takes_every_hz_value_with_a_finite_rad_s_value():
    for key in ("g_hz", "kappa_hz", "gamma_hz", "eta_hz", "chi_hz", "detuning_hz"):
        for value in (0, 0.0, MAX_HZ):
            p = load_config({"preset": "sr88", key: value})
            assert all(math.isfinite(v) for v in dataclasses.astuple(p))
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            load_config({"preset": "sr88", key: math.nextafter(MAX_HZ, math.inf)})
    assert load_config({"preset": "sr88", "detuning_hz": -MAX_HZ}).detuning == \
        from_hz(-MAX_HZ)


def test_load_config_requires_rates_without_preset():
    with pytest.raises(ValueError, match="kappa_hz"):
        load_config({"g_hz": 1.0, "gamma_hz": 0.1})


def test_load_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config({"preset": "sr88", "kapa_hz": 1.0})


def test_load_config_detuning():
    p = load_config({"g_hz": 1.0, "kappa_hz": 10.0, "gamma_hz": 0.1,
                     "detuning_hz": 5.0})
    assert to_hz(p.detuning) == pytest.approx(5.0)


def test_config_round_trip():
    p = preset("sr88", n_atoms=42, eta=from_hz(1.5e3), chi=from_hz(10.0))
    q = load_config(params_to_config(p))
    for name in ("n_atoms", "g", "kappa", "gamma", "eta", "chi"):
        assert getattr(q, name) == pytest.approx(getattr(p, name), rel=1e-12)
    assert q.detuning == pytest.approx(p.detuning, abs=1e-12)
