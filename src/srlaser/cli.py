"""Command-line interface.

All user-facing frequencies and rates are ordinary frequencies in Hz;
the conversion to angular units happens at this boundary and nowhere
else.  Machine-readable output goes to --out or stdout, human-readable
progress and summaries go to stderr.  Exit codes: 0 success, 1 solver or
fit failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, asdict, fields

from . import __version__
from .analytic import crossover_linewidth, limit_linewidths, tieri_linewidth
from .cumulant import steady_state
from .dicke import classify_regime, collective_threshold, dicke_numbers
from .errors import BelowThresholdError, SimulationError
from .model import (PRESET_NAMES, SystemParams, derived, load_config,
                    params_to_config, preset, to_hz)
from .spectrum import linewidth
from .sweep import EtaGrid, Observables, SweepConfig, run_grid


def _add_shared(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="JSON config file")
    sub.add_argument("--preset", choices=sorted(PRESET_NAMES),
                     help="named parameter set")
    sub.add_argument("--n", type=int, metavar="INT", help="atom number N")
    sub.add_argument("--eta-hz", type=float, metavar="FLOAT",
                     help="repumping rate in Hz")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srlaser",
        description="Steady-state superradiant-crossover laser simulator "
                    "(all external frequencies in Hz)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    subs.add_parser("presets", help="list built-in parameter sets")

    p = subs.add_parser("steady", help="solve the lasing steady state")
    _add_shared(p)
    p.add_argument("--out", metavar="PATH", help="write JSON here instead of stdout")

    p = subs.add_parser("spectrum", help="scan the emission spectrum and fit it")
    _add_shared(p)
    p.add_argument("--out", metavar="PATH",
                   help="write the scan CSV here (fit JSON then goes to stdout)")

    p = subs.add_parser("sweep", help="run an (N, eta) grid to CSV")
    _add_shared(p)
    p.add_argument("--out", metavar="PATH", help="output CSV path (overrides config)")
    p.add_argument("--workers", type=int, metavar="INT", help="parallel processes")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv",
                   help="row format echoed to stdout (the file is always CSV)")

    p = subs.add_parser("dicke-map", help="collective spin numbers for one point")
    _add_shared(p)
    p.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")

    p = subs.add_parser("limits", help="closed-form linewidth values")
    _add_shared(p)
    p.add_argument("--out", metavar="PATH", help="write JSON here instead of stdout")

    p = subs.add_parser("oracle-check", help="run the exact-solver validation suite")
    p.add_argument("--out", metavar="PATH", help="write the JSON report here")
    return parser


# config-file keys that only `sweep` reads; the rest describe the system
_SWEEP_KEYS = ("n_list", "eta_grid", "observables", "output_path", "workers")


def _read_config(args) -> tuple[dict, dict]:
    """The --config file's JSON object, split into system keys and sweep keys."""
    config: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    system = {k: v for k, v in config.items() if k not in _SWEEP_KEYS}
    return system, {k: v for k, v in config.items() if k in _SWEEP_KEYS}


def _from_config(cls, value, key: str):
    """cls(**value) for a config-file object; a wrong shape or key is a usage error."""
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a JSON object, got {value!r}")
    unknown = set(value) - {f.name for f in fields(cls)}
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(value)
    if unknown or missing:
        raise ValueError(f"{key}: unknown keys {sorted(unknown)}, "
                         f"missing keys {sorted(missing)}")
    return cls(**value)


def _resolve_params(args) -> SystemParams:
    config, _ = _read_config(args)
    # explicit flags win over config-file values
    if getattr(args, "preset", None):
        config["preset"] = args.preset
    if getattr(args, "n", None) is not None:
        config["n_atoms"] = args.n
    if getattr(args, "eta_hz", None) is not None:
        config["eta_hz"] = args.eta_hz
    return load_config(config)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def cmd_presets(args) -> int:
    payload = {}
    for name in sorted(PRESET_NAMES):
        payload[name] = params_to_config(preset(name))
    _emit(_json(payload), None)
    return 0


def cmd_steady(args) -> int:
    params = _resolve_params(args)
    state = steady_state(params)
    rates = derived(params)
    point = dicke_numbers(state, params)
    payload = {
        "config": params_to_config(params),
        "photon_number": state.photon_number,
        "inversion": state.inversion,
        "atom_photon_re": state.atom_photon.real,
        "atom_photon_im": state.atom_photon.imag,
        "pair_corr_re": state.pair_corr.real,
        "pair_corr_im": state.pair_corr.imag,
        "j_eff": point.j_eff,
        "m_eff": point.m_eff,
        "regime": classify_regime(state, params),
        "derived": {
            "purcell_hz": to_hz(rates.purcell),
            "big_gamma_hz": to_hz(rates.big_gamma),
            "c_collective_hz": to_hz(rates.c_collective),
            "d0": rates.d0,
            "collective_coupling_hz": to_hz(rates.collective_coupling),
        },
    }
    rates_hz = payload["derived"]
    for key, formula in (("purcell", "4 g^2 / kappa"), ("c_collective", "N 4 g^2 / kappa")):
        if not math.isfinite(rates_hz[key + "_hz"]):
            rates_hz[key + "_hz"] = None
            rates_hz[key + "_note"] = f"{formula} is infinite: the cavity is lossless"
    print(f"photon number {state.photon_number:.6g}, inversion "
          f"{state.inversion:.6g}, regime {payload['regime']}", file=sys.stderr)
    _emit(_json(payload), args.out)
    return 0


def cmd_spectrum(args) -> int:
    params = _resolve_params(args)
    result = linewidth(params)
    fit, probe, scan_data = result.fit, result.probe, result.scan
    csv_lines = ["omega_f_hz,intensity"]
    for omega, intensity in scan_data.points:
        csv_lines.append("%.8e,%.8e" % (to_hz(omega), intensity))
    csv_text = "\n".join(csv_lines)
    record = {
        "delta_nu_hz": to_hz(result.delta_nu),
        "center_hz": to_hz(fit.center),
        "amplitude": fit.amplitude,
        "offset": fit.offset,
        "rms_residual": fit.rms_residual,
        "beta_hz": to_hz(probe.beta),
        "big_g_hz": to_hz(probe.big_g),
    }
    print(f"linewidth {record['delta_nu_hz']:.6g} Hz through a filter of "
          f"{record['beta_hz']:.6g} Hz", file=sys.stderr)
    if args.out:
        _emit(csv_text, args.out)
        print(_json(record))
    else:
        print(csv_text)
        print(_json(record), file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    base_keys, sweep_cfg = _read_config(args)
    if args.preset:
        base_keys["preset"] = args.preset
    base = load_config(base_keys)

    if args.n is not None:
        n_list = [args.n]
    elif "n_list" in sweep_cfg:
        n_list = sweep_cfg["n_list"]
        if not isinstance(n_list, list):
            raise ValueError(f"n_list must be a JSON list, got {n_list!r}")
    elif "n_atoms" in base_keys:
        n_list = [base_keys["n_atoms"]]
    else:
        raise ValueError("sweep needs --n or an n_list in the config file")

    if args.eta_hz is not None:
        grid = EtaGrid(min_hz=args.eta_hz, max_hz=args.eta_hz, points=1)
    elif "eta_grid" in sweep_cfg:
        grid = _from_config(EtaGrid, sweep_cfg["eta_grid"], "eta_grid")
    else:
        raise ValueError("sweep needs --eta-hz or an eta_grid in the config file")

    obs = _from_config(Observables, sweep_cfg.get("observables", {}), "observables")
    out_path = args.out or sweep_cfg.get("output_path")
    if not out_path:
        raise ValueError("sweep needs --out or an output_path in the config file")
    workers = sweep_cfg.get("workers", 1) if args.workers is None else args.workers

    cfg = SweepConfig(base=base, n_list=tuple(n_list), eta_grid=grid,
                      observables=obs, output_path=str(out_path), workers=workers)
    rows = run_grid(cfg)
    n_ok = sum(1 for r in rows if r.status == "ok")
    print(f"{len(rows)} rows ({n_ok} ok) -> {out_path}", file=sys.stderr)
    if args.format == "jsonl":  # strict JSON: a non-finite number is null
        for row in rows:
            record = {key: None if isinstance(value, float) and not math.isfinite(value)
                      else value for key, value in asdict(row).items()}
            print(json.dumps(record, sort_keys=True, allow_nan=False))
    return 0


def cmd_dicke_map(args) -> int:
    params = _resolve_params(args)
    state = steady_state(params)
    point = dicke_numbers(state, params)
    regime = classify_regime(state, params)
    lines = [
        "N,eta_hz,J,M,J_over_N,M_over_N,regime",
        "%d,%.8e,%.8e,%.8e,%.8e,%.8e,%s" % (
            params.n_atoms, to_hz(params.eta), point.j_eff, point.m_eff,
            point.j_over_n, point.m_over_n, regime),
    ]
    threshold = collective_threshold(params)
    print(f"J/N {point.j_over_n:.4f}, M/N {point.m_over_n:.4f}, "
          f"regime {regime}, collective threshold N > {threshold:.4g} "
          f"({'exceeded' if params.n_atoms > threshold else 'not exceeded'})",
          file=sys.stderr)
    _emit("\n".join(lines), args.out)
    return 0


def cmd_limits(args) -> int:
    params = _resolve_params(args)
    state = steady_state(params)
    point = dicke_numbers(state, params)
    limits = limit_linewidths(params)
    payload = {
        "config": params_to_config(params),
        "m_eff": point.m_eff,
        "n_purcell_hz": to_hz(limits.n_purcell),
        "collective_rabi_hz": to_hz(limits.collective_rabi),
        "strong_pump_hz": to_hz(limits.strong_pump),
        "cavity_hz": to_hz(limits.cavity),
    }
    if not math.isfinite(limits.n_purcell):
        payload["n_purcell_hz"] = None
        payload["n_purcell_note"] = "N 4 g^2 / kappa is infinite: the cavity is lossless"
    if math.isnan(limits.strong_pump):
        payload["strong_pump_hz"] = None
        payload["strong_pump_note"] = ("(Gamma kappa - 4 N g^2) / (Gamma + kappa) does not "
                                       "exist: Gamma + kappa = 0")
    try:
        payload["delta_nu_eq3_hz"] = to_hz(tieri_linewidth(params))
    except BelowThresholdError as exc:
        payload["delta_nu_eq3_hz"] = None
        payload["delta_nu_eq3_note"] = str(exc)
    try:
        payload["delta_nu_eq4_hz"] = to_hz(crossover_linewidth(params, point.m_eff))
    except ValueError as exc:
        payload["delta_nu_eq4_hz"] = None
        payload["delta_nu_eq4_note"] = str(exc)
    print(f"collective Purcell {to_hz(limits.n_purcell):.6g} Hz, "
          f"collective Rabi {payload['collective_rabi_hz']:.6g} Hz",
          file=sys.stderr)
    _emit(_json(payload), args.out)
    return 0


def cmd_oracle_check(args) -> int:
    from .oracle import consistency_report

    report = consistency_report()
    _emit(_json(report), args.out)
    failed = [entry["test"] for entry in report if not entry["pass"]]
    if failed:
        print("FAILED: " + ", ".join(failed), file=sys.stderr)
        return 1
    print(f"all {len(report)} oracle consistency checks passed", file=sys.stderr)
    return 0


_COMMANDS = {
    "presets": cmd_presets,
    "steady": cmd_steady,
    "spectrum": cmd_spectrum,
    "sweep": cmd_sweep,
    "dicke-map": cmd_dicke_map,
    "limits": cmd_limits,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
