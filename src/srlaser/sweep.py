"""Deterministic (N, eta) grid evaluation with CSV persistence and resume.

Every cell is evaluated independently (steady state, collective spin
numbers, regime label, optional linewidth and closed-form predictions)
and written as one CSV row in a fixed sort order with fixed formatting,
so identical configs always produce byte-identical files.  An existing
output file is treated as a checkpoint: if its metadata sidecar records
the same base parameters and observables, completed ok rows are kept,
corrupt lines are quarantined to a sidecar, and only the complement is
recomputed.
"""
from __future__ import annotations

import json
import math
import numbers
import os
import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import crossover_linewidth, tieri_linewidth
from .cumulant import solve_all, steady_state
from .dicke import classify_regime, dicke_numbers
from .errors import BelowThresholdError, FitError, ProbeError, SimulationError
from .model import SystemParams, _require, _require_hz, from_hz, params_to_config, to_hz
from .spectrum import linewidth, pole_linewidth

STATUS_VALUES = ("ok", "solver_error", "fit_error")

# Largest peak height of the broad response pole, relative to the narrow
# one, at which a line counts as one Lorentzian and delta_nu_hz is the
# narrow pole's width.  Every cell of the sr87/sr88 linewidth grids is
# below 1.5e-3; the two-mode desk lines (N = 2, 3) are above 5.2e-2.
ONE_LORENTZIAN_WEIGHT = 1e-2

# 9 significant digits, scientific: deterministic across platforms and
# exactly round-trippable through float().
_FMT = "%.8e"


@dataclass(frozen=True)
class EtaGrid:
    """Pump-rate scan axis, external units (Hz)."""

    min_hz: float
    max_hz: float
    points: int
    spacing: str = "log"

    def __post_init__(self) -> None:
        _require(self.min_hz, numbers.Real, "min_hz")
        _require(self.max_hz, numbers.Real, "max_hz")
        _require(self.points, numbers.Integral, "points")
        if not (math.isfinite(self.min_hz) and math.isfinite(self.max_hz)):
            raise ValueError(f"min_hz and max_hz must be finite, got "
                             f"{self.min_hz} and {self.max_hz}")
        if self.min_hz < 0.0:
            raise ValueError(f"min_hz must be >= 0, got {self.min_hz} Hz")
        if self.spacing not in ("log", "linear"):
            raise ValueError(f"spacing must be 'log' or 'linear', got {self.spacing!r}")
        if self.points < 1:
            raise ValueError("points must be >= 1")
        if self.points == 1 and self.min_hz != self.max_hz:
            raise ValueError("a single-point grid requires min_hz == max_hz")
        if self.max_hz < self.min_hz:
            raise ValueError("max_hz must be >= min_hz")
        # a single point is min_hz itself, so only a spread needs min_hz > 0
        if self.spacing == "log" and self.points > 1 and self.min_hz <= 0.0:
            raise ValueError("log spacing requires min_hz > 0")
        _require_hz(self.max_hz, "max_hz")

    def values_hz(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.min_hz])
        if self.spacing == "log":
            return np.geomspace(self.min_hz, self.max_hz, self.points)
        return np.linspace(self.min_hz, self.max_hz, self.points)


@dataclass(frozen=True)
class Observables:
    """Which per-cell quantities to evaluate and emit."""

    photons: bool = True
    dicke: bool = True
    linewidth: bool = False
    analytic: bool = False


@dataclass(frozen=True)
class SweepConfig:
    base: SystemParams
    n_list: tuple
    eta_grid: EtaGrid
    observables: Observables = Observables()
    output_path: str = "sweep.csv"
    workers: int = 1

    def __post_init__(self) -> None:
        n_list = tuple(self.base.updated(n_atoms=n).n_atoms for n in self.n_list)
        if len(n_list) == 0:
            raise ValueError("n_list must not be empty")
        object.__setattr__(self, "n_list", n_list)
        _require(self.workers, numbers.Integral, "workers")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True, kw_only=True)
class SweepRow:
    """One grid cell; the field order is the CSV column order."""

    n_atoms: int
    eta_hz: float
    photon_number: float | None = None
    inversion: float | None = None
    pair_corr_re: float | None = None
    j_eff: float | None = None
    m_eff: float | None = None
    j_over_n: float | None = None
    m_over_n: float | None = None
    regime: str | None = None
    delta_nu_hz: float | None = None
    delta_nu_eq3_hz: float | None = None
    delta_nu_eq4_hz: float | None = None
    status: str


COLUMNS = tuple(f.name for f in fields(SweepRow))
_REQUIRED = frozenset(f.name for f in fields(SweepRow) if f.default is MISSING)
# the columns written with str() and parsed with these; every other
# column is a float in _FMT
_EXACT = {"n_atoms": int, "regime": str, "status": str}


def _fmt_cell(name: str, value) -> str:
    if value is None:
        return ""
    return str(value) if name in _EXACT else _FMT % value


def row_to_line(row: SweepRow) -> str:
    return ",".join(_fmt_cell(name, getattr(row, name)) for name in COLUMNS)


def parse_row(line: str) -> SweepRow:
    """Strict single-line parse; any malformation raises ValueError."""
    cells = line.split(",")
    if len(cells) != len(COLUMNS):
        raise ValueError(f"expected {len(COLUMNS)} fields, got {len(cells)}")
    raw = dict(zip(COLUMNS, cells))
    if raw["status"] not in STATUS_VALUES:
        raise ValueError(f"bad status {raw['status']!r}")
    regime = raw["regime"]
    if regime and not regime.replace("-", "_").replace("_", "").isalpha():
        raise ValueError(f"bad regime label {regime!r}")
    # a blank optional cell is left to its None default
    return SweepRow(**{name: _EXACT.get(name, float)(cell) for name, cell in raw.items()
                       if cell != "" or name in _REQUIRED})


def _cell_key(n_atoms: int, eta_hz: float) -> tuple:
    return (int(n_atoms), _FMT % eta_hz)


def _cell_params(base: SystemParams, n_atoms: int, eta_hz: float) -> SystemParams:
    # one constructor call: base.updated's dataclasses.replace would first
    # read every field back by name.  SystemParams validates n_atoms itself,
    # so a bool or a fractional count raises.
    return SystemParams(n_atoms=n_atoms, g=base.g, kappa=base.kappa, gamma=base.gamma,
                        eta=from_hz(eta_hz), chi=base.chi, omega_a=base.omega_a,
                        omega_c=base.omega_c)


def evaluate_cell(base: SystemParams, n_atoms: int, eta_hz: float,
                  obs: Observables, *, solved: tuple | None = None) -> SweepRow:
    """One grid cell; failures are recorded in the row, never raised.

    solved is (params, entry): the cell's params as _cell_params builds
    them, and their entry of cumulant.solve_all, handed on to steady_state,
    which then runs no solver stage; run_grid passes both, so no cell
    builds its params twice.  Without it the cell builds its own params and
    is solved alone, to the same bits.

    delta_nu_hz is the width of the narrow pole of the zero-probe filter
    response (pole_linewidth) where the broad pole's relative peak weight
    is below ONE_LORENTZIAN_WEIGHT, so that the line is one Lorentzian.
    Elsewhere, and where the response has no weight at all, it is the
    filter-probe pipeline's deconvolved fit width (linewidth), and a
    pipeline failure makes the row a fit_error.
    """
    params, entry = solved or (_cell_params(base, n_atoms, eta_hz), None)
    try:
        state = steady_state(params, solved=entry)
    except SimulationError:
        return SweepRow(n_atoms=params.n_atoms, eta_hz=eta_hz, status="solver_error")

    point = dicke_numbers(state, params)
    values = {}
    status = "ok"
    if obs.photons:
        values.update(photon_number=state.photon_number,
                      inversion=state.inversion,
                      pair_corr_re=state.pair_corr.real)
    if obs.dicke:
        values.update(j_eff=point.j_eff, m_eff=point.m_eff,
                      j_over_n=point.j_over_n, m_over_n=point.m_over_n,
                      regime=classify_regime(state, params))
    if obs.analytic:
        try:
            eq3 = to_hz(tieri_linewidth(params))
        except BelowThresholdError:
            eq3 = float("nan")
        try:
            eq4 = to_hz(crossover_linewidth(params, point.m_eff))
        except ValueError:
            eq4 = float("nan")
        values.update(delta_nu_eq3_hz=eq3, delta_nu_eq4_hz=eq4)
    if obs.linewidth:
        poles = pole_linewidth(params, state)
        try:
            width = (poles.delta_nu if poles.broad_weight < ONE_LORENTZIAN_WEIGHT
                     else linewidth(params, base=state).delta_nu)
            values.update(delta_nu_hz=to_hz(width))
        except (SimulationError, FitError, ProbeError):
            status = "fit_error"
    return SweepRow(n_atoms=params.n_atoms, eta_hz=eta_hz, status=status, **values)


def _cell_worker(args) -> SweepRow:
    *cell, solved = args
    return evaluate_cell(*cell, solved=solved)


def load_checkpoint(path: Path):
    """Split an existing CSV into reusable ok rows and quarantined lines.

    Returns (ok_lines keyed by cell, quarantined raw lines).  Valid rows
    with non-ok status are simply dropped so they get recomputed.  The file
    must not be empty; run_grid reads only a non-empty one.
    """
    kept: dict = {}
    quarantined: list[str] = []
    text = path.read_text()
    lines = text.splitlines()
    start = 1 if lines[0] == ",".join(COLUMNS) else 0
    for line in lines[start:]:
        if line == "":
            continue
        try:
            row = parse_row(line)
        except (ValueError, IndexError):
            quarantined.append(line)
            continue
        key = _cell_key(row.n_atoms, row.eta_hz)
        if key in kept:
            quarantined.append(line)
        elif row.status == "ok":
            kept[key] = line
    return kept, quarantined


def run_grid(cfg: SweepConfig) -> list[SweepRow]:
    """Evaluate the full grid, honoring any checkpoint at the output path.

    Rows come back (and are written) sorted by (n_atoms, eta_hz)
    regardless of execution order or worker count.  The pending cells'
    steady states are solved together first, in this process, also when
    workers > 1 (cumulant.solve_all: one batched relaxation, then the
    Newton stages in lock-step batches).  Each cell is then evaluated from
    the params built for that solve and its solved state, to the bytes
    that solving it alone gives, so a worker pool runs only the per-cell
    observables and no cell builds its params twice.  The pool's size is
    the least of workers, the pending cells and the CPUs.  A grid with a
    single pending cell is solved alone.
    A JSON sidecar (path + ".meta.json") records the base parameters, observables,
    package version (srlaser.__version__), wall time and row counts, none
    of which enter the CSV.
    Existing rows are reused only if the sidecar records the same base
    parameters and observables (a larger n_list or pump grid resumes);
    otherwise ValueError names the path before anything is written.
    """
    t0 = time.monotonic()
    out = Path(cfg.output_path)
    if not out.parent.is_dir():
        raise OSError(f"output directory {out.parent} does not exist")
    try:
        with open(out, "a"):
            pass
    except OSError as exc:
        raise OSError(f"output path {out} is not writable: {exc}") from exc

    kept: dict = {}
    quarantined: list[str] = []
    meta_path = Path(str(out) + ".meta.json")
    physics = {"base": params_to_config(cfg.base), "observables": asdict(cfg.observables)}
    if out.stat().st_size > 0:
        try:
            recorded = json.loads(meta_path.read_text())
        except (OSError, ValueError):
            recorded = None
        if not isinstance(recorded, dict) or any(
                recorded.get(key) != value for key, value in physics.items()):
            raise ValueError(f"{out} holds rows, but {meta_path.name} is missing or "
                             "records other base parameters or observables; remove "
                             "the file or choose another output path")
        kept, quarantined = load_checkpoint(out)

    eta_values = cfg.eta_grid.values_hz()
    cells = [(n, float(eta)) for n in cfg.n_list for eta in eta_values]
    wanted = {_cell_key(n, eta) for n, eta in cells}
    kept = {k: v for k, v in kept.items() if k in wanted}
    pending = [(n, eta) for n, eta in cells if _cell_key(n, eta) not in kept]
    params = [_cell_params(cfg.base, n, eta) for n, eta in pending]
    # a lone cell is solved faster alone, in steady_state
    solved = solve_all(params) if len(params) > 1 else [None] * len(params)
    pending = [(cfg.base, n, eta, cfg.observables, cell)
               for (n, eta), cell in zip(pending, zip(params, solved))]

    # under the fork start method a pool starts all its workers at its
    # first submit, so it gets no more than the pending cells and CPUs use
    workers = min(cfg.workers, len(pending), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            computed = list(pool.map(_cell_worker, pending, chunksize=1))
    else:
        computed = [_cell_worker(args) for args in pending]

    lines = dict(kept)
    for row in computed:
        lines[_cell_key(row.n_atoms, row.eta_hz)] = row_to_line(row)
    ordered_keys = sorted(lines, key=lambda k: (k[0], float(k[1])))

    tmp = out.with_name(out.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for key in ordered_keys:
            fh.write(lines[key] + "\n")
    os.replace(tmp, out)

    if quarantined:
        with open(str(out) + ".quarantine", "a") as fh:
            for line in quarantined:
                fh.write(line + "\n")

    meta = {
        **physics,
        "code_version": __version__,
        "wall_time_s": time.monotonic() - t0,
        "rows": len(ordered_keys),
        "computed": len(computed),
        "resumed": len(kept),
        "quarantined": len(quarantined),
        "columns": list(COLUMNS),
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return [parse_row(lines[key]) for key in ordered_keys]
