"""Inputs, timed passes and output checks of the four benchmark workloads.

Each workload drives srlaser only through its public functions, looked up
on the module at call time so the probes in ``trace`` see every call.
Inputs come from the seed alone.  The default seed is the nominal grid
of each workload and has reference outputs under ``reference/``,
recorded with ``record_reference.py``.  On ``threshold_grid`` and
``linewidth_sweep`` any other seed moves the pump endpoints inward by up
to 5 % of a grid step (all but sr87's lower end, gamma itself).  That
keeps the cell counts, the regimes covered and the solver work per pass
(within about 1 % of integrator steps), so the spread between seeds is
the machine's and not the inputs'.  ``detuned_grid`` and
``oracle_small`` run the same operations for every seed; see
``grid_inputs``.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

WORKLOADS = ("threshold_grid", "detuned_grid", "linewidth_sweep", "oracle_small")
DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

N_GRID = (100, 1_000, 10_000, 100_000)
DETUNINGS_KAPPA = (0.01, 0.1, 1.0, 5.0)
DESK = dict(g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
# workloads whose operations, and so whose reference outputs, are the same for every seed
SEED_FREE = ("detuned_grid", "oracle_small")

# Per-column (rtol, atol) for comparing a cell with its reference value.
# The moments come from a Newton solve polished to round-off, so any
# equivalent solver agrees far inside 1e-6; the deconvolved width is a
# probe-and-fit estimate that the exact response pole matches to about
# five digits on Lorentzian lines.
TOLERANCES = {
    "photon_number": (1e-6, 1e-12),
    "inversion": (1e-6, 1e-12),
    "pair_corr_re": (1e-6, 1e-12),
    "j_eff": (1e-6, 1e-9),
    "m_eff": (1e-6, 1e-9),
    "j_over_n": (1e-6, 1e-12),
    "m_over_n": (1e-6, 1e-12),
    "delta_nu_hz": (1e-3, 0.0),
    "delta_nu_eq3_hz": (1e-6, 0.0),
    "delta_nu_eq4_hz": (1e-6, 0.0),
}
EXACT_COLUMNS = ("regime", "status")
ORACLE_RTOL, ORACLE_ATOL = 1e-6, 1e-12
SPECTRUM_ATOL = 1e-6  # spectra are normalised to a unit peak


@dataclass
class PassResult:
    """One timed pass: timings, per-operation latencies and checks.

    Times leave out the calibration samples taken during the pass.
    """

    start: float  # perf_counter at the start and end of the pass
    end: float
    wall_s: float
    cpu_s: float
    op_s: dict  # operation (cell) id -> seconds
    op_start: dict  # operation id -> perf_counter at its start
    attempted: int
    failed_ops: set  # ids of the operations that failed
    problems: list[str]
    outputs: dict
    csv_bytes: int = 0

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _timed(recorder, fn, *args):
    """(result, start, wall s, cpu s) of one call, less calibration inside it."""
    cal_wall, cal_cpu = recorder.calibration_spent()
    t0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    end_wall, end_cpu = recorder.calibration_spent()
    return result, t0, wall - (end_wall - cal_wall), cpu - (end_cpu - cal_cpu)


def steady_residual(params, state) -> float:
    """max_i |dx_i/dt| / max(1, |x_i|), from the public right-hand side."""
    from srlaser.cumulant import rhs

    x = state.as_vector()
    r = rhs(state, params).as_vector()
    return float(np.max(np.abs(r) / np.maximum(1.0, np.abs(x))))


def newton_tolerance(params) -> float:
    """The steady-state solver's default acceptance tolerance."""
    from srlaser.cumulant import SolverConfig

    tol = SolverConfig().newton_tol
    return tol if tol is not None else 1e-10 * max(1.0, params.kappa)


# ------------------------------------------------------------------ grids

def _row_problems(row: dict, linewidth: bool) -> list[str]:
    """Physical invariants of one ok row."""
    try:
        n = float(row["photon_number"])
        s = float(row["inversion"])
        j, m = float(row["j_eff"]), float(row["m_eff"])
        j_over_n = float(row["j_over_n"])
        width = float(row["delta_nu_hz"]) if linewidth else 1.0
    except ValueError as exc:
        return [f"unreadable value ({exc})"]
    out = []
    if not n >= 0.0:
        out.append(f"photon_number {n} < 0")
    if not abs(s) <= 1.0 + 1e-12:
        out.append(f"|inversion| {abs(s)} > 1")
    if not j_over_n <= 0.5 * (1.0 + 1e-8):
        out.append(f"j/N {j_over_n} > 1/2")
    if not abs(m) <= j * (1.0 + 1e-8) + 1e-9:
        out.append(f"|m| {abs(m)} > j {j}")
    if not width > 0.0:
        out.append(f"delta_nu_hz {width} <= 0")
    return out


def _mismatches(row: dict, ref: dict) -> list[str]:
    out = [f"{col} {row[col]!r} != reference {ref[col]!r}"
           for col in EXACT_COLUMNS if row[col] != ref[col]]
    for col, (rtol, atol) in TOLERANCES.items():
        a, b = row[col], ref[col]
        if a == b:
            continue
        if a == "" or b == "" or not _close(float(a), float(b), rtol, atol):
            out.append(f"{col} {a} vs reference {b} (rtol {rtol:g})")
    return out


def read_csv_rows(text: str) -> dict:
    """CSV text -> {(n_atoms, eta_hz) as written: row dict}."""
    return {(r["n_atoms"], r["eta_hz"]): r for r in csv.DictReader(io.StringIO(text))}


class GridWorkload:
    """One or more ``run_grid`` calls per pass, one operation per cell."""

    def __init__(self, name: str, grids: list, reference: dict | None) -> None:
        self.name = name
        self.grids = grids  # [(label, SweepConfig)]
        self.reference = reference
        self.cells = sum(len(cfg.n_list) * cfg.eta_grid.points for _, cfg in grids)

    def warm_up(self) -> None:
        from srlaser import sweep

        _, cfg = self.grids[0]
        etas = cfg.eta_grid.values_hz()
        sweep.evaluate_cell(cfg.base, cfg.n_list[0], float(etas[len(etas) // 2]),
                            cfg.observables)

    def run_pass(self, workdir: Path, recorder) -> PassResult:
        from srlaser import sweep

        start = time.perf_counter()
        wall = cpu = 0.0
        texts, errors = {}, []
        for label, cfg in self.grids:
            path = workdir / f"{label}.csv"
            for stale in (path, Path(f"{path}.meta.json"), Path(f"{path}.quarantine")):
                stale.unlink(missing_ok=True)
            recorder.cell = (label,)
            try:
                _, _, w, c = _timed(recorder, sweep.run_grid,
                                    replace(cfg, output_path=str(path)))
            except Exception as exc:  # the grid's cells count as failed below
                errors.append(f"{label}: run_grid raised {type(exc).__name__}: {exc}")
                continue
            wall, cpu = wall + w, cpu + c
            texts[label] = path.read_text()
        end = time.perf_counter()
        return self._check(start, end, wall, cpu, recorder, texts, errors)

    def _check(self, start, end, wall, cpu, recorder, texts, errors) -> PassResult:
        failed_cells: set = set()
        problems = list(errors)
        lw = {label: cfg.observables.linewidth for label, cfg in self.grids}
        for label, cfg in self.grids:
            rows = read_csv_rows(texts.get(label, ""))
            ref = self.reference.get(label) if self.reference is not None else None
            if ref is not None and set(ref) != set(rows) and label in texts:
                problems.append(f"{label}: cell set differs from the reference")
            for key, row in rows.items():
                where = f"{label} N={key[0]} eta_hz={key[1]}"
                if row["status"] != "ok":
                    failed_cells.add((label,) + key)
                    continue
                found = _row_problems(row, lw[label])
                ref_row = ref.get(key) if ref is not None else None
                if ref_row is not None and ref_row["status"] == "ok":
                    found += _mismatches(row, ref_row)
                if found:
                    failed_cells.add((label,) + key)
                    problems += [f"{where}: {p}" for p in found]
        for cell, params, state in recorder.states:
            res, tol = steady_residual(params, state), newton_tolerance(params)
            if not res <= tol:
                label, n, eta = cell
                failed_cells.add((label, str(int(n)), "%.8e" % eta))
                problems.append(f"{label} N={n} eta_hz={eta:.8e}: scaled residual "
                                f"{res:.3e} > Newton tolerance {tol:.3e}")
        for label, cfg in self.grids:
            if label not in texts:  # run_grid raised: every cell of the grid is lost
                failed_cells.update((label, str(n), "%.8e" % eta) for n in cfg.n_list
                                    for eta in cfg.eta_grid.values_hz())
        return PassResult(
            start=start, end=end, wall_s=wall, cpu_s=cpu, op_s=dict(recorder.cell_s),
            op_start=dict(recorder.cell_start), attempted=self.cells,
            failed_ops=failed_cells, problems=problems, outputs=texts,
            csv_bytes=sum(len(t.encode()) for t in texts.values()),
        )


def _jitter_endpoints(rng, lo: float, hi: float, points: int, move_lo: bool) -> tuple:
    if rng is None or points < 2:
        return lo, hi
    shift = 0.05 * math.log10(hi / lo) / (points - 1)
    low = lo * 10 ** (shift * rng.random())
    return low if move_lo else lo, hi / 10 ** (shift * rng.random())


def _grid(rng, base, n_list, lo_gamma, hi_gamma, points, obs, smoke, move_lo=True):
    from srlaser.model import to_hz
    from srlaser.sweep import EtaGrid, SweepConfig

    if smoke:
        n_list, points = n_list[:1], min(points, 3)
    gamma_hz = to_hz(base.gamma)
    lo, hi = _jitter_endpoints(rng, lo_gamma * gamma_hz, hi_gamma * gamma_hz, points, move_lo)
    return SweepConfig(base=base, n_list=tuple(n_list), eta_grid=EtaGrid(lo, hi, points),
                       observables=obs, output_path="unused.csv", workers=1)


def grid_inputs(name: str, seed: int, smoke: bool = False) -> list:
    """[(label, SweepConfig)] for a grid workload; a pure function of the seed."""
    from srlaser.model import ETA_EXP, preset, to_hz
    from srlaser.sweep import EtaGrid, Observables, SweepConfig

    rng = None if seed == DEFAULT_SEED else random.Random(f"{name}:{seed}")
    sr88 = preset("sr88")
    if name == "threshold_grid":
        obs = Observables(photons=True, dicke=True, analytic=True)
        return [("sr88", _grid(rng, sr88, N_GRID, 1e-2, 1e5, 40, obs, smoke))]
    if name == "detuned_grid":
        # Which of these cells end in ConvergenceError (ROADMAP item 2) is a
        # chaotic function of the inputs: moving a pump by 1 % can add or
        # remove one.  So every seed runs the same 144 cells, all checked
        # against the reference, and the seed only shuffles the order in
        # which the detunings and the atom numbers are evaluated.
        obs = Observables(photons=True, dicke=True, analytic=True)
        detunings = list(DETUNINGS_KAPPA[:2] if smoke else DETUNINGS_KAPPA)
        if rng is not None:
            rng.shuffle(detunings)
        out = []
        for d in detunings:
            n_list = list(N_GRID)
            if rng is not None:
                rng.shuffle(n_list)
            base = sr88.updated(omega_a=d * sr88.kappa)
            out.append((f"det{d:g}", _grid(None, base, n_list, 0.5, 1e4, 9, obs, smoke)))
        return out
    if name == "linewidth_sweep":
        obs = Observables(photons=True, dicke=True, linewidth=True, analytic=True)
        flagship = SweepConfig(
            base=sr88, n_list=(100_000,),
            eta_grid=EtaGrid(to_hz(ETA_EXP), to_hz(ETA_EXP), 1),
            observables=obs, output_path="unused.csv", workers=1)
        return [
            # Just above gamma, sr87 cells end in fit_error ("fit did not
            # converge"), so the grid keeps its lower end at gamma itself.
            ("sr87", _grid(rng, preset("sr87"), (10_000, 100_000, 1_000_000),
                           1.0, 1e3, 40, obs, smoke, move_lo=False)),
            ("sr88", _grid(rng, sr88, (1_000, 10_000, 100_000), 2.0, 100.0, 20, obs, smoke)),
            ("flagship", flagship),
        ]
    raise ValueError(f"not a grid workload: {name}")


# ----------------------------------------------------------------- oracle

class OracleWorkload:
    """Exact small-N oracle: report, desk N = 3 steady state, two spectra."""

    def __init__(self, smoke: bool, reference: dict | None) -> None:
        from srlaser.model import SystemParams

        self.reference = reference
        self.report = not smoke
        self.steady = (SystemParams(n_atoms=1 if smoke else 3, **DESK), 2 if smoke else 6)
        self.spectra = [(SystemParams(n_atoms=n, **DESK), 2 if smoke else 4)
                        for n in ((1,) if smoke else (1, 2))]
        # fixed grid around the desk line (FWHM about 0.34 at N = 1, 0.39 at N = 2)
        self.omega = np.linspace(-1.0, 1.0, 41)
        self.cells = int(self.report) + 1 + len(self.spectra)

    def warm_up(self) -> None:
        from srlaser import oracle
        from srlaser.model import SystemParams

        oracle.oracle_steady_state(SystemParams(n_atoms=1, **DESK), n_max=2)

    def _ops(self):
        from srlaser import oracle

        if self.report:
            yield "consistency_report", lambda: oracle.consistency_report()
        params, n_max = self.steady
        yield f"steady_state_n{params.n_atoms}", \
            lambda: oracle.oracle_steady_state(params, n_max=n_max)
        for params, n_max in self.spectra:
            yield f"spectrum_n{params.n_atoms}", \
                lambda p=params, k=n_max: oracle.oracle_spectrum(p, n_max=k,
                                                                 omega_grid=self.omega)

    def run_pass(self, workdir: Path, recorder) -> PassResult:
        start = time.perf_counter()
        wall = cpu = 0.0
        results, errors, failed = {}, [], set()
        for op, call in self._ops():
            recorder.cell = (op,)
            recorder.between_ops()
            try:
                results[op], t0, w, c = _timed(recorder, call)
            except Exception as exc:
                errors.append(f"{op} raised {type(exc).__name__}: {exc}")
                failed.add(op)
                continue
            wall, cpu = wall + w, cpu + c
            recorder.cell_s[(op,)] = w
            recorder.cell_start[(op,)] = t0
        recorder.between_ops()
        end = time.perf_counter()
        problems = list(errors)
        outputs = {}
        for op, value in results.items():
            found, outputs[op] = self._check(op, value)
            if found:
                failed.add(op)
                problems += [f"{op}: {p}" for p in found]
        return PassResult(start=start, end=end, wall_s=wall, cpu_s=cpu,
                          op_s=dict(recorder.cell_s), op_start=dict(recorder.cell_start),
                          attempted=self.cells, failed_ops=failed,
                          problems=problems, outputs=outputs)

    def _check(self, op: str, value) -> tuple[list[str], object]:
        ref = self.reference.get(op) if self.reference is not None else None
        if op == "consistency_report":
            return [f"check {e['test']} failed (max_error {e['max_error']:.3e})"
                    for e in value if not e["pass"]], None
        if op.startswith("steady_state"):
            rho = value.rho
            found = []
            if not abs(np.trace(rho) - 1.0) <= 1e-10:
                found.append(f"trace {np.trace(rho)} != 1")
            if not np.max(np.abs(rho - rho.conj().T)) <= 1e-10:
                found.append("rho is not Hermitian")
            eigmin = float(np.linalg.eigvalsh(rho)[0])
            if not eigmin >= -1e-8:
                found.append(f"eigmin {eigmin:.3e} < 0")
            moments = {k: [complex(v).real, complex(v).imag]
                       for k, v in value.moments.as_dict().items()}
            for key, (re_ref, im_ref) in (ref or {}).items():
                got = moments.get(key)
                if got is None or not (_close(got[0], re_ref, ORACLE_RTOL, ORACLE_ATOL)
                                       and _close(got[1], im_ref, ORACLE_RTOL, ORACLE_ATOL)):
                    found.append(f"moment {key} {got} vs reference {[re_ref, im_ref]}")
            return found, moments
        intensity = np.asarray(value.intensity, dtype=float)
        found = []
        if not (np.all(np.isfinite(intensity)) and abs(np.max(intensity) - 1.0) <= 1e-12):
            found.append("spectrum is not finite with a unit peak")
        if ref is not None:
            diff = float(np.max(np.abs(intensity - np.asarray(ref))))
            if not diff <= SPECTRUM_ATOL:
                found.append(f"spectrum differs from the reference by {diff:.3e}")
        return found, intensity.tolist()


# ------------------------------------------------------------- set-up

def load_reference(name: str):
    """Reference outputs of the default seed, or None if none are recorded."""
    if name == "oracle_small":
        path = REFERENCE_DIR / "oracle_small.json"
        return json.loads(path.read_text()) if path.is_file() else None
    folder = REFERENCE_DIR / name
    if not folder.is_dir():
        return None
    return {p.stem: read_csv_rows(p.read_text()) for p in sorted(folder.glob("*.csv"))}


def prepare(name: str, seed: int, smoke: bool = False):
    """Everything before the first timed pass: import, inputs, one warm-up call."""
    import srlaser.cli  # noqa: F401  (the cold-start cost users pay)

    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    use_ref = not smoke and (seed == DEFAULT_SEED or name in SEED_FREE)
    reference = load_reference(name) if use_ref else None
    if use_ref and reference is None:
        raise FileNotFoundError(f"no reference outputs recorded for {name}")
    if name == "oracle_small":
        workload = OracleWorkload(smoke, reference)
    else:
        workload = GridWorkload(name, grid_inputs(name, seed, smoke), reference)
    workload.warm_up()
    return workload
