"""Call recorders and the span tracer of the srlaser benchmark.

Every probe replaces a name where its caller looks it up at call time:
``srlaser.sweep.steady_state`` is the name ``evaluate_cell`` calls, and
``scipy.sparse.linalg.splu`` is what the oracle calls as ``spla.splu``.
``Patches`` puts every original back on exit.  A name that no longer
exists is skipped, so a code path deleted from srlaser reads as zero
calls instead of breaking the benchmark.
"""
from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name).  Each name is wrapped where srlaser
# looks it up, so calls made inside the package are seen too.
SPANS = (
    ("srlaser.sweep", "run_grid", "sweep.run_grid"),
    ("srlaser.sweep", "evaluate_cell", "sweep.evaluate_cell"),
    ("srlaser.sweep", "steady_state", "cumulant.steady_state"),
    ("srlaser.sweep", "linewidth", "spectrum.linewidth"),
    ("srlaser.sweep", "dicke_numbers", "dicke.dicke_numbers"),
    ("srlaser.sweep", "classify_regime", "dicke.classify_regime"),
    ("srlaser.sweep", "tieri_linewidth", "analytic.tieri_linewidth"),
    ("srlaser.sweep", "crossover_linewidth", "analytic.crossover_linewidth"),
    ("srlaser.cumulant", "steady_state", "cumulant.steady_state"),
    ("srlaser.cumulant", "solve_ivp", "cumulant.solve_ivp"),
    ("srlaser.spectrum", "steady_state", "cumulant.steady_state"),
    ("srlaser.spectrum", "auto_probe", "spectrum.auto_probe"),
    ("srlaser.spectrum", "scan", "spectrum.scan"),
    ("srlaser.spectrum", "extended_steady_state", "spectrum.extended_steady_state"),
    ("srlaser.spectrum", "fit_lorentzian", "spectrum.fit_lorentzian"),
    ("srlaser.oracle", "consistency_report", "oracle.consistency_report"),
    ("srlaser.oracle", "oracle_steady_state", "oracle.steady_state"),
    ("srlaser.oracle", "oracle_spectrum", "oracle.spectrum"),
)
# Hot helpers: counted, not timed, to keep the traced run close to the real one.
COUNTED = (
    ("srlaser.cumulant", "scaled_residual", "cumulant.scaled_residual"),
)
# Library calls recorded only when the innermost open span is an oracle entry
# point; the cumulant Newton solver calls numpy.linalg.solve as well.
ORACLE_CALLS = (
    ("scipy.sparse.linalg", "splu", "oracle.splu"),
    ("scipy.sparse.linalg", "expm_multiply", "oracle.expm_multiply"),
    ("numpy.linalg", "solve", "oracle.dense_solve"),
)
ORACLE_ENTRY = frozenset(("oracle.consistency_report", "oracle.steady_state",
                          "oracle.spectrum"))

STEADY_ERRORS = ("ConvergenceError", "StiffIntegrationError")


class Patches:
    """Replaces module attributes and restores them on exit."""

    def __init__(self) -> None:
        self._saved: list = []
        self.missing: list[str] = []

    def wrap(self, module_name: str, attr: str, make_wrapper) -> None:
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Recorder:
    """Per-cell timer and steady-state capture, installed on every pass.

    ``cell`` names the operation in progress: ``(grid,)`` while run_grid
    runs, ``(grid, n_atoms, eta_hz)`` inside one cell, ``(op,)`` for an
    oracle call.  ``states`` keeps each returned steady state so the
    residual check can run after the timed pass.  With a ``calibrator``
    (``calibrate.Calibrator``), the machine's speed is sampled before
    cells, outside their timers.
    """

    def __init__(self, calibrator=None) -> None:
        self.cell: tuple = ()
        self.cell_s: dict = {}
        self.cell_start: dict = {}
        self.states: list = []
        self.calibrator = calibrator

    def calibration_spent(self) -> tuple[float, float]:
        """Wall and CPU seconds spent in calibration so far."""
        return self.calibrator.spent() if self.calibrator is not None else (0.0, 0.0)

    def between_ops(self) -> None:
        """A few speed samples between two long operations."""
        if self.calibrator is not None:
            self.calibrator.sample(repeats=3)

    def install(self, patches: Patches) -> None:
        patches.wrap("srlaser.sweep", "evaluate_cell", self._time_cell)
        patches.wrap("srlaser.sweep", "steady_state", self._capture_state)

    def _time_cell(self, fn):
        def evaluate_cell(*args, **kwargs):
            self.cell = self.cell[:1] + tuple(args[1:3])
            if self.calibrator is not None:
                self.calibrator.maybe_sample()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.cell_s[self.cell] = time.perf_counter() - t0
                self.cell_start[self.cell] = t0
        return evaluate_cell

    def _capture_state(self, fn):
        def steady_state(params, *args, **kwargs):
            result = fn(params, *args, **kwargs)
            state = result[0] if isinstance(result, tuple) else result
            self.states.append((self.cell, params, state))
            return result
        return steady_state


def _scan_name(args, kwargs) -> str:
    method = kwargs.get("method", args[3] if len(args) > 3 else "closed_form")
    return "spectrum.scan_ode" if method == "ode" else "spectrum.scan_closed_form"


class Tracer:
    """Spans at srlaser's module boundaries, kept in memory.

    A span is ``[name, start, end, parent index, cell, error class]``.
    Exceptions are itemised with class and message where they leave a
    wrapped name, before ``evaluate_cell`` folds them into a status.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.spans: list[list] = []
        self.failures: list[dict] = []
        self.counts: Counter = Counter()
        self.extras: dict = defaultdict(list)
        self._stack: list[int] = []

    def install(self, patches: Patches) -> None:
        for module, attr, name in SPANS:
            if name == "spectrum.scan":
                name = _scan_name
            patches.wrap(module, attr, lambda fn, name=name: self._span(name, fn))
        for module, attr, name in COUNTED:
            patches.wrap(module, attr, lambda fn, name=name: self._count(name, fn))
        for module, attr, name in ORACLE_CALLS:
            patches.wrap(module, attr, lambda fn, name=name: self._oracle_call(name, fn))

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            record = [label, 0.0, 0.0, stack[-1] if stack else None,
                      self.recorder.cell, None]
            stack.append(len(spans))
            spans.append(record)
            # allocation tracing slows expm_multiply several-fold, so it is
            # confined to the stationary solves, where the memory peak is
            memory = label == "oracle.steady_state" and not tracemalloc.is_tracing()
            if memory:
                tracemalloc.start()
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[5] = type(exc).__name__
                self.failures.append({"span": label, "cell": list(record[4]),
                                      "error": type(exc).__name__,
                                      "message": str(exc)})
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if memory:
                    self.extras["tracemalloc_mb"].append(
                        tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
            self._extract(label, result)
            return result
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _oracle_call(self, name, fn):
        traced = self._span(name, fn)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] in ORACLE_ENTRY:
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def _extract(self, label: str, result) -> None:
        if label == "cumulant.solve_ivp":
            self.extras["nfev"].append(int(getattr(result, "nfev", 0)))
        elif label == "oracle.steady_state":
            space = getattr(result, "space", None)
            self.extras["n_max"].append(int(getattr(result, "n_max", 0)))
            if space is not None:
                self.extras["superop_dim"].append(int(space.dim) ** 2)

    # ------------------------------------------------------------ summaries

    def durations(self, name: str, grid: str | None = None) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name
                and (grid is None or (s[4] and s[4][0] == grid))]

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def failed(self, name: str, error: str | None = None) -> int:
        return sum(1 for f in self.failures if f["span"] == name
                   and (error is None or f["error"] == error))

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, cell, error in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "cell": list(cell),
                                     "error": error}) + "\n")


def percentile_ms(values, q: float) -> float:
    """q-th percentile of durations in seconds, in milliseconds; 0 if none."""
    return float(np.percentile(list(values), q)) * 1e3 if values else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """Per-layer numbers from one traced pass, keyed by metric name."""
    m: dict[str, float] = {}
    for name in ("cumulant.steady_state", "spectrum.linewidth"):
        d = tracer.durations(name)
        m[f"{name}.calls"] = len(d)
        m[f"{name}.busy_s"] = sum(d)
        m[f"{name}.p50_ms"] = percentile_ms(d, 50)
        m[f"{name}.p90_ms"] = percentile_ms(d, 90)
        m[f"{name}.failed"] = tracer.failed(name)
    m["cumulant.steady_state.max_ms"] = max(tracer.durations("cumulant.steady_state"),
                                            default=0.0) * 1e3
    known = 0
    for error in STEADY_ERRORS:
        count = tracer.failed("cumulant.steady_state", error)
        m[f"cumulant.steady_state.failed.{error}"] = count
        known += count
    m["cumulant.steady_state.failed.other"] = m["cumulant.steady_state.failed"] - known
    m["cumulant.steady_state.share"] = (
        m["cumulant.steady_state.busy_s"] / traced_wall_s if traced_wall_s > 0 else 0.0)

    for name in ("cumulant.solve_ivp", "spectrum.scan_closed_form", "spectrum.scan_ode",
                 "spectrum.extended_steady_state", "spectrum.fit_lorentzian",
                 "oracle.steady_state", "oracle.spectrum", "oracle.splu",
                 "oracle.dense_solve", "oracle.expm_multiply"):
        d = tracer.durations(name)
        m[f"{name}.calls"] = len(d)
        m[f"{name}.busy_s"] = sum(d)
    m["cumulant.solve_ivp.nfev"] = sum(tracer.extras["nfev"])
    m["cumulant.scaled_residual.calls"] = tracer.counts["cumulant.scaled_residual"]
    m["spectrum.fit_lorentzian.failed"] = tracer.failed("spectrum.fit_lorentzian")
    m["spectrum.auto_probe.busy_s"] = sum(tracer.durations("spectrum.auto_probe"))
    probes = len(tracer.durations("spectrum.auto_probe")) - tracer.failed("spectrum.auto_probe")
    m["spectrum.ode_scans_per_linewidth"] = (
        m["spectrum.scan_ode.calls"] / probes if probes else 0.0)
    sr87 = sum(tracer.durations("sweep.run_grid", grid="sr87"))
    m["spectrum.linewidth.share_sr87"] = (
        sum(tracer.durations("spectrum.linewidth", grid="sr87")) / sr87 if sr87 else 0.0)

    m["oracle.consistency_report.busy_s"] = sum(tracer.durations("oracle.consistency_report"))
    m["oracle.n_max_reached"] = max(tracer.extras["n_max"], default=0)
    m["oracle.superop_dim_max"] = max(tracer.extras["superop_dim"], default=0)
    m["oracle.tracemalloc_peak_mb"] = max(tracer.extras["tracemalloc_mb"], default=0.0)

    own = tracer.self_times()
    m["sweep.run_grid.busy_s"] = sum(tracer.durations("sweep.run_grid"))
    m["sweep.self_s"] = sum(t for t, s in zip(own, tracer.spans) if s[0] == "sweep.run_grid")
    m["sweep.cells"] = len(tracer.durations("sweep.evaluate_cell"))
    m["dicke.busy_s"] = (sum(tracer.durations("dicke.dicke_numbers"))
                         + sum(tracer.durations("dicke.classify_regime")))
    m["analytic.busy_s"] = (sum(tracer.durations("analytic.tieri_linewidth"))
                            + sum(tracer.durations("analytic.crossover_linewidth")))
    m["analytic.below_threshold"] = tracer.failed("analytic.tieri_linewidth",
                                                  "BelowThresholdError")
    return m
