"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""
from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calibrate, run, trace, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _all_probed_names():
    probed = trace.SPANS + trace.COUNTED + trace.ORACLE_CALLS
    names = [(m, a) for m, a, _ in probed]
    return names + [("srlaser.sweep", "evaluate_cell"), ("srlaser.sweep", "steady_state")]


def _smoke_pass(name, seed, tmp_path, traced=False):
    workload = workloads.prepare(name, seed, smoke=True)
    recorder = trace.Recorder()
    tracer = trace.Tracer(recorder)
    with trace.Patches() as patches:
        if traced:
            tracer.install(patches)
        recorder.install(patches)
        result = workload.run_pass(tmp_path, recorder)
    return workload, result, tracer


def test_tracer_restores_every_wrapped_name(tmp_path):
    import importlib

    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a in _all_probed_names()}
    recorder = trace.Recorder()
    with trace.Patches() as patches:
        trace.Tracer(recorder).install(patches)
        recorder.install(patches)
        assert not patches.missing
        replaced = [k for k, fn in originals.items()
                    if getattr(importlib.import_module(k[0]), k[1]) is not fn]
        assert sorted(replaced) == sorted(originals)
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn, f"{module}.{attr}"


def test_missing_name_is_tolerated(monkeypatch):
    import srlaser.cumulant

    original = srlaser.sweep.steady_state
    monkeypatch.delattr(srlaser.cumulant, "solve_ivp")
    tracer = trace.Tracer(trace.Recorder())
    with trace.Patches() as patches:
        tracer.install(patches)
        assert patches.missing == ["srlaser.cumulant.solve_ivp"]
    assert srlaser.sweep.steady_state is original
    layer = trace.layer_metrics(tracer, traced_wall_s=0.0)
    assert layer["cumulant.solve_ivp.calls"] == 0
    assert layer["cumulant.solve_ivp.nfev"] == 0


def test_layer_metric_names_match_the_spec():
    computed = set(trace.layer_metrics(trace.Tracer(trace.Recorder()), 0.0))
    computed |= set(run.IMPORT_METRICS) | set(run.RUN_LAYER_METRICS)
    assert computed == {m["name"] for m in SPEC["per_layer"]}


def test_same_seed_gives_same_inputs_and_identical_csvs(tmp_path):
    for name in ("threshold_grid", "detuned_grid", "linewidth_sweep"):
        assert workloads.grid_inputs(name, 7) == workloads.grid_inputs(name, 7)
        assert workloads.grid_inputs(name, 7) != workloads.grid_inputs(name, 8)
        assert workloads.grid_inputs(name, 0) != workloads.grid_inputs(name, 7)
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    _, a, _ = _smoke_pass("detuned_grid", 7, first)
    _, b, _ = _smoke_pass("detuned_grid", 7, second)
    assert a.outputs and a.outputs == b.outputs
    for label in a.outputs:
        assert (first / f"{label}.csv").read_bytes() == (second / f"{label}.csv").read_bytes()


def _cells(configs):
    return {(label, n, float(eta)) for label, cfg in configs
            for n in cfg.n_list for eta in cfg.eta_grid.values_hz()}


def test_seeds_keep_the_cells_whose_outcome_is_fragile():
    # detuned_grid: the same cells for every seed, in another order
    nominal = workloads.grid_inputs("detuned_grid", 0)
    for seed in (1, 7):
        shuffled = workloads.grid_inputs("detuned_grid", seed)
        assert _cells(shuffled) == _cells(nominal)
        assert [(label, cfg.n_list) for label, cfg in shuffled] != \
            [(label, cfg.n_list) for label, cfg in nominal]
    # linewidth_sweep: sr87 keeps gamma as its lowest pump
    low = dict(workloads.grid_inputs("linewidth_sweep", 0))["sr87"].eta_grid.min_hz
    for seed in (1, 7):
        assert dict(workloads.grid_inputs("linewidth_sweep", seed))["sr87"].eta_grid.min_hz == low


def test_calibration_factor_uses_samples_around_the_interval():
    cal = calibrate.Calibrator("ode")
    cal.times = [float(t) for t in range(10)]
    cal.samples = [0.01] * 5 + [0.02] * 5
    ref = cal.reference_s
    # the samples within the interval's length (2 s) of it
    assert cal.factor(0.5, 2.5) == pytest.approx(ref / 0.01)
    assert cal.factor(6.5, 8.5) == pytest.approx(ref / 0.02)
    assert cal.factor(3.5, 5.5) == pytest.approx(ref / 0.015)  # the mean of both modes
    assert cal.factor(8.2) == pytest.approx(ref / 0.02)  # the five nearest samples
    assert cal.factor(-3.0) == pytest.approx(ref / 0.01)
    before = cal.spent()
    cal.sample(repeats=2)
    assert len(cal.samples) == 12 and cal.spent()[0] > before[0]


def test_reference_mismatch_and_invariants_are_reported(tmp_path):
    workload, result, _ = _smoke_pass("threshold_grid", 3, tmp_path)
    assert result.problems == [] and result.failed == 0
    rows = {label: workloads.read_csv_rows(text) for label, text in result.outputs.items()}
    key = next(iter(rows["sr88"]))
    rows["sr88"][key] = dict(rows["sr88"][key],
                             photon_number="%.8e" % (1.001 * float(rows["sr88"][key]["photon_number"])))
    tampered = workloads.GridWorkload(workload.name, workload.grids, reference=rows)
    recorder = trace.Recorder()
    with trace.Patches() as patches:
        recorder.install(patches)
        checked = tampered.run_pass(tmp_path, recorder)
    assert checked.failed == 1
    assert any("photon_number" in p for p in checked.problems)
    bad = dict(rows["sr88"][key], photon_number="-1e-3", j_eff="1", m_eff="2")
    found = workloads._row_problems(bad, linewidth=False)
    assert any("photon_number" in p for p in found) and any("|m|" in p for p in found)


def test_oracle_library_calls_are_attributed_only_under_oracle_spans(tmp_path):
    _, grid, tracer = _smoke_pass("threshold_grid", 1, tmp_path, traced=True)
    layer = trace.layer_metrics(tracer, grid.wall_s)
    assert layer["cumulant.steady_state.calls"] == grid.attempted
    assert layer["oracle.dense_solve.calls"] == 0
    assert all(s[4] and s[4][0] == "sr88" for s in tracer.spans)

    _, oracle, tracer = _smoke_pass("oracle_small", 1, tmp_path, traced=True)
    assert oracle.problems == []
    layer = trace.layer_metrics(tracer, oracle.wall_s)
    assert layer["oracle.dense_solve.calls"] > 0
    assert layer["oracle.expm_multiply.calls"] > 0
    assert layer["oracle.n_max_reached"] >= 2 and layer["oracle.tracemalloc_peak_mb"] > 0
    assert layer["cumulant.steady_state.calls"] == 0


@pytest.mark.parametrize("trace_flag", ["0", "1"])
def test_smoke_mode_completes_in_a_few_seconds(trace_flag):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linewidth_sweep", "--seed", "2",
         "--seconds", "1", "--trace", trace_flag, "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    kind = "per_layer" if trace_flag == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    assert elapsed < 30.0


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text((ROOT / "perfbench" / "run.py").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "threshold_grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
