"""The benchmark harness against the package as it stands.

One smoke pass per workload, traced, so that a renamed or re-imported name
the benchmark probes (``srlaser.cumulant.solve_ivp``, ``scaled_residual``,
``rhs``, ``SolverConfig.newton_tol``) fails here rather than in a
benchmark run.  A traced smoke pass of each grid workload must see every
cell's relaxation, batched per grid, and every cell's steady state, so
that a batch that goes round the probed names fails here too.  One full
default-seed pass per workload, checked against the recorded references
(the grids' CSVs and the Newton tolerance, the oracle's moments and
spectra), so that a moved reference fails here too.  And the sha256 of
every grid workload's CSVs at seeds 0 and 3, so that a change meant to
keep every output bit for bit is checked to the byte.  The response poles
of every grid workload's steady states at seeds 0 and 3 are checked bit
for bit against their array form (``pole_reference``), and each of those
states is checked to be the stage-2 Newton root or the closed-form root.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import trace, workloads  # noqa: E402
from pole_reference import assert_matches_reference  # noqa: E402
from srlaser import cumulant, sweep  # noqa: E402
from srlaser.cumulant import solve_all, steady_state  # noqa: E402


def _traced(run):
    """run(recorder) under the benchmark's tracer; (result, tracer, recorder)."""
    recorder = trace.Recorder()
    tracer = trace.Tracer(recorder)
    with trace.Patches() as patches:
        tracer.install(patches)
        recorder.install(patches)
        result = run(recorder)
    assert patches.missing == []
    return result, tracer, recorder


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_smoke_pass_is_clean(name, tmp_path):
    workload = workloads.prepare(name, 1, smoke=True)
    result, tracer, _ = _traced(lambda recorder: workload.run_pass(tmp_path, recorder))
    assert result.problems == []
    assert result.failed == 0
    if name != "oracle_small":
        assert tracer.durations("cumulant.solve_ivp")
        assert tracer.counts["cumulant.scaled_residual"] > 0


@pytest.mark.parametrize("name", [w for w in workloads.WORKLOADS if w != "oracle_small"])
def test_traced_grid_pass_sees_every_relaxation_and_state(name, tmp_path):
    # run_grid relaxes each grid's cells in one batch, through the probed
    # cumulant.solve_ivp, and hands every cell to the probed evaluate_cell
    # and steady_state; a batch that went round them would lose the
    # integrations' nfev or the cells' states from the benchmark
    workload = workloads.prepare(name, 1, smoke=True)
    result, tracer, recorder = _traced(lambda rec: workload.run_pass(tmp_path, rec))
    assert result.problems == [] and result.failed == 0
    cells = [(cfg, n, float(eta)) for _, cfg in workload.grids
             for n in cfg.n_list for eta in cfg.eta_grid.values_hz()]
    assert len(cells) == workload.cells
    assert len(tracer.durations("cumulant.solve_ivp")) == len(workload.grids)
    assert len(recorder.states) == len(cells)
    assert len(tracer.durations("sweep.evaluate_cell")) == len(cells)

    def one_by_one(rec):  # each cell relaxed alone, on the 1-D loop
        for cfg, n, eta in cells:
            sweep.evaluate_cell(cfg.base, n, eta, cfg.observables)

    _, alone, _ = _traced(one_by_one)
    assert len(alone.durations("cumulant.solve_ivp")) == len(cells)
    assert sum(tracer.extras["nfev"]) == sum(alone.extras["nfev"]) > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_default_seed_pass_matches_the_references(name, tmp_path):
    workload = workloads.prepare(name, workloads.DEFAULT_SEED)
    assert workload.reference is not None
    recorder = trace.Recorder()
    with trace.Patches() as patches:
        recorder.install(patches)  # keeps each steady state for the residual check
        result = workload.run_pass(tmp_path, recorder)
    assert patches.missing == []
    assert result.problems == []
    assert result.failed == 0
    if name != "oracle_small":  # the oracle's checks are its own, not Newton's
        assert len(recorder.states) > 0


def test_grid_csvs_keep_their_recorded_bytes(tmp_path):
    # The 16 run_grid CSVs of the three grid workloads at seeds 0 and 3,
    # hashed. A solver change that claims to keep every output bit for bit
    # must leave them all as they are; one that moves a byte on purpose
    # records the new hashes in grid_csv_sha256.json and says why.
    recorded = json.loads((Path(__file__).parent / "grid_csv_sha256.json").read_text())
    found = {}
    for seed in (0, 3):
        for name in ("threshold_grid", "detuned_grid", "linewidth_sweep"):
            for label, cfg in workloads.grid_inputs(name, seed):
                path = tmp_path / f"{name}_{seed}_{label}.csv"
                sweep.run_grid(replace(cfg, output_path=str(path)))
                found[f"{name}/{seed}/{label}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert found == recorded


def test_grid_states_poles_match_the_array_form():
    # pole_linewidth on Python scalars against the array form it replaced,
    # on all 970 steady states of the grid workloads at seeds 0 and 3, as
    # run_grid solves them: one solve_all per grid
    checked = 0
    for seed in (0, 3):
        for name in ("threshold_grid", "detuned_grid", "linewidth_sweep"):
            for _, cfg in workloads.grid_inputs(name, seed):
                cells = [sweep._cell_params(cfg.base, n, float(eta)) for n in cfg.n_list
                         for eta in cfg.eta_grid.values_hz()]
                for params, row in zip(cells, solve_all(cells)):
                    assert_matches_reference(params, steady_state(params, solved=row))
                    checked += 1
    assert checked == 970


def test_grid_answers_are_the_stage_two_root_or_the_closed_form():
    # each solve_all answer on the 970 grid cells at seeds 0 and 3, solved
    # as run_grid solves them (one solve_all per grid), is the root that
    # one _newton batch from the relaxed states settles on, physical and
    # within the tolerance, or, where that batch does not settle, the
    # closed-form root bit for bit, within the tolerance; none is an error
    stages = {0: [0, 0], 3: [0, 0]}
    for seed in (0, 3):
        for name in ("threshold_grid", "detuned_grid", "linewidth_sweep"):
            for _, cfg in workloads.grid_inputs(name, seed):
                cells = [sweep._cell_params(cfg.base, n, float(eta)) for n in cfg.n_list
                         for eta in cfg.eta_grid.values_hz()]
                tols = [1e-10 * max(1.0, p.kappa) for p in cells]
                x, res, ok = cumulant._newton(np.array(cumulant.relax_all(cells)), cells, tols)
                for params, tol, entry, v, rv, good in zip(
                        cells, tols, solve_all(cells), x, res, ok):
                    assert isinstance(entry, tuple), entry
                    state, entry_res = entry
                    if good and cumulant._is_physical(v):
                        assert state.tobytes() == v.tobytes() and entry_res == rv < tol
                        stages[seed][0] += 1
                    else:
                        root = cumulant._closed_form_root(params)
                        assert state.tobytes() == root.tobytes()
                        assert entry_res == cumulant.scaled_residual(root, params) < tol
                        stages[seed][1] += 1
    # of each seed's 485 cells, 266 take the closed form: 47 of threshold_grid's
    # 160, 61 of detuned_grid's 144 and 158 of linewidth_sweep's 181
    assert stages == {0: [219, 266], 3: [219, 266]}
