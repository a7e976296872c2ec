"""The benchmark harness against the package as it stands.

One smoke pass per workload, traced, so that a renamed or re-imported name
the benchmark probes (``srlaser.cumulant.solve_ivp``, ``scaled_residual``,
``rhs``, ``SolverConfig.newton_tol``) fails here rather than in a
benchmark run.  One full default-seed pass per workload, checked against
the recorded references (the grids' CSVs and the Newton tolerance, the
oracle's moments and spectra), so that a moved reference fails here too.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import trace, workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_smoke_pass_is_clean(name, tmp_path):
    workload = workloads.prepare(name, 1, smoke=True)
    recorder = trace.Recorder()
    tracer = trace.Tracer(recorder)
    with trace.Patches() as patches:
        tracer.install(patches)
        recorder.install(patches)
        result = workload.run_pass(tmp_path, recorder)
    assert patches.missing == []
    assert result.problems == []
    assert result.failed == 0
    if name != "oracle_small":
        assert tracer.durations("cumulant.solve_ivp")
        assert tracer.counts["cumulant.scaled_residual"] > 0


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
