"""Cold start: the CLI and the package load scipy only where it is called.

Steady states integrate on the package's own DOP853, so every command that
solves for them runs on numpy alone; scipy is loaded by the spectrum fit
(``least_squares``), the oracle (``scipy.sparse``) and the sweeps that fit
two-mode lines.

This test session has imported scipy already, so each check runs a fresh
interpreter under ``-X importtime``, which lists every module it imports.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srlaser
import srlaser.cumulant

SRC = str(Path(srlaser.__file__).resolve().parents[1])
SCIPY = {"scipy", "scipy.integrate", "scipy.optimize", "scipy.sparse"}


def run_fresh(*args):
    """Run ``python -X importtime *args`` on this checkout's sources.

    Returns the completed process and the set of modules it imported.
    """
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    return proc, imported


def test_importing_the_cli_loads_no_scipy():
    proc, imported = run_fresh("-c", "import srlaser.cli")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "numpy" in imported
    assert not SCIPY & imported


def test_presets_runs_without_scipy():
    proc, imported = run_fresh("-m", "srlaser.cli", "presets")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert set(json.loads(proc.stdout)) == {"sr87", "sr88"}
    assert not SCIPY & imported


@pytest.mark.parametrize("command", [
    "steady --preset sr88 --n 1000 --eta-hz 75000",
    "limits --preset sr88 --n 1000 --eta-hz 75000",
    "dicke-map --preset sr87 --n 10000 --eta-hz 100",
])
def test_pumped_commands_run_without_scipy(command):
    proc, imported = run_fresh("-m", "srlaser.cli", *command.split())
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
    assert not SCIPY & imported


def test_sweep_runs_in_process_without_scipy(tmp_path):
    # a 2 x 3 grid: every cell is solved and evaluated in the calling process
    out = tmp_path / "grid.csv"
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "preset": "sr88", "n_list": [1000, 10000], "output_path": str(out),
        "eta_grid": {"min_hz": 1e3, "max_hz": 1e5, "points": 3}}))
    proc, imported = run_fresh("-m", "srlaser.cli", "sweep", "--config", str(config))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert len(out.read_text().splitlines()) == 1 + 6
    assert not (SCIPY | {"multiprocessing", "concurrent.futures.process"}) & imported


def test_oracle_names_resolve_on_first_access():
    proc, imported = run_fresh(
        "-c", "import srlaser, sys\n"
              "assert 'srlaser.oracle' not in sys.modules\n"
              "from srlaser import oracle_steady_state\n"
              "print(oracle_steady_state.__module__)")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["srlaser.oracle"]
    assert "scipy.sparse" in imported


def test_solve_ivp_stays_a_module_attribute_of_cumulant():
    # benchmark tracers wrap it where the package looks it up
    sol = srlaser.cumulant.solve_ivp(lambda _, y: -y, (0.0, 1.0), [1.0],
                                     rtol=1e-10, atol=1e-12)
    assert sol.success
    assert math.isclose(sol.y[0, -1], math.exp(-1.0), rel_tol=1e-9)


def test_every_exported_name_resolves():
    # the oracle's names resolve through the package's lazy __getattr__
    missing = [name for name in srlaser.__all__ if not hasattr(srlaser, name)]
    assert missing == []
    assert srlaser.oracle_steady_state is srlaser.oracle.oracle_steady_state
    with pytest.raises(AttributeError, match="no attribute 'AnalyticInputs'"):
        srlaser.AnalyticInputs
    # the product-basis reference lives with the tests, not in the package
    for name in ("product_state", "moment_derivatives"):
        assert name not in srlaser.__all__
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(srlaser, name)
