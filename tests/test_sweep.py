"""Grid sweeps: determinism, checkpoint/resume, quarantine, row codec."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from srlaser.model import SystemParams, from_hz, preset, to_hz
from srlaser.sweep import (
    COLUMNS,
    EtaGrid,
    Observables,
    SweepConfig,
    SweepRow,
    evaluate_cell,
    parse_row,
    row_to_line,
    run_grid,
)


def _desk_base():
    return SystemParams(n_atoms=1, g=0.25, kappa=1.0, gamma=0.01, eta=0.0)


def _small_config(path, n_list=(2, 3), workers=1):
    return SweepConfig(
        base=_desk_base(),
        n_list=n_list,
        eta_grid=EtaGrid(min_hz=to_hz(0.05), max_hz=to_hz(0.5), points=3),
        output_path=str(path),
        workers=workers,
    )


# ---------------------------------------------------------------- determinism

def test_rerun_and_fresh_run_are_byte_identical(tmp_path):
    cfg_a = _small_config(tmp_path / "a.csv")
    rows_a = run_grid(cfg_a)
    bytes_a = (tmp_path / "a.csv").read_bytes()

    # rerun on the same file: everything resumes, nothing changes
    rows_again = run_grid(cfg_a)
    assert (tmp_path / "a.csv").read_bytes() == bytes_a
    assert rows_again == rows_a
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["computed"] == 0
    assert meta["resumed"] == len(rows_a)

    # fresh run in a different location: identical bytes
    run_grid(_small_config(tmp_path / "b.csv"))
    assert (tmp_path / "b.csv").read_bytes() == bytes_a


def test_worker_count_does_not_change_output(tmp_path):
    run_grid(_small_config(tmp_path / "serial.csv", workers=1))
    run_grid(_small_config(tmp_path / "pool.csv", workers=2))
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pool.csv").read_bytes()


def test_resume_computes_only_the_complement(tmp_path):
    path = tmp_path / "grid.csv"
    run_grid(_small_config(path, n_list=(2,)))
    run_grid(_small_config(path, n_list=(2, 3)))
    meta = json.loads((path.with_name("grid.csv.meta.json")).read_text())
    assert meta["resumed"] == 3
    assert meta["computed"] == 3
    assert meta["rows"] == 6
    # the merged file equals a from-scratch run of the larger grid
    run_grid(_small_config(tmp_path / "full.csv", n_list=(2, 3)))
    assert path.read_bytes() == (tmp_path / "full.csv").read_bytes()


def test_corrupt_lines_are_quarantined(tmp_path):
    path = tmp_path / "grid.csv"
    run_grid(_small_config(path))
    clean = path.read_bytes()
    with open(path, "a") as fh:
        fh.write("this,is,not,a,row\n")
    run_grid(_small_config(path))
    assert path.read_bytes() == clean
    sidecar = Path(str(path) + ".quarantine").read_text()
    assert "this,is,not,a,row" in sidecar


# ------------------------------------------------------------- cell contents

def test_decoupled_single_cell_matches_closed_form(tmp_path):
    base = SystemParams(n_atoms=1, g=0.0, kappa=1.0, gamma=from_hz(10.0), eta=0.0)
    cfg = SweepConfig(
        base=base, n_list=(1,),
        eta_grid=EtaGrid(min_hz=30.0, max_hz=30.0, points=1),
        output_path=str(tmp_path / "one.csv"),
    )
    (row,) = run_grid(cfg)
    assert row.status == "ok"
    assert row.photon_number == pytest.approx(0.0, abs=1e-12)
    # pump/decay balance: s = (30 - 10) / (30 + 10)
    assert row.inversion == pytest.approx(0.5, abs=1e-9)
    assert row.j_over_n == pytest.approx(0.5, abs=1e-9)
    assert row.m_over_n == pytest.approx(0.25, abs=1e-9)
    assert row.regime is not None


def test_collective_numbers_stay_in_bounds(tmp_path):
    cfg = _small_config(tmp_path / "bounds.csv", n_list=(2, 4))
    for row in run_grid(cfg):
        assert row.status == "ok"
        assert 0.0 <= row.j_eff <= row.n_atoms / 2.0 + 1e-9
        assert abs(row.m_eff) <= row.j_eff + 1e-9
        assert row.photon_number >= 0.0


def test_linewidth_and_analytic_observables(tmp_path):
    base = SystemParams(n_atoms=1, g=0.25, kappa=1.0, gamma=0.01, eta=0.0)
    cfg = SweepConfig(
        base=base, n_list=(2,),
        eta_grid=EtaGrid(min_hz=to_hz(0.2), max_hz=to_hz(0.2), points=1),
        observables=Observables(linewidth=True, analytic=True),
        output_path=str(tmp_path / "lw.csv"),
    )
    (row,) = run_grid(cfg)
    assert row.status == "ok"
    assert row.delta_nu_hz == pytest.approx(to_hz(0.2096), rel=5e-3)
    assert row.delta_nu_eq4_hz is not None
    assert row.delta_nu_eq3_hz is not None


@pytest.mark.xfail(
    strict=True,
    reason="sr87, N = 1e4, eta = 1.02 gamma ends in fit_error because the "
    "steady state is the plateau n = 6.37e-9 (scaled residual 6.5e-7), not "
    "the exact resonant root n = 9.53e-7; seeded with that root, linewidth "
    "returns 0.00957 Hz. The steady-state solver is at fault, not the fit",
)
def test_near_threshold_sr87_cell_has_a_linewidth():
    base = preset("sr87")
    row = evaluate_cell(base, 10_000, 1.02 * to_hz(base.gamma),
                        Observables(linewidth=True))
    assert row.status == "ok"
    assert row.delta_nu_hz == pytest.approx(0.00957, rel=1e-2)


# ------------------------------------------------------------------ the codec

def test_row_codec_round_trip():
    row = SweepRow(
        n_atoms=4, eta_hz=123.456, photon_number=1.5e-3, inversion=-0.25,
        pair_corr_re=1e-6, j_eff=1.8, m_eff=-0.4, j_over_n=0.45,
        m_over_n=-0.1, regime="superradiant", delta_nu_hz=None,
        delta_nu_eq3_hz=float("nan"), delta_nu_eq4_hz=42.0, status="ok",
    )
    line = row_to_line(row)
    parsed = parse_row(line)
    assert row_to_line(parsed) == line
    assert parsed.delta_nu_hz is None
    assert parsed.regime == "superradiant"
    assert parsed.n_atoms == 4


def test_parse_row_rejects_malformed_lines():
    with pytest.raises(ValueError, match="fields"):
        parse_row("1,2,3")
    good = row_to_line(evaluate_cell(_desk_base(), 2, 30.0, Observables()))
    bad_status = good.rsplit(",", 1)[0] + ",exploded"
    with pytest.raises(ValueError, match="status"):
        parse_row(bad_status)
    cells = good.split(",")
    cells[9] = "reg!me"
    with pytest.raises(ValueError, match="regime"):
        parse_row(",".join(cells))


def test_header_matches_columns(tmp_path):
    path = tmp_path / "h.csv"
    run_grid(_small_config(path))
    header = path.read_text().splitlines()[0]
    assert header == ",".join(COLUMNS)


# ------------------------------------------------------------------ validation

def test_grid_validation():
    with pytest.raises(ValueError, match="points"):
        EtaGrid(min_hz=1.0, max_hz=2.0, points=0)
    with pytest.raises(ValueError, match="single-point"):
        EtaGrid(min_hz=1.0, max_hz=2.0, points=1)
    with pytest.raises(ValueError, match="max_hz"):
        EtaGrid(min_hz=3.0, max_hz=2.0, points=4)
    with pytest.raises(ValueError, match="log"):
        EtaGrid(min_hz=0.0, max_hz=2.0, points=4)
    with pytest.raises(ValueError, match="spacing"):
        EtaGrid(min_hz=1.0, max_hz=2.0, points=4, spacing="cubic")
    linear = EtaGrid(min_hz=0.0, max_hz=2.0, points=3, spacing="linear")
    assert linear.values_hz().tolist() == [0.0, 1.0, 2.0]


def test_sweep_config_validation(tmp_path):
    grid = EtaGrid(min_hz=1.0, max_hz=2.0, points=2)
    with pytest.raises(ValueError, match="n_list"):
        SweepConfig(base=_desk_base(), n_list=(), eta_grid=grid)
    with pytest.raises(ValueError, match=">= 1"):
        SweepConfig(base=_desk_base(), n_list=(0,), eta_grid=grid)
    with pytest.raises(ValueError, match="workers"):
        SweepConfig(base=_desk_base(), n_list=(2,), eta_grid=grid, workers=0)
    with pytest.raises(OSError, match="does not exist"):
        run_grid(SweepConfig(
            base=_desk_base(), n_list=(2,), eta_grid=grid,
            output_path=str(tmp_path / "missing" / "out.csv"),
        ))


def test_config_hash_tracks_physics_not_plumbing(tmp_path):
    cfg = _small_config(tmp_path / "x.csv")
    same_physics = _small_config(tmp_path / "elsewhere.csv", workers=1)
    assert cfg.config_hash() == same_physics.config_hash()
    shifted = SweepConfig(
        base=cfg.base, n_list=cfg.n_list,
        eta_grid=EtaGrid(min_hz=to_hz(0.05), max_hz=to_hz(0.6), points=3),
        output_path=cfg.output_path,
    )
    assert shifted.config_hash() != cfg.config_hash()
