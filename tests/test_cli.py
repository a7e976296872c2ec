"""Command-line interface: exit codes, output routing, unit conversion."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srlaser
from srlaser import __version__, cli, oracle
from srlaser.cli import main
from srlaser.cumulant import MomentState, steady_state
from srlaser.model import load_config, to_hz
from srlaser.spectrum import pole_linewidth


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that rejects the NaN and Infinity extensions."""
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture
def lossless_config(tmp_path):
    # below transparency at kappa = 0: a steady state exists, eq. 4 does not
    path = tmp_path / "lossless.json"
    path.write_text(json.dumps({"n_atoms": 2, "g_hz": 0.04, "kappa_hz": 0,
                                "gamma_hz": 0.1, "eta_hz": 0.01}))
    return str(path)


@pytest.fixture
def desk_config(tmp_path):
    path = tmp_path / "desk.json"
    path.write_text(json.dumps({
        "n_atoms": 2,
        "g_hz": to_hz(0.25),
        "kappa_hz": to_hz(1.0),
        "gamma_hz": to_hz(0.01),
        "eta_hz": to_hz(0.2),
    }))
    return str(path)


# ------------------------------------------------------------------ exit codes

def test_no_subcommand_is_a_usage_error(capsys):
    code, _, _ = run_cli(capsys, [])
    assert code == 2


def test_unknown_preset_is_a_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["steady", "--preset", "nope"])
    assert code == 2


def test_solver_failure_exits_one(capsys, tmp_path):
    # no coupling, no emission line: the scan is flat and the fit must fail
    path = tmp_path / "dark.json"
    path.write_text(json.dumps({
        "n_atoms": 2, "g_hz": 0.0, "kappa_hz": to_hz(1.0),
        "gamma_hz": to_hz(0.01), "eta_hz": to_hz(0.2),
    }))
    code, _, err = run_cli(capsys, ["spectrum", "--config", str(path)])
    assert code == 1
    assert "no line" in err


def test_spectrum_of_a_lossless_cavity_exits_one(capsys, lossless_config):
    # a steady state exists below transparency, but no light leaves the cavity
    code, out, err = run_cli(capsys, ["spectrum", "--config", lossless_config])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "lossless cavity" in err


def test_detuned_line_is_fitted_at_its_pole(capsys, tmp_path):
    # a 4.9e3 rad/s line 5.0e5 rad/s off resonance: the probe starts at its pole
    config = {"preset": "sr88", "n_atoms": 10000, "eta_hz": 153786.25,
              "detuning_hz": 160000}
    params = load_config(config)
    pole = to_hz(pole_linewidth(params, steady_state(params)).delta_nu)
    path = tmp_path / "detuned.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, ["spectrum", "--config", str(path),
                                    "--out", str(tmp_path / "scan.csv")])
    assert code == 0
    assert json.loads(out)["delta_nu_hz"] == pytest.approx(pole, rel=1e-3)


def test_unsettled_probe_design_exits_one(capsys, tmp_path):
    # two comparable Lorentzians: the fitted width keeps moving as beta narrows
    path = tmp_path / "two_mode.json"
    path.write_text(json.dumps({"preset": "sr88", "n_atoms": 1000,
                                "eta_hz": 153786.25, "detuning_hz": 800000}))
    code, _, err = run_cli(capsys, ["spectrum", "--config", str(path)])
    assert code == 1
    assert "did not settle in 16 passes" in err


def test_non_integral_atom_number_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "fraction.json"
    path.write_text(json.dumps({"preset": "sr88", "n_atoms": 100.7}))
    code, _, err = run_cli(capsys, ["steady", "--config", str(path)])
    assert code == 2
    assert "n_atoms" in err


def test_sweep_with_zero_workers_is_a_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, [
        "sweep", "--preset", "sr88", "--n", "2", "--eta-hz", "100",
        "--out", str(tmp_path / "sweep.csv"), "--workers", "0",
    ])
    assert code == 2
    assert "usage error: workers must be >= 1" in err


@pytest.mark.parametrize("key,value,named", [
    ("observables", {"linewdith": True}, "linewdith"),
    ("eta_grid", {"min": 1000.0, "max_hz": 2000.0, "points": 2}, "'min'"),
    ("eta_grid", [1, 2], "[1, 2]"),
    ("n_list", 100, "100"),
])
def test_sweep_config_typo_is_a_usage_error(capsys, tmp_path, key, value, named):
    config = {"preset": "sr88", "n_list": [2], "output_path": str(tmp_path / "s.csv"),
              "eta_grid": {"min_hz": 1000.0, "max_hz": 2000.0, "points": 2}}
    config[key] = value
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, ["sweep", "--config", str(path)])
    assert code == 2
    assert err.startswith(f"usage error: {key}") and named in err


@pytest.mark.parametrize("key,value,field", [
    ("workers", "2", "workers"),
    ("workers", 1.5, "workers"),
    ("eta_grid", {"min_hz": 1000.0, "max_hz": 2000.0, "points": "2"}, "points"),
    ("eta_grid", {"min_hz": 1000.0, "max_hz": 2000.0, "points": True}, "points"),
    ("eta_grid", {"min_hz": "1000", "max_hz": 2000.0, "points": 2}, "min_hz"),
    ("eta_grid", {"min_hz": 1000.0, "max_hz": "2e3", "points": 2}, "max_hz"),
    ("eta_hz", "1e3", "eta_hz"),
    ("eta_hz", True, "eta_hz"),
    ("detuning_hz", None, "detuning_hz"),
    ("g_hz", [1], "g_hz"),
    ("chi_hz", "x", "chi_hz"),
])
def test_sweep_config_of_the_wrong_type_is_a_usage_error(capsys, tmp_path, key, value,
                                                          field):
    config = {"preset": "sr88", "n_list": [2], "output_path": str(tmp_path / "s.csv"),
              "eta_grid": {"min_hz": 1000.0, "max_hz": 2000.0, "points": 2}}
    config[key] = value
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, ["sweep", "--config", str(path)])
    bad = value[field] if isinstance(value, dict) else value
    assert code == 2
    assert err.startswith(f"usage error: {field} must be") and repr(bad) in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("key,value", [
    ("eta_hz", "1e3"), ("eta_hz", True), ("detuning_hz", None), ("g_hz", [1]),
    ("chi_hz", "x"), ("kappa_hz", "160e3"), ("gamma_hz", False),
])
def test_steady_config_of_the_wrong_type_is_a_usage_error(capsys, tmp_path, key, value):
    # a rate or frequency that is not a real number (a JSON string, null, a
    # list or a bool) is a usage error, not a traceback and not 1 Hz
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"preset": "sr88", "n_atoms": 1000, key: value}))
    code, out, err = run_cli(capsys, ["steady", "--config", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"usage error: {key} must be a number") and repr(value) in err


@pytest.mark.parametrize("argv,config,message", [
    (["--eta-hz", "-5"], {}, "eta_hz must be finite and between 0 and 2.86112e+307 Hz, "
                             "got -5.0 Hz"),
    (["--eta-hz", "1e308"], {}, "eta_hz must be finite and between 0 and 2.86112e+307 Hz, "
                                "got 1e+308 Hz"),
    ([], {"kappa_hz": -3}, "kappa_hz must be finite and between 0 and 2.86112e+307 Hz, "
                           "got -3 Hz"),
    ([], {"detuning_hz": 1e308}, "detuning_hz must be finite and at most 2.86112e+307 Hz "
                                 "in size, got 1e+308 Hz"),
], ids=["negative-pump-flag", "overflowing-pump-flag", "negative-kappa", "huge-detuning"])
def test_steady_names_a_bad_rate_in_hz(capsys, tmp_path, argv, config, message):
    # not the rad/s value SystemParams rejects, and not inf after an overflow
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"preset": "sr88", "n_atoms": 1000, **config}))
    code, out, err = run_cli(capsys, ["steady", "--config", str(path), *argv])
    assert code == 2 and out == ""
    assert err == f"usage error: {message}\n"


def test_sweep_at_an_overflowing_pump_names_it_in_hz_and_writes_nothing(capsys, tmp_path):
    out_csv = tmp_path / "s.csv"
    code, _, err = run_cli(capsys, ["sweep", "--preset", "sr88", "--n", "1000",
                                    "--eta-hz", "1e308", "--out", str(out_csv)])
    assert code == 2
    assert err == ("usage error: max_hz must be finite and between 0 and "
                   "2.86112e+307 Hz, got 1e+308 Hz\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("name", [[1], {"name": "sr88"}, 5], ids=["list", "dict", "int"])
def test_steady_config_preset_that_is_not_a_name_is_a_usage_error(capsys, tmp_path, name):
    # a preset that is no str is an unknown preset, not a TypeError traceback
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"preset": name, "n_atoms": 10}))
    code, out, err = run_cli(capsys, ["steady", "--config", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and f"unknown preset {name!r}" in err


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, ["--version"])
    assert code == 0
    assert __version__ in out


def test_console_script_is_installed():
    # the subprocess imports srlaser from where this test did, also when
    # only pytest's pythonpath setting put it on sys.path
    root = str(Path(srlaser.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "srlaser.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert __version__ in result.stdout


# -------------------------------------------------------------------- commands

def test_presets_lists_known_parameter_sets(capsys):
    code, out, _ = run_cli(capsys, ["presets"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"sr87", "sr88"}
    assert payload["sr88"]["kappa_hz"] == pytest.approx(160e3)


def test_steady_flagship_point(capsys):
    code, out, err = run_cli(
        capsys, ["steady", "--preset", "sr88", "--n", "100000", "--eta-hz", "23870"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["n_atoms"] == 100000
    assert payload["photon_number"] == pytest.approx(5114.69, rel=1e-3)
    assert payload["regime"] == "superradiant_lasing"
    assert payload["derived"]["purcell_hz"] == pytest.approx(2809.0, rel=1e-6)
    assert "photon number" in err


def test_steady_out_file_routes_json(capsys, tmp_path):
    out_path = tmp_path / "steady.json"
    code, out, err = run_cli(
        capsys,
        ["steady", "--preset", "sr88", "--n", "100", "--eta-hz", "75000",
         "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["photon_number"] == pytest.approx(13.8786, rel=1e-4)
    assert "regime" in err


def test_flags_override_config_file(capsys, tmp_path, desk_config):
    code, out, _ = run_cli(
        capsys, ["steady", "--config", desk_config, "--n", "3"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["n_atoms"] == 3
    assert payload["config"]["eta_hz"] == pytest.approx(to_hz(0.2))


def test_limits_reports_closed_form_scales(capsys):
    code, out, _ = run_cli(capsys, ["limits", "--preset", "sr88", "--n", "100"])
    assert code == 0
    payload = json.loads(out)
    # 2 sqrt(N) g and N Gamma_c for the sr88 numbers
    assert payload["collective_rabi_hz"] == pytest.approx(212000.0, rel=1e-9)
    assert payload["n_purcell_hz"] == pytest.approx(280900.0, rel=1e-9)
    assert payload["delta_nu_eq3_hz"] is None  # unpumped: below lasing domain
    assert "delta_nu_eq3_note" in payload
    assert payload["delta_nu_eq4_hz"] == pytest.approx(146810.3, rel=1e-4)


def test_limits_reports_a_null_crossover_width_outside_its_domain(capsys, monkeypatch):
    # a fully inverted ensemble drives eq. 4's radicand negative
    monkeypatch.setattr(cli, "steady_state", lambda params: MomentState(0.0, 0j, 1.0, 0j))
    code, out, _ = run_cli(capsys, ["limits", "--preset", "sr88", "--n", "100"])
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_nu_eq4_hz"] is None
    assert "negative radicand" in payload["delta_nu_eq4_note"]


def test_limits_of_a_lossless_cavity_is_strict_json(capsys, tmp_path, lossless_config):
    code, out, _ = run_cli(capsys, ["limits", "--config", lossless_config])
    assert code == 0
    payload = strict_json(out)
    assert payload["delta_nu_eq4_hz"] is None
    assert "lossy cavity" in payload["delta_nu_eq4_note"]
    assert payload["n_purcell_hz"] is None
    assert "infinite" in payload["n_purcell_note"]
    assert payload["strong_pump_hz"] == pytest.approx(-4 * 2 * 0.04**2 / 0.11, rel=1e-12)
    # with no decoherence either, Gamma + kappa = 0 and the strong-pump limit does not exist
    for g_hz in (0.1, 0):
        path = tmp_path / f"no_loss_g{g_hz}.json"
        path.write_text(json.dumps({"n_atoms": 2, "g_hz": g_hz, "kappa_hz": 0,
                                    "gamma_hz": 0, "eta_hz": 0}))
        code, out, _ = run_cli(capsys, ["limits", "--config", str(path)])
        assert code == 0
        payload = strict_json(out)
        assert payload["strong_pump_hz"] is None
        assert "Gamma + kappa = 0" in payload["strong_pump_note"]


def test_steady_of_a_lossless_cavity_is_strict_json(capsys, lossless_config):
    code, out, _ = run_cli(capsys, ["steady", "--config", lossless_config])
    assert code == 0
    payload = strict_json(out)
    assert payload["pair_corr_re"] == 0.0  # the closed form, with no coherence
    rates = payload["derived"]
    for key in ("purcell", "c_collective"):
        assert rates[f"{key}_hz"] is None
        assert "lossless" in rates[f"{key}_note"]
    assert rates["big_gamma_hz"] == pytest.approx(0.11, rel=1e-12)


def test_steady_of_decoupled_atoms_in_a_lossless_cavity(capsys, tmp_path):
    # g = 0 leaves the atoms at their pumped inversion d0 and the cavity empty
    path = tmp_path / "decoupled.json"
    path.write_text(json.dumps({"n_atoms": 2, "g_hz": 0, "kappa_hz": 0,
                                "gamma_hz": 0.1, "eta_hz": 0.01}))
    code, out, _ = run_cli(capsys, ["steady", "--config", str(path)])
    assert code == 0
    payload = strict_json(out)
    assert payload["photon_number"] == 0.0
    assert payload["inversion"] == pytest.approx((0.01 - 0.1) / 0.11, rel=1e-12)
    assert payload["regime"] == "decoupled"


def test_spectrum_stdout_convention(capsys, desk_config):
    code, out, err = run_cli(capsys, ["spectrum", "--config", desk_config])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "omega_f_hz,intensity"
    assert len(lines) > 100
    record = json.loads(err[err.index("{"):])
    assert record["delta_nu_hz"] == pytest.approx(to_hz(0.2096), rel=5e-3)


def test_spectrum_out_file_convention(capsys, tmp_path, desk_config):
    csv_path = tmp_path / "scan.csv"
    code, out, _ = run_cli(
        capsys, ["spectrum", "--config", desk_config, "--out", str(csv_path)]
    )
    assert code == 0
    assert csv_path.read_text().splitlines()[0] == "omega_f_hz,intensity"
    record = json.loads(out)
    assert record["beta_hz"] > 0.0
    assert record["delta_nu_hz"] == pytest.approx(to_hz(0.2096), rel=5e-3)


def test_spectrum_resolves_a_strongly_driven_sr88_line(capsys, tmp_path):
    params = load_config({"preset": "sr88", "n_atoms": 100000,
                          "eta_hz": 41557652.475})
    pole = to_hz(pole_linewidth(params, steady_state(params)).delta_nu)
    code, out, _ = run_cli(capsys, [
        "spectrum", "--preset", "sr88", "--n", "100000",
        "--eta-hz", "41557652.475", "--out", str(tmp_path / "scan.csv"),
    ])
    assert code == 0
    assert pole == pytest.approx(0.04956, rel=1e-3)
    assert json.loads(out)["delta_nu_hz"] == pytest.approx(pole, rel=1e-6)


def test_dicke_map_csv_header(capsys, desk_config):
    code, out, err = run_cli(capsys, ["dicke-map", "--config", desk_config])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,eta_hz,J,M,J_over_N,M_over_N,regime"
    cells = lines[1].split(",")
    assert cells[0] == "2"
    assert float(cells[2]) <= 1.0 + 1e-9  # J <= N/2
    assert "collective threshold" in err


@pytest.mark.parametrize("argv,verdict", [
    (["--preset", "sr88", "--n", "228", "--eta-hz", "75000"], "N > 227.8 (exceeded)"),
    (["--preset", "sr88", "--n", "227", "--eta-hz", "75000"], "N > 227.8 (not exceeded)"),
], ids=["above", "below"])
def test_dicke_map_compares_n_with_the_collective_threshold(capsys, argv, verdict):
    # (kappa / g)^2 = (160 / 10.6)^2 = 227.8 atoms for sr88
    code, _, err = run_cli(capsys, ["dicke-map", *argv])
    assert code == 0
    assert f"collective threshold {verdict}" in err


def test_sweep_jsonl_echo(capsys, tmp_path, desk_config):
    out_csv = tmp_path / "sweep.csv"
    config = json.loads(open(desk_config).read())
    config.update({
        "n_list": [2, 3],
        "eta_grid": {"min_hz": to_hz(0.05), "max_hz": to_hz(0.5), "points": 2},
        "output_path": str(out_csv),
    })
    del config["eta_hz"], config["n_atoms"]
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run_cli(
        capsys, ["sweep", "--config", str(cfg_path), "--format", "jsonl"]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 4
    assert {row["n_atoms"] for row in rows} == {2, 3}
    assert all(row["status"] == "ok" for row in rows)
    assert out_csv.exists()
    assert "4 rows (4 ok)" in err


def test_sweep_jsonl_echo_of_a_below_threshold_cell_is_strict_json(capsys, tmp_path):
    # eq. 3 does not exist below threshold: null in the echo, nan in the CSV
    out_csv = tmp_path / "below.csv"
    cfg_path = tmp_path / "below.json"
    cfg_path.write_text(json.dumps({
        "n_atoms": 2, "g_hz": 0.01, "kappa_hz": 1, "gamma_hz": 0.1,
        "eta_grid": {"min_hz": 0.05, "max_hz": 0.05, "points": 1},
        "observables": {"analytic": True}, "output_path": str(out_csv),
    }))
    code, out, _ = run_cli(capsys, ["sweep", "--config", str(cfg_path), "--format", "jsonl"])
    assert code == 0
    (row,) = [strict_json(line) for line in out.splitlines()]
    assert row["status"] == "ok" and row["delta_nu_eq3_hz"] is None
    assert row["delta_nu_eq4_hz"] == pytest.approx(0.118464418, rel=1e-8)
    header, cells = out_csv.read_text().splitlines()
    assert dict(zip(header.split(","), cells.split(",")))["delta_nu_eq3_hz"] == "nan"


def test_sweep_requires_grid_and_output(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["sweep", "--preset", "sr88", "--n", "2"])
    assert code == 2
    assert "usage error" in err
    code, _, err = run_cli(
        capsys, ["sweep", "--preset", "sr88", "--n", "2", "--eta-hz", "100"]
    )
    assert code == 2
    assert "output_path" in err
    code, _, err = run_cli(capsys, [
        "sweep", "--preset", "sr88", "--eta-hz", "100", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 2
    assert "usage error: sweep needs --n or an n_list" in err


def test_sweep_takes_the_atom_number_of_the_config(capsys, tmp_path, desk_config):
    out_csv = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, [
        "sweep", "--config", desk_config, "--eta-hz", "0.03", "--out", str(out_csv),
    ])
    assert code == 0
    assert "1 rows (1 ok)" in err
    assert out_csv.read_text().splitlines()[1].startswith("2,")


def test_sweep_at_a_single_pump_of_0_hz_gives_the_unpumped_state(capsys, tmp_path):
    # a single point is min_hz itself, so the default log spacing spans nothing
    out_csv = tmp_path / "s.csv"
    code, _, err = run_cli(capsys, [
        "sweep", "--preset", "sr88", "--n", "1000", "--eta-hz", "0", "--out", str(out_csv),
    ])
    assert code == 0
    assert "1 rows (1 ok)" in err
    header, cells = out_csv.read_text().splitlines()
    row = dict(zip(header.split(","), cells.split(",")))
    assert float(row["eta_hz"]) == 0.0 and float(row["photon_number"]) == 0.0
    assert float(row["inversion"]) == -1.0
    assert row["regime"] == "subradiant" and row["status"] == "ok"


def test_sweep_with_a_negative_pump_grid_names_it_in_hz_and_writes_nothing(capsys, tmp_path):
    out_csv = tmp_path / "neg.csv"
    cfg_path = tmp_path / "neg.json"
    cfg_path.write_text(json.dumps({
        "preset": "sr88", "n_list": [1000],
        "eta_grid": {"min_hz": -5, "max_hz": 5, "points": 3, "spacing": "linear"},
    }))
    code, _, err = run_cli(capsys, ["sweep", "--config", str(cfg_path), "--out", str(out_csv)])
    assert code == 2
    assert "usage error: min_hz must be >= 0, got -5 Hz" in err
    assert not out_csv.exists()


def test_sweep_into_a_file_of_other_physics_exits_2(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    argv = ["sweep", "--n", "2", "--eta-hz", "100", "--out", str(out_csv)]
    assert run_cli(capsys, argv + ["--preset", "sr88"])[0] == 0
    written = out_csv.read_bytes()
    code, _, err = run_cli(capsys, argv + ["--preset", "sr87"])
    assert code == 2
    assert f"{out_csv} holds rows, but sweep.csv.meta.json is missing or " in err
    assert out_csv.read_bytes() == written


def test_sweep_rejects_a_config_that_is_not_an_object(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([1, 2]))
    code, _, err = run_cli(capsys, ["sweep", "--config", str(path)])
    assert code == 2
    assert "usage error: config file must hold a JSON object" in err


def test_oracle_check_reports_all_green(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, _, err = run_cli(capsys, ["oracle-check", "--out", str(report_path)])
    assert code == 0
    assert "consistency checks passed" in err
    report = json.loads(report_path.read_text())
    assert len(report) == 6
    assert all(entry["pass"] for entry in report)


def test_oracle_check_exits_one_when_a_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "consistency_report", lambda: [
        {"test": "steady_photon_closure_n3", "max_error": 0.5, "pass": False},
    ])
    code, out, err = run_cli(capsys, ["oracle-check"])
    assert code == 1
    assert json.loads(out)[0]["pass"] is False
    assert "FAILED: steady_photon_closure_n3" in err
