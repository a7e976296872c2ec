"""Filter-cavity spectroscopy: probe physics, fitting, route agreement."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from srlaser import spectrum
from srlaser.cumulant import MomentState, steady_state
from srlaser.errors import FitError, SimulationError
from srlaser.model import SystemParams, preset
from srlaser.oracle import (
    build_space,
    moment_derivatives,
    moments_from_rho,
    oracle_spectrum,
    product_state,
)
from srlaser.spectrum import (
    ExtendedState,
    FilterProbe,
    LorentzianFit,
    SpectrumScan,
    _ext_jacobian,
    _ext_rhs,
    _ext_template,
    _lorentzian,
    _lorentzian_jacobian,
    auto_probe,
    closed_form_point,
    extended_steady_state,
    filter_rhs,
    fit_lorentzian,
    linewidth,
    scan,
)

from conftest import rel_err


# ------------------------------------------------- probe equations vs oracle

def test_filter_rhs_is_exact_on_product_states():
    # pins every sign and detuning convention of the probed moment system
    params = SystemParams(n_atoms=2, g=0.25, kappa=1.0, gamma=0.01, eta=0.2,
                          chi=0.03, omega_a=0.4)
    probe = FilterProbe(big_g=0.07, beta=0.3, omega_f=0.2)
    space = build_space(params, 3, m_max=2)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(6):
        cavity = rng.normal(size=3) + 1j * rng.normal(size=3)
        filt = rng.normal(size=2) + 1j * rng.normal(size=2)
        bloch = rng.normal(size=3)
        bloch = bloch / np.linalg.norm(bloch) * rng.uniform(0.1, 0.9)
        rho = product_state(space, cavity, tuple(bloch), filter_amps=filt)
        mom = moments_from_rho(space, rho)
        ext = ExtendedState(
            base=MomentState(mom.photon_number, mom.atom_photon,
                             mom.inversion, mom.pair_corr),
            filter_number=mom.filter_number,
            cross_photon=mom.cross_photon,
            cross_atom=mom.cross_atom,
        )
        approx = filter_rhs(ext, params, probe)
        exact = moment_derivatives(params, rho, space, probe=probe)
        pairs = [
            (exact["photon_number"], complex(approx.base.photon_number)),
            (exact["atom_photon"], approx.base.atom_photon),
            (exact["inversion"], complex(approx.base.inversion)),
            (exact["pair_corr"], approx.base.pair_corr),
            (exact["filter_number"], complex(approx.filter_number)),
            (exact["cross_photon"], approx.cross_photon),
            (exact["cross_atom"], approx.cross_atom),
        ]
        scale = max(max(abs(a), abs(b)) for a, b in pairs)
        for a, b in pairs:
            worst = max(worst, abs(a - b) / scale)
    assert worst < 1e-12


def test_closed_form_and_ode_routes_agree_for_weak_probe(desk_params):
    base = steady_state(desk_params)
    grid = np.linspace(-0.35, 0.35, 21)
    probe = FilterProbe(big_g=1e-5, beta=0.02)
    cf = scan(desk_params, probe, grid, base=base)
    ode = scan(desk_params, probe, grid, method="ode", base=base)
    assert np.max(np.abs(cf.intensity - ode.intensity)) < 1e-6 * np.max(cf.intensity)


def test_probe_backaction_vanishes_with_coupling(desk_params):
    # halving big_g must leave the normalised line shape untouched
    base = steady_state(desk_params)
    grid = np.linspace(-0.35, 0.35, 21)
    full = scan(desk_params, FilterProbe(big_g=1e-3, beta=0.02), grid,
                method="ode", base=base)
    half = scan(desk_params, FilterProbe(big_g=5e-4, beta=0.02), grid,
                method="ode", base=base)
    shapes = (full.intensity / full.intensity.max(),
              half.intensity / half.intensity.max())
    assert np.max(np.abs(shapes[0] - shapes[1])) < 5e-3


def test_scan_grid_matches_pointwise_closed_form(desk_params):
    base = steady_state(desk_params)
    probe = FilterProbe(big_g=1e-4, beta=0.05)
    grid = np.linspace(-0.4, 0.4, 9)
    swept = scan(desk_params, probe, grid, base=base)
    for omega_f, value in swept.points:
        single = closed_form_point(
            base, desk_params, dataclasses.replace(probe, omega_f=omega_f)
        )
        assert rel_err(value, single) < 1e-12


def test_extended_steady_state_is_stationary(desk_params):
    base = steady_state(desk_params)
    probe = FilterProbe(big_g=1e-3, beta=0.02, omega_f=0.1)
    ext = extended_steady_state(desk_params, probe, base)
    deriv = filter_rhs(ext, desk_params, probe).as_vector()
    assert np.max(np.abs(deriv)) < 1e-7
    assert ext.filter_number > 0.0


def _detuned_sr88():
    params = preset("sr88", n_atoms=1000)
    return params.updated(eta=10.0 * params.gamma, chi=0.3 * params.gamma,
                          omega_a=0.01 * params.kappa)


@pytest.mark.parametrize("case", ["desk", "detuned_sr88"])
def test_batched_ode_scan_matches_pointwise_newton(case, desk_params):
    if case == "desk":
        params, probe = desk_params, FilterProbe(big_g=1e-3, beta=0.02)
        grid = np.linspace(-0.35, 0.35, 21)
    else:
        params = _detuned_sr88()
        probe = FilterProbe(big_g=1e-3 * params.kappa, beta=1e-3 * params.kappa)
        grid = np.linspace(-0.05, 0.05, 21) * params.kappa
    base = steady_state(params)
    swept = scan(params, probe, grid, method="ode", base=base)
    single = [
        extended_steady_state(params, dataclasses.replace(probe, omega_f=w), base)
        .filter_number for w in grid
    ]
    assert np.max(np.abs(swept.intensity - single)) < 1e-12 * np.max(single)


def test_ode_scan_names_the_grid_point_that_cannot_converge(desk_params, monkeypatch):
    # a point whose residual turns non-finite stops at once; the others
    # finish, and the error names the failed frequency
    base = steady_state(desk_params)
    grid = np.linspace(-0.35, 0.35, 21)
    real_rhs = spectrum._ext_rhs
    calls = []

    def poisoned(x, params, probe, omega_f):
        calls.append(omega_f.size)
        out = real_rhs(x, params, probe, omega_f)
        out[:, omega_f == grid[7]] = np.inf
        return out

    monkeypatch.setattr(spectrum, "_ext_rhs", poisoned)
    with pytest.raises(SimulationError, match=f"omega_f = {grid[7]:.6e}"):
        scan(desk_params, FilterProbe(big_g=1e-3, beta=0.02), grid,
             method="ode", base=base)
    assert len(calls) < 10


def test_extended_jacobian_matches_central_differences():
    params = SystemParams(n_atoms=4, g=0.25, kappa=1.0, gamma=0.01, eta=0.2,
                          chi=0.03, omega_a=0.4)
    probe = FilterProbe(big_g=0.07, beta=0.3)
    omega = np.array([-0.5, 0.1, 0.8])
    x = np.random.default_rng(5).normal(size=(11, omega.size))
    jac = _ext_jacobian(x, omega, params, _ext_template(params, probe))
    h = 1e-6
    for j in range(11):
        dx = np.zeros((11, 1))
        dx[j] = h
        fd = (_ext_rhs(x + dx, params, probe, omega)
              - _ext_rhs(x - dx, params, probe, omega)) / (2.0 * h)
        assert np.max(np.abs(jac[:, :, j].T - fd)) < 1e-8


# ------------------------------------------------------------------- fitting

def test_lorentzian_fit_recovers_exact_parameters():
    width = 2.0 * np.pi * 100.0
    grid = np.linspace(-5.0 * width, 5.0 * width, 61)
    data = _lorentzian(grid, 1.0, 0.0, width, 0.05)
    fit = fit_lorentzian(SpectrumScan(omega=grid, intensity=data, method="closed_form"))
    assert rel_err(fit.fwhm, width) < 1e-9
    assert abs(fit.center) < 1e-9 * width
    assert rel_err(fit.amplitude, 1.0) < 1e-9
    assert abs(fit.offset - 0.05) < 1e-9


@pytest.mark.parametrize("fwhm", [0.7, -0.7])
def test_lorentzian_jacobian_matches_central_differences(fwhm):
    omega = np.linspace(-3.0, 3.0, 41)
    theta = np.array([1.3, 0.2, fwhm, 0.05])
    jac = _lorentzian_jacobian(omega, *theta)
    for k in range(4):
        h = 1e-6 * max(abs(theta[k]), 1.0)
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        fd = (_lorentzian(omega, *up) - _lorentzian(omega, *down)) / (2.0 * h)
        assert np.max(np.abs(jac[:, k] - fd)) < 1e-6 * np.max(np.abs(fd))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_lorentzian_fit_tolerates_percent_noise(seed):
    width = 2.0 * np.pi * 100.0
    grid = np.linspace(-5.0 * width, 5.0 * width, 61)
    clean = _lorentzian(grid, 1.0, 0.0, width, 0.05)
    rng = np.random.default_rng(seed)
    noisy = clean * (1.0 + 0.01 * rng.normal(size=grid.size))
    fit = fit_lorentzian(SpectrumScan(omega=grid, intensity=noisy, method="closed_form"))
    assert rel_err(fit.fwhm, width) < 0.02


def test_fit_rejects_flat_and_tiny_scans():
    grid = np.linspace(-1.0, 1.0, 21)
    with pytest.raises(FitError, match="no line"):
        fit_lorentzian(SpectrumScan(omega=grid, intensity=np.ones(21), method="x"))
    with pytest.raises(ValueError, match=">= 8"):
        fit_lorentzian(SpectrumScan(omega=grid[:5], intensity=grid[:5] ** 2, method="x"))


def test_fit_rejects_scan_narrower_than_the_line():
    grid = np.linspace(-0.8, 0.8, 41)
    data = 1.0 / (1.0 + grid**4)  # flat-topped: estimated width ~ full span
    with pytest.raises(ValueError, match="widen"):
        fit_lorentzian(SpectrumScan(omega=grid, intensity=data, method="x"))


# -------------------------------------------------------------- end to end

def test_deconvolved_width_is_probe_independent(desk_params):
    base = steady_state(desk_params)
    reference = linewidth(desk_params, base=base)
    assert reference.delta_nu == pytest.approx(0.21113, rel=1e-3)
    for factor in (5.0, 20.0):
        beta = reference.delta_nu / factor
        probe = FilterProbe(
            big_g=min(1e-3, 1e-2 * np.sqrt(beta * reference.delta_nu)),
            beta=beta, omega_f=reference.probe.omega_f,
        )
        other = linewidth(desk_params, base=base, probe=probe)
        assert rel_err(other.delta_nu, reference.delta_nu) < 0.05


def test_collective_line_sits_at_the_rabi_splitting_scale():
    # weak pump: the emission width rides the collective coupling 2 sqrt(N) g
    params = preset("sr88", n_atoms=100)
    params = params.updated(eta=1e-2 * params.gamma)
    base = steady_state(params)
    probe = auto_probe(params, base=base, check_backaction=False)
    result = linewidth(params, base=base, probe=probe)
    split = 2.0 * np.sqrt(params.n_atoms) * params.g
    assert rel_err(result.delta_nu, split) < 0.2


@pytest.mark.xfail(
    strict=True,
    reason="known closure gap: at N = 2 the exact two-time correlator decays "
    "through a multi-mode mixture about 1.9x wider than the closure's "
    "linear-response pole (measured pipeline 0.2096 vs oracle 0.3977)",
)
def test_pipeline_linewidth_matches_oracle_at_small_n():
    params = SystemParams(n_atoms=2, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
    pipeline = linewidth(params)
    est = 10.0 * pipeline.probe.beta
    grid = np.linspace(pipeline.probe.omega_f - 4.0 * est,
                       pipeline.probe.omega_f + 4.0 * est, 81)
    oracle_fit = fit_lorentzian(oracle_spectrum(params, n_max=6, omega_grid=grid))
    assert rel_err(pipeline.delta_nu, oracle_fit.fwhm) < 0.15


# ------------------------------------------------------------- input checking

def test_probe_validation():
    with pytest.raises(ValueError, match="big_g"):
        FilterProbe(big_g=0.0, beta=0.1)
    with pytest.raises(ValueError, match="beta"):
        FilterProbe(big_g=0.1, beta=-1.0)
    with pytest.raises(ValueError, match="omega_f"):
        FilterProbe(big_g=0.1, beta=0.1, omega_f=float("nan"))
    assert FilterProbe(big_g=0.1, beta=0.5).weakness(kappa=2.0) == pytest.approx(0.01)


def test_scan_validation(desk_params):
    base = steady_state(desk_params)
    probe = FilterProbe(big_g=1e-4, beta=0.05)
    with pytest.raises(ValueError, match="increasing"):
        scan(desk_params, probe, [0.0, 0.0, 0.1], base=base)
    with pytest.raises(ValueError, match="method"):
        scan(desk_params, probe, [0.0, 0.1], base=base, method="magic")
    with pytest.raises(ValueError, match="1-d"):
        scan(desk_params, probe, [0.0], base=base)


def test_scan_container_validation():
    with pytest.raises(ValueError, match="matching"):
        SpectrumScan(omega=np.arange(4.0), intensity=np.arange(3.0), method="x")
    with pytest.raises(ValueError, match="increasing"):
        SpectrumScan(omega=np.array([0.0, 0.0]), intensity=np.zeros(2), method="x")
