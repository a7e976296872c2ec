"""Filter-cavity spectroscopy: probe physics, fitting, route agreement."""
from __future__ import annotations

import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from srlaser import oracle, spectrum
from srlaser.analytic import crossover_linewidth
from srlaser.cumulant import MomentState, steady_state
from srlaser.errors import FitError, ProbeError, SimulationError
from srlaser.model import ETA_EXP, SystemParams, from_hz, preset, to_hz
from srlaser.oracle import oracle_spectrum
from srlaser.spectrum import (
    ExtendedState,
    FilterProbe,
    LorentzianFit,
    SpectrumScan,
    _ext_jacobian,
    _ext_rhs,
    _lorentzian,
    _lorentzian_jacobian,
    auto_probe,
    extended_steady_state,
    filter_response,
    fit_lorentzian,
    linewidth,
    pole_linewidth,
    scan,
)
from srlaser.sweep import ONE_LORENTZIAN_WEIGHT

from conftest import rel_err
from oracle_reference import HilbertSpace, moment_derivatives, moments_from_rho, product_state
from pole_reference import assert_matches_reference


# ------------------------------------------------- probe equations vs oracle

def test_filter_rhs_is_exact_on_product_states():
    # pins every sign and detuning convention of the probed moment system
    params = SystemParams(n_atoms=2, g=0.25, kappa=1.0, gamma=0.01, eta=0.2,
                          chi=0.03, omega_a=0.4)
    probe = FilterProbe(big_g=0.07, beta=0.3, omega_f=0.2)
    space = HilbertSpace(params.n_atoms, 3, m_max=2)
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
        approx = ExtendedState.from_vector(
            _ext_rhs(ext.as_vector(), params, probe, probe.omega_f))
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
        single = filter_response(base, desk_params, probe, omega_f)[0]
        assert rel_err(value, single) < 1e-12


def test_extended_steady_state_is_stationary(desk_params):
    base = steady_state(desk_params)
    probe = FilterProbe(big_g=1e-3, beta=0.02, omega_f=0.1)
    ext = extended_steady_state(desk_params, probe, base)
    deriv = _ext_rhs(ext.as_vector(), desk_params, probe, probe.omega_f)
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


def test_ode_scan_on_a_singular_jacobian_names_the_live_points(desk_params, monkeypatch):
    # a singular Newton matrix is a typed error that names the frequencies
    # still iterating, not numpy's LinAlgError
    base = steady_state(desk_params)
    grid = np.linspace(-0.35, 0.35, 5)
    monkeypatch.setattr(spectrum, "_ext_jacobian",
                        lambda x, omega_f, params, probe: np.zeros((omega_f.size, 11, 11)))
    with pytest.raises(SimulationError, match=f"omega_f in \\[{grid[0]:.6e}, {grid[-1]:.6e}\\]"):
        scan(desk_params, FilterProbe(big_g=1e-3, beta=0.02), grid, method="ode", base=base)


def test_extended_jacobian_matches_central_differences():
    params = SystemParams(n_atoms=4, g=0.25, kappa=1.0, gamma=0.01, eta=0.2,
                          chi=0.03, omega_a=0.4)
    probe = FilterProbe(big_g=0.07, beta=0.3)
    omega = np.array([-0.5, 0.1, 0.8])
    x = np.random.default_rng(5).normal(size=(11, omega.size))
    jac = _ext_jacobian(x, omega, params, probe)
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
    fit = fit_lorentzian(SpectrumScan(omega=grid, intensity=data))
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
    fit = fit_lorentzian(SpectrumScan(omega=grid, intensity=noisy))
    assert rel_err(fit.fwhm, width) < 0.02


def test_fit_rejects_flat_and_tiny_scans():
    grid = np.linspace(-1.0, 1.0, 21)
    with pytest.raises(FitError, match="no line"):
        fit_lorentzian(SpectrumScan(omega=grid, intensity=np.ones(21)))
    with pytest.raises(ValueError, match=">= 8"):
        fit_lorentzian(SpectrumScan(omega=grid[:5], intensity=grid[:5] ** 2))


def test_fit_from_a_one_sided_half_maximum_recovers_the_width():
    # the right half-maximum, at +1, lies past the grid's end at 0.6, so the
    # initial guess falls back to a quarter of the span and skips the span check
    grid = np.linspace(-3.0, 0.6, 61)
    data = _lorentzian(grid, 1.0, 0.0, 2.0, 0.0)
    assert spectrum._initial_guess(grid, data)[4] is False
    fit = fit_lorentzian(SpectrumScan(omega=grid, intensity=data))
    assert fit.fwhm == pytest.approx(2.0, rel=1e-9)


def test_fit_that_exhausts_its_evaluations_raises(monkeypatch):
    import scipy.optimize

    def exhausted(fun, x0, **kwargs):
        return SimpleNamespace(x=x0, fun=fun(x0), success=False, status=0,
                               message="maximum evaluations")

    monkeypatch.setattr(scipy.optimize, "least_squares", exhausted)
    width = 2.0 * np.pi * 100.0
    grid = np.linspace(-5.0 * width, 5.0 * width, 61)
    data = _lorentzian(grid, 1.0, 0.0, width, 0.05)
    with pytest.raises(FitError, match="did not converge"):
        fit_lorentzian(SpectrumScan(omega=grid, intensity=data))


def test_fit_that_least_squares_rejects_raises(monkeypatch):
    # a negative status (least_squares' improper input) is a failed fit
    import scipy.optimize

    def rejected(fun, x0, **kwargs):
        return SimpleNamespace(x=x0, fun=fun(x0), success=False, status=-1,
                               message="improper input parameters")

    monkeypatch.setattr(scipy.optimize, "least_squares", rejected)
    grid = np.linspace(-3.0, 3.0, 61)
    with pytest.raises(FitError, match="fit failed: improper input"):
        fit_lorentzian(SpectrumScan(omega=grid, intensity=_lorentzian(grid, 1.0, 0.0, 1.0, 0.0)))


def test_fit_rejects_scan_narrower_than_the_line():
    grid = np.linspace(-0.8, 0.8, 41)
    data = 1.0 / (1.0 + grid**4)  # flat-topped: estimated width ~ full span
    with pytest.raises(FitError, match="widen"):
        fit_lorentzian(SpectrumScan(omega=grid, intensity=data))


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
        # linewidth's own window: 101 points over +-60 beta around the line
        grid = np.linspace(probe.omega_f - 60.0 * beta, probe.omega_f + 60.0 * beta, 101)
        fit = fit_lorentzian(scan(desk_params, probe, grid, base=base))
        assert rel_err(fit.fwhm - beta, reference.delta_nu) < 0.05


def test_collective_line_sits_at_the_rabi_splitting_scale():
    # weak pump: the emission width rides the collective coupling 2 sqrt(N) g
    params = preset("sr88", n_atoms=100)
    params = params.updated(eta=1e-2 * params.gamma)
    base = steady_state(params)
    result = linewidth(params, base=base)
    split = 2.0 * np.sqrt(params.n_atoms) * params.g
    assert rel_err(result.delta_nu, split) < 0.2


# ------------------------------------------------------- response poles

def test_decoupled_poles_are_the_bare_cavity_and_atom_widths():
    params = SystemParams(n_atoms=3, g=0.0, kappa=1.0, gamma=0.01, eta=0.2,
                          chi=0.03)
    poles = pole_linewidth(params, steady_state(params))
    widths = 2.0 * np.abs(poles.poles.imag)
    assert widths == pytest.approx([0.01 + 0.2 + 4 * 0.03, 1.0], rel=1e-14)
    assert poles.delta_nu == widths[0]
    # n = c = 0: the response has no weight, so it is no Lorentzian line
    assert np.all(poles.residues == 0.0)
    assert np.isnan(poles.broad_weight)


def test_flagship_pole_is_the_pipeline_width():
    params = preset("sr88", n_atoms=100_000, eta=ETA_EXP)
    base = steady_state(params)
    poles = pole_linewidth(params, base)
    assert poles.delta_nu == pytest.approx(24132.0, rel=1e-4)
    assert to_hz(poles.delta_nu) == pytest.approx(3840.7, rel=1e-4)
    assert poles.broad_weight < ONE_LORENTZIAN_WEIGHT
    assert rel_err(poles.delta_nu, linewidth(params, base=base).delta_nu) < 1e-4


def test_claim_b_strongly_driven_sr88_narrows_further():
    # the abstract's claim (b): driving sr88 harder narrows its line, as the
    # pumped atoms build up the cavity field.  At N = 1e5 the pole width
    # falls monotonically from 87.5 kHz at eta = gamma to 8.6 mHz at
    # 2.15e4 gamma while n grows from 14 to 2.1e7 (its peak, 2.17e7, sits
    # near 1.7e4 gamma); over-pumped, at 4.64e4 gamma, the line collapses
    p = preset("sr88", n_atoms=100_000)
    widths, photons = [], []
    for eta in np.geomspace(p.gamma, 2.15e4 * p.gamma, 41):
        params = p.updated(eta=float(eta))
        base = steady_state(params)
        widths.append(to_hz(pole_linewidth(params, base).delta_nu))
        photons.append(base.photon_number)
    assert np.all(np.diff(widths) < 0.0)
    assert widths[0] == pytest.approx(87.5e3, rel=1e-3)
    assert widths[-1] == pytest.approx(8.6e-3, rel=1e-2)
    assert photons[0] == pytest.approx(14.0, rel=1e-2)
    assert photons[-1] == pytest.approx(2.1e7, rel=3e-2)
    assert max(photons) == pytest.approx(2.17e7, rel=1e-2)
    over = p.updated(eta=4.64e4 * p.gamma)
    base = steady_state(over)
    assert base.photon_number == pytest.approx(4.18, rel=1e-2)
    assert to_hz(pole_linewidth(over, base).delta_nu) == pytest.approx(30.8e3, rel=1e-2)


def _resonant_narrow_pole(params, base):
    """Closed-form narrow pole width at zero detuning and chi = 0, u and M.

    delta_nu = 1/2 (kappa + Gamma)(1 - sqrt(1 - u)) with
    u = 4 (Gamma kappa - 8 M g^2) / (kappa + Gamma)^2, Gamma = eta + gamma
    and M = N s / 2, written as u / (1 + sqrt(1 - u)) to avoid cancellation.
    """
    big_gamma = params.eta + params.gamma
    m = params.n_atoms * base.inversion / 2
    u = 4 * (big_gamma * params.kappa - 8 * m * params.g**2) / (params.kappa + big_gamma)**2
    return 0.5 * (params.kappa + big_gamma) * u / (1 + np.sqrt(1 - u)), u, m


def test_resonant_narrow_pole_has_a_closed_form():
    rng = np.random.default_rng(4)
    second_order = 0
    for name in ("sr88", "sr87") * 8:
        params = preset(name, n_atoms=int(10 ** rng.uniform(2, 5)))
        params = params.updated(eta=params.gamma * 10 ** rng.uniform(0.5, 3))
        base = steady_state(params)
        pole = pole_linewidth(params, base).delta_nu
        closed, u, m = _resonant_narrow_pole(params, base)
        assert rel_err(closed, pole) < 1e-10
        # Eq. 4 is 1/2 (kappa + Gamma)(sqrt(1 + u) - 1), the same width to
        # first order in u; below u = 1e-4 the round-off of its
        # sqrt(1 + u) - 1, about 1e-16 / u, would hide the u^2 term
        if u >= 1e-4:
            eq4 = crossover_linewidth(params, m)
            assert abs(eq4 / pole - 1 + u / 2) < u**2 / 4
            second_order += 1
    assert second_order >= 4


def test_flagship_eq4_misses_the_pole_by_its_second_order_term():
    params = preset("sr88", n_atoms=100_000, eta=ETA_EXP)
    base = steady_state(params)
    pole = pole_linewidth(params, base).delta_nu
    closed, u, m = _resonant_narrow_pole(params, base)
    assert rel_err(closed, pole) < 1e-10
    assert u == pytest.approx(0.0787, rel=1e-3)
    eq4 = crossover_linewidth(params, m)
    assert eq4 / pole - 1 == pytest.approx(-0.03862, rel=1e-3)
    assert abs(eq4 / pole - 1 + u / 2) < u**2 / 4


@pytest.mark.parametrize("n_atoms, weight", [(2, 0.0525), (3, 0.0537)])
def test_desk_line_has_a_weighted_broad_pole(n_atoms, weight):
    # at small N the broad pole adds a visible second Lorentzian
    params = SystemParams(n_atoms=n_atoms, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
    poles = pole_linewidth(params, steady_state(params))
    assert poles.poles.shape == poles.residues.shape == (2,)
    assert abs(poles.poles[0].imag) < abs(poles.poles[1].imag)
    assert np.all(poles.residues != 0.0)
    assert poles.broad_weight == pytest.approx(weight, rel=1e-2)
    assert poles.broad_weight > ONE_LORENTZIAN_WEIGHT


_DESK2 = SystemParams(n_atoms=2, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
_LOSSLESS_VACUUM = SystemParams(n_atoms=2, g=0.0, kappa=0.0, gamma=0.0, eta=0.0)
# N g^2 s = -(b1 - b2)^2 / 4 on resonance: the two roots coincide exactly
_DOUBLE = SystemParams(n_atoms=1, g=0.25, kappa=1.0, gamma=0.1, eta=0.4)


@pytest.mark.parametrize("params, base, weight", [
    pytest.param(SystemParams(n_atoms=3, g=0.0, kappa=1.0, gamma=0.01, eta=0.2, chi=0.03),
                 None, np.nan, id="g0"),
    pytest.param(SystemParams(n_atoms=3, g=0.25, kappa=1.0, gamma=0.0, eta=0.0),
                 None, np.nan, id="gamma_eta_0"),
    pytest.param(_DESK2, MomentState(0.0, 0j, 0.5, 0j), np.nan, id="n_c_0"),
    pytest.param(_LOSSLESS_VACUUM, None, np.nan, id="lossless_vacuum"),
    pytest.param(_DESK2, None, 0.0525, id="desk_n2"),
    pytest.param(_DOUBLE, MomentState(1.0, 0.1j, -0.25, 0j), np.nan, id="double_pole"),
    # half^2 - d0 = 0.14j, where cmath.sqrt rounds the root's Im otherwise
    pytest.param(SystemParams(n_atoms=1, g=0.5, kappa=1.0, gamma=0.2, omega_a=0.7),
                 MomentState(1.0, 0.2j, 0.32999999999999996, 0j), 0.5662, id="sqrt_imag_axis"),
])
def test_pole_edge_states_match_the_array_form(params, base, weight):
    # Python-scalar poles keep the array form's bits where its divisions
    # meet 0 / 0 or x / 0, and raise no RuntimeWarning there
    base = steady_state(params) if base is None else base
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        poles = assert_matches_reference(params, base)
    if np.isnan(weight):
        assert np.isnan(poles.broad_weight)
    else:
        assert poles.broad_weight == pytest.approx(weight, rel=1e-3)


def test_double_pole_residues_are_numerator_over_zero():
    poles = pole_linewidth(_DOUBLE, MomentState(1.0, 0.1j, -0.25, 0j))
    assert poles.poles[0] == poles.poles[1] == -0.375j
    assert np.all(np.isnan(poles.residues.real)) and np.all(poles.residues.imag == -np.inf)
    poles = pole_linewidth(_LOSSLESS_VACUUM, steady_state(_LOSSLESS_VACUUM))
    assert np.all(poles.poles == 0.0) and np.all(np.isnan(poles.residues))


# the lowest sr87 pump of the sweep grids, eta = gamma, holds a plateau state;
# 10^(3/39) gamma is the grid's next point
@pytest.mark.parametrize("name, n_atoms, eta_gamma", [
    ("sr87", 10_000, 10 ** (3 / 39)), ("sr87", 10_000, 1e3),
    ("sr87", 1_000_000, 10 ** (3 / 39)), ("sr87", 1_000_000, 1e3),
    ("sr88", 1_000, 2.0), ("sr88", 1_000, 100.0),
    ("sr88", 100_000, 2.0), ("sr88", 100_000, 100.0),
])
def test_pole_width_matches_pipeline_on_sweep_cells(name, n_atoms, eta_gamma):
    params = preset(name, n_atoms=n_atoms)
    params = params.updated(eta=eta_gamma * params.gamma)
    base = steady_state(params)
    poles = pole_linewidth(params, base)
    assert poles.broad_weight < ONE_LORENTZIAN_WEIGHT
    assert rel_err(poles.delta_nu, linewidth(params, base=base).delta_nu) < 1e-3


# strongly driven sr88 narrows its line to 9-105 mHz, about 1e-7 kappa
@pytest.mark.parametrize("eta_hz, detuning_kappa", [
    (27489309.278097197, 0.0), (217069959.3537564, 0.0), (75e6, 0.1),
])
def test_strongly_driven_sr88_line_is_resolved(eta_hz, detuning_kappa):
    params = preset("sr88", n_atoms=100_000)
    params = params.updated(eta=from_hz(eta_hz), omega_a=detuning_kappa * params.kappa)
    base = steady_state(params)
    poles = pole_linewidth(params, base)
    assert poles.delta_nu < 1e-6 * params.kappa
    assert rel_err(linewidth(params, base=base).delta_nu, poles.delta_nu) < 1e-8


def test_far_detuned_single_lorentzian_is_resolved():
    params = preset("sr88", n_atoms=100_000)
    params = params.updated(omega_a=5.0 * params.kappa, eta=from_hz(44595.27))
    base = steady_state(params)
    poles = pole_linewidth(params, base)
    assert poles.delta_nu == pytest.approx(911.66, rel=1e-5)
    assert poles.broad_weight == pytest.approx(4.7e-7, rel=0.01)
    assert rel_err(linewidth(params, base=base).delta_nu, poles.delta_nu) < 1e-3


@pytest.mark.parametrize("omega_a_kappa, eta", [(0.0, ETA_EXP), (5.0, from_hz(44595.27))],
                         ids=["flagship", "far_detuned"])
def test_auto_probe_starts_at_the_narrow_pole(monkeypatch, omega_a_kappa, eta):
    params = preset("sr88", n_atoms=100_000)
    params = params.updated(omega_a=omega_a_kappa * params.kappa, eta=eta)
    base = steady_state(params)
    pole = pole_linewidth(params, base)
    real_scan = spectrum.scan
    calls = []

    def counting(params, probe, grid, method="closed_form", *, base):
        calls.append((method, grid))
        return real_scan(params, probe, grid, method, base=base)

    monkeypatch.setattr(spectrum, "scan", counting)
    auto_probe(params, base=base)
    # one closed-form pass settles the design, then the back-action pair
    assert [method for method, _ in calls] == ["closed_form", "ode", "ode"]
    first = calls[0][1]
    half_window = 0.5 * (first[-1] - first[0])
    assert abs(0.5 * (first[0] + first[-1]) - pole.poles[0].real) < 1e-9 * half_window
    assert half_window == pytest.approx(3.3 * pole.delta_nu, rel=1e-12)


def test_fit_narrower_than_the_filter_is_below_the_floor(desk_params, monkeypatch):
    # a fitted FWHM below beta is a negative width estimate, below any floor
    base = steady_state(desk_params)
    beta = pole_linewidth(desk_params, base).delta_nu / 10.0
    fits = []

    def narrow(scan_data):
        fits.append(scan_data)
        return LorentzianFit(amplitude=1.0, center=0.0, fwhm=0.5 * beta, offset=0.0,
                             rms_residual=0.0)

    monkeypatch.setattr(spectrum, "fit_lorentzian", narrow)
    with pytest.raises(ProbeError, match="below the resolvable floor"):
        auto_probe(desk_params, base=base)
    assert len(fits) == 1


@pytest.mark.parametrize("excess", [0.0, -0.1])
def test_linewidth_rejects_a_fit_no_wider_than_the_filter(desk_params, monkeypatch,
                                                          excess):
    base = steady_state(desk_params)
    probe = FilterProbe(big_g=1e-4, beta=0.02, omega_f=0.0)
    monkeypatch.setattr(spectrum, "auto_probe", lambda params, base: probe)
    monkeypatch.setattr(spectrum, "fit_lorentzian", lambda scan_data: LorentzianFit(
        amplitude=1.0, center=0.0, fwhm=probe.beta * (1.0 + excess), offset=0.0,
        rms_residual=0.0))
    with pytest.raises(ProbeError, match="does not exceed the filter width"):
        linewidth(desk_params, base=base)


def test_filter_response_with_a_vanishing_denominator_raises():
    # N = 1, g = kappa = gamma = beta = 1, eta = 0 and s = 1: at omega_f = 0,
    # w1 w2 = (i)(i) = -1 cancels N g^2 s = 1 exactly
    params = SystemParams(n_atoms=1, g=1.0, kappa=1.0, gamma=1.0, eta=0.0)
    base = MomentState(0.0, 0.0j, 1.0, 0.0j)
    probe = FilterProbe(big_g=1e-3, beta=1.0, omega_f=0.0)
    with pytest.raises(SimulationError, match="denominator vanished"):
        filter_response(base, params, probe, np.array([-1.0, 0.0, 1.0]))


def test_auto_probe_raises_when_halving_the_coupling_moves_the_line(desk_params,
                                                                  monkeypatch):
    # closed-form scans stay real, so the narrowing passes run as usual; the
    # ODE scan at the designed coupling is bent, the one at half of it flat
    real_scan = spectrum.scan
    couplings = []

    def fake(params, probe, grid, method="closed_form", *, base):
        if method != "ode":
            return real_scan(params, probe, grid, method, base=base)
        couplings.append(probe.big_g)
        intensity = np.ones(grid.size)
        if len(couplings) == 1:
            intensity[0] = 0.5
        return SpectrumScan(omega=grid, intensity=intensity)

    monkeypatch.setattr(spectrum, "scan", fake)
    with pytest.raises(ProbeError, match="moves the line shape by 5.000e-01"):
        auto_probe(desk_params, base=steady_state(desk_params))
    assert couplings == [couplings[0], couplings[0] / 2]


def _desk_widths(n_atoms):
    """linewidth() at desk parameters and the FWHM of a Lorentzian fit to
    the oracle's spectrum on the pipeline's 81-point grid."""
    params = SystemParams(n_atoms=n_atoms, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
    pipeline = linewidth(params)
    est = 10.0 * pipeline.probe.beta
    grid = np.linspace(pipeline.probe.omega_f - 4.0 * est,
                       pipeline.probe.omega_f + 4.0 * est, 81)
    oracle_fit = fit_lorentzian(oracle_spectrum(params, n_max=6, omega_grid=grid))
    return pipeline.delta_nu, oracle_fit.fwhm


@pytest.mark.xfail(
    strict=True,
    reason="known closure gap: at N = 2 the exact two-time correlator decays "
    "through a multi-mode mixture about 1.9x wider than the closure's "
    "linear-response pole (measured pipeline 0.2096 vs oracle 0.3978); the "
    "gap grows with N at these parameters, the oracle width being 1.67x, "
    "1.90x, 2.04x, 2.17x and 2.28x the pipeline's at N = 1 to 5",
)
def test_pipeline_linewidth_matches_oracle_at_small_n():
    pipeline, oracle = _desk_widths(2)
    assert rel_err(pipeline, oracle) < 0.15


def test_desk_width_table_quoted_by_the_small_n_reasons():
    # the measured values that the reason above and acceptance 10's quote,
    # each to the digits quoted
    pipeline, oracle = np.array([_desk_widths(n) for n in range(1, 6)]).T
    quoted = [
        (pipeline, [0.2066, 0.2096, 0.2112, 0.2121, 0.2127], 1e-4),
        (oracle, [0.3442, 0.3978, 0.4304, 0.4599, 0.4854], 1e-4),
        (oracle / pipeline, [1.67, 1.90, 2.04, 2.17, 2.28], 1e-2),
        (pipeline / oracle, [0.60, 0.53, 0.49, 0.46, 0.44], 1e-2),
    ]
    for measured, values, unit in quoted:
        assert np.all(np.abs(measured - values) <= 0.5 * unit), (measured, values)


# ------------------------------------------------------------- input checking

def test_probe_validation():
    with pytest.raises(ValueError, match="big_g"):
        FilterProbe(big_g=0.0, beta=0.1)
    with pytest.raises(ValueError, match="beta"):
        FilterProbe(big_g=0.1, beta=-1.0)
    with pytest.raises(ValueError, match="omega_f"):
        FilterProbe(big_g=0.1, beta=0.1, omega_f=float("nan"))


def test_scan_validation(desk_params):
    base = steady_state(desk_params)
    probe = FilterProbe(big_g=1e-4, beta=0.05)
    with pytest.raises(ValueError, match="increasing"):
        scan(desk_params, probe, [0.0, 0.0, 0.1], base=base)
    with pytest.raises(ValueError, match="method"):
        scan(desk_params, probe, [0.0, 0.1], base=base, method="magic")
    with pytest.raises(ValueError, match="1-d"):
        scan(desk_params, probe, [0.0], base=base)


@pytest.mark.parametrize("grid", [
    [0.0, np.nan, 1.0], [0.0, np.inf, 1.0], [-np.inf, 0.0, 1.0], [0.0, 1.0, np.inf],
    [1.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0], [[0.0, 1.0], [2.0, 3.0]]])
@pytest.mark.parametrize("route", ["closed_form", "ode", "oracle"])
def test_bad_grids_raise_before_any_work(monkeypatch, desk_params, route, grid):
    # one check for both spectrum routes: a non-finite, non-increasing or
    # short grid is a ValueError, with no warning and before any solve
    base = steady_state(desk_params)

    def no_work(*args, **kwargs):
        raise AssertionError("work started on a bad grid")

    monkeypatch.setattr(spectrum, "filter_response", no_work)
    monkeypatch.setattr(spectrum, "_extended_newton", no_work)
    monkeypatch.setattr(oracle, "_climb", no_work)
    with warnings.catch_warnings(), pytest.raises(ValueError, match="grid"):
        warnings.simplefilter("error")
        if route == "oracle":
            oracle_spectrum(desk_params.updated(n_atoms=1), n_max=2, omega_grid=grid)
        else:
            scan(desk_params, FilterProbe(big_g=1e-4, beta=0.05), grid, route, base=base)


def test_scan_container_validation():
    with pytest.raises(ValueError, match="matching"):
        SpectrumScan(omega=np.arange(4.0), intensity=np.arange(3.0))
    with pytest.raises(ValueError, match="increasing"):
        SpectrumScan(omega=np.array([0.0, 0.0]), intensity=np.zeros(2))
