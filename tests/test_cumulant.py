"""Moment-closure solver: exact limits, oracle agreement, solver plumbing."""
from __future__ import annotations

import math
import struct
import time
import warnings

import numpy as np
import pytest

from srlaser import cumulant, dop853
from srlaser.cumulant import (
    MomentState,
    _closed_form_root,
    _is_physical,
    _jacobian,
    _newton,
    fixed_point_g0,
    initial_state,
    integrate,
    rhs,
    scaled_residual,
    steady_state,
)
from srlaser.errors import ConvergenceError, SimulationError, StiffIntegrationError
from srlaser.model import ETA_EXP, SystemParams, derived, from_hz, load_config, preset
from srlaser.oracle import derivative_match_error, oracle_steady_state

from conftest import rel_err


# ------------------------------------------------------------- exact g=0 limit

@pytest.mark.parametrize("gamma,eta,chi", [
    (0.3, 0.7, 0.0),
    (0.0, 0.5, 0.2),
    (0.4, 0.0, 0.1),
    (0.25, 0.25, 0.0),
    (1.3, 0.01, 0.05),
])
def test_decoupled_steady_state_is_closed_form(gamma, eta, chi):
    params = SystemParams(n_atoms=5, g=0.0, kappa=1.0, gamma=gamma, eta=eta,
                          chi=chi)
    solved = steady_state(params).as_vector()
    exact = fixed_point_g0(params).as_vector()
    assert np.max(np.abs(solved - exact)) < 1e-12


def test_fixed_point_g0_population_balance():
    params = SystemParams(n_atoms=2, g=0.0, kappa=1.0, gamma=0.3, eta=0.7)
    state = fixed_point_g0(params)
    assert abs(state.inversion - 0.4) < 1e-15
    assert state.photon_number == 0.0
    dead = SystemParams(n_atoms=2, g=0.0, kappa=1.0, gamma=0.0, eta=0.0)
    assert fixed_point_g0(dead).inversion == -1.0


def test_empty_cavity_decays_at_kappa():
    params = SystemParams(n_atoms=1, g=0.0, kappa=0.7, gamma=0.0, eta=0.0)
    start = MomentState(2.0, 0.0 + 0.0j, -1.0, 0.0 + 0.0j)
    trajectory = integrate(start, params, 5.0)
    for t, state in trajectory:
        expected = 2.0 * np.exp(-params.kappa * t)
        assert abs(state.photon_number - expected) < 1e-6 * expected
        assert state.inversion == pytest.approx(-1.0, abs=1e-9)


# ------------------------------------------------------------ oracle agreement

@pytest.mark.parametrize("n_atoms", [3, 4])
def test_rhs_matches_exact_derivatives_with_dephasing(n_atoms):
    # product states factorize exactly, pinning every sign including chi
    params = SystemParams(n_atoms=n_atoms, g=0.25, kappa=1.0, gamma=0.01,
                          eta=0.2, chi=0.03)
    assert derivative_match_error(params, n_states=5) < 1e-10


def test_steady_photon_number_tracks_oracle(desk_params_n4):
    exact = oracle_steady_state(desk_params_n4, n_max=6).moments.photon_number
    closed = steady_state(desk_params_n4).photon_number
    assert rel_err(closed, exact) < 0.2


# ----------------------------------------------------------- solver behaviour

def test_long_integration_reaches_newton_fixed_point(desk_params):
    target = steady_state(desk_params)
    trajectory = integrate(initial_state(desk_params), desk_params, 3000.0)
    _, last = trajectory[-1]
    assert rel_err(last.photon_number, target.photon_number) < 1e-6
    assert rel_err(last.inversion, target.inversion) < 1e-6


def test_flagship_point_relaxes_to_steady_state():
    params = preset("sr88", n_atoms=100)
    params = params.updated(eta=10.0 * params.gamma)
    target = steady_state(params)
    trajectory = integrate(initial_state(params), params, 40.0 / params.gamma)
    _, last = trajectory[-1]
    assert rel_err(last.photon_number, target.photon_number) < 1e-6


def test_steady_state_reports_converged_info(desk_params):
    state, info = steady_state(desk_params, return_info=True)
    assert info.scaled_residual < 1e-9
    assert scaled_residual(state.as_vector(), desk_params) == info.scaled_residual
    assert info.growth_rate == pytest.approx(-0.21, rel=1e-6)


def test_steady_state_is_linearly_stable(desk_params):
    state = steady_state(desk_params)
    eig = np.linalg.eigvals(_jacobian(state.as_vector(), desk_params))
    assert np.max(eig.real) < 0.0


def test_frozen_steady_state_regression_values():
    p88 = preset("sr88", n_atoms=100)
    p88 = p88.updated(eta=10.0 * p88.gamma)
    s88 = steady_state(p88)
    assert rel_err(s88.photon_number, 1.3878641072e1) < 1e-8
    assert rel_err(s88.inversion, 2.7985877052e-1) < 1e-8

    p87 = preset("sr87", n_atoms=100000)
    p87 = p87.updated(eta=100.0 * p87.gamma)
    s87 = steady_state(p87)
    assert rel_err(s87.photon_number, 3.0718281824e-2) < 1e-8
    assert rel_err(s87.inversion, 6.9455263743e-3) < 1e-8


def test_flagship_fixed_point_is_hopf_unstable():
    # the returned root is the physical one even where it is unstable
    flagship = preset("sr88", n_atoms=100000, eta=ETA_EXP)
    _, info = steady_state(flagship, return_info=True)
    assert info.growth_rate == pytest.approx(1.0145e5, rel=1e-3)


# sr88 on resonance: the fixed point is unstable exactly inside a pump band
# that tends to [1.01, 6.09] gamma as N grows and is empty at N = 500
@pytest.mark.parametrize("n_atoms,eta_over_gamma,unstable", [
    (500, 3.18, False),
    (1_000, 1.6, False), (1_000, 1.7, True), (1_000, 4.3, True), (1_000, 4.45, False),
    (10_000, 1.07, False), (10_000, 1.2, True), (10_000, 5.9, True), (10_000, 5.95, False),
    (100_000, 1.03, False), (100_000, 1.07, True), (100_000, 6.05, True),
    (100_000, 6.15, False),
])
def test_sr88_hopf_band_edges(n_atoms, eta_over_gamma, unstable):
    params = preset("sr88", n_atoms=n_atoms)
    _, info = steady_state(params.updated(eta=eta_over_gamma * params.gamma),
                           return_info=True)
    assert (info.growth_rate > 0.0) == unstable


def test_detuned_steady_state_is_found():
    params = preset("sr88", n_atoms=100000)
    params = params.updated(eta=1.23 * params.gamma, omega_a=0.01 * params.kappa)
    state, info = steady_state(params, return_info=True)
    assert state.photon_number > 0.0


# the closed-form roots; stage 2 lands on the unphysical n = -5.3e-8 here
_DETUNED_SR87_ROOTS = {30_000: (4.6772572e-4, 1.5608042e-3),
                       100_000: (9.1487803e-2, 2.0727675e-2)}


@pytest.mark.parametrize("n_atoms,eta_over_gamma", [(30_000, 6.0), (100_000, 300.0)])
def test_detuned_sr87_returns_only_stationary_states(n_atoms, eta_over_gamma):
    params = preset("sr87", n_atoms=n_atoms)
    params = params.updated(eta=eta_over_gamma * params.gamma,
                            omega_a=0.01 * params.kappa)
    state = steady_state(params)
    assert scaled_residual(state.as_vector(), params) <= 1e-10 * max(1.0, params.kappa)
    photons, inversion = _DETUNED_SR87_ROOTS[n_atoms]
    assert rel_err(state.photon_number, photons) < 1e-6
    assert rel_err(state.inversion, inversion) < 1e-6


def _root_inputs(count: int):
    rng = np.random.default_rng(2018)
    for i in range(count):
        base = preset(("sr87", "sr88")[i % 2])
        corner = i % 10 == 0  # sr87, N = 1, |delta| 3-5 kappa
        n_atoms = 1 if corner else int(round(10.0 ** rng.uniform(0.0, 6.0)))
        eta = base.gamma * 10.0 ** rng.uniform(-3.0, 4.0)
        chi = 0.0 if rng.random() < 0.5 else base.gamma * 10.0 ** rng.uniform(-3.0, 2.0)
        if corner:
            delta = rng.choice((-1.0, 1.0)) * rng.uniform(3.0, 5.0) * base.kappa
        else:
            delta = 0.0 if rng.random() < 0.3 else rng.uniform(-5.0, 5.0) * base.kappa
        yield base.updated(n_atoms=n_atoms, eta=eta, chi=chi, omega_a=float(delta))


def test_closed_form_root_is_the_physical_fixed_point():
    inputs = list(_root_inputs(2000))
    roots = [_closed_form_root(params) for params in inputs]
    tols = [1e-10 * max(1.0, params.kappa) for params in inputs]
    for params, x in zip(inputs, roots):
        d0 = (params.eta - params.gamma) / (params.eta + params.gamma)
        assert _is_physical(x), params
        assert -1.0 <= x[3] <= d0, params
    # one Newton batch polishes all 2000 roots
    for params, tol, polished, res, ok in zip(inputs, tols, *_newton(np.array(roots), inputs, tols)):
        assert ok and res <= tol and _is_physical(polished), params


def _grid_inputs():
    """sr88 at five detunings and sr87 on resonance, up to far over-pumped."""
    for delta in (0.0, 0.01, 0.1, 1.0, 5.0):
        for n_atoms in (100, 1_000, 10_000, 100_000):
            base = preset("sr88", n_atoms=n_atoms)
            for eta in base.gamma * np.geomspace(1e-2, 1e5, 40):
                yield base.updated(eta=float(eta), omega_a=delta * base.kappa)
    for n_atoms in (10_000, 100_000, 1_000_000):
        base = preset("sr87", n_atoms=n_atoms)
        for eta in base.gamma * np.geomspace(1.0, 1e3, 40):
            yield base.updated(eta=float(eta))


def test_closed_form_root_meets_the_newton_tolerance_unpolished():
    # the moments follow from t = d0 - s with no cancellation, so even at
    # s -> 1 the root needs no Newton step
    misses = [(p.n_atoms, p.eta / p.gamma, p.detuning / p.kappa)
              for p in _grid_inputs()
              if not scaled_residual(_closed_form_root(p), p) < 1e-10 * max(1.0, p.kappa)]
    assert misses == []


def test_closed_form_root_needs_loss_and_decoherence(desk_params):
    for changes in ({"kappa": 0.0}, {"gamma": 0.0, "eta": 0.0, "chi": 0.0}):
        assert _closed_form_root(desk_params.updated(**changes)) is None
    decoupled = desk_params.updated(g=0.0, kappa=0.0)
    assert np.array_equal(_closed_form_root(decoupled),
                          fixed_point_g0(decoupled).as_vector())


@pytest.mark.parametrize("changes", [{}, {"chi": 0.3}, {"omega_a": 2.0, "chi": 0.05}],
                         ids=["resonant", "dephased", "detuned"])
def test_lossless_cavity_below_transparency_has_a_closed_form(changes):
    # test_cli's lossless_config: kappa = 0 and eta < gamma, so d0 < 0
    params = load_config({"n_atoms": 2, "g_hz": 0.04, "kappa_hz": 0,
                          "gamma_hz": 0.1, "eta_hz": 0.01}).updated(**changes)
    x = _closed_form_root(params)
    d0 = (params.eta - params.gamma) / (params.eta + params.gamma)
    assert x.tolist() == [-(1.0 + d0) / (2.0 * d0), 0.0, 0.0, d0, 0.0, 0.0]
    assert scaled_residual(x, params) <= 1e-15
    # steady_state returns the root itself, with no relaxation or Newton step
    assert np.array_equal(steady_state(params).as_vector(), x)


def test_unconverged_newton_raises_with_the_stage_two_residual(monkeypatch, desk_params):
    residuals = []

    def stalled(x0, params_list, tols):  # a Newton batch that moves no row
        residuals.extend(scaled_residual(x, params) for x, params in zip(x0, params_list))
        return (np.array(x0, dtype=float), np.array(residuals[-len(x0):]),
                np.zeros(len(x0), dtype=bool))

    monkeypatch.setattr(cumulant, "_newton", stalled)
    monkeypatch.setattr(cumulant, "_closed_form_root", lambda params: None)
    with pytest.raises(ConvergenceError, match="no physical steady state found") as excinfo:
        steady_state(desk_params)
    # stage 2 from the relaxed state is the one Newton batch
    assert len(residuals) == 1
    assert excinfo.value.best_residual == residuals[0]


def _unsettled_rows_raise(monkeypatch, desk_params, closed_form_root):
    """A row that stage 2 does not settle and whose closed-form root
    (closed_form_root) is no answer is solve_all's ConvergenceError carrying
    its stage-2 residual, which steady_state raises with no stage run
    again."""
    inputs = [desk_params, desk_params.updated(n_atoms=4)]
    calls, residuals = [], []
    newton = cumulant._newton

    def stalled(x0, params_list, tols):
        calls.append(len(x0))
        x, res, ok = newton(x0, params_list, tols)
        residuals.append(res.tolist())
        return x, res, np.zeros(len(x0), dtype=bool)

    monkeypatch.setattr(cumulant, "_newton", stalled)
    monkeypatch.setattr(cumulant, "_closed_form_root", closed_form_root)
    rows = cumulant.solve_all(inputs)
    assert calls == [2]  # stage 2 from the relaxed states, the one Newton batch
    for params, row, stage2 in zip(inputs, rows, residuals[0]):
        assert isinstance(row, ConvergenceError) and row.best_residual == stage2
        with pytest.raises(ConvergenceError, match="no physical steady state found") as solved:
            steady_state(params, solved=row)
        assert solved.value is row
        with pytest.raises(ConvergenceError) as excinfo:
            steady_state(params)
        assert str(excinfo.value) == str(row) and excinfo.value.best_residual == stage2
    assert calls == [2, 1, 1]


def test_unsettled_row_of_a_batch_raises_without_solving_again(monkeypatch, desk_params):
    _unsettled_rows_raise(monkeypatch, desk_params, lambda params: None)


def test_closed_form_root_that_misses_the_tolerance_is_no_answer(monkeypatch, desk_params):
    root = cumulant._closed_form_root

    def missing(params):  # physical, but moved off stationarity by 1e-3
        x = root(params) * (1.0 + 1e-3)
        assert _is_physical(x) and scaled_residual(x, params) > 1e-10 * max(1.0, params.kappa)
        return x

    _unsettled_rows_raise(monkeypatch, desk_params, missing)


@pytest.mark.parametrize("gamma,eta,photons", [(0.01, 0.2, None), (0.2, 0.01, 0.05263)])
def test_lossless_cavity_above_transparency_raises_at_once(gamma, eta, photons):
    # kappa = 0 forces ci = 0 and s = d0, so n = -(1 + d0) / (2 d0)
    params = SystemParams(n_atoms=3, g=0.25, kappa=0.0, gamma=gamma, eta=eta)
    t0 = time.perf_counter()
    if photons is None:
        with pytest.raises(ConvergenceError, match="kappa = 0"):
            steady_state(params)
    else:
        assert steady_state(params).photon_number == pytest.approx(photons, rel=1e-4)
    assert time.perf_counter() - t0 < 1.0


_NO_PUMP_NO_DECAY = {
    "desk": SystemParams(n_atoms=3, g=0.25, kappa=1.0, gamma=0.0, eta=0.0),
    "desk_detuned": SystemParams(n_atoms=3, g=0.25, kappa=1.0, gamma=0.0, eta=0.0,
                                 omega_a=0.3),
    "sr88": preset("sr88", n_atoms=1000, gamma=0.0),
}


@pytest.mark.parametrize("name", list(_NO_PUMP_NO_DECAY))
def test_no_pump_and_no_decay_is_the_ground_state_vacuum(monkeypatch, name):
    # gamma_p = 0: the initial state is stationary and the closed-form root
    # does not exist; the Jacobian's pi row is 0, so the polish step after
    # Newton's first residual check meets a singular Jacobian and stops
    params = _NO_PUMP_NO_DECAY[name]
    assert _closed_form_root(params) is None
    singular = []
    solve = np.linalg.solve

    def recording(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(a)
            raise

    monkeypatch.setattr(np.linalg, "solve", recording)
    state, info = steady_state(params, return_info=True)
    assert state == MomentState(0.0, 0j, -1.0, 0j)
    assert info.scaled_residual == 0.0
    assert len(singular) == 1 and not np.any(singular[0][5])


@pytest.mark.parametrize("kappa", [1e-3, 1e-6])
def test_small_kappa_returns_the_closed_form_root_at_once(kappa, desk_params):
    # kappa is the slowest rate here; the relaxation stops at 30 fast time
    # constants and the closed-form root settles the state
    params = desk_params.updated(kappa=kappa)
    t0 = time.perf_counter()
    state = steady_state(params)
    assert time.perf_counter() - t0 < 2.0
    assert rel_err(state.as_vector(), _closed_form_root(params)) < 1e-9


def test_relaxation_is_one_integration_over_the_fast_transient(monkeypatch):
    horizons = []
    integrate_raw = cumulant._integrate_raw

    def counted(x0, params, t_final):
        horizons.append(t_final)
        return integrate_raw(x0, params, t_final)

    monkeypatch.setattr(cumulant, "_integrate_raw", counted)
    # threshold_grid's slowest cell: a stepped relaxation integrates it five times
    params = preset("sr88", n_atoms=100_000, eta=from_hz(6.28258230e7))
    rate = cumulant._fast_rate(params)
    steady_state(params)
    assert horizons == [30.0 / rate]


@pytest.mark.xfail(
    strict=True,
    reason="sr87, N = 1e5, eta = gamma returns n = 6.27e-9, s = -1.00e-5, which "
    "is no fixed point (scaled residual 9.5e-8); Newton from it moves to the "
    "exact resonant root n = 1.9308e-6, s = -3.089e-3 (residual 4e-16). It is "
    "accepted because newton_tol = 1e-10 kappa = 1e-4 rad/s is loose against "
    "sr87's 1e-2 rad/s atomic rates",
)
def test_weakly_pumped_sr87_reaches_resonant_root():
    state, _ = _weakly_pumped_sr87()
    assert rel_err(state.photon_number, 1.93080378e-6) < 1e-6
    assert rel_err(state.inversion, -3.08928605e-3) < 1e-6


def _weakly_pumped_sr87():
    """steady_state at sr87, N = 1e5, eta = gamma, and its scaled residual."""
    params = preset("sr87", n_atoms=100000)
    params = params.updated(eta=params.gamma)
    state = steady_state(params)
    return state, scaled_residual(state.as_vector(), params)


def test_plateau_state_quoted_by_the_weakly_pumped_sr87_reason():
    # the state the reason above quotes, each value to the digits quoted
    state, residual = _weakly_pumped_sr87()
    assert f"{state.photon_number:.2e}" == "6.27e-09"
    assert f"{state.inversion:.2e}" == "-1.00e-05"
    assert f"{residual:.1e}" == "9.5e-08"


def test_full_step_that_would_not_lower_the_residual_leaves_the_closed_form():
    # one of 3,000 draws of _random_params: halved steps would creep from
    # its relaxed state to n = 3.86e-6 at scaled residual 9.96e-11, inside
    # the tolerance 1e-10 but no fixed point; a full step above the
    # tolerance fails to lower the residual, so Newton ends unsettled and
    # the answer is the closed-form root
    params = SystemParams(n_atoms=243926, g=0.0011997015755313522, kappa=0.014836087085269345,
                          gamma=7.404199364613861e-11, eta=1.0609471540140722e-10,
                          chi=4.240301943525026e-09)
    (relaxed,) = cumulant.relax_all([params])
    _, res, (ok,) = _newton(relaxed[None], [params], [1e-10])
    assert not ok and res[0] > 1e-10
    ((x, residual),) = cumulant.solve_all([params])
    assert x.tobytes() == _closed_form_root(params).tobytes()
    assert f"{x[0]:.3e}" == "2.667e-04" and f"{residual:.1e}" == "2.9e-19"
    assert np.array_equal(steady_state(params).as_vector(), x)


# ----------------------------------------------------------- DOP853 stepper

def _scipy_dop853(fun, t_span, y0):
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=1e-8, atol=1e-12)


_STEP_INPUTS = {
    # threshold_grid's slowest cell, the sr87 plateau cell, a dephased
    # detuned desk cell, and test_empty_cavity_decays_at_kappa's input
    "sr88": (preset("sr88", n_atoms=100_000, eta=from_hz(6.28258230e7)), None),
    "sr87": (preset("sr87", n_atoms=100_000, eta=preset("sr87").gamma), None),
    "desk": (SystemParams(n_atoms=3, g=0.25, kappa=1.0, gamma=0.01, eta=0.2,
                          chi=0.03, omega_a=0.4, omega_c=0.1), None),
    "empty": (SystemParams(n_atoms=1, g=0.0, kappa=0.7, gamma=0.0, eta=0.0),
              MomentState(2.0, 0.0 + 0.0j, -1.0, 0.0 + 0.0j)),
}


@pytest.mark.parametrize("name", list(_STEP_INPUTS))
def test_dop853_steps_as_scipy_does(name):
    params, start = _STEP_INPUTS[name]
    x0 = (start or initial_state(params)).as_vector()
    t_span = (0.0, 30.0 / cumulant._fast_rate(params))
    f = cumulant._rhs(params)
    with np.errstate(over="ignore", invalid="ignore"):
        # ours integrates what _integrate_raw passes, scipy the array form
        ours = cumulant.solve_ivp(lambda _, y: f(y.tolist()),
                                  t_span, x0, rtol=1e-8, atol=1e-12)
        ref = _scipy_dop853(lambda _, y: cumulant._rhs_vec(y, params), t_span, x0)
    assert ours.success and ref.success
    assert ours.nfev == ref.nfev
    assert np.array_equal(ours.t, ref.t)
    assert np.array_equal(ours.y, ref.y)


def _rhs_written_out(x, params):
    """The right-hand side with every product written out left to right,
    as _rhs_vec spelled it before _rhs hoisted the parameter products."""
    n, cr, ci, s, pr, pi = x
    g, kappa = params.g, params.kappa
    gamma, eta = params.gamma, params.eta
    nn = params.n_atoms
    delta = params.detuning
    gamma_c, gamma_p = cumulant._rates(params)
    source = s * n + (nn - 1) * pr + 0.5 * (1.0 + s)
    return np.array([
        -2.0 * g * nn * ci - kappa * n,
        -delta * ci - gamma_c * cr + g * (nn - 1) * pi,
        delta * cr - gamma_c * ci - g * source,
        4.0 * g * ci - gamma * (1.0 + s) + eta * (1.0 - s),
        -2.0 * g * s * ci - gamma_p * pr,
        -gamma_p * pi,
    ])


_ROUNDING_INPUTS = pytest.mark.parametrize("params", [
    _STEP_INPUTS["sr87"][0],
    _STEP_INPUTS["sr88"][0],
    _STEP_INPUTS["sr88"][0].updated(omega_a=0.7 * _STEP_INPUTS["sr88"][0].kappa),
    _STEP_INPUTS["desk"][0],
], ids=["sr87", "sr88", "sr88_detuned", "desk"])


def _seeded_states():
    """200 states as one (6, 200) array: moments of either sign over 14
    decades, the inversion in [-1, 1]."""
    rng = np.random.default_rng(7)
    sign = rng.choice([-1.0, 1.0], size=(6, 200))
    x = sign * 10.0 ** rng.uniform(-9.0, 5.0, size=(6, 200))
    x[3] = rng.uniform(-1.0, 1.0, size=200)
    return x


@_ROUNDING_INPUTS
def test_rhs_rounds_as_the_written_out_formula(params):
    x = _seeded_states()
    f = cumulant._rhs(params)
    for col in x.T:
        assert np.array_equal(f(col.tolist()), _rhs_written_out(col.tolist(), params))
    assert np.array_equal(cumulant._rhs_vec(x, params), _rhs_written_out(x, params))


_ROUNDING_CASES = _ROUNDING_INPUTS.mark.args[1]


def _rows_written_out(x, params_list):
    """_rhs_written_out of each state of x (6, ..., M) on its Python floats,
    state x[:, ..., j] with params_list[j]."""
    out = np.empty_like(x)
    for pos in np.ndindex(x.shape[1:]):
        out[(slice(None),) + pos] = _rhs_written_out(x[(slice(None),) + pos].tolist(),
                                                     params_list[pos[-1]])
    return out


def _states_near_overflow():
    """200 states (6, 200) of moments near 1e308, some of whose products
    and sums overflow to inf and then meet as inf - inf = NaN."""
    rng = np.random.default_rng(11)
    sign = rng.choice([-1.0, 1.0], size=(6, 200))
    return sign * 10.0 ** rng.uniform(290.0, 308.0, size=(6, 200))


def test_stacked_rhs_rounds_as_the_written_out_formula():
    # the _ROUNDING_CASES params in turn over the rows of a batch, the
    # states as dop853 and Newton pass them, (m, 6); _rhs_vec's (6, M) path
    # is pinned by the test above
    x = _seeded_states()
    params_list = [_ROUNDING_CASES[j % 4] for j in range(200)]
    fun = cumulant._rhs_rows(cumulant._table(params_list))
    assert np.array_equal(fun(None, x.T, np.arange(200)).T, _rows_written_out(x, params_list))
    # rows gathered out of order
    rows = np.arange(199, -1, -8)
    assert np.array_equal(fun(None, x[:, :25].T, rows).T,
                          _rows_written_out(x[:, :25], [params_list[j] for j in rows]))


def test_stacked_rhs_overflows_where_the_written_out_formula_does():
    x = _states_near_overflow()
    params_list = [_ROUNDING_CASES[j % 4] for j in range(200)]
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _rows_written_out(x, params_list)
        got = cumulant._rhs_rows(cumulant._table(params_list))(None, x.T, np.arange(200)).T
        assert np.isinf(ref).any() and np.isnan(ref).any() and np.isfinite(ref).any()
        assert np.array_equal(got, ref, equal_nan=True)
        desk = _ROUNDING_CASES[3]
        assert np.array_equal(cumulant._rhs_vec(x[:, :40], desk),
                              _rows_written_out(x[:, :40], [desk] * 40), equal_nan=True)


def _jacobian_written_out(x, params):
    """The Jacobian with every entry written out, as _jacobian spelled it
    before its constant entries were read off a table of numbers."""
    n, _, ci, s, _, _ = x
    g = params.g
    nn = params.n_atoms
    delta = params.detuning
    gamma_c, gamma_p = cumulant._rates(params)
    jac = np.zeros(np.shape(n) + (6, 6))
    jac[..., 0, 0] = -params.kappa
    jac[..., 0, 2] = -2.0 * g * nn
    jac[..., 1, 1] = -gamma_c
    jac[..., 1, 2] = -delta
    jac[..., 1, 5] = g * (nn - 1)
    jac[..., 2, 0] = -g * s
    jac[..., 2, 1] = delta
    jac[..., 2, 2] = -gamma_c
    jac[..., 2, 3] = -g * (n + 0.5)
    jac[..., 2, 4] = -g * (nn - 1)
    jac[..., 3, 2] = 4.0 * g
    jac[..., 3, 3] = -(params.gamma + params.eta)
    jac[..., 4, 2] = -2.0 * g * s
    jac[..., 4, 3] = -2.0 * g * ci
    jac[..., 4, 4] = -gamma_p
    jac[..., 5, 5] = -gamma_p
    return jac


@_ROUNDING_INPUTS
def test_jacobian_rounds_as_the_written_out_formula(params):
    x = _seeded_states()
    for col in x.T:
        assert np.array_equal(_jacobian(col, params), _jacobian_written_out(col, params))
    assert np.array_equal(_jacobian(x, params), _jacobian_written_out(x, params))


def _newton_written_out(x0, params, tol):
    """Full-step Newton written out, through the public helpers: it
    evaluates the rhs afresh for every residual and every step, and keeps a
    step only if it is finite and lowers the residual, for at most
    _NEWTON_MAX_ITER steps from above tol and four from below it."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.array(x0, dtype=float)
        res = scaled_residual(x, params)
        above = below = 0
        while above < cumulant._NEWTON_MAX_ITER and below < 4:
            try:
                step = np.linalg.solve(_jacobian(x, params), -cumulant._rhs_vec(x, params))
            except np.linalg.LinAlgError:
                break
            trial = x + step
            if not np.all(np.isfinite(trial)):
                break
            trial_res = scaled_residual(trial, params)
            if not trial_res < res:
                break
            if res < tol:
                below += 1
            else:
                above += 1
            x, res = trial, trial_res
        return x, res, res < tol


def _newton_starts():
    for params in _root_inputs(200):
        yield "closed form", _closed_form_root(params), params
    cells = list(_grid_inputs())
    # every 15th cell, which takes in the sr87 plateau cell (N = 1e5, eta =
    # gamma, index 840), and four where Newton from the relaxed state
    # returns its best iterate with ok False
    for i in sorted(set(range(0, len(cells), 15)) | {63, 148, 739, 788}):
        yield "relaxed", cumulant.relax_all([cells[i]])[0], cells[i]
    # gamma_p = 0: the polish ends on a singular Jacobian
    params = _NO_PUMP_NO_DECAY["sr88"]
    yield "no pump, no decay", initial_state(params).as_vector(), params


def _newton_batch(starts, rows, loosen=1.0):
    """_newton on the starts at rows, in that order, as one batch."""
    return _newton(np.array([starts[i][1] for i in rows]), [starts[i][2] for i in rows],
                   [loosen * 1e-10 * max(1.0, starts[i][2].kappa) for i in rows])


def _assert_batches_take_the_written_out_iterates(starts, batches, loosen=1.0):
    written_out = [_newton_written_out(x0, params, loosen * 1e-10 * max(1.0, params.kappa))
                   for _, x0, params in starts]
    for rows in batches:
        x, res, ok = _newton_batch(starts, rows, loosen)
        for i, x_i, res_i, ok_i in zip(rows, x, res, ok):
            x_ref, res_ref, ok_ref = written_out[i]
            assert np.array_equal(x_i, x_ref), starts[i]
            assert res_i == res_ref and ok_i == ok_ref, starts[i]
    return written_out


def test_newton_takes_the_written_out_iterates(monkeypatch):
    starts = list(_newton_starts())
    # each row alone, all rows in order and shuffled, and the shuffled
    # order cut into batches of 1, 2, 5, 20, 90 and 149 rows
    order = np.random.default_rng(3).permutation(len(starts))
    batches = [[i] for i in range(len(starts))] + [range(len(starts)), order]
    batches += np.split(order, [1, 3, 8, 28, 118])
    written_out = _assert_batches_take_the_written_out_iterates(starts, batches)
    assert {(kind, ref[2]) for (kind, _, _), ref in zip(starts, written_out)} == {
        ("closed form", True), ("relaxed", True), ("relaxed", False),
        ("no pump, no decay", True)}
    # a tolerance 1e6 times looser starts the polish far from the root, where
    # its four full steps all lower the residual; a cap of 3 steps ends rows
    # unpolished, some below the tolerance and some above it
    _assert_batches_take_the_written_out_iterates(starts, batches[-7:], loosen=1e6)
    monkeypatch.setattr(cumulant, "_NEWTON_MAX_ITER", 3)
    capped = _assert_batches_take_the_written_out_iterates(starts, batches[-7:])
    assert {ok for _, _, ok in capped} == {True, False}


def test_singular_row_of_a_newton_batch_ends_alone(monkeypatch):
    # gamma_p = 0 between ordinary rows: the stacked solve of the first
    # round raises, the round's rows are solved one by one, and only the
    # gamma_p = 0 row meets its singular Jacobian and ends its polish
    starts = list(_newton_starts())
    still = len(starts) - 1
    assert starts[still][0] == "no pump, no decay"
    rows = [0, still, 210, 1]
    expected = [_newton_written_out(x0, params, 1e-10 * max(1.0, params.kappa))
                for _, x0, params in (starts[i] for i in rows)]
    singular = []
    solve = np.linalg.solve

    def recording(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(a)
            raise

    monkeypatch.setattr(np.linalg, "solve", recording)
    x, res, ok = _newton_batch(starts, rows)
    assert [a.shape for a in singular] == [(4, 6, 6), (6, 6)]
    assert not np.any(singular[1][5])
    for x_i, res_i, ok_i, (x_ref, res_ref, ok_ref) in zip(x, res, ok, expected):
        assert np.array_equal(x_i, x_ref) and res_i == res_ref and ok_i == ok_ref


def test_scaled_residual_of_an_overflowing_rhs_is_nan(desk_params):
    # s n = +inf and (N - 1) pr = -inf: the source term is inf - inf.  The
    # residual must stay NaN, so that a Newton trial landing here is
    # rejected (trial_res < res is False); Python's max would drop it.
    x = np.array([1e308, 0.0, 0.0, 10.0, -1e308, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(cumulant._rhs_vec(x, desk_params)[2])
        assert np.isnan(scaled_residual(x, desk_params))


def test_newton_evaluates_each_iterate_once(monkeypatch):
    # No state is evaluated twice: a kept trial carries its rhs into the
    # next step, and only the residual check before the first step
    # evaluates x0.  Each round evaluates one full-step trial per running
    # row, so a batch evaluates just the states its rows evaluate alone.
    params = _STEP_INPUTS["sr88"][0]
    (x0,) = cumulant.relax_all([params])
    evaluated, per_call = [], []
    stacked = cumulant._stacked

    def recording(q, shape):
        f = stacked(q, shape)

        def g(x):  # x holds one state per column
            states = np.asarray(x).reshape(6, -1).T.tolist()
            evaluated.extend(tuple(col) for col in states)
            per_call.append(len(states))
            return f(x)

        return g

    def run(starts, params_list):
        evaluated.clear()
        per_call.clear()
        _, _, ok = _newton(np.array(starts), params_list,
                           [1e-10 * max(1.0, p.kappa) for p in params_list])
        assert len(set(evaluated)) == len(evaluated), params_list
        return ok, sorted(evaluated), list(per_call)

    monkeypatch.setattr(cumulant, "_stacked", recording)
    (ok,), states, calls = run([x0], [params])
    assert ok and len(states) >= 3 and calls == [1] * len(calls), calls
    # a polish step that rounds to nothing (trial == x) ends the polish
    # without evaluating x again; it happens on 8 of these closed-form roots
    inputs = [params] + list(_root_inputs(20))
    starts = [x0] + [_closed_form_root(p) for p in inputs[1:]]
    alone = []
    for x, p in zip(starts, inputs):
        (ok,), states, _ = run([x], [p])
        assert ok, p
        alone += states
    ok, states, calls = run(starts, inputs)
    assert ok.all() and states == sorted(alone)
    # the check of every x0, then one trial per row still running
    assert calls[0] == len(inputs) and calls == sorted(calls, reverse=True), calls


def _random_params(count: int):
    """Seeded random params over many decades: kappa = 10^U(-3, 6), then in
    units of kappa g, gamma, eta (0 with probability 0.05), chi (0 with
    probability 0.5) and omega_a (0 with probability 0.5); N up to 1e6."""
    rng = np.random.default_rng(44)
    for _ in range(count):
        kappa = 10.0 ** rng.uniform(-3.0, 6.0)
        n_atoms = int(10.0 ** rng.uniform(0.0, 6.0))
        g = 10.0 ** rng.uniform(-6.0, 1.0) * kappa
        gamma = 10.0 ** rng.uniform(-9.0, 0.0) * kappa
        eta = 10.0 ** rng.uniform(-9.0, 1.0) * kappa
        eta = 0.0 if rng.uniform() <= 0.05 else eta
        chi = 10.0 ** rng.uniform(-9.0, -1.0) * kappa
        chi = 0.0 if rng.uniform() <= 0.5 else chi
        omega_a = 10.0 ** rng.uniform(-3.0, 1.0) * kappa
        omega_a = 0.0 if rng.uniform() <= 0.5 else omega_a
        yield SystemParams(n_atoms=n_atoms, g=g, kappa=kappa, gamma=gamma, eta=eta,
                           chi=chi, omega_a=omega_a)


def test_random_answers_are_the_full_step_root_or_the_closed_form():
    # each answer on 350 seeded random params, solved as one batch, is the
    # written-out full-step Newton root from the relaxed state, physical
    # and within the tolerance, or else the closed-form root bit for bit,
    # or else the error carrying that Newton's best residual; and a lone
    # solve gives the same answer
    inputs = list(_random_params(350))
    kinds = {"newton": 0, "closed form": 0, "error": 0}
    for params, entry in zip(inputs, cumulant.solve_all(inputs)):
        tol = 1e-10 * max(1.0, params.kappa)
        (relaxed,) = cumulant.relax_all([params])
        x_ref, res_ref, ok_ref = _newton_written_out(relaxed, params, tol)
        root = _closed_form_root(params)
        if ok_ref and _is_physical(x_ref):
            kinds["newton"] += 1
            assert entry[0].tobytes() == x_ref.tobytes() and entry[1] == res_ref, params
        elif isinstance(entry, tuple):
            kinds["closed form"] += 1
            assert entry[0].tobytes() == root.tobytes(), params
            assert entry[1] == scaled_residual(root, params) < tol, params
        else:
            kinds["error"] += 1
            assert isinstance(entry, ConvergenceError) and entry.best_residual == res_ref
        (alone,) = cumulant.solve_all([params])
        if isinstance(entry, tuple):
            assert alone[0].tobytes() == entry[0].tobytes() and alone[1] == entry[1], params
        else:
            assert type(alone) is type(entry) and str(alone) == str(entry), params
    # the first 350 draws take in one input with no physical root
    assert kinds == {"newton": 261, "closed form": 88, "error": 1}


def test_dop853_blow_up_stops_where_scipy_does():
    def blow_up(_, y):
        return y * y

    ours = cumulant.solve_ivp(blow_up, (0.0, 2.0), [1.0], rtol=1e-8, atol=1e-12)
    ref = _scipy_dop853(blow_up, (0.0, 2.0), [1.0])
    assert not ours.success and not ref.success
    assert ours.message == ref.message == (
        "Required step size is less than spacing between numbers.")
    assert ours.nfev == ref.nfev == 3590
    assert np.array_equal(ours.t, ref.t)
    assert np.array_equal(ours.y, ref.y)


# A batch mixes the _STEP_INPUTS cells with two rows that fail: the blow-up
# of the test above, y' = y * y on six components, which stops on a
# too-small step at t = 1, and a right-hand side that turns NaN past
# t = 0.5, whose NaN error norms shrink the step by MIN_FACTOR (Python's
# max(0.2, nan)) until it is too small.  Their fun takes t shaped y[..., 0].
_FAILING = {
    "blow_up": (lambda t, y: y * y, 2.0),
    "nan_wall": (lambda t, y: np.where(np.expand_dims(t, -1) > 0.5, np.nan, -y), 1.0),
}
_BATCH = ("sr88", "sr87", "desk", "empty", "blow_up", "nan_wall")


def _own_call(name):
    """fun, end time and start of the 1-D integration of one batch row."""
    if name in _FAILING:
        return (*_FAILING[name], np.ones(6))
    params, start = _STEP_INPUTS[name]
    f = cumulant._rhs(params)
    return ((lambda _, y: f(y.tolist())), 30.0 / cumulant._fast_rate(params),
            (start or initial_state(params)).as_vector())


def _batched(names):
    """One batched solve_ivp over the rows names, on cumulant's batch rhs."""
    kinds = np.array(names)
    cells = [i for i, name in enumerate(names) if name not in _FAILING]
    rhs = cumulant._rhs_rows(cumulant._table([_STEP_INPUTS[names[i]][0] for i in cells]))
    cell_of = np.full(len(names), -1)
    cell_of[cells] = np.arange(len(cells))

    def fun(t, y, rows):
        out = np.empty_like(y)
        for name, (f, _) in _FAILING.items():
            mine = kinds[rows] == name
            out[mine] = f(t[mine], y[mine])
        mine = cell_of[rows] >= 0
        if mine.any():
            out[mine] = rhs(t[mine], y[mine], cell_of[rows][mine])
        return out

    calls = [_own_call(name) for name in names]
    with np.errstate(over="ignore", invalid="ignore"):
        return cumulant.solve_ivp(fun, (0.0, np.array([c[1] for c in calls])),
                                  np.array([c[2] for c in calls]), rtol=1e-8, atol=1e-12)


def test_batch_rows_step_as_their_own_calls():
    own = {}
    for name in _BATCH:
        fun, t_final, start = _own_call(name)
        with np.errstate(over="ignore", invalid="ignore"):
            own[name] = cumulant.solve_ivp(fun, (0.0, t_final), start,
                                           rtol=1e-8, atol=1e-12)
    assert [own[name].success for name in _BATCH] == [True] * 4 + [False] * 2
    for names in (_BATCH, _BATCH[::-1], ("blow_up", "desk"), ("sr87",),
                  ("empty", "nan_wall", "sr88", "sr88")):
        batch = _batched(names)
        assert isinstance(batch.nfev, int)
        assert batch.nfev == sum(batch.row_nfev) == sum(own[name].nfev for name in names)
        for i, name in enumerate(names):
            assert batch.success[i] == own[name].success
            assert batch.row_nfev[i] == own[name].nfev
            assert np.array_equal(batch.y[i], own[name].y[:, -1])


def test_batch_step_control_rounds_as_the_1d_loop():
    # random inputs over a wide range, where numpy's vectorised power and
    # square round differently from pow in some entries
    rng = np.random.default_rng(5)
    m = 20_000
    K = rng.standard_normal((m, dop853.N_STAGES + 1, 6)) * 10.0 ** rng.uniform(-9, 9, (m, 1, 1))
    K[:50] = 0.0
    K[50:100] = 0.0
    K[50:100, 0, 0] = 1.0  # with scale below, err5 squares to 0 and 0.01 err3 underflows
    h = 10.0 ** rng.uniform(-9, 0, m)
    scale = 10.0 ** rng.uniform(-12, 3, (m, 6))
    scale[50:100] = abs(dop853.E3[0]) / 1.5e-161
    norms = dop853._error_norms(K, h, scale)
    assert np.isnan(norms[50:100]).all() and not norms[:50].any()
    assert np.array_equal(norms, [dop853._error_norm(k, step, s)
                                  for k, step, s in zip(K, h.tolist(), scale)], equal_nan=True)

    y0, f0 = K[:2000, 1], K[:2000, 2]
    span = 10.0 ** rng.uniform(-6, 3, 2000)
    rates = 10.0 ** rng.uniform(-3, 3, 2000)
    steps = dop853._initial_steps(lambda t, y, rows: rates[rows, None] * y * y - y,
                                  0.0, y0, f0, span, 1e-8, 1e-12, np.arange(2000))
    assert np.array_equal(steps, [
        dop853._initial_step(lambda t, y, r=r: r * y * y - y, 0.0, y, f, s, 1e-8, 1e-12)
        for y, f, s, r in zip(y0, f0, span.tolist(), rates.tolist())])


def test_batch_steps_at_ten_ulps_of_t_as_the_1d_loop():
    # from t0 = 2**52, where ten ulps of t are 10, y' = -r y steps at that
    # floor: a step begins at no less than 10 after an accepted step whose
    # factor is below 1, and a rejected step that falls under it fails
    t0, rates = 2.0 ** 52, np.geomspace(0.05, 1.0, 40)
    batch = cumulant.solve_ivp(lambda t, y, rows: -rates[rows, None] * y,
                               (t0, t0 + 4000.0), np.ones((40, 6)), rtol=1e-8, atol=1e-12)
    own = [cumulant.solve_ivp(lambda t, y, r=r: -r * y, (t0, t0 + 4000.0), np.ones(6),
                              rtol=1e-8, atol=1e-12) for r in rates.tolist()]
    assert {sol.success for sol in own} == {True, False}
    for i, sol in enumerate(own):
        assert batch.success[i] == sol.success and batch.row_nfev[i] == sol.nfev
        assert np.array_equal(batch.y[i], sol.y[:, -1])


def test_relax_all_is_relax_of_each_params(monkeypatch):
    desk = _STEP_INPUTS["desk"][0]
    still = desk.updated(gamma=0.0, eta=0.0, chi=0.0)  # gamma_p = 0: already stationary
    lossless = desk.updated(kappa=0.0)  # solve_all's closed form, never relaxed
    inputs = [_STEP_INPUTS["sr88"][0], lossless, desk, still, _STEP_INPUTS["sr87"][0]]
    batches = []
    solve_ivp = cumulant.solve_ivp

    def counted(fun, t_span, y0, **kwargs):
        batches.append(np.shape(y0))
        return solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(cumulant, "solve_ivp", counted)
    relaxed = cumulant.relax_all(inputs)
    assert batches == [(3, 6)]
    assert relaxed[1] is None
    solved = cumulant.solve_all(inputs)
    assert batches == [(3, 6)] * 2
    # pumped above transparency, the lossless cavity's answer is the
    # ConvergenceError that steady_state raises without a stage
    assert isinstance(solved[1], ConvergenceError) and str(solved[1]).startswith(
        "no physical steady state: with kappa = 0 and eta >= gamma")
    for params, x, row in zip(inputs, relaxed, solved):
        if x is not None:
            assert np.array_equal(x, cumulant.relax_all([params])[0])
        assert _outcome(lambda: steady_state(params, solved=row)) == \
            _outcome(lambda: steady_state(params))
    # a lone state relaxes on the 1-D loop, the stationary one not at all
    assert batches[2:] == [(6,)] * 6
    assert cumulant.relax_all([]) == []
    assert cumulant.solve_all([]) == []


def test_relax_all_matches_relax_on_a_threshold_scan():
    # sr88 from far below to far above threshold: with numpy's vectorised
    # power in the step control, a fifth of these rows end on other bits
    sr88 = preset("sr88")
    inputs = [sr88.updated(n_atoms=n, eta=pump * sr88.gamma)
              for n in (100, 1_000, 10_000, 100_000) for pump in np.geomspace(1e-2, 1e5, 10)]
    for params, x in zip(inputs, cumulant.relax_all(inputs)):
        assert np.array_equal(x, cumulant.relax_all([params])[0])


_DESK = SystemParams(n_atoms=3, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
_SR88 = preset("sr88", n_atoms=1000)
# the edge inputs, each with what every entry point gives for it: the
# state vector, or the error class and the start of its message
_EDGE_INPUTS = {
    "g = 0": (_DESK.updated(g=0.0), [0.0, 0.0, 0.0, 0.9047619047619048, 0.0, 0.0]),
    "kappa = 0 below transparency": (
        _DESK.updated(kappa=0.0, gamma=0.2, eta=0.01),
        [0.05263157894736849, 0.0, 0.0, -0.9047619047619047, 0.0, 0.0]),
    "kappa = 0 at transparency": (
        _DESK.updated(kappa=0.0, gamma=0.1, eta=0.1),
        (ConvergenceError, "no physical steady state: with kappa = 0 and eta >= gamma")),
    "g = kappa = 0": (_DESK.updated(g=0.0, kappa=0.0),
                      [0.0, 0.0, 0.0, 0.9047619047679338, 0.0, 0.0]),
    "eta = gamma = 0": (_DESK.updated(gamma=0.0, eta=0.0), [0.0, 0.0, 0.0, -1.0, 0.0, 0.0]),
    "eta = gamma = 0, chi > 0": (_DESK.updated(gamma=0.0, eta=0.0, chi=0.03),
                                 [0.0, 0.0, 0.0, -1.0, 0.0, 0.0]),
    "below threshold": (
        _SR88.updated(eta=0.5 * _SR88.gamma),
        [0.06444464152413946, 0.0, -0.00048637465301237326, -0.3351664253589089,
         -0.0003071954507830347, 0.0]),
    "far over-pumped": (
        _SR88.updated(eta=1e3 * derived(_SR88).c_collective),
        [0.0010009386344739157, 0.0, -7.554253845086157e-06, 0.9999946599215914,
         5.701277988802101e-11, 0.0]),
}


def _outcome(solve):
    """The bytes of the state that solve() returns, or its error's class and message."""
    try:
        return _bits(solve())
    except (ConvergenceError, StiffIntegrationError) as exc:
        return type(exc), str(exc)


def test_each_edge_input_gives_one_answer_through_every_entry_point():
    # steady_state alone, on its own solve_all entry, and on its row of one
    # mixed batch of all the edge inputs
    inputs = [params for params, _ in _EDGE_INPUTS.values()]
    batch = cumulant.solve_all(inputs)
    for (name, (params, expected)), row in zip(_EDGE_INPUTS.items(), batch):
        alone = _outcome(lambda: steady_state(params))
        # the entry is the error steady_state raises, or (x, res) of its state
        if isinstance(row, SimulationError):
            assert (type(row), str(row)) == alone, name
        else:
            x, res = row
            state, info = steady_state(params, return_info=True)
            assert _bits(MomentState.from_vector(x)) == alone == _bits(state), name
            assert res == info.scaled_residual, name
        assert _outcome(lambda: steady_state(params, solved=cumulant.solve_all([params])[0])) \
            == alone, name
        assert _outcome(lambda: steady_state(params, solved=row)) == alone, name
        if isinstance(expected, tuple):
            assert alone[0] is expected[0] and alone[1].startswith(expected[1]), name
        else:
            assert alone == _bits(MomentState.from_vector(expected)), name


def test_error_norm_whose_weighted_sum_underflows_is_nan():
    # err5 squares to 0 and 0.01 err3 underflows to 0 while err3 does not;
    # scipy's numpy scalars give 0 / 0 = nan there, which rejects the step
    K = np.zeros((dop853.N_STAGES + 1, 1))
    K[0, 0] = 1.0
    scale = np.array([abs(dop853.E3[0]) / 1.5e-161])
    assert np.isnan(dop853._error_norm(K, 1.0, scale))


def test_integration_that_cannot_step_raises_stiff_error(monkeypatch, desk_params):
    monkeypatch.setattr(cumulant, "_rhs", lambda params: lambda x: [v * v for v in x])
    with pytest.raises(StiffIntegrationError, match="less than spacing"):
        cumulant._integrate_raw(np.ones(6), desk_params, 2.0)


def test_zero_horizon_returns_the_initial_state(desk_params):
    start = initial_state(desk_params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trajectory = integrate(start, desk_params, 0.0)
        sol = cumulant.solve_ivp(lambda _, y: -y, (1.0, 1.0), [2.0])
    assert trajectory == [(0.0, start), (0.0, start)]
    assert sol.success
    assert sol.t.tolist() == [1.0, 1.0] and sol.y.tolist() == [[2.0, 2.0]]


def test_backward_horizon_and_other_methods_raise(desk_params):
    with pytest.raises(ValueError, match="backwards"):
        integrate(initial_state(desk_params), desk_params, -1.0)
    with pytest.raises(ValueError, match="backwards"):
        cumulant.solve_ivp(lambda _, y: -y, (1.0, 0.0), [1.0])


def _bounded(fun, calls=100_000):
    """fun, raising after `calls` calls: a solver that never ends fails."""
    made = iter(range(calls))

    def bounded(*args):
        if next(made, None) is None:
            raise RuntimeError(f"no end after {calls} calls")
        return fun(*args)
    return bounded


def test_integrate_from_a_nan_derivative_raises_stiff_error(monkeypatch):
    # the state passes validate(), but its rhs is [-2e301, nan, -inf,
    # 4e300, -0, -0]: the first step is NaN, which no step test rejects
    start = MomentState(1.0, 1e300 + 1e300j, 0.0, 0j)
    params = SystemParams(n_atoms=10, g=1.0, kappa=1e10, gamma=0.1, eta=0.2, omega_a=-1e10)
    rhs_of = cumulant._rhs
    monkeypatch.setattr(cumulant, "_rhs", lambda p: _bounded(rhs_of(p)))
    with pytest.raises(StiffIntegrationError, match="less than spacing"):
        integrate(start, params, 1.0)


@pytest.mark.parametrize("t_max", [np.inf, np.nan])
def test_integrate_over_a_non_finite_horizon_raises(monkeypatch, desk_params, t_max):
    rhs_of = cumulant._rhs
    monkeypatch.setattr(cumulant, "_rhs", lambda p: _bounded(rhs_of(p)))
    with pytest.raises(ValueError, match="finite"):
        integrate(initial_state(desk_params), desk_params, t_max)


def test_nan_first_step_ends_at_the_start_in_1d_and_batch():
    # row 1 is NaN at y0; the others step as their own 1-D calls
    y0 = np.ones((3, 6))
    rates = np.array([1.0, 1.0, 2.0])

    def rows_fun(t, y, rows):
        return np.where((rows == 1)[:, None], np.nan, -rates[rows, None] * y)

    own = [cumulant.solve_ivp(_bounded(lambda t, y, i=i: rows_fun(t, y[None], np.array([i]))[0]),
                              (0.0, 1.0), y0[i], rtol=1e-8, atol=1e-12) for i in range(3)]
    assert [sol.success for sol in own] == [True, False, True]
    assert own[1].message == dop853.TOO_SMALL_STEP and own[1].nfev == 2
    assert own[1].t.tolist() == [0.0] and np.array_equal(own[1].y[:, 0], y0[1])
    batch = cumulant.solve_ivp(_bounded(rows_fun), (0.0, 1.0), y0, rtol=1e-8, atol=1e-12)
    for i, sol in enumerate(own):
        assert batch.success[i] == sol.success and batch.row_nfev[i] == sol.nfev
        assert np.array_equal(batch.y[i], sol.y[:, -1])
    every = cumulant.solve_ivp(_bounded(lambda t, y, rows: np.full_like(y, np.nan)),
                               (0.0, 1.0), y0, rtol=1e-8, atol=1e-12)
    assert not every.success.any() and np.array_equal(every.y, y0)
    assert every.row_nfev.tolist() == [2, 2, 2]


@pytest.mark.parametrize("t_end", [np.inf, np.nan, -np.inf])
def test_non_finite_end_time_raises_in_1d_and_batch(t_end):
    decay = _bounded(lambda t, y, *rows: -y)
    with pytest.raises(ValueError, match="finite"):
        cumulant.solve_ivp(decay, (0.0, t_end), [1.0])
    with pytest.raises(ValueError, match="finite"):
        cumulant.solve_ivp(decay, (0.0, np.array([1.0, t_end])), np.ones((2, 1)))


def test_batch_of_zero_length_spans_ends_at_y0_after_one_call():
    # every row's span is empty, so no row steps: each ends at y0 after the
    # one evaluation at t0, as its 1-D call does
    y0 = np.arange(6.0).reshape(3, 2)
    calls = []

    def decay(t, y, rows):
        calls.append(rows.tolist())
        return -y

    batch = cumulant.solve_ivp(decay, (1.0, 1.0), y0)
    assert calls == [[0, 1, 2]]
    assert np.array_equal(batch.y, y0) and batch.y is not y0
    assert batch.success.tolist() == [True] * 3
    assert batch.nfev == 3 and batch.row_nfev.tolist() == [1, 1, 1]
    own = cumulant.solve_ivp(lambda t, y: -y, (1.0, 1.0), y0[1])
    assert own.success and own.nfev == 1 and np.array_equal(own.y[:, -1], y0[1])


# -------------------------------------------------------------- state plumbing

def test_moment_state_vector_round_trip():
    state = MomentState(1.5, 0.2 - 0.3j, -0.4, 0.01 + 0.02j)
    again = MomentState.from_vector(state.as_vector())
    assert again == state


def _bits(state: MomentState) -> bytes:
    parts = (state.photon_number, state.atom_photon.real, state.atom_photon.imag,
             state.inversion, state.pair_corr.real, state.pair_corr.imag)
    return struct.pack("<6d", *parts)


def _float_at_a_time(x) -> MomentState:
    # the conversion from_vector made before it took one tolist()
    x = np.asarray(x, dtype=float)
    return MomentState(photon_number=float(x[0]), atom_photon=complex(x[1], x[2]),
                       inversion=float(x[3]), pair_corr=complex(x[4], x[5]))


@pytest.mark.parametrize("kind", [list, tuple, np.array])
@pytest.mark.parametrize("values", [
    [1.5, 0.2, -0.3, -0.4, 0.01, 0.02],
    [-0.0, -0.0, 0.0, -0.0, -0.0, -0.0],
    [math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2e-308],
])
def test_moment_state_from_vector_keeps_every_bit(kind, values):
    state = MomentState.from_vector(kind(values))
    assert type(state.photon_number) is float and type(state.inversion) is float
    assert _bits(state) == _bits(_float_at_a_time(kind(values)))
    assert _bits(state) == struct.pack("<6d", *values)


@pytest.mark.parametrize("kind", [list, tuple, np.array])
@pytest.mark.parametrize("length", [0, 5, 7, 11])
def test_moment_state_from_vector_needs_six_entries(kind, length):
    with pytest.raises(ValueError, match=f"6 entries, got {length} in shape"):
        MomentState.from_vector(kind([0.25] * length))


def test_moment_state_from_vector_needs_a_flat_vector():
    with pytest.raises(ValueError, match=r"got 6 in shape \(6, 1\)"):
        MomentState.from_vector(np.zeros((6, 1)))
    with pytest.raises(ValueError, match=r"got 1 in shape \(\)"):
        MomentState.from_vector(0.5)


def test_moment_state_validation():
    MomentState(0.0, 0.0 + 0.0j, -1.0, 0.0 + 0.0j).validate()
    with pytest.raises(ValueError, match="photon_number"):
        MomentState(-1.0, 0j, 0.0, 0j).validate()
    with pytest.raises(ValueError, match="inversion"):
        MomentState(0.1, 0j, 1.5, 0j).validate()
    with pytest.raises(ValueError, match="non-finite"):
        MomentState(float("nan"), 0j, 0.0, 0j).validate()


def test_rhs_rejects_non_finite_state(desk_params):
    with pytest.raises(ValueError, match="non-finite"):
        rhs(MomentState(float("inf"), 0j, 0.0, 0j), desk_params)


def test_integrate_validates_initial_state(desk_params):
    with pytest.raises(ValueError, match="photon_number"):
        integrate(MomentState(-2.0, 0j, 0.0, 0j), desk_params, 1.0)
