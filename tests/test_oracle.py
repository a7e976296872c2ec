"""Exact-diagonalization reference solver: self-consistency and known limits."""
from __future__ import annotations

import hashlib
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from srlaser import oracle
from srlaser.errors import CutoffError, MemoryBudgetError, SimulationError
from srlaser.model import SystemParams
from srlaser.oracle import derivative_match_error, oracle_spectrum, oracle_steady_state
from srlaser.spectrum import FilterProbe, fit_lorentzian

from oracle_reference import (
    HilbertSpace,
    apply_liouvillian,
    atomic_collective_ops,
    build_liouvillian,
    coo_orbit_block,
    dicke_basis,
    hamiltonian,
    lindblad_channels,
    moment_derivatives,
    moments_from_rho,
    product_state,
)


DESK = dict(g=0.25, kappa=1.0, gamma=0.01, eta=0.2)


@pytest.fixture(scope="module")
def desk3_result(request):
    params = SystemParams(n_atoms=3, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
    return params, oracle_steady_state(params, n_max=6)


# ------------------------------------------- product-basis orbit references

def _sector(space, charge):
    """Row-major vec indices, in increasing order, of the entries rho[i, j]
    with q_i - q_j = charge, q the photons plus excited atoms."""
    q = np.indices(space.dims).reshape(len(space.dims), -1).sum(axis=0)
    return np.flatnonzero((q[:, None] - q).reshape(-1) == charge)


def _orbit_matrix(space, charge, number=None):
    """The sector's vec indices and V, whose column o holds 1 / sqrt(size)
    on orbit o's entries, the orbits and their sizes read off the product
    basis.  An entry's label is the mode digits of ket and bra, then the
    numbers of atoms in the (ket, bra) pairs gg, ge, eg and ee.  Orbits are
    numbered by number(labels), one label per column, or in label order."""
    idx = _sector(space, charge)
    digits = np.indices(space.dims).reshape(len(space.dims), -1)
    ket, bra = digits[:, idx // space.dim], digits[:, idx % space.dim]
    n = space.n_atoms
    k, b = ket[-n:], bra[-n:]
    pairs = [((1 - k) * (1 - b)).sum(0), ((1 - k) * b).sum(0),
             (k * (1 - b)).sum(0), (k * b).sum(0)]
    labels = np.vstack([ket[:-n], bra[:-n], pairs])
    keys, orbit, size = np.unique(labels, axis=1, return_inverse=True, return_counts=True)
    column = np.arange(keys.shape[1]) if number is None else number(keys)
    orbit = orbit.reshape(-1)
    v = sp.csr_matrix((1.0 / np.sqrt(size[orbit]), (np.arange(idx.size), column[orbit])))
    return idx, v


def _oracle_numbering(orbits):
    """number() for _orbit_matrix that gives each label the oracle's orbit
    number, after checking that the two sets of labels are the same."""
    def number(keys):
        found = orbits.find(keys[0], keys[2:])
        assert np.array_equal(np.sort(found), np.arange(orbits.nk.size))
        assert np.array_equal(orbits.nb[found], keys[1])
        assert np.array_equal(orbits.counts[:, found], keys[2:])
        return found
    return number


def _gauge_phase(orbits, shift=0):
    """i^(nk - nb + shift) per orbit: the resonance gauge x_o = phase_o y_o
    between the coordinates x on the bare orbit operators V_o, which
    _orbit_matrix builds, and the oracle's y on phase_o V_o."""
    return np.array([1, 1j, -1, -1j])[(orbits.nk - orbits.nb + shift) % 4]


def _in_oracle_basis(block, orbits):
    """D^-1 block D, D = diag(_gauge_phase(orbits)): a block on the bare
    orbit operators, taken to the oracle's orbit basis."""
    phase = _gauge_phase(orbits)
    return sp.diags(phase.conj()) @ block @ sp.diags(phase)


# ---------------------------------------------------------------- known limits

def test_decay_only_atom_reaches_ground_vacuum():
    params = SystemParams(n_atoms=1, g=0.0, kappa=0.8, gamma=0.3, eta=0.0)
    result = oracle_steady_state(params, n_max=0)
    # unique stationary state is |vacuum, ground><...| exactly
    ref = np.zeros_like(result.rho)
    ref[0, 0] = 1.0
    assert np.max(np.abs(result.rho - ref)) < 1e-13
    assert abs(result.moments.photon_number) < 1e-13
    assert abs(result.moments.inversion + 1.0) < 1e-13


def test_pumped_uncoupled_atom_population_balance():
    # g = 0: rate equation gives excited population eta / (eta + gamma)
    params = SystemParams(n_atoms=1, g=0.0, kappa=1.0, gamma=0.3, eta=0.7)
    result = oracle_steady_state(params, n_max=0)
    expected_s = (params.eta - params.gamma) / (params.eta + params.gamma)
    assert abs(result.moments.inversion - expected_s) < 1e-12


def test_uncoupled_pair_is_exact_product_state():
    params = SystemParams(n_atoms=2, g=0.0, kappa=1.0, gamma=0.3, eta=0.7)
    result = oracle_steady_state(params, n_max=0)
    p_exc = params.eta / (params.eta + params.gamma)
    atom = np.diag([1.0 - p_exc, p_exc]).astype(complex)
    cavity = np.zeros((result.n_max + 1,) * 2, dtype=complex)
    cavity[0, 0] = 1.0
    ref = np.kron(np.kron(cavity, atom), atom)
    assert np.max(np.abs(result.rho - ref)) < 1e-12
    assert abs(result.moments.pair_corr) < 1e-13


@pytest.mark.parametrize("n_atoms, extra", [
    *((n, {}) for n in (1, 2, 3, 4)), *((n, dict(chi=0.03, omega_a=0.3)) for n in (1, 2, 3, 4))],
    ids=["1", "2", "3", "4", "1-detuned", "2-detuned", "3-detuned", "4-detuned"])
def test_uncoupled_atoms_leave_the_cavity_empty(n_atoms, extra):
    # g = 0: the atoms relax to their pump balance, and every moment with a
    # photon is 0 exactly.  The block's zero entries must leave the LU:
    # factored, its fill leaves round-off on these moments
    params = SystemParams(n_atoms=n_atoms, **{**DESK, "g": 0.0, **extra})
    result = oracle_steady_state(params, n_max=4)
    assert result.n_max == 6
    assert result.moments.photon_number == 0.0
    assert result.moments.atom_photon == 0.0
    assert result.moments.pair_corr == 0.0
    assert abs(result.moments.inversion - 0.19 / 0.21) < 1e-12


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_lossless_cavity_is_a_cutoff_error(n_atoms):
    # kappa = 0 and eta >= gamma: the photons pile up, so no cutoff converges
    params = SystemParams(n_atoms=n_atoms, **{**DESK, "kappa": 0.0})
    with pytest.raises(CutoffError, match=r"at or above transparency \(eta >= gamma\)"):
        oracle_steady_state(params, n_max=4)


@pytest.mark.parametrize("gamma, eta", [(0.01, 0.2), (0.01, 0.01), (0.0, 0.2)])
def test_lossless_cavity_at_transparency_raises_before_any_block(monkeypatch, gamma, eta):
    # the drift of such a climb falls only algebraically, so no block is built
    blocks = []
    _count_calls(monkeypatch, "_orbit_block", blocks, lambda args: args[1:])
    params = SystemParams(n_atoms=2, g=0.25, kappa=0.0, gamma=gamma, eta=eta)
    with pytest.raises(CutoffError, match="no stationary state") as excinfo:
        oracle_steady_state(params)
    assert excinfo.value.drift is None
    with pytest.raises(CutoffError, match="no stationary state"):
        oracle_spectrum(params, n_max=4, omega_grid=np.linspace(-1.0, 1.0, 5))
    assert blocks == []


def test_decoupled_lossless_cavity_is_no_transparency_error(monkeypatch):
    # g = 0: the pump never reaches the cavity, and a free lossless cavity
    # keeps any photon state, so there is no unique stationary state at any
    # N; the real half's LU missed that from N = 2 on and returned the vacuum
    blocks = []
    _count_calls(monkeypatch, "_orbit_block", blocks, lambda args: args[1:])
    grid = np.linspace(-1.0, 1.0, 5)
    for n_atoms in (1, 2, 3):
        for gamma, eta in ((0.01, 0.2), (0.01, 0.0), (0.0, 0.0)):
            params = SystemParams(n_atoms=n_atoms, g=0.0, kappa=0.0, gamma=gamma, eta=eta)
            for n_max in (2, 4):
                for solve in (lambda: oracle_steady_state(params, n_max=n_max),
                              lambda: oracle_spectrum(params, n_max=n_max, omega_grid=grid)):
                    with pytest.raises(SimulationError, match="singular") as excinfo:
                        solve()
                    assert not isinstance(excinfo.value, CutoffError)
    assert blocks == []


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
@pytest.mark.parametrize("eta", [0.005, 0.002])
def test_lossless_cavity_below_transparency_converges_to_the_closed_form(n_atoms, eta):
    # kappa = 0, eta < gamma: no photon leaves, so the atoms' net emission
    # vanishes, and n = -(1 + d0) / (2 d0) with d0 = (eta - gamma) / (eta + gamma)
    gamma = 0.01
    d0 = (eta - gamma) / (eta + gamma)
    params = SystemParams(n_atoms=n_atoms, g=0.25, kappa=0.0, gamma=gamma, eta=eta)
    result = oracle_steady_state(params)
    assert result.moments.photon_number == pytest.approx(-(1 + d0) / (2 * d0), rel=1e-7)


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_undriven_atoms_end_in_the_vacuum_or_in_a_singular_block(n_atoms):
    # gamma = eta = 0: one atom gives its photon to the cavity and stops in
    # the vacuum; from N = 2 the subradiant states are dark, so the
    # permutation-invariant stationary state is not unique
    params = SystemParams(n_atoms=n_atoms, **{**DESK, "gamma": 0.0, "eta": 0.0})
    if n_atoms >= 2:
        with pytest.raises(SimulationError, match="singular"):
            oracle_steady_state(params, n_max=4)
        return
    result = oracle_steady_state(params, n_max=4)
    assert result.rho[0, 0] == 1.0
    assert result.moments.photon_number == 0.0


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_unpumped_atoms_end_in_the_ground_vacuum(n_atoms):
    params = SystemParams(n_atoms=n_atoms, **{**DESK, "eta": 0.0})
    result = oracle_steady_state(params, n_max=4)
    assert result.rho[0, 0] == 1.0
    assert result.moments.photon_number == 0.0
    assert result.moments.inversion == -1.0


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_over_pumped_atoms_barely_emit(n_atoms):
    # eta = 50 kappa: the pump dephases each atom far faster than g, so
    # n is about 0.005 per atom (0.004923, 0.009895, 0.014918 at N = 1 to 3)
    params = SystemParams(n_atoms=n_atoms, **{**DESK, "eta": 50.0})
    result = oracle_steady_state(params, n_max=4)
    assert result.moments.photon_number == pytest.approx(0.005 * n_atoms, rel=0.02)
    assert result.moments.inversion > 0.999


def test_qrt_linewidth_matches_cavity_broadened_atom():
    # weakly coupled single atom: emission FWHM = gamma + eta + 4 g^2 / kappa
    params = SystemParams(n_atoms=1, g=0.01, kappa=1.0, gamma=0.01, eta=0.005)
    expected = params.gamma + params.eta + 4.0 * params.g**2 / params.kappa
    grid = np.linspace(-6.0 * expected, 6.0 * expected, 121)
    fit = fit_lorentzian(oracle_spectrum(params, n_max=3, omega_grid=grid))
    assert abs(fit.fwhm - expected) / expected < 5e-3
    assert abs(fit.center) < 0.05 * expected


def test_spectrum_is_finite_at_zero_frequency():
    # the resolvent block has no zero eigenvalue, so omega = 0 is a plain solve
    params = SystemParams(n_atoms=1, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
    grid = np.linspace(-1.0, 1.0, 41)
    assert grid[20] == 0.0
    scan = oracle_spectrum(params, n_max=4, omega_grid=grid)
    assert np.all(np.isfinite(scan.intensity))
    assert np.max(scan.intensity) == 1.0


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_stacked_spectrum_matches_per_frequency_solves(n_atoms):
    # the reference solves the full charge -1 sector, with no orbit reduction
    params = SystemParams(n_atoms=n_atoms, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
    grid = np.linspace(-1.0, 1.0, 81)
    scan = oracle_spectrum(params, n_max=4, omega_grid=grid)
    result = oracle_steady_state(params, n_max=4)
    space = HilbertSpace(result.n_atoms, result.n_max)
    idx = _sector(space, -1)
    block = build_liouvillian(params, result.n_max)[idx][:, idx]
    x = (space.a @ result.rho).reshape(-1)[idx]
    ad_vec = space.ad.T.reshape(-1)[idx]
    eye = sp.identity(idx.size, dtype=complex, format="csc")
    direct = np.array([-(ad_vec @ spla.spsolve((block + 1j * w * eye).tocsc(), x)).real
                       for w in grid])
    assert np.max(np.abs(scan.intensity - direct / direct.max())) < 1e-12


def _direct_spectrum(params, n_max, grid):
    """The oracle's spectrum by one sparse solve of the charge -1 orbit block
    per grid point, normalised to its peak, at the cutoff the climb returns."""
    result = oracle_steady_state(params, n_max=n_max)
    lower, x_ss = result.orbits, result.x
    orbits, block = oracle._orbit_block(params, result.n_max, -1)
    lit = lower.nk > 0
    x = np.zeros(orbits.nk.size, dtype=complex)
    x[orbits.find(lower.nk[lit] - 1, lower.counts[:, lit])] = np.sqrt(lower.nk[lit]) * x_ss[lit]
    ad_vec = np.where(orbits.atom_diagonal(), orbits.sqrt_size * np.sqrt(orbits.nb), 0.0)
    eye = sp.identity(x.size, dtype=complex, format="csc")
    direct = np.array([-(ad_vec @ spla.splu((block + 1j * w * eye).tocsc()).solve(x)).real
                       for w in grid])
    return direct / direct.max()


@pytest.mark.parametrize("n_atoms, extra", [
    (3, dict(chi=0.03, omega_a=0.1, omega_c=-0.05)),
    (4, {}),
    (2, dict(chi=0.03)),
], ids=["n3-detuned-chi", "n4", "n2-chi"])
def test_wide_grid_spectrum_matches_per_frequency_solves(n_atoms, extra):
    # 401 points over +-4 kappa, the line's far tails included
    params = SystemParams(n_atoms=n_atoms, **DESK, **extra)
    grid = np.linspace(-4.0, 4.0, 401)
    scan = oracle_spectrum(params, n_max=6, omega_grid=grid)
    assert np.max(np.abs(scan.intensity - _direct_spectrum(params, 6, grid))) < 1e-12


def _record_schur(monkeypatch):
    """The list that every (H_m, T) of the reduced model's Schur forms is
    appended to."""
    forms, real = [], oracle.la.schur

    def recording(a, **kwargs):
        tri, z = real(a, **kwargs)
        forms.append((a, tri))
        return tri, z

    monkeypatch.setattr(oracle.la, "schur", recording)
    return forms


@pytest.mark.parametrize("points, width", [(41, 1.0), (401, 4.0)])
@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_resonant_spectrum_from_a_real_schur_form_matches_direct_solves(
        monkeypatch, n_atoms, points, width):
    # on resonance H_m is real and so is its Schur form T, whose 2 x 2
    # diagonal blocks (one per complex pair of eigenvalues) the back
    # substitution solves in closed form
    params = SystemParams(n_atoms=n_atoms, **DESK)
    grid = np.linspace(-width, width, points)
    forms = _record_schur(monkeypatch)
    scan = oracle_spectrum(params, n_max=4, omega_grid=grid)
    monkeypatch.undo()
    assert forms and all(h.dtype == tri.dtype == np.float64 for h, tri in forms)
    assert all(np.any(np.diagonal(tri, -1) != 0.0) for _, tri in forms)
    assert np.max(np.abs(scan.intensity - _direct_spectrum(params, 4, grid))) < 1e-13


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_detuned_spectrum_keeps_the_complex_schur_bytes(monkeypatch, n_atoms):
    # detuned, H_m is complex and LAPACK's Schur form is triangular, so the
    # back substitution takes 1 x 1 steps only, as with output="complex"
    params = SystemParams(n_atoms=n_atoms, **DESK, chi=0.03, omega_a=0.3)
    grid = np.linspace(-1.0, 1.0, 41)
    forms = _record_schur(monkeypatch)
    scan = oracle_spectrum(params, n_max=4, omega_grid=grid)
    assert forms and all(h.dtype == tri.dtype == np.complex128 for h, tri in forms)
    assert all(not np.tril(tri, -1).any() for _, tri in forms)
    real = oracle.la.schur
    monkeypatch.setattr(oracle.la, "schur", lambda a, **_: real(a, output="complex"))
    assert oracle_spectrum(params, n_max=4, omega_grid=grid).intensity.tobytes() \
        == scan.intensity.tobytes()


@pytest.mark.parametrize("points", [5, 401])
def test_spectrum_factors_one_correlation_lu_of_n_orbits(monkeypatch, points):
    # the whole grid is read off one factorisation of the charge -1 block,
    # a real one once gauged on resonance
    for extra, dtype in (({}, np.float64), (dict(omega_a=0.3), np.complex128)):
        params = SystemParams(n_atoms=2, **DESK, **extra)
        shapes = []
        _count_calls(monkeypatch, "_factor", shapes,
                     lambda args: (args[1], args[0].shape, args[0].dtype))
        oracle_spectrum(params, n_max=4, omega_grid=np.linspace(-4.0, 4.0, points))
        monkeypatch.undo()
        n = oracle._Orbits(2, oracle_steady_state(params, n_max=4).n_max, -1).nk.size
        assert [s for what, *s in shapes if what == "undamped correlation"] == [[(n, n), dtype]]


def _record_models(monkeypatch):
    """The list that every _reduced_model result is appended to."""
    models, real = [], oracle._reduced_model

    def recording(*args):
        models.append(real(*args))
        return models[-1]

    monkeypatch.setattr(oracle, "_reduced_model", recording)
    return models


@pytest.mark.parametrize("n_atoms", [1, 2])
def test_reduced_model_solutions_satisfy_the_resolvent_equation(monkeypatch, n_atoms):
    # (L + i omega) X = a rho_ss for X = V_m y, checked through the matrix form
    # of L; the model works in the gauged coordinates of x = i^(nk - nb + 1) y
    params = SystemParams(n_atoms=n_atoms, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
    grid = np.linspace(-1.0, 1.0, 41)
    models = _record_models(monkeypatch)
    oracle_spectrum(params, n_max=4, omega_grid=grid)
    result = oracle_steady_state(params, n_max=4)
    orbits = oracle._Orbits(n_atoms, result.n_max, -1)
    space = HilbertSpace(result.n_atoms, result.n_max)
    idx, v = _orbit_matrix(space, -1, _oracle_numbering(orbits))
    (model,) = models
    m, n = model.basis.shape
    assert n == orbits.nk.size and m <= n
    h, channels = hamiltonian(space, params), lindblad_channels(space, params)
    target = space.a @ result.rho
    phase = _gauge_phase(orbits, 1)
    for w, coords in zip(grid, model.coords):
        vec = np.zeros(space.dim**2, dtype=complex)
        vec[idx] = v @ (phase * (model.basis.T @ coords))  # lifted from the orbit basis
        xmat = vec.reshape(space.dim, space.dim)
        resid = apply_liouvillian(xmat, h, channels) + 1j * w * xmat - target
        assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(target))


def test_krylov_basis_over_the_memory_bound_raises(monkeypatch):
    # N = 2 needs 30 basis vectors of n orbits; a bound of 25 n stops it at 30
    params = SystemParams(n_atoms=2, **DESK)
    n = oracle._Orbits(2, oracle_steady_state(params, n_max=4).n_max, -1).nk.size
    models = _record_models(monkeypatch)
    oracle_spectrum(params, n_max=4, omega_grid=np.linspace(-1.0, 1.0, 41))
    assert models[0].basis.shape == (30, n)
    monkeypatch.setattr(oracle, "MAX_SUPEROP_DIM", 25 * n)
    with pytest.raises(MemoryBudgetError, match=f"30 x {n}.*MAX_SUPEROP_DIM"):
        oracle_spectrum(params, n_max=4, omega_grid=np.linspace(-1.0, 1.0, 41))


def test_reduced_model_evaluates_no_model_that_can_end_nothing(monkeypatch):
    # desk N = 1: n = 24, so the model of order 10 would be followed by the
    # exact one of order 24, which returns without a comparison; only the
    # exact model is evaluated, and its bytes are those of a model that
    # reaches n in its first round
    params = SystemParams(n_atoms=1, **DESK)
    grid = np.linspace(-1.0, 1.0, 41)
    orders = []
    real_schur = oracle.la.schur

    def counted(a, **kwargs):
        orders.append(a.shape[0])
        return real_schur(a, **kwargs)

    monkeypatch.setattr(oracle.la, "schur", counted)
    intensity = oracle_spectrum(params, n_max=4, omega_grid=grid).intensity
    assert orders == [24]
    monkeypatch.setattr(oracle, "MODEL_STEP", 24)
    assert oracle_spectrum(params, n_max=4, omega_grid=grid).intensity.tobytes() \
        == intensity.tobytes()
    assert orders == [24, 24]


def test_reduced_model_stops_where_the_krylov_space_is_exhausted():
    # A^-1 x stays in the 3 x 3 block that holds x: the model has order 3
    # and is exact, where m = n would be 8
    rng = np.random.default_rng(3)
    small, large = (np.eye(k) * 2.0 + 0.3 * rng.normal(size=(k, k)) for k in (3, 5))
    a = sp.block_diag([small, large], format="csc").astype(complex)
    x = np.append(rng.normal(size=3) + 1j * rng.normal(size=3), np.zeros(5))
    ad_vec = rng.normal(size=8)
    grid = np.linspace(-2.0, 2.0, 9)
    model = oracle._reduced_model(spla.splu(a), x, ad_vec, grid)
    direct = [-(ad_vec @ np.linalg.solve(a.toarray() + 1j * w * np.eye(8), x)).real for w in grid]
    assert model.basis.shape == (3, 8)
    assert np.max(np.abs(model.spectrum - direct)) < 1e-13 * np.max(np.abs(direct))


def test_dark_system_has_an_all_zero_spectrum():
    # no coupling and no pump: a rho_ss = 0, so there is no signal to normalise
    params = SystemParams(n_atoms=2, g=0.0, kappa=1.0, gamma=0.01, eta=0.0)
    scan = oracle_spectrum(params, n_max=2, omega_grid=np.linspace(-1.0, 1.0, 5))
    assert np.all(scan.intensity == 0.0)


@pytest.mark.parametrize("n_atoms", [1, 2])
def test_non_unique_stationary_state_is_a_typed_error(n_atoms):
    # no loss and no pump: every function of H is stationary, the
    # permutation-invariant ones too, so the orbit block is singular
    params = SystemParams(n_atoms=n_atoms, g=0.1, kappa=0.0, gamma=0.0, eta=0.0)
    with pytest.raises(SimulationError, match="singular"):
        oracle_steady_state(params)
    with pytest.raises(SimulationError, match="singular"):
        oracle_spectrum(params, n_max=3, omega_grid=np.linspace(-1.0, 1.0, 5))


# ------------------------------------------------------------ self-consistency

@pytest.mark.parametrize("charge", [-1, 0, 1])
def test_liouvillian_never_mixes_charge_sectors(charge):
    # q = photons + filter photons + excited atoms; L conserves q(ket) - q(bra)
    params = SystemParams(n_atoms=2, g=0.25, kappa=1.0, gamma=0.01, eta=0.2,
                          chi=0.03, omega_a=0.4, omega_c=-0.1)
    probe = FilterProbe(big_g=0.05, beta=0.1, omega_f=0.2)
    liouv = build_liouvillian(params, 3, probe=probe, m_max=2)
    space = HilbertSpace(2, 3, 2)
    idx = _sector(space, charge)
    rng = np.random.default_rng(11)
    vec = np.zeros(space.dim**2, dtype=complex)
    vec[idx] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    out = liouv @ vec
    inside = np.zeros(out.size, dtype=bool)
    inside[idx] = True
    assert np.max(np.abs(out[inside])) > 0.1
    assert np.max(np.abs(out[~inside])) < 1e-14 * np.max(np.abs(out))


def test_superoperator_matches_matrix_form():
    # the kron assembly and the matrix form must agree on any operator,
    # including non-Hermitian ones such as the charge -1 block's vectors
    params = SystemParams(n_atoms=2, g=0.25, kappa=1.0, gamma=0.01, eta=0.2,
                          chi=0.03, omega_a=0.4, omega_c=-0.1)
    probe = FilterProbe(big_g=0.05, beta=0.1, omega_f=0.2)
    space = HilbertSpace(2, 3, 2)
    rng = np.random.default_rng(5)
    rho = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
    vec = build_liouvillian(params, 3, probe=probe, m_max=2) @ rho.reshape(-1)
    mat = apply_liouvillian(rho, hamiltonian(space, params, probe),
                            lindblad_channels(space, params, probe)).reshape(-1)
    assert np.linalg.norm(vec - mat) <= 1e-12 * np.linalg.norm(mat)


@pytest.mark.parametrize("with_filter", [False, True])
@pytest.mark.parametrize("charge", [-2, -1, 0, 1, 2])
def test_sector_block_is_the_slice_of_the_full_liouvillian(charge, with_filter):
    # V^T L V on the sector's slice of the product-basis L; the invariant
    # operators are closed under L, the filter's terms too, so L V = V V^T L V
    params = SystemParams(n_atoms=2, g=0.25, kappa=1.0, gamma=0.01, eta=0.2,
                          chi=0.03, omega_a=0.4, omega_c=-0.1)
    probe = FilterProbe(big_g=0.05, beta=0.1, omega_f=0.2) if with_filter else None
    m_max = 2 if with_filter else None
    full = build_liouvillian(params, 3, probe=probe, m_max=m_max)
    idx, v = _orbit_matrix(HilbertSpace(2, 3, m_max), charge)
    sector = full[idx][:, idx]
    block = v.T @ sector @ v
    assert abs(block).max() > 0.1
    assert abs(sector @ v - v @ block).max() <= 1e-15 * abs(full).max()
    if not with_filter:  # the oracle's block, built from counts, is this one, gauged
        orbits, counted = oracle._orbit_block(params, 3, charge)
        idx, v = _orbit_matrix(HilbertSpace(2, 3), charge, _oracle_numbering(orbits))
        projected = _in_oracle_basis(v.T @ sector @ v, orbits)
        assert abs(counted - projected).max() <= 1e-15 * abs(full).max()


@pytest.mark.parametrize("charge", [0, -1])
@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 5])
def test_count_built_block_is_the_projected_liouvillian(n_atoms, charge):
    params = SystemParams(n_atoms=n_atoms, g=0.25, kappa=1.0, gamma=0.01, eta=0.2,
                          chi=0.03, omega_a=0.4, omega_c=-0.1)
    orbits, block = oracle._orbit_block(params, 3, charge)
    space = HilbertSpace(n_atoms, 3)
    full = build_liouvillian(params, 3)
    idx, v = _orbit_matrix(space, charge, _oracle_numbering(orbits))
    projected = _in_oracle_basis(v.T @ full[idx][:, idx] @ v, orbits)
    assert abs(block).max() > 0.1
    assert abs(block - projected).max() <= 1e-14 * abs(full).max()
    # the orbit sizes of the multinomial formula are the counted ones
    assert np.allclose(orbits.sqrt_size, 1.0 / v.max(axis=0).toarray().ravel(),
                       rtol=1e-15, atol=0.0)


def test_single_atom_orbits_are_the_sector_entries():
    # at N = 1 nothing is reduced: every orbit is one entry of the sector
    space = HilbertSpace(1, 4)
    for charge in (-1, 0, 1):
        orbits = oracle._Orbits(1, 4, charge)
        assert orbits.nk.size == _sector(space, charge).size
        assert np.all(orbits.sqrt_size == 1.0)


def _full_sector_steady_state(params, n_max):
    """rho from an LU of the whole charge-0 sector of build_liouvillian,
    its rho[0, 0] row replaced by the trace functional."""
    space = HilbertSpace(params.n_atoms, n_max)
    d = space.dim
    idx = _sector(space, 0)
    block = build_liouvillian(params, n_max)[idx][:, idx].tolil()
    block[0, :] = (idx // d == idx % d).astype(complex)
    b = np.zeros(idx.size, dtype=complex)
    b[0] = 1.0
    vec = np.zeros(d * d, dtype=complex)
    vec[idx] = spla.splu(block.tocsc()).solve(b)
    rho = vec.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_stationary_state_equals_the_full_sector_solve(n_atoms):
    # the real half on resonance, the real adjoint form detuned with chi
    for extra in ({}, dict(chi=0.03, omega_a=0.4, omega_c=-0.1)):
        params = SystemParams(n_atoms=n_atoms, **DESK, **extra)
        result = oracle_steady_state(params, n_max=4)
        ref = _full_sector_steady_state(params, result.n_max)
        assert np.max(np.abs(result.rho - ref)) <= 1e-12


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_orbit_moments_equal_the_moments_of_the_lifted_rho(n_atoms):
    params = SystemParams(n_atoms=n_atoms, g=0.25, kappa=1.0, gamma=0.01, eta=0.2,
                          chi=0.03, omega_a=0.4, omega_c=-0.1)
    result = oracle_steady_state(params, n_max=4)
    lifted = moments_from_rho(HilbertSpace(result.n_atoms, result.n_max), result.rho).as_dict()
    for name, value in result.moments.as_dict().items():
        assert abs(value - lifted[name]) <= 1e-12 * max(1.0, abs(lifted[name])), name


def _stacked_real_solve(block, orbits):
    """The stationary x by an sp.vstack build of the real form: x = T z
    with x_o = z_r + i s z_P(r) on each Hermitian pair's representative r
    (s = -1 on its partner), the equations Re (B x)_r and, in row P(r),
    Im (B x)_r, all as sparse products; on resonance the representatives'
    half alone.  Row 0 is the trace functional.  Returns (x, whether the
    half was solved)."""
    n = orbits.nk.size
    every = np.arange(n)
    partner = orbits.find(orbits.nb, orbits.counts[[0, 2, 1, 3]])
    rep = np.minimum(every, partner)
    pair = partner != every
    s = np.where(every == rep, 1, -1)
    t = sp.csr_matrix((np.append(np.ones(n), 1j * s[pair]),
                       (np.append(every, every[pair]), np.append(rep, partner[rep][pair]))),
                      shape=(n, n))
    reps = np.flatnonzero(every == rep)
    paired = reps[pair[reps]]
    w = sp.csr_matrix((np.append(np.ones(reps.size), -1j * np.ones(paired.size)),
                       (np.append(reps, partner[paired]), np.append(reps, paired))), shape=(n, n))
    real = (w @ block @ t).real.tocsr()
    real.eliminate_zeros()
    trace = np.where(orbits.atom_diagonal() & (orbits.nk == orbits.nb), orbits.sqrt_size, 0.0)
    keep = every == rep
    half = real[keep][:, ~keep].nnz == 0 and real[~keep][:, keep].nnz == 0
    if half:
        real, trace = real[keep][:, keep], trace[keep]
    bordered = sp.vstack([sp.csr_matrix(trace), real[1:]]).tocsr()
    bordered.eliminate_zeros()
    b = np.zeros(bordered.shape[0])
    b[0] = 1.0
    z = spla.splu(bordered.tocsc()).solve(b)
    on = np.flatnonzero(trace)
    z = z / (trace[on] @ z[on])
    x = np.zeros(n, dtype=complex)
    if half:
        x.real = z[np.cumsum(keep)[rep] - 1]
    else:
        x.real = z[rep]
        x.imag = s * pair * z[partner[rep]]
    return x, half


def _complex_bordered_solve(block, orbits):
    """The stationary x by a complex LU of the block with its first row
    replaced by the trace functional, made Hermitian and of unit trace."""
    trace = np.where(orbits.atom_diagonal() & (orbits.nk == orbits.nb), orbits.sqrt_size, 0.0)
    b = np.zeros(block.shape[0], dtype=complex)
    b[0] = 1.0
    x = spla.splu(sp.vstack([sp.csr_matrix(trace.astype(complex)), block[1:]])
                  .tocsc()).solve(b)
    x = 0.5 * (x + x[orbits.find(orbits.nb, orbits.counts[[0, 2, 1, 3]])].conj())
    return x / (trace @ x).real


@pytest.mark.parametrize("n_atoms, extra", [
    (1, {}), (2, {}), (3, dict(chi=0.03, omega_a=0.1, omega_c=-0.05)),
    (4, dict(chi=0.03, omega_a=0.4)), (3, dict(g=0.0)), (2, dict(eta=0.0, omega_a=0.3)),
], ids=["n1", "n2", "n3-detuned-chi", "n4-detuned-chi", "n3-g0", "n2-eta0-detuned"])
def test_stationary_solve_equals_the_stacked_bordered_form_bit_for_bit(n_atoms, extra):
    # the real matrix that the cached fold sums with np.bincount is the one
    # that sparse products and sp.vstack build, so the solves agree byte
    # for byte; both agree with the complex bordered solve to round-off.
    # g = 0 and eta = 0 leave exact zeros in the block, which the fold sums
    # like any entry, and the LU leaves out with the real matrix's other zeros
    params = SystemParams(n_atoms=n_atoms, **{**DESK, **extra})
    resonant = params.omega_a == params.omega_c
    for n_max in (2, 6):
        orbits, block = oracle._orbit_block(params, n_max, 0)
        x, half = _stacked_real_solve(block, orbits)
        assert half == resonant
        got = oracle._solve_stationary(block, orbits)
        assert got.tobytes() == x.tobytes()
        assert np.max(np.abs(got - _complex_bordered_solve(block, orbits))) <= 1e-12
        assert np.array_equal(got[orbits.find(orbits.nb, orbits.counts[[0, 2, 1, 3]])],
                              got.conj())


def test_stationary_solve_factors_the_orbit_block(monkeypatch):
    # N = 3, n_max = 6: the charge-0 sector's 388 entries fall in 118 orbits,
    # 42 of them their own Hermitian partners; on resonance the real solve
    # has one unknown per pair, 80, detuned one per orbit
    assert _sector(HilbertSpace(3, 6), 0).size == 388
    shapes = []
    _count_calls(monkeypatch, "_factor", shapes, lambda args: (args[0].shape, args[0].dtype))
    for extra in ({}, dict(chi=0.03, omega_a=0.4)):
        oracle._steady_once(SystemParams(n_atoms=3, **DESK, **extra), 6)
    assert shapes == [((80, 80), np.float64), ((118, 118), np.float64)]


@pytest.mark.parametrize("charge", [0, -1])
@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_gauged_blocks_are_real_exactly_on_resonance(n_atoms, charge):
    # the phase i^(nk - nb) of each orbit operator turns the -+i g of every
    # photon move into a real entry, which the bare orbit operators leave
    # imaginary; off resonance the detuning leaves the diagonal complex
    for name, kw in BLOCK_CASES.items():
        params = SystemParams(n_atoms=n_atoms, **kw)
        for n_max in (2, 5):
            orbits, block = oracle._orbit_block(params, n_max, charge)
            phase = _gauge_phase(orbits)
            bare = sp.diags(phase) @ block @ sp.diags(phase.conj())
            assert abs(bare.imag).max() > 0 or params.g == 0.0, name
            if params.omega_a == params.omega_c == 0.0:
                assert abs(block.imag).max() == 0.0, name
            else:
                assert abs(block.imag).max() > 0.0, name


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_gauge_leaves_every_off_diagonal_entry_real(n_atoms):
    # the adjoint form folds Im parts from diagonal entries alone; detuned
    # with chi, every place it keeps is nonzero, so bordered drops nothing
    params = SystemParams(n_atoms=n_atoms, **DESK, chi=0.03, omega_a=0.4, omega_c=-0.1)
    for n_max in (2, 5):
        orbits, block = oracle._orbit_block(params, n_max, 0)
        off = orbits.move != oracle._DIAGONAL
        assert block.nnz == off.size and np.all(block.data.imag[off] == 0.0)
        assert np.all(orbits.adjoint_form.bordered(block.data) != 0.0)


def test_common_frame_frequency_solves_the_real_half(monkeypatch):
    # omega_a = omega_c = w leaves the gauged charge-0 block exactly real, so
    # the stationary state is the w = 0 one byte for byte; the charge -1
    # block keeps i w on its diagonal, so that spectrum stays complex
    shapes = []
    _count_calls(monkeypatch, "_factor", shapes,
                 lambda args: (args[1], args[0].shape, args[0].dtype))
    common = SystemParams(n_atoms=3, **DESK, omega_a=0.3, omega_c=0.3)
    x = oracle._steady_once(common, 6).x
    assert [s for _, *s in shapes] == [[(80, 80), np.float64]]
    assert x.tobytes() == oracle._steady_once(SystemParams(n_atoms=3, **DESK), 6).x.tobytes()
    assert np.all(oracle._orbit_block(common, 6, -1)[1].diagonal().imag == 0.3)
    shapes.clear()
    oracle_spectrum(common, 6, np.linspace(-1.0, 1.0, 5))
    assert [s[2] for s in shapes if s[0] == "undamped correlation"] == [np.complex128]


def test_trace_functional_is_left_null_vector():
    params = SystemParams(n_atoms=3, g=0.25, kappa=1.0, gamma=0.01, eta=0.2,
                          chi=0.03, omega_a=0.4)
    liouv = build_liouvillian(params, 4)
    d = HilbertSpace(params.n_atoms, 4).dim
    trace_vec = np.zeros(d * d)
    trace_vec[np.arange(d) * (d + 1)] = 1.0
    assert np.max(np.abs(trace_vec @ liouv)) < 1e-12


def test_stationary_state_annihilates_all_moment_derivatives(desk3_result):
    params, result = desk3_result
    derivs = moment_derivatives(params, result.rho, HilbertSpace(result.n_atoms, result.n_max))
    assert set(derivs) == {"photon_number", "atom_photon", "inversion", "pair_corr"}
    for value in derivs.values():
        assert abs(value) < 1e-12


def test_steady_state_density_matrix_invariants(desk3_result):
    _, result = desk3_result
    assert abs(np.trace(result.rho) - 1.0) < 1e-12
    assert np.max(np.abs(result.rho - result.rho.conj().T)) == 0.0
    assert np.linalg.eigvalsh(result.rho)[0] > -1e-9
    assert result.residual < 1e-12


def test_steady_state_is_permutation_symmetric(desk3_result):
    _, result = desk3_result
    space, rho = HilbertSpace(result.n_atoms, result.n_max), result.rho
    sz_vals = [np.trace(space.sz[i] @ rho).real for i in range(3)]
    assert np.ptp(sz_vals) < 1e-10
    pair_vals = [
        np.trace(space.sp[i] @ space.sm[j] @ rho)
        for i in range(3) for j in range(3) if i != j
    ]
    assert np.max(np.abs(np.diff(pair_vals))) < 1e-10


def test_pump_derivative_from_ground_vacuum():
    params = SystemParams(n_atoms=1, g=0.2, kappa=1.0, gamma=0.3, eta=0.4)
    space = HilbertSpace(params.n_atoms, 4)
    rho = product_state(space, [1.0], (0.0, 0.0, -1.0))
    derivs = moment_derivatives(params, rho, space)
    # from the ground state only the pump acts: d<sigma_z>/dt = 2 eta
    assert abs(derivs["inversion"] - 2.0 * params.eta) < 1e-13
    assert abs(derivs["photon_number"]) < 1e-13
    assert abs(derivs["atom_photon"]) < 1e-13


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_orbit_derivatives_of_product_states_match_the_matrix_form(n_atoms):
    # derivative_match_error's states and route against moment_derivatives
    params = SystemParams(n_atoms=n_atoms, chi=0.03, omega_a=0.4, omega_c=-0.3, **DESK)
    orbits, block = oracle._orbit_block(params, oracle.CHECK_N_MAX, 0)
    space = HilbertSpace(n_atoms, oracle.CHECK_N_MAX)
    rng = np.random.default_rng(oracle.CHECK_SEED)
    for _ in range(5):
        amps, bloch = oracle._random_product_inputs(rng)
        x = oracle._product_orbit_state(orbits, amps, bloch)
        rho = product_state(space, amps, bloch)
        moments = oracle._orbit_moments(orbits, x).as_dict()
        for name, value in moments_from_rho(space, rho).as_dict().items():
            assert abs(moments[name] - value) <= 1e-12 * abs(value), name
        derivs = oracle._orbit_moments(orbits, block @ x)
        for name, value in moment_derivatives(params, rho, space).items():
            assert abs(getattr(derivs, name) - value) <= 1e-12 * abs(value), name


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_residual_is_the_matrix_form_residual(n_atoms):
    params = SystemParams(n_atoms=n_atoms, chi=0.03, omega_a=0.4, omega_c=-0.3, **DESK)
    result = oracle_steady_state(params, n_max=4)
    space = HilbertSpace(result.n_atoms, result.n_max)
    h, channels = hamiltonian(space, params), lindblad_channels(space, params)
    matrix = apply_liouvillian(result.rho, h, channels)
    assert abs(result.residual - np.max(np.abs(matrix))) <= 1e-15
    # the stationary residual is round-off; off the stationary state the
    # same read-off is the matrix form's max |L rho| to round-off
    orbits, block = oracle._orbit_block(params, result.n_max, 0)
    x = orbits.sqrt_size * np.random.default_rng(n_atoms).normal(size=orbits.nk.size) + 0j
    matrix = apply_liouvillian(oracle._orbit_rho(orbits, x), h, channels)
    assert abs(oracle._max_entry(orbits, block @ x) / np.max(np.abs(matrix)) - 1.0) < 1e-12


def test_closure_rhs_is_exact_on_product_states():
    params = SystemParams(n_atoms=2, g=0.25, kappa=1.0, gamma=0.01, eta=0.2,
                          chi=0.03)
    assert derivative_match_error(params, n_states=5) < 1e-10


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_batched_derivative_check_equals_the_per_state_loop(n_atoms):
    # the states' moments and derivatives come from one stacked moment call,
    # and each row rounds as that state's own one-row call
    from srlaser.cumulant import MomentState, rhs

    params = SystemParams(n_atoms=n_atoms, chi=0.03, omega_a=0.1, **DESK)
    rng = np.random.default_rng(oracle.CHECK_SEED)
    orbits, block = oracle._orbit_block(params, oracle.CHECK_N_MAX, 0)
    states = [oracle._product_orbit_state(orbits, *oracle._random_product_inputs(rng))
              for _ in range(6)]
    rows = oracle._moment_rows(orbits, np.array(states))
    names = ["photon_number", "atom_photon", "inversion", "pair_corr"][:3 + (n_atoms >= 2)]
    worst = 0.0
    for i, x in enumerate(states):
        mom, exact = oracle._orbit_moments(orbits, x), oracle._orbit_moments(orbits, block @ x)
        assert [f[i] for f in rows] == list(mom.as_dict().values())
        approx = rhs(MomentState(mom.photon_number, mom.atom_photon, mom.inversion,
                                 mom.pair_corr), params)
        pairs = [(getattr(exact, k), getattr(approx, k)) for k in names]
        floor = 1e-3 * max(max(abs(a), abs(b)) for a, b in pairs)
        for a, b in pairs:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), floor, 1e-300))
    assert derivative_match_error(params, n_states=6) == worst


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_stacked_product_states_equal_the_per_state_ones(n_atoms):
    # the derivative check builds its states as one array; each row has the
    # bytes of that state's own one-state build
    orbits = oracle._sector(n_atoms, oracle.CHECK_N_MAX, 0)
    rng = np.random.default_rng(oracle.CHECK_SEED)
    amps, bloch = zip(*(oracle._random_product_inputs(rng) for _ in range(7)))
    stacked = oracle._product_orbit_state(orbits, np.array(amps), np.array(bloch))
    assert stacked.shape == (7, orbits.nk.size)
    for row, a, r in zip(stacked, amps, bloch):
        assert row.tobytes() == oracle._product_orbit_state(orbits, a, r).tobytes()
    # each vector is normalised by np.linalg.norm's bytes
    padded = np.zeros((7, 9), dtype=complex)
    padded[:, :4] = amps
    assert oracle._unit_vector(np.array(amps), 9).tobytes() \
        == np.array([v / np.linalg.norm(v) for v in padded]).tobytes()
    with pytest.raises(ValueError, match="zero"):
        oracle._unit_vector(np.array([amps[0], np.zeros(4)]), 9)
    with pytest.raises(ValueError, match="Bloch"):
        oracle._atom_state(np.array([bloch[0], (0.9, 0.9, 0.9)]))


# -------------------------------------------------------------- cutoff control

def test_cutoff_is_raised_until_moments_converge():
    params = SystemParams(n_atoms=3, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
    result = oracle_steady_state(params, n_max=4)
    # 0.27 photons need a Fock ladder well beyond the starting guess
    assert result.n_max == 10
    assert abs(result.moments.photon_number - 0.273060) < 1e-4


def _cap_at(monkeypatch, n_atoms, n_max):
    """Lowers MAX_ORBITS to the charge-0 orbits at (n_atoms, n_max), so the
    climb's next cutoff is over the cap; _orbit_count is cached per cap."""
    monkeypatch.setattr(oracle, "MAX_ORBITS", int(oracle._orbit_count(n_atoms, n_max, 0, 2**15)))


def test_cutoff_error_reports_residual_drift(monkeypatch):
    # desk N = 3 from n_max = 0 converges at 10; a cap at 6 stops it with
    # the drift between 4 and 6
    params = SystemParams(n_atoms=3, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
    assert oracle_steady_state(params, n_max=0).n_max == 10
    _cap_at(monkeypatch, 3, 6)
    with pytest.raises(CutoffError, match="drift") as excinfo:
        oracle_steady_state(params, n_max=0)
    low, high = (oracle._steady_once(params, k).moments for k in (4, 6))
    assert excinfo.value.drift == oracle._moment_drift(low, high) > 1e-6


def _count_calls(monkeypatch, name, log, key):
    real = getattr(oracle, name)

    def counted(*args):
        log.append(key(args))
        return real(*args)

    monkeypatch.setattr(oracle, name, counted)


def test_climb_assembles_each_cutoff_once(monkeypatch):
    # each round's upper solve is the next round's lower one
    params = SystemParams(n_atoms=3, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
    cutoffs = []
    _count_calls(monkeypatch, "_orbit_block", cutoffs, lambda args: args[1])
    assert oracle_steady_state(params, n_max=6).n_max == 10
    assert cutoffs == [6, 8, 10]


def test_spectrum_reuses_the_stationary_liouvillian(monkeypatch):
    # every cutoff builds its charge-0 block once; the spectrum builds the
    # returned cutoff's charge -1 block once, and nothing else
    params = SystemParams(n_atoms=1, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
    assembled, solved = [], []
    _count_calls(monkeypatch, "_orbit_block", assembled, lambda args: args[1:])
    _count_calls(monkeypatch, "_solve_stationary", solved, lambda args: args[1].n_max)
    oracle_spectrum(params, n_max=4, omega_grid=np.linspace(-1.0, 1.0, 5))
    assert solved == [4, 6]
    assert assembled == [(4, 0), (6, 0), (6, -1)]


def test_rho_is_lifted_once_and_only_when_read(monkeypatch):
    # the climb, the moments and the residual work on orbit coordinates;
    # rho is lifted from them on its first read and kept, and neither the
    # spectrum nor the derivative checks lift anything
    params = SystemParams(n_atoms=3, chi=0.03, **DESK)
    lifts = []
    _count_calls(monkeypatch, "_orbit_rho", lifts, lambda args: args[0].n_max)
    result = oracle_steady_state(params, n_max=6)
    assert result.n_max == 10 and result.residual < 1e-12 and lifts == []
    assert result.rho is result.rho
    assert result.rho.shape == (88, 88)
    assert lifts == [10]
    oracle_spectrum(params, n_max=6, omega_grid=np.linspace(-1.0, 1.0, 5))
    assert derivative_match_error(params, n_states=3) < 1e-10
    assert lifts == [10]


def test_consistency_report_lifts_only_its_n2_validity_state(monkeypatch):
    lifts = []
    _count_calls(monkeypatch, "_orbit_rho", lifts, lambda args: args[0].n_atoms)
    assert all(check["pass"] for check in oracle.consistency_report())
    assert lifts == [2]


def test_six_atom_state_is_measured_without_a_lift_or_eigenvalues(monkeypatch):
    # N = 6 from n_max = 6 returns n_max = 12, where the lifted rho is
    # 832 x 832; its moments and residual never need it
    lifts, eigvals = [], []
    _count_calls(monkeypatch, "_orbit_rho", lifts, lambda args: None)
    real_eigvalsh = np.linalg.eigvalsh

    def counted_eigvalsh(*args, **kwargs):
        eigvals.append(None)
        return real_eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    result = oracle_steady_state(SystemParams(n_atoms=6, **DESK), n_max=6)
    assert result.n_max == 12
    assert result.moments.photon_number == pytest.approx(0.5449, abs=1e-4)
    assert result.residual < 1e-12
    assert lifts == [] and eigvals == []


def test_cutoff_error_names_the_highest_cutoff_solved(monkeypatch):
    # the climb stops where the next cutoff is over MAX_ORBITS, and the
    # MemoryBudgetError that stopped it is the cause
    params = SystemParams(n_atoms=3, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
    _cap_at(monkeypatch, 3, 6)
    with pytest.raises(CutoffError, match="at n_max=6; the next cutoff") as excinfo:
        oracle_steady_state(params, n_max=0)
    assert isinstance(excinfo.value.__cause__, MemoryBudgetError)
    assert "n_max = 8" in str(excinfo.value.__cause__)


def test_cap_over_the_first_upper_cutoff_raises_without_a_drift(monkeypatch):
    params = SystemParams(n_atoms=3, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
    _cap_at(monkeypatch, 3, 4)
    with pytest.raises(CutoffError, match="no drift yet at n_max=4;") as excinfo:
        oracle_steady_state(params, n_max=4)
    assert excinfo.value.drift is None
    assert isinstance(excinfo.value.__cause__, MemoryBudgetError)
    with pytest.raises(CutoffError, match="no drift yet at n_max=4;"):
        oracle_spectrum(params, n_max=4, omega_grid=np.linspace(-1.0, 1.0, 5))


@pytest.mark.parametrize("n_atoms, converged", [(8, 14), (10, 16)])
def test_default_start_climbs_until_the_moments_converge(n_atoms, converged):
    # no round count stops the climb: from the default n_max = 6 it lands
    # on the cutoff, and the bytes, of the climb started at n_max = N
    params = SystemParams(n_atoms=n_atoms, **DESK)
    result = oracle_steady_state(params)
    assert result.n_max == converged
    assert result.x.tobytes() == oracle_steady_state(params, n_max=n_atoms).x.tobytes()


def test_space_validation_and_memory_budget():
    with pytest.raises(ValueError):
        HilbertSpace(0, 4)
    with pytest.raises(ValueError):
        HilbertSpace(2, -1)
    with pytest.raises(MemoryBudgetError):
        HilbertSpace(6, 16)
    assert HilbertSpace(7, 2).dim == 384  # the reference caps d, not N
    # the solves are capped by orbits alone, the lift by d^2
    assert (oracle.MAX_ORBITS, oracle.MAX_SUPEROP_DIM) == (2**15, 2**20)
    with pytest.raises(ValueError):
        oracle._Orbits(0, 4, 0)
    with pytest.raises(ValueError):
        oracle._Orbits(2, -1, 0)
    assert oracle._Orbits(30, 11, 0).nk.size == 28_552
    with pytest.raises(MemoryBudgetError, match="at least 32778 orbits"):
        oracle._Orbits(30, 12, 0)


@pytest.mark.parametrize("n_max", [2.5, 6.0, "6", True, np.True_])
def test_non_integer_cutoff_raises_value_error_before_any_work(n_max):
    # the check runs before the sector cache is asked, so no sector is built
    params = SystemParams(n_atoms=2, **DESK)
    info = oracle._sector.cache_info()
    with pytest.raises(ValueError, match="n_max must be an integer"):
        oracle_steady_state(params, n_max=n_max)
    with pytest.raises(ValueError, match="n_max must be an integer"):
        oracle_spectrum(params, n_max, np.linspace(-1.0, 1.0, 5))
    assert oracle._sector.cache_info() == info


def test_numpy_integer_cutoff_is_accepted():
    params = SystemParams(n_atoms=2, **DESK)
    result = oracle_steady_state(params, n_max=np.int64(4))
    assert result.n_max == 8
    assert result.moments == oracle_steady_state(params, n_max=4).moments
    grid = np.linspace(-1.0, 1.0, 9)
    assert np.array_equal(oracle_spectrum(params, np.int32(4), grid).intensity,
                          oracle_spectrum(params, 4, grid).intensity)


@pytest.mark.parametrize("n_states", [0, -1])
def test_derivative_check_needs_a_state(monkeypatch, n_states):
    monkeypatch.setattr(oracle, "_orbit_block", None)  # no block is built
    with pytest.raises(ValueError, match="n_states >= 1"):
        derivative_match_error(SystemParams(n_atoms=2, **DESK), n_states=n_states)


@pytest.mark.parametrize("n_states", [2.0, "2", 2.5, True, np.True_])
def test_non_integer_state_count_raises_value_error(monkeypatch, n_states):
    monkeypatch.setattr(oracle, "_orbit_block", None)  # no block is built
    with pytest.raises(ValueError, match="n_states must be an integer"):
        derivative_match_error(SystemParams(n_atoms=2, **DESK), n_states=n_states)


def test_spectrum_without_a_positive_peak_raises(monkeypatch):
    # the reduced model's spectrum decides; a grid where it is nowhere
    # positive is a typed error, not a normalisation by a non-positive peak
    def no_peak(lu, x, ad_vec, omega):
        return oracle._Model(None, None, -np.ones_like(omega))

    monkeypatch.setattr(oracle, "_reduced_model", no_peak)
    with pytest.raises(SimulationError, match="no positive peak"):
        oracle_spectrum(SystemParams(n_atoms=1, **DESK), n_max=4,
                        omega_grid=np.linspace(-1.0, 1.0, 5))


@pytest.mark.parametrize("n_atoms, n_max, charge", [
    (1, 0, 0), (1, 3, -1), (2, 0, 2), (2, 5, 2), (5, 1, -2), (7, 2, 0), (12, 0, 1), (9, 20, -1)])
def test_orbit_count_is_checked_exactly(monkeypatch, n_atoms, n_max, charge):
    # the closed-form count is the number of orbits built
    size = oracle._Orbits(n_atoms, n_max, charge).nk.size
    monkeypatch.setattr(oracle, "MAX_ORBITS", size)
    assert oracle._Orbits(n_atoms, n_max, charge).nk.size == size
    monkeypatch.setattr(oracle, "MAX_ORBITS", size - 1)
    with pytest.raises(MemoryBudgetError, match=f"at least {size} orbits"):
        oracle._Orbits(n_atoms, n_max, charge)


def test_over_cap_atom_number_raises_before_any_large_allocation():
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError, match="MAX_ORBITS"):
            oracle_steady_state(SystemParams(n_atoms=10**6, **DESK))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 50e6


def test_seven_atom_stationary_state_lifts_to_a_stationary_rho():
    # N = 7, n_max = 2: d = 384, past the product-basis cap of N = 6
    params = SystemParams(n_atoms=7, **DESK)
    stationary = oracle._steady_once(params, 2)
    rho = oracle._orbit_rho(stationary.orbits, stationary.x)
    space = HilbertSpace(7, 2)
    resid = apply_liouvillian(rho, hamiltonian(space, params), lindblad_channels(space, params))
    assert rho.shape == (384, 384)
    assert np.max(np.abs(resid)) < 1e-12


def test_ten_atom_state_is_solved_but_too_large_to_lift():
    # from n_max = 10 the climb returns n_max = 16 (4,022 orbits); the
    # lifted rho would have (17 * 2**10)^2 entries
    result = oracle_steady_state(SystemParams(n_atoms=10, **DESK), n_max=10)
    assert result.n_max == 16
    assert result.moments.photon_number == pytest.approx(0.90876, abs=1e-4)
    assert result.residual < 1e-12
    with pytest.raises(MemoryBudgetError, match="lifted rho"):
        result.rho


def test_largest_block_of_the_product_cap_is_still_solved_and_lifted():
    # N = 2, n_max = 255 was the largest block under d^2 <= 2**20; one
    # cutoff more is still solved but no longer lifts
    result = oracle._steady_once(SystemParams(n_atoms=2, **DESK), 255)
    orbits, x = result.orbits, result.x
    assert orbits.nk.size == 2552
    assert result.residual < 1e-12
    assert oracle._orbit_rho(orbits, x).shape == (1024, 1024)
    bigger = oracle._Orbits(2, 256, 0)
    with pytest.raises(MemoryBudgetError, match="lifted rho"):
        oracle._orbit_rho(bigger, np.zeros(bigger.nk.size, dtype=complex))


# ---------------------------------------------------------------- sector cache

BLOCK_CASES = {
    "desk": DESK,
    "desk-chi-detuned": dict(DESK, chi=0.03, omega_a=0.4, omega_c=-0.1),
    "g0": dict(DESK, g=0.0),
    "eta0": dict(DESK, eta=0.0),
    "gamma0": dict(DESK, gamma=0.0),
    "kappa0": dict(DESK, kappa=0.0),
    "lossless-detuned": dict(DESK, kappa=0.0, gamma=0.0, omega_a=0.3),
}


def _csr_bytes(block):
    """The bytes of block's nonzero entries in CSR form: values, places and
    row starts.  A cached block is CSC and keeps its exact zeros on the
    sector's pattern, and the direct COO build is CSR and leaves zero
    amplitudes out, so both are taken to CSR and drop them here."""
    block = block.tocsr(copy=True)
    block.eliminate_zeros()
    return [(a.dtype.str, a.tobytes()) for a in (block.data, block.indices, block.indptr)]


@pytest.mark.parametrize("charge", [-1, 0, 1])
@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_cached_block_equals_a_cold_build_byte_for_byte(n_atoms, charge):
    # a cold build (cache cleared) gives the direct COO build's CSR arrays,
    # and so does every later build of the sector for any parameters
    cases = [(SystemParams(n_atoms=n_atoms, **kw), n_max)
             for kw in BLOCK_CASES.values() for n_max in (0, 2, 5)]

    def built(params, n_max):
        # every block sits on its sector's whole pattern, exact zeros included
        orbits, block = oracle._orbit_block(params, n_max, charge)
        assert np.array_equal(block.indices, orbits.indices)
        assert np.array_equal(block.indptr, orbits.indptr)
        return _csr_bytes(block)

    cold = []
    for params, n_max in cases:
        oracle._sector.cache_clear()
        cold.append(built(params, n_max))
        assert cold[-1] == _csr_bytes(coo_orbit_block(params, n_max, charge))
    for (params, n_max), expected in zip(cases, cold):
        assert built(params, n_max) == expected
    # since the last clear: one sector per cutoff, every other build a hit
    assert oracle._sector.cache_info().misses == 3


@pytest.mark.parametrize("charge", [-1, 0, 1])
@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_csc_block_products_keep_the_csr_bytes(n_atoms, charge):
    # scipy's CSC products add into y[i] in increasing column order, as its
    # CSR row sums do, so the residual (block @ x) and the derivative check
    # (block @ states.T) read the bytes a CSR block gives; the spectrum's
    # pattern is the sector's own arrays, not a copy
    rng = np.random.default_rng(5)
    for kw in BLOCK_CASES.values():
        for n_max in (2, 5):
            orbits, block = oracle._orbit_block(SystemParams(n_atoms=n_atoms, **kw), n_max,
                                                charge)
            csr = block.tocsr()
            n = block.shape[0]
            vectors = [rng.normal(size=shape) + 1j * rng.normal(size=shape)
                       for shape in ((n,), (n, 1), (n, 5), (5, n))]
            vectors[-1] = vectors[-1].T  # a transposed view, as states.T
            for v in vectors:
                assert (block @ v).tobytes() == (csr @ v).tobytes()
            assert orbits.pattern.indices is orbits.indices
            assert orbits.pattern.indptr is orbits.indptr


def _oracle_small_outputs():
    """The bytes of every output of one oracle_small benchmark pass."""
    grid = np.linspace(-1.0, 1.0, 41)
    steady = oracle_steady_state(SystemParams(n_atoms=3, **DESK), n_max=6)
    return [json.dumps(oracle.consistency_report()), steady.x.tobytes(),
            repr(steady.moments), repr(steady.residual)] + [
        oracle_spectrum(SystemParams(n_atoms=n, **DESK), n_max=4, omega_grid=grid)
        .intensity.tobytes() for n in (1, 2)]


def test_oracle_small_outputs_are_the_same_cold_and_warm():
    # one pass builds 12 sectors, all of which the cache keeps: a second
    # pass builds none and returns the same bytes
    oracle._sector.cache_clear()
    cold = _oracle_small_outputs()
    assert oracle._sector.cache_info().misses == 12
    assert oracle._sector.cache_parameters()["maxsize"] == oracle.SECTOR_CACHE == 16
    assert _oracle_small_outputs() == cold
    assert oracle._sector.cache_info().misses == 12


PIN_CASES = {  # name: (N, parameters, n_max of the steady state and the spectrum)
    "desk-n1": (1, DESK, 4),
    "desk-n2": (2, DESK, 4),
    "desk-n3": (3, DESK, 6),
    "detuned-chi-n3": (3, dict(DESK, chi=0.03, omega_a=0.3), 4),
    "detuned-both-n2": (2, dict(DESK, chi=0.03, omega_a=0.1, omega_c=-0.05), 4),
    "common-frame-n3": (3, dict(DESK, omega_a=0.3, omega_c=0.3), 4),
    "g0-n3": (3, dict(DESK, g=0.0), 4),
    "eta0-n2": (2, dict(DESK, eta=0.0), 4),
}


def _pinned_output_hashes():
    """sha256 of every public oracle output on PIN_CASES: the oracle-check
    JSON, then per case the moments and residual by repr, the lifted rho and
    the spectrum by bytes, and derivative_match_error by repr.  The orbit
    coordinates are left out: they are not an output."""
    grid = np.linspace(-1.0, 1.0, 41)
    found = {"consistency_report": json.dumps(oracle.consistency_report()).encode()}
    for name, (n_atoms, kw, n_max) in PIN_CASES.items():
        params = SystemParams(n_atoms=n_atoms, **kw)
        steady = oracle_steady_state(params, n_max=n_max)
        found[f"{name}/moments"] = repr(steady.moments).encode()
        found[f"{name}/residual"] = repr(steady.residual).encode()
        found[f"{name}/rho"] = steady.rho.tobytes()
        found[f"{name}/spectrum"] = oracle_spectrum(params, n_max, grid).intensity.tobytes()
        found[f"{name}/derivative_match_error"] = repr(
            derivative_match_error(params, n_states=5)).encode()
    return {key: hashlib.sha256(value).hexdigest() for key, value in found.items()}


def test_oracle_outputs_keep_their_recorded_bytes():
    # a change to the oracle that claims to keep every output bit for bit
    # must leave these hashes as they are; one that moves a byte on purpose
    # records the new hashes in oracle_output_sha256.json and says why
    recorded = json.loads((Path(__file__).parent / "oracle_output_sha256.json").read_text())
    assert _pinned_output_hashes() == recorded


SPLIT_CASES = {  # name: parameters; g0, eta0 and gamma0 leave zeros that no LU factors
    "resonant": DESK,
    "equal-rates": dict(g=0.25, kappa=1.0, gamma=0.25, eta=0.25),  # pivots tie
    "detuned-chi": dict(DESK, chi=0.03, omega_a=0.4, omega_c=-0.1),
    "g0": dict(DESK, g=0.0),
    "eta0": dict(DESK, eta=0.0),
    "gamma0": dict(DESK, gamma=0.0),
}


def _split_outputs(params):
    """The bytes of a charge-0 solve at n_max = 4 and of a spectrum."""
    return (oracle._steady_once(params, 4).x.tobytes(),
            oracle_spectrum(params, 4, np.linspace(-2.0, 2.0, 21)).intensity.tobytes())


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_a_sector_factored_before_skips_the_ordering_bit_for_bit(monkeypatch, n_atoms):
    # each pattern, whole or pruned, keeps the column order of its first
    # LU, and later LUs factor numbers only (permc_spec="NATURAL").  Either
    # way a solve gives the bytes of a cold one, whatever the cache has seen
    fresh = {}
    for name, kw in SPLIT_CASES.items():
        oracle._sector.cache_clear()
        fresh[name] = _split_outputs(SystemParams(n_atoms=n_atoms, **kw))
    orders, splu = [], spla.splu

    def recording(matrix, **options):
        orders.append(options.get("permc_spec"))
        return splu(matrix, **options)

    monkeypatch.setattr(spla, "splu", recording)
    oracle._sector.cache_clear()
    for name, kw in SPLIT_CASES.items():
        params = SystemParams(n_atoms=n_atoms, **kw)
        assert _split_outputs(params) == fresh[name], name
        orders.clear()
        assert _split_outputs(params) == fresh[name], name
        assert orders and set(orders) == {"NATURAL"}, name


def test_orbit_cap_holds_on_a_cached_sector(monkeypatch):
    params = SystemParams(n_atoms=2, **DESK)
    orbits, _ = oracle._orbit_block(params, 4, 0)  # cached under the default cap
    info = oracle._sector.cache_info()
    monkeypatch.setattr(oracle, "MAX_ORBITS", orbits.nk.size - 1)
    with pytest.raises(MemoryBudgetError, match=f"at least {orbits.nk.size} orbits"):
        oracle._orbit_block(params, 4, 0)
    monkeypatch.undo()
    with pytest.raises(MemoryBudgetError, match="MAX_ORBITS"):
        oracle._orbit_block(SystemParams(n_atoms=30, **DESK), 12, 0)
    # neither over-cap request reached the cache
    assert oracle._sector.cache_info() == info
    assert oracle._orbit_block(params, 4, 0)[0] is orbits


def test_cached_sectors_are_read_only():
    orbits, block = oracle._orbit_block(SystemParams(n_atoms=2, **DESK), 4, -1)
    sector = oracle._sector(2, 4, -1)
    for shared in (orbits.nk, orbits.counts, orbits.ad_vec, sector.indices, *sector.factors):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0
    block.data[0] = 0.0  # the values are the caller's own


# ------------------------------------------------------- state/grid validation

def test_product_state_normalizes_and_validates():
    params = SystemParams(n_atoms=2, g=0.1, kappa=1.0, gamma=0.1, eta=0.1)
    space = HilbertSpace(params.n_atoms, 3)
    rho_scaled = product_state(space, [2.0, 0.0], (0.0, 0.0, -1.0))
    rho_unit = product_state(space, [1.0], (0.0, 0.0, -1.0))
    assert np.max(np.abs(rho_scaled - rho_unit)) < 1e-14
    with pytest.raises(ValueError, match="zero"):
        product_state(space, [0.0, 0.0], (0.0, 0.0, -1.0))
    with pytest.raises(ValueError, match="Bloch"):
        product_state(space, [1.0], (0.9, 0.9, 0.9))
    with pytest.raises(ValueError, match="filter"):
        product_state(space, [1.0], (0.0, 0.0, -1.0), filter_amps=[1.0])


def test_product_state_puts_the_filter_in_vacuum_by_default():
    space = HilbertSpace(2, 2, m_max=2)
    rho = product_state(space, [1.0, 1.0], (0.0, 0.0, -1.0))
    explicit = product_state(space, [1.0, 1.0], (0.0, 0.0, -1.0), filter_amps=[1.0])
    assert np.array_equal(rho, explicit)
    assert np.trace(space.fd @ space.f @ rho).real == 0.0


def test_hamiltonian_rejects_a_probe_without_a_filter_mode():
    params = SystemParams(n_atoms=1, g=0.1, kappa=1.0, gamma=0.1)
    probe = FilterProbe(big_g=1e-3, beta=0.1, omega_f=0.0)
    with pytest.raises(ValueError, match="without a filter mode"):
        hamiltonian(HilbertSpace(1, 2), params, probe)


def test_moment_derivatives_rejects_mismatched_state():
    params = SystemParams(n_atoms=2, g=0.1, kappa=1.0, gamma=0.1, eta=0.1)
    small = HilbertSpace(params.n_atoms, 2)
    big = HilbertSpace(params.n_atoms, 4)
    rho = product_state(big, [1.0], (0.0, 0.0, -1.0))
    with pytest.raises(ValueError, match="does not match"):
        moment_derivatives(params, rho, small)


def test_spectrum_rejects_degenerate_grid():
    params = SystemParams(n_atoms=1, g=0.1, kappa=1.0, gamma=0.1, eta=0.2)
    with pytest.raises(ValueError):
        oracle_spectrum(params, n_max=2, omega_grid=[0.0])


def test_liouvillian_probe_requires_filter_cutoff():
    from srlaser.spectrum import FilterProbe

    params = SystemParams(n_atoms=1, g=0.1, kappa=1.0, gamma=0.1, eta=0.2)
    probe = FilterProbe(big_g=1e-3, beta=0.1)
    with pytest.raises(ValueError, match="m_max"):
        build_liouvillian(params, 2, probe=probe)


# ------------------------------------------------------------- collective spin

def test_dicke_basis_diagonalizes_collective_spin():
    states = dicke_basis(3)
    assert len(states) == 8
    labels = sorted((j, m) for j, m, _ in states)
    expected = sorted(
        [(1.5, m) for m in (-1.5, -0.5, 0.5, 1.5)]
        + [(0.5, m) for m in (-0.5, 0.5)] * 2
    )
    assert labels == expected
    ops = atomic_collective_ops(3)
    for j, m, vec in states:
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-10
        assert np.linalg.norm(ops["j2"] @ vec - j * (j + 1) * vec) < 1e-9
        assert np.linalg.norm(ops["jz"] @ vec - m * vec) < 1e-9


def test_collective_ladder_matrix_elements():
    # <J, M-1| J^- |J, M> magnitude is sqrt((J + M)(J - M + 1))
    states = dicke_basis(2)
    ops = atomic_collective_ops(2)
    by_label = {(j, m): vec for j, m, vec in states}
    top = by_label[(1.0, 1.0)]
    mid = by_label[(1.0, 0.0)]
    amp = abs(mid.conj() @ (ops["jm"] @ top))
    assert abs(amp - np.sqrt(2.0)) < 1e-10
