"""Second-order moment-closure dynamics of the atom-cavity laser.

Tracks the closed set {<a^dag a>, <a sigma_1^+>, <sigma_1^z>,
<sigma_1^+ sigma_2^->} under permutation symmetry.  Third-order cumulants
are dropped and first moments of a and sigma^+- vanish identically, which
closes the hierarchy; the right-hand side below is the result of that
closure applied to the exact master equation (the oracle module checks it
term by term).

State vector layout used by the solvers:
x = (n, Re c, Im c, s, Re p, Im p).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dop853 import solve_ivp
from .errors import ConvergenceError, StiffIntegrationError
from .model import SystemParams

_PHYS_EPS = 1e-9
_REL_TOL = 1e-8  # DOP853 tolerances
_ABS_TOL = 1e-12
_NEWTON_MAX_ITER = 60


@dataclass(frozen=True)
class MomentState:
    """Second-order moments of the permutation-symmetric state.

    photon_number = <a^dag a>, atom_photon = <a sigma^+> (any atom),
    inversion = <sigma^z>, pair_corr = <sigma_i^+ sigma_j^-> for i != j.
    """

    photon_number: float
    atom_photon: complex
    inversion: float
    pair_corr: complex

    def as_vector(self) -> np.ndarray:
        return np.array([
            self.photon_number,
            self.atom_photon.real, self.atom_photon.imag,
            self.inversion,
            self.pair_corr.real, self.pair_corr.imag,
        ])

    @staticmethod
    def from_vector(x) -> "MomentState":
        x = np.asarray(x, dtype=float)
        return MomentState(
            photon_number=float(x[0]),
            atom_photon=complex(x[1], x[2]),
            inversion=float(x[3]),
            pair_corr=complex(x[4], x[5]),
        )

    def validate(self) -> None:
        vec = self.as_vector()
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"non-finite moment state: {self}")
        if self.photon_number < -_PHYS_EPS:
            raise ValueError(f"photon_number {self.photon_number} < 0")
        if abs(self.inversion) > 1.0 + _PHYS_EPS:
            raise ValueError(f"inversion {self.inversion} outside [-1, 1]")


@dataclass(frozen=True)
class SolverConfig:
    """newton_tol: None, steady_state's tolerance being 1e-10 max(1, kappa)
    (_newton_stages).  Nothing in the package sets it or passes a
    SolverConfig; the field stays because the perfbench harness and its
    tests read SolverConfig().newton_tol."""

    newton_tol: float | None = None


@dataclass(frozen=True)
class SteadyStateInfo:
    scaled_residual: float
    growth_rate: float  # max real part of the Jacobian's eigenvalues


def initial_state(params: SystemParams) -> MomentState:
    """Vacuum cavity, all atoms in the ground state, no correlations."""
    return MomentState(0.0, 0.0 + 0.0j, -1.0, 0.0 + 0.0j)


def _rates(params: SystemParams):
    gamma_c = 0.5 * (params.kappa + params.gamma + params.eta) + 2.0 * params.chi
    gamma_p = params.gamma + params.eta + 4.0 * params.chi
    return gamma_c, gamma_p


def _coefficients(params: SystemParams) -> tuple:
    """The numbers _formula reads, as it takes them.

    The parameter products are formed once per params, not on each of an
    integration's hundreds of calls, and in the order that the expression
    written out in full forms them left to right (-2 g N, g (N - 1), -2 g,
    4 g, -delta, -gamma_p), so every component rounds as it would.
    """
    g = params.g
    nn = params.n_atoms
    delta = params.detuning
    gamma_c, gamma_p = _rates(params)
    return (g, params.kappa, params.gamma, params.eta, nn, delta, gamma_c, gamma_p,
            -2.0 * g * nn, g * (nn - 1), -2.0 * g, 4.0 * g, -delta, -gamma_p)


def _formula(g, kappa, gamma, eta, nn, delta, gamma_c, gamma_p,
             n_gain, pair_gain, m2g, g4, m_delta, m_gamma_p):
    """The time derivative as f(x) -> list of the six components, for x a
    sequence of six Python floats, from _coefficients' numbers.

    This is the right-hand side of a lone state (the 1-D integration and
    _rhs_vec of a (6,) x); arrays of states go through _stacked.  Tests pin
    both to the formula written out in full.
    """

    def f(x):
        n, cr, ci, s, pr, pi = x
        source = s * n + (nn - 1) * pr + 0.5 * (1.0 + s)
        return [
            n_gain * ci - kappa * n,
            m_delta * ci - gamma_c * cr + pair_gain * pi,
            delta * cr - gamma_c * ci - g * source,
            g4 * ci - gamma * (1.0 + s) + eta * (1.0 - s),
            m2g * s * ci - gamma_p * pr,
            m_gamma_p * pi,
        ]

    return f


# The state rows of _stacked's product: x[_GATHER] is ci (4 times), s, pi,
# n, cr, cr, n, pr, pi, n, n, s, s, s, n, pr.
_GATHER = np.array([2, 2, 2, 2, 3, 5, 0, 1, 1, 0, 4, 5, 0, 0, 3, 3, 3, 0, 4])


def _stacked_numbers(params: SystemParams) -> tuple:
    """The numbers _stacked reads: the factors of its product's 19 rows,
    then 1, 1, 1 and -gamma, eta, 0.5, which turn s, -s, s into -gamma
    (1 + s), eta (1 - s) and 0.5 (1 + s), and -g, the factor of the
    source.  The negated ones turn _formula's a - b c into a + (-b) c,
    the same IEEE operation; the 1s of rows 9, 12, 13 and 17 fill rows
    that are overwritten."""
    (g, kappa, gamma, eta, nn, delta, gamma_c, gamma_p,
     n_gain, pair_gain, m2g, g4, m_delta, m_gamma_p) = _coefficients(params)
    return (n_gain, m_delta, -gamma_c, g4, m2g, m_gamma_p,
            -kappa, -gamma_c, delta, 1.0, -gamma_p,
            pair_gain, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, nn - 1,
            1.0, 1.0, 1.0, -gamma, eta, 0.5, -g)


def _stacked(q, shape):
    """The time derivative as f(x) -> (6,) + shape, for x the states
    shaped (6,) + shape, component-stacked: shape (M,), or (k, M) for M
    states' k trials each.  q holds _stacked_numbers' numbers, shaped (26,
    M), one column per state along the last axis, or (26, 1) for one
    params.  This is the right-hand side of arrays of states; a lone state
    goes through _formula, on Python floats.  Tests pin both to the
    formula written out in full.

    Each component is _formula's, with the same operands in the same
    order, so it rounds the same.  Every product of a per-params number
    and a state component is one row of a single product p = q[:19] *
    x[_GATHER], and later steps work on p's rows in place, so that the
    sums read blocks of it: rows 0-5 hold the first term of d0..d4 and d5,
    rows 6-10 the second term of d0..d4, rows 11-13 the third of d1..d3.
    That is twelve array calls with the gather, where _formula takes 32
    on arrays.  The work arrays and their views are made here, once, so
    f(x) returns a view into them that its next call overwrites.
    """
    if len(shape) == 2:
        q = q[:, None]  # each state's numbers over its trials
    xs = np.empty((19,) + shape)  # x[_GATHER]
    p = np.empty((19,) + shape)
    q_p, q_one, q_ends, q_source = q[:19], q[19:22], q[22:25], q[25]
    ends, sign_s = p[9:18:4], p[14:17]  # rows 9, 13, 17; s, -s, s
    m2gs_ci, ci, s, n = p[4], xs[0], xs[14], xs[6]
    source, pair_pr, half = p[12], p[18], p[17]
    first, second, middle, third = p[0:5], p[6:11], p[1:4], p[11:14]
    derivative = p[:6]
    mul, add = np.multiply, np.add

    def f(x):
        x.take(_GATHER, 0, xs, "wrap")
        mul(q_p, xs, p)
        add(sign_s, q_one, sign_s)  # 1 + s, 1 - s, 1 + s
        mul(sign_s, q_ends, ends)  # -gamma (1 + s), eta (1 - s), 0.5 (1 + s)
        mul(m2gs_ci, ci, m2gs_ci)  # (m2g s) ci
        mul(s, n, source)
        add(source, pair_pr, source)
        add(source, half, source)  # s n + (N - 1) pr + 0.5 (1 + s)
        mul(source, q_source, source)  # -g source
        add(first, second, first)
        add(middle, third, middle)
        return derivative

    return f


def _rhs(params: SystemParams):
    """The time derivative as f(x) -> list of the six components, for x a
    sequence of six Python floats, whose scalar arithmetic costs half that
    of numpy scalars and rounds the same: the integrator's form of a lone
    state.  Arrays of states go through _stacked (_rhs_vec, _rhs_rows)."""
    return _formula(*_coefficients(params))


def _rhs_rows(params_list):
    """The batch right-hand side fun(t, y, rows) of srlaser.dop853's
    batched solve_ivp and of _newton: row i of y (m, 6), or each of the
    states y[i] (m, k, 6), evaluated with the numbers of
    params_list[rows[i]].  This is the array form, _stacked, on the
    component-stacked view y.T; a lone state's integration takes _rhs on
    Python floats.  Tests pin both to the formula written out in full.

    The per-row numbers and _stacked's work arrays are made once for each
    rows array and kept until another one comes, and the derivatives
    returned are a view into them that the next call overwrites: dop853
    copies each into its stages at once, and _newton passes a new rows
    array every round.  Only dop853 gains from the reuse: it passes the
    same array for as long as its set of rows is unchanged."""
    # one contiguous row per number, so that a gather of rows is contiguous too
    table = np.array([_stacked_numbers(p) for p in params_list], dtype=float).T.copy()
    last_rows = last_shape = f = None

    def fun(_, y, rows):
        nonlocal last_rows, last_shape, f
        if rows is not last_rows or y.shape != last_shape:
            last_rows, last_shape = rows, y.shape
            f = _stacked(table[:, rows], y.T.shape[1:])
        return f(y.T).T

    return fun


def _rhs_vec(x, params: SystemParams) -> np.ndarray:
    """Time derivative of the state vector x, shaped (6,) or (6, M).

    A (6,) x is evaluated by _rhs on its Python floats, which cost less
    than numpy scalars and round the same; a (6, M) x, for the spectrum,
    by _stacked.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.array(_rhs(params)(x.tolist()))
    return _stacked(np.array(_stacked_numbers(params))[:, None], x.shape[1:])(x)


def _jacobian_parts(params: SystemParams):
    """The twelve entries of _rhs's Jacobian that do not depend on x, as a
    (6, 6) array, and the factors -g and -2 g of the four that do, all
    from the _coefficients that _rhs reads; every negation is exact."""
    (g, kappa, gamma, eta, nn, delta, gamma_c, gamma_p,
     n_gain, pair_gain, m2g, g4, m_delta, m_gamma_p) = _coefficients(params)
    const = np.zeros((6, 6))
    const[0, 0] = -kappa
    const[0, 2] = n_gain
    const[1, 1] = -gamma_c
    const[1, 2] = m_delta
    const[1, 5] = pair_gain
    const[2, 1] = delta
    const[2, 2] = -gamma_c
    const[2, 4] = -pair_gain
    const[3, 2] = g4
    const[3, 3] = -(gamma + eta)
    const[4, 4] = m_gamma_p
    const[5, 5] = m_gamma_p
    return const, -g, m2g


def _fill_jacobian(out, m_g, m2g, x):
    """Write the four entries that depend on x, (-g) s, (-g) (n + 1/2),
    (-2 g) s and (-2 g) ci, into out (..., 6, 6), grouped as the expression
    written out in full groups them, so every entry rounds as it would.
    x is shaped (6,) or (6, M); m_g and m2g are numbers or shaped (M,)."""
    n, _, ci, s, _, _ = x
    out[..., 2, 0] = m_g * s
    out[..., 2, 3] = m_g * (n + 0.5)
    out[..., 4, 2] = m2g * s
    out[..., 4, 3] = m2g * ci
    return out


def _jacobian(x: np.ndarray, params: SystemParams) -> np.ndarray:
    """Jacobian of _rhs_vec: (6, 6) at x shaped (6,), (M, 6, 6) at x shaped (6, M).

    The twelve entries that do not depend on x are copied from
    _jacobian_parts, and _fill_jacobian fills in the four that do.
    """
    const, m_g, m2g = _jacobian_parts(params)
    out = np.empty(np.shape(x[0]) + (6, 6))
    out[...] = const
    return _fill_jacobian(out, m_g, m2g, x)


def rhs(state: MomentState, params: SystemParams) -> MomentState:
    """Time derivative of the tracked moments."""
    x = state.as_vector()
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite moment state: {state}")
    return MomentState.from_vector(_rhs_vec(x, params))


def _residual(r: np.ndarray, x: np.ndarray):
    """max_i |r_i| / max(1, |x_i|) over the last axis: a number for (6,)
    arrays, one per row for (..., 6)."""
    # ndarray.max propagates NaN, which the Newton line search relies on
    return (np.abs(r) / np.maximum(1.0, np.abs(x))).max(axis=-1)


def scaled_residual(x: np.ndarray, params: SystemParams) -> float:
    """max_i |rhs_i| / max(1, |x_i|): a rad/s-valued stationarity measure.

    Newton computes the same number with the same helper, from the rhs it
    already holds, so this function counts only the checks made outside it.
    """
    return float(_residual(_rhs_vec(x, params), x))


def _fast_rate(params: SystemParams) -> float:
    return max(
        params.kappa,
        params.gamma,
        params.eta,
        2.0 * params.chi,
        2.0 * math.sqrt(params.n_atoms) * params.g,
        abs(params.detuning),
        1e-300,
    )


def fixed_point_g0(params: SystemParams) -> MomentState:
    """Closed-form steady state of the decoupled (g = 0) system; with no
    pump and no decay, the ground state."""
    total = params.gamma + params.eta
    s = (params.eta - params.gamma) / total if total > 0.0 else -1.0
    return MomentState(0.0, 0.0 + 0.0j, s, 0.0 + 0.0j)


def _integrate_raw(x0, params, t_final):
    # trial steps may transiently overflow on stiff points; they get rejected
    f = _rhs(params)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(
            lambda _, y: f(y.tolist()),
            (0.0, t_final), x0, rtol=_REL_TOL, atol=_ABS_TOL,
        )
    if not sol.success:
        raise StiffIntegrationError(
            f"explicit integration failed ({sol.message}); the problem is "
            "likely stiff on this horizon, use the Newton steady-state path"
        )
    return sol


def integrate(state0: MomentState, params: SystemParams,
              t_max: float) -> list[tuple[float, MomentState]]:
    """Adaptive explicit time integration from state0 to t_max.

    Returns the solver's accepted steps as (t, MomentState) pairs.  A zero
    horizon returns state0 twice, a negative or non-finite one raises
    ValueError.  A state whose derivative is not finite, or any step that
    fails, raises StiffIntegrationError.
    """
    state0.validate()
    sol = _integrate_raw(state0.as_vector(), params, t_max)
    return [(float(t), MomentState.from_vector(y)) for t, y in zip(sol.t, sol.y.T)]


def _is_physical(x: np.ndarray) -> bool:
    return (
        bool(np.all(np.isfinite(x)))
        and x[0] >= -_PHYS_EPS * max(1.0, abs(x[0]))
        and abs(x[3]) <= 1.0 + _PHYS_EPS
    )


# the damping ladder of a Newton step: lam = 1, 1/2, ..., 1/1024
_LADDER = np.ldexp(1.0, -np.arange(11))


def _newton_steps(jac, r):
    """The Newton steps of the rows, solving jac (m, 6, 6) @ step = -r
    (m, 6); returns (steps, solved).  A stacked solve raises if any one
    system is singular, so then, and for a single row, the rows are solved
    one by one and only the singular ones are not solved."""
    if len(r) > 1:
        try:
            return np.linalg.solve(jac, -r[:, :, None])[:, :, 0], np.ones(len(r), dtype=bool)
        except np.linalg.LinAlgError:
            pass
    steps = np.zeros_like(r)
    solved = np.ones(len(r), dtype=bool)
    for i, (a, b) in enumerate(zip(jac, r)):
        try:
            steps[i] = np.linalg.solve(a, -b)
        except np.linalg.LinAlgError:
            solved[i] = False
    return steps, solved


def _newton(x0, params_list, tols):
    """Damped Newton on the analytic Jacobian for the rows of x0 (M, 6),
    row i with params_list[i] and tolerance tols[i]; returns (x (M, 6),
    res (M,), ok (M,)).

    Per row: each step is halved from 1 down to 1/1024 until the scaled
    residual falls; if none does, or the Jacobian is singular, the row ends
    with ok False.  Every accepted step lowers the residual, so the
    iterate a row ends on is its best.  Below tol, up to four full steps
    follow while the residual falls; a singular Jacobian (gamma_p = 0), or
    a full step that leaves x as it is, ends them.  After _NEWTON_MAX_ITER
    steps: (x, res, res < tol), unpolished.

    The rows run in lock-step.  Each round solves the Jacobians of the
    rows still running in one stacked solve, and evaluates their trials in
    one call of _rhs_rows: every rung of the ladder while any row is still
    stepping, the full step alone once all of them polish.  A row takes
    the first rung whose residual falls, which is the trial that trying
    the rungs in turn accepts, so each row ends on the iterates of a
    Newton run on it alone, bit for bit.  An accepted trial carries its
    rhs and residual into the next round.
    """
    rhs = _rhs_rows(params_list)
    parts = [_jacobian_parts(p) for p in params_list]
    const = np.array([c for c, _, _ in parts])
    m_g = np.array([m for _, m, _ in parts])
    m2g = np.array([m for _, _, m in parts])
    tols = np.asarray(tols, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.array(x0, dtype=float)
        n_rows = len(x)
        r = rhs(None, x, np.arange(n_rows))
        res = _residual(r, x)
        ok = np.zeros(n_rows, dtype=bool)
        taken = np.zeros(n_rows, dtype=int)  # steps taken above tol
        polish = np.full(n_rows, -1)  # full steps taken below tol; -1 above it
        live = np.arange(n_rows)
        while live.size:
            stepping = polish[live] < 0
            capped = stepping & (taken[live] == _NEWTON_MAX_ITER)
            ok[live[capped]] = res[live[capped]] < tols[live[capped]]
            live, stepping = live[~capped], stepping[~capped]
            below = stepping & (res[live] < tols[live])
            polish[live[below]] = 0
            stepping &= ~below

            xl = x[live]
            jac = _fill_jacobian(const[live], m_g[live], m2g[live], xl.T)
            step, solved = _newton_steps(jac, r[live])
            # a singular Jacobian ends a row; so does a polish step that is not
            # finite or leaves x as it is, whose residual could not fall
            full = xl + step
            still = ~np.isfinite(full).all(axis=-1) | (full == xl).all(axis=-1)
            ends = ~solved | (~stepping & still)
            ok[live[~stepping & ends]] = True
            live, stepping, xl, step = live[~ends], stepping[~ends], xl[~ends], step[~ends]
            if not live.size:
                break

            lams = _LADDER if stepping.any() else _LADDER[:1]
            # laid out component-stacked, (6, k, m), as _stacked takes them,
            # so that the trials, their rhs and residuals share one layout
            trials = np.add(xl.T[:, None], lams[:, None] * step.T[:, None], order="C").T
            m = len(trials)
            trial_r = rhs(None, trials, live)
            trial_res = _residual(trial_r, trials)
            accept = np.isfinite(trials).all(axis=-1) & (trial_res < res[live, None])
            accept[~stepping, 1:] = False
            pick = np.arange(m), accept.argmax(axis=1)
            moved = accept[pick]
            rows = live[moved]
            x[rows], r[rows], res[rows] = (
                trials[pick][moved], trial_r[pick][moved], trial_res[pick][moved])
            taken[live[stepping & moved]] += 1
            polish[live[~stepping & moved]] += 1
            done = ~stepping & (~moved | (polish[live] == 4))
            ok[live[done]] = True
            live = live[moved & ~done]
    return x, res, ok


def _closed_form_root(params: SystemParams) -> np.ndarray | None:
    """The physical fixed point in closed form, at any detuning.

    Stationarity gives pi = 0 and cr = -delta ci / gamma_c; the ci row is
    then the resonant one with gamma_c -> gamma_c + delta^2 / gamma_c.
    Eliminating n, ci and pr leaves a quadratic in t = d0 - s, d0 the g = 0
    inversion: k b t^2 + B t - C = 0 with k = 2 g^2 N / kappa + 2 g^2
    (N - 1) / gamma_p, a = gamma - eta, b = gamma + eta, B = k a +
    gamma_eff b + 2 g^2 and C = 2 g^2 (1 + d0) >= 0.  Since ci <= 0
    exactly when s <= d0, its one root t >= 0 is the physical fixed point.
    It is taken in the form without cancellation, and the moments follow
    from it with no difference of near-equal terms: ci = -b t / (4 g),
    n = N b t / (2 kappa), s = d0 - t.  At g = 0 it is fixed_point_g0.
    A lossless cavity (kappa = 0) forces ci = 0, so s = d0 and every
    coherence vanishes, leaving n = -(1 + d0) / (2 d0), physical only below
    transparency (d0 < 0).  None above it, or when gamma_p, which the lossy
    root divides by, is 0.
    """
    g, kappa, delta = params.g, params.kappa, params.detuning
    gamma_c, gamma_p = _rates(params)
    if g == 0.0:
        return fixed_point_g0(params).as_vector()
    if kappa == 0.0 and params.gamma > params.eta:
        d0 = fixed_point_g0(params).inversion
        return np.array([-(1.0 + d0) / (2.0 * d0), 0.0, 0.0, d0, 0.0, 0.0])
    if kappa <= 0.0 or gamma_p <= 0.0:
        return None
    gamma_eff = gamma_c + delta * delta / gamma_c
    nn = params.n_atoms
    d0 = fixed_point_g0(params).inversion
    a_lin = params.gamma - params.eta
    b_lin = params.gamma + params.eta
    k_gain = 2.0 * g * g * nn / kappa + 2.0 * g * g * (nn - 1) / gamma_p
    qa = k_gain * b_lin
    qb = k_gain * a_lin + gamma_eff * b_lin + 2.0 * g * g
    qc = 2.0 * g * g * (1.0 + d0)
    root = math.sqrt(qb * qb + 4.0 * qa * qc)
    t = 2.0 * qc / (qb + root) if qb > 0.0 else (root - qb) / (2.0 * qa)
    s = d0 - t
    ci = -b_lin * t / (4.0 * g)
    n = nn * b_lin * t / (2.0 * kappa)
    pr = -2.0 * g * s * ci / gamma_p
    return np.array([n, -delta * ci / gamma_c, ci, s, pr, 0.0])


def _relax(params):
    """Integrate the fast transient away: 30 fast time constants from the
    initial state, with the package's DOP853 (srlaser.dop853), which takes
    scipy's steps bit for bit.  The right-hand side is built once by _rhs
    and evaluated on Python floats, which round as the array form does, so
    the relaxed state is the one scipy's DOP853 reaches.  An initial state
    that is already stationary, as wherever gamma_p = 0, is returned
    untouched.  relax_all relaxes many params at once to the same bits."""
    x = initial_state(params).as_vector()
    if scaled_residual(x, params) == 0.0:
        return x
    return _integrate_raw(x, params, 30.0 / _fast_rate(params)).y[:, -1]


def relax_all(params_list) -> list:
    """_relax of each params, in one batched DOP853 integration.

    Each entry is the state that _relax(params) returns, bit for bit: the
    start of solve_all's Newton stages.  It is None where steady_state
    does not relax (a coupled lossless cavity), and where the integration
    failed.  Batching pays from a few states on; a single state relaxes
    faster alone.
    """
    out: list = [None] * len(params_list)
    todo, starts = [], []
    for i, params in enumerate(params_list):
        if _closed_form_only(params):
            continue
        x = initial_state(params).as_vector()
        if scaled_residual(x, params) == 0.0:
            out[i] = x
        else:
            todo.append(i)
            starts.append(x)
    if not todo:
        return out
    rows = [params_list[i] for i in todo]
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(
            _rhs_rows(rows), (0.0, np.array([30.0 / _fast_rate(p) for p in rows])),
            np.array(starts), rtol=_REL_TOL, atol=_ABS_TOL,
        )
    for i, x, ok in zip(todo, sol.y, sol.success):
        if ok:
            out[i] = x
    return out


def _closed_form_only(params: SystemParams) -> bool:
    """A coupled lossless cavity, which steady_state solves in closed form."""
    return params.kappa == 0.0 and params.g > 0.0 and params.eta + params.gamma > 0.0


def _newton_stages(params_list, starts) -> list:
    """steady_state's stages 2 and 3 for every params at once, from the
    relaxed states starts (M, 6); one (x, res, ok) per params.  A row is
    accepted at scaled residual 1e-10 max(1, kappa).

    Stage 2 is one _newton batch from starts.  Stage 3 is one more, from
    the closed-form roots of the rows that failed or ended unphysical.
    A row that neither stage settles keeps stage 2's x and best residual,
    with ok False.
    """
    tols = [1e-10 * max(1.0, p.kappa) for p in params_list]
    x, res, ok = _newton(starts, params_list, tols)
    ok = [bool(good) and _is_physical(v) for good, v in zip(ok, x)]
    retry = [(i, _closed_form_root(params_list[i])) for i, good in enumerate(ok) if not good]
    retry = [(i, seed) for i, seed in retry if seed is not None]
    if retry:
        x_seed, res_seed, ok_seed = _newton(
            np.array([seed for _, seed in retry]), [params_list[i] for i, _ in retry],
            [tols[i] for i, _ in retry])
        for (i, _), v, rv, good in zip(retry, x_seed, res_seed, ok_seed):
            if good and _is_physical(v):
                x[i], res[i], ok[i] = v, rv, True
    return [(v, float(rv), good) for v, rv, good in zip(x, res, ok)]


def solve_all(params_list) -> list:
    """steady_state's stages for many params at once, bit for bit.

    One batched relaxation (relax_all), then the two Newton stages as
    lock-step batches.  Each entry is to be
    passed to steady_state(params, solved=...), which then returns or
    raises what steady_state(params) would, and runs no stage again.  It
    is None where steady_state solves params alone: a coupled lossless
    cavity, and a relaxation that failed, which raises there.  Batching
    pays from a few params on; a single one is solved faster alone.
    """
    out: list = [None] * len(params_list)
    relaxed = relax_all(params_list)
    todo = [i for i, x in enumerate(relaxed) if x is not None]
    if todo:
        rows = _newton_stages([params_list[i] for i in todo],
                              np.array([relaxed[i] for i in todo]))
        for i, row in zip(todo, rows):
            out[i] = row
    return out


def steady_state(params: SystemParams, return_info: bool = False, *,
                 solved: tuple | None = None):
    """Stationary moments in three stages, or a ConvergenceError.

    1. Relaxation: one DOP853 integration over 30 fast time constants,
       which removes the fast transient only.  The integrator is
       srlaser.dop853, so no scipy module is loaded.
    2. Damped Newton on the analytic Jacobian from the relaxed state, down
       to the scaled-residual tolerance 1e-10 max(1, kappa).
    3. If that fails or lands on an unphysical root: Newton from the
       closed-form physical root, which exists at any detuning.  This
       stage, not a longer relaxation, settles the slow inputs.

    Stages 2 and 3 run as the batches of solve_all, here a batch of one.
    A caller that has solved many params at once passes params' entry of
    solve_all(params_list) as solved, and no stage runs again: the state
    returned, or the error raised, is the one the stages give.

    A returned state is a physical root within the tolerance.  Otherwise
    ConvergenceError is raised, carrying stage 2's best scaled residual.
    A coupled lossless cavity (kappa = 0, g > 0, gamma + eta > 0) skips
    the stages: below transparency the answer is the closed-form root, and
    at or above it, where that root does not exist, ConvergenceError is
    raised at once.  The info's
    growth_rate is the largest real part of the Jacobian's eigenvalues at
    the returned state: positive where the closure is unstable there.

    With gamma_p = gamma + eta + 4 chi = 0 (no pump, decay or dephasing)
    the answer is the ground-state vacuum (0, 0, -1, 0) at scaled residual
    0: it is stationary, and relaxation starts from it.
    """
    if _closed_form_only(params):
        x = _closed_form_root(params)
        if x is None:
            raise ConvergenceError(
                "no physical steady state: with kappa = 0 and eta >= gamma the "
                "only fixed point has photon number -(1 + d0) / (2 d0) with "
                "d0 = (eta - gamma) / (eta + gamma) >= 0, which is negative or "
                "infinite"
            )
        res = scaled_residual(x, params)
    else:
        if solved is None:
            (solved,) = _newton_stages([params], _relax(params)[None])
        x, res, ok = solved
        if not ok:
            raise ConvergenceError(
                f"no physical steady state found (best scaled residual {res:.3e})",
                best_residual=res,
            )
    state = MomentState.from_vector(x)
    if return_info:
        growth = float(np.max(np.linalg.eigvals(_jacobian(x, params)).real))
        return state, SteadyStateInfo(scaled_residual=res, growth_rate=growth)
    return state
