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

from .dop853 import TOO_SMALL_STEP, solve_ivp
from .errors import ConvergenceError, SimulationError, StiffIntegrationError
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
        """The state of an as_vector() layout; any shape other than (6,) is
        a ValueError.  One tolist() gives the Python floats that float(x[i])
        would, bit for bit."""
        x = np.asarray(x, dtype=float)
        if x.shape != (6,):
            raise ValueError(f"a moment vector has 6 entries, got {x.size} in shape {x.shape}")
        n, ap_re, ap_im, inversion, pc_re, pc_im = x.tolist()
        return MomentState(n, complex(ap_re, ap_im), inversion, complex(pc_re, pc_im))

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
    (solve_all).  Nothing in the package sets it or passes a
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


def _numbers(params: SystemParams) -> tuple:
    """The 26 numbers of params' closure: the one place they are derived,
    read by _formula, by _stacked as a column of a _table, and by the
    Jacobians.

    Numbers 0-18 are the factors of _stacked's 19 products; 19-21 are 1,
    1, 1 and 22-24 are -gamma, eta, 0.5, which turn s, -s, s into -gamma
    (1 + s), eta (1 - s) and 0.5 (1 + s); 25 is -g, the factor of the
    source.  The negated ones turn the written-out a - b c into a + (-b)
    c, the same IEEE operation; the 1s at 9, 12, 13 and 17 fill rows that
    _stacked overwrites.  The parameter products are formed once per
    params, not on each of an integration's hundreds of calls, and in the
    order that the expression written out in full forms them left to right
    (-2 g N, g (N - 1), -2 g, 4 g), so every number rounds as it would.
    """
    g, kappa, nn, delta = params.g, params.kappa, params.n_atoms, params.detuning
    gamma_c, gamma_p = _rates(params)
    return (-2.0 * g * nn, -delta, -gamma_c, 4.0 * g, -2.0 * g, -gamma_p,
            -kappa, -gamma_c, delta, 1.0, -gamma_p,
            g * (nn - 1), 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, nn - 1,
            1.0, 1.0, 1.0, -params.gamma, params.eta, 0.5, -g)


def _formula(q):
    """The time derivative as f(x) -> list of the six components, for x a
    sequence of six Python floats, from _numbers' numbers q.

    This is the right-hand side of a lone state (the 1-D integration and
    _rhs_vec of a (6,) x); arrays of states go through _stacked.  Tests pin
    both to the formula written out in full.
    """
    (n_gain, m_delta, m_gamma_c, g4, m2g, m_gamma_p, m_kappa, _, delta, _, _,
     pair_gain, _, _, _, _, _, _, nn1, _, _, _, m_gamma, eta, _, m_g) = q

    def f(x):
        n, cr, ci, s, pr, pi = x
        source = s * n + nn1 * pr + 0.5 * (1.0 + s)
        return [
            n_gain * ci + m_kappa * n,
            m_delta * ci + m_gamma_c * cr + pair_gain * pi,
            delta * cr + m_gamma_c * ci + m_g * source,
            g4 * ci + m_gamma * (1.0 + s) + eta * (1.0 - s),
            m2g * s * ci + m_gamma_p * pr,
            m_gamma_p * pi,
        ]

    return f


# The state rows of _stacked's product: x[_GATHER] is ci (4 times), s, pi,
# n, cr, cr, n, pr, pi, n, n, s, s, s, n, pr.
_GATHER = np.array([2, 2, 2, 2, 3, 5, 0, 1, 1, 0, 4, 5, 0, 0, 3, 3, 3, 0, 4])


def _table(params_list) -> np.ndarray:
    """_numbers of each params as one column of a (26, M) table, one
    contiguous row per number, so that a gather of columns is contiguous too."""
    return np.array([_numbers(p) for p in params_list], dtype=float).T.copy()


def _stacked(q, shape):
    """The time derivative as f(x) -> (6,) + shape, for x the M states
    shaped (6,) + shape, component-stacked, shape being (M,).  q holds
    _numbers' numbers, shaped (26, M), one column per state, or (26, 1)
    for one params.  This is the right-hand side of arrays of states; a
    lone state goes through _formula, on Python floats.  Tests pin both to
    the formula written out in full.

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
    return _formula(_numbers(params))


def _rhs_rows(table):
    """The batch right-hand side fun(t, y, rows) of srlaser.dop853's
    batched solve_ivp and of _newton: row i of y (m, 6) evaluated with
    column rows[i] of table, a _table (26, M).  This is the array form,
    _stacked, on the component-stacked view y.T; a lone state's
    integration takes _rhs on Python floats.  Tests pin both to the
    formula written out in full.

    The per-row numbers and _stacked's work arrays are made once for each
    rows array and kept until another one comes, and the derivatives
    returned are a view into them that the next call overwrites: dop853
    copies each into its stages at once, and _newton passes a new rows
    array every round.  Only dop853 gains from the reuse: it passes the
    same array for as long as its set of rows is unchanged."""
    last_rows = f = None

    def fun(_, y, rows):
        nonlocal last_rows, f
        if rows is not last_rows:
            last_rows = rows
            f = _stacked(table[:, rows], (len(rows),))
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
    return _stacked(_table([params]), x.shape[1:])(x)


# The twelve entries of the Jacobian that do not depend on x, at (_ROWS,
# _COLS), and the numbers of a _table column they are read off (_CONST)
_ROWS = np.array([0, 0, 1, 1, 1, 2, 2, 3, 4, 5, 2, 3])
_COLS = np.array([0, 2, 1, 2, 5, 1, 2, 2, 4, 5, 4, 3])
_CONST = np.array([6, 0, 2, 1, 11, 8, 2, 3, 5, 5, 11, 22])


def _jacobian_constants(q) -> np.ndarray:
    """The twelve entries of the Jacobian that do not depend on x, in a
    zero array shaped q.shape[1:] + (6, 6), read off q (26, ...), _numbers'
    numbers or a _table: ten as they stand, -g (N - 1) as -q[11] and
    -(gamma + eta) as q[22] - q[23], both exact negations."""
    entries = q[_CONST]
    entries[10:] = -entries[10], entries[11] - q[23]
    out = np.zeros(q.shape[1:] + (6, 6))
    out[..., _ROWS, _COLS] = entries.T
    return out


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

    The twelve entries that do not depend on x are read off _numbers'
    numbers by _jacobian_constants, and _fill_jacobian writes the four that
    do from its -g and -2 g.
    """
    q = np.array(_numbers(params))
    out = np.empty(np.shape(x[0]) + (6, 6))
    out[...] = _jacobian_constants(q)
    return _fill_jacobian(out, q[25], q[4], x)


def rhs(state: MomentState, params: SystemParams) -> MomentState:
    """Time derivative of the tracked moments."""
    x = state.as_vector()
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite moment state: {state}")
    return MomentState.from_vector(_rhs_vec(x, params))


def _residual(r: np.ndarray, x: np.ndarray):
    """max_i |r_i| / max(1, |x_i|) over the last axis: a number for (6,)
    arrays, one per row for (..., 6)."""
    # ndarray.max propagates NaN, so that Newton refuses a step to a NaN residual
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


def _stiff_error(message: str) -> StiffIntegrationError:
    return StiffIntegrationError(
        f"explicit integration failed ({message}); the problem is "
        "likely stiff on this horizon, use the Newton steady-state path"
    )


def _integrate_raw(x0, params, t_final):
    # trial steps may transiently overflow on stiff points; they get rejected
    f = _rhs(params)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(
            lambda _, y: f(y.tolist()),
            (0.0, t_final), x0, rtol=_REL_TOL, atol=_ABS_TOL,
        )
    if not sol.success:
        raise _stiff_error(sol.message)
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
    """Newton on the analytic Jacobian, full steps only, for the rows of
    x0 (M, 6), row i with params_list[i] and tolerance tols[i]; returns
    (x (M, 6), res (M,), ok (M,)), ok being res < tol.  This is
    solve_all's stage 2, one call per solve_all on all of its relaxed
    states, a lone one too.

    A row keeps a step only if it is finite and lowers the scaled
    residual, so the iterate a row ends on is its best.  A row ends when
    its step is refused, when its Jacobian is singular (gamma_p = 0), when
    it has taken _NEWTON_MAX_ITER steps from above tol, or after four
    steps from below it.  A step that leaves x as it is, whose residual
    could not fall, is refused unevaluated.

    The rows run in lock-step.  Each round solves the Jacobians of the
    rows still running in one stacked solve and evaluates their trials in
    one call of _rhs_rows, so each row ends on the iterates of a Newton
    run on it alone, bit for bit.  A kept trial carries its rhs and
    residual into the next round.

    One _table of the rows' numbers is built per call.  It feeds both the
    right-hand side and the Jacobians: their twelve constant entries are
    read off it once, by _jacobian_constants, and the four that depend on
    x come from its -g and -2 g rows.
    """
    table = _table(params_list)
    rhs = _rhs_rows(table)
    const, m_g, m2g = _jacobian_constants(table), table[25], table[4]
    tols = np.asarray(tols, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.array(x0, dtype=float)
        n_rows = len(x)
        r = rhs(None, x, np.arange(n_rows))
        res = _residual(r, x)
        steps = np.zeros((n_rows, 2), dtype=int)  # steps taken from above and below tol
        live = np.arange(n_rows)
        while live.size:
            live = live[(steps[live] < (_NEWTON_MAX_ITER, 4)).all(axis=1)]
            xl = x[live]
            jac = _fill_jacobian(const[live], m_g[live], m2g[live], xl.T)
            step, solved = _newton_steps(jac, r[live])
            trial = xl + step
            go = solved & np.isfinite(trial).all(axis=1) & (trial != xl).any(axis=1)
            live, trial = live[go], trial[go]
            if not live.size:
                break
            trial_r = rhs(None, trial, live)
            trial_res = _residual(trial_r, trial)
            kept = trial_res < res[live]
            live = live[kept]
            steps[live, (res[live] < tols[live]).astype(int)] += 1
            x[live], r[live], res[live] = trial[kept], trial_r[kept], trial_res[kept]
    return x, res, res < tols


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

    This is solve_all's stage 3, taken as it stands: the root meets
    Newton's tolerance unpolished wherever stage 2 leaves a grid cell
    unsettled, so no Newton step follows it.
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


def relax_all(params_list) -> list:
    """Integrate the fast transient away: 30 fast time constants from the
    initial state of each params, with the package's DOP853
    (srlaser.dop853), which takes scipy's steps bit for bit.  These are
    the starts of solve_all's one Newton batch, stage 2.

    A lone state is integrated by the 1-D loop, on a right-hand side built
    once by _rhs and evaluated on Python floats; two or more are one
    batched integration of the array form.  Both round as scipy's DOP853
    does, so each state ends on the same bits either way, and the lone
    one runs several times faster than a batch of one.

    Each entry is the relaxed state.  An initial state that is already
    stationary, as wherever gamma_p = 0, is returned untouched.  The entry
    is None where solve_all does not relax (a coupled lossless cavity),
    and the StiffIntegrationError where the integration failed.
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
    if len(todo) == 1:
        i = todo[0]
        params = params_list[i]
        try:
            out[i] = _integrate_raw(starts[0], params, 30.0 / _fast_rate(params)).y[:, -1]
        except StiffIntegrationError as exc:
            out[i] = exc
    elif todo:
        rows = [params_list[i] for i in todo]
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(
                _rhs_rows(_table(rows)), (0.0, np.array([30.0 / _fast_rate(p) for p in rows])),
                np.array(starts), rtol=_REL_TOL, atol=_ABS_TOL,
            )
        for i, x, ok in zip(todo, sol.y, sol.success):
            out[i] = x if ok else _stiff_error(TOO_SMALL_STEP)
    return out


def _closed_form_only(params: SystemParams) -> bool:
    """A coupled lossless cavity, which solve_all solves in closed form."""
    return params.kappa == 0.0 and params.g > 0.0 and params.eta + params.gamma > 0.0


def solve_all(params_list) -> list:
    """The answer of steady_state(params) for each of params_list, bit for
    bit: the one place that decides what it is.

    relax_all, then stage 2 as one lock-step _newton batch of the relaxed
    states, full steps only, each row accepted at scaled residual tol =
    1e-10 max(1, kappa).  A row that stage 2 does not settle on a physical
    root, a step that would not lower its residual among the causes, takes
    stage 3, _closed_form_root(params), if that root exists, is physical
    and has a scaled_residual below the same tol; otherwise its entry is
    the ConvergenceError carrying stage 2's best residual.  So _newton runs
    once per call, for a lone state too.  A coupled lossless cavity, which
    relax_all leaves alone, takes its closed form.  Each entry is (x,
    scaled residual), or the SimulationError that steady_state(params)
    raises: the StiffIntegrationError of a relaxation that failed, the
    ConvergenceError above, or a lossless cavity's ConvergenceError at or
    above transparency.  Passed to steady_state(params, solved=...), an
    entry runs no stage again.
    """
    out = relax_all(params_list)
    todo = [i for i, x in enumerate(out) if isinstance(x, np.ndarray)]
    if todo:
        rows = [params_list[i] for i in todo]
        tols = [1e-10 * max(1.0, p.kappa) for p in rows]
        x, res, ok = _newton(np.array([out[i] for i in todo]), rows, tols)
        for i, params, tol, v, rv, good in zip(todo, rows, tols, x, res, ok):
            if good and _is_physical(v):
                out[i] = v, float(rv)
                continue
            root = _closed_form_root(params)  # stage 3
            root_res = math.inf if root is None else scaled_residual(root, params)
            if root_res < tol and _is_physical(root):
                out[i] = root, root_res
            else:
                out[i] = ConvergenceError(f"no physical steady state found (best scaled "
                                          f"residual {rv:.3e})", best_residual=float(rv))
    for i, params in enumerate(params_list):
        if out[i] is None:
            x = _closed_form_root(params)
            out[i] = (x, scaled_residual(x, params)) if x is not None else ConvergenceError(
                "no physical steady state: with kappa = 0 and eta >= gamma the "
                "only fixed point has photon number -(1 + d0) / (2 d0) with "
                "d0 = (eta - gamma) / (eta + gamma) >= 0, which is negative or "
                "infinite")
    return out


def steady_state(params: SystemParams, return_info: bool = False, *,
                 solved: tuple | SimulationError | None = None):
    """Stationary moments in three stages, or a ConvergenceError.

    1. Relaxation: one DOP853 integration over 30 fast time constants,
       which removes the fast transient only.  The integrator is
       srlaser.dop853, so no scipy module is loaded.
    2. Newton on the analytic Jacobian from the relaxed state, full steps
       only, down to the scaled-residual tolerance 1e-10 max(1, kappa).
    3. If that fails or lands on an unphysical root: the closed-form
       physical root itself, which exists at any detuning, if it is within
       the same tolerance.  No Newton step follows it.  This stage, not a
       longer relaxation, settles the slow inputs.

    solve_all runs the stages and decides the answer; this function only
    unpacks it.  solved is params' entry of solve_all(params_list), from
    a caller that has solved many params at once, and no stage runs
    again; without it the entry is solve_all([params])'s, which relaxes a
    lone state on the 1-D loop and runs one Newton batch of one row.  An
    error entry is raised: a failed relaxation's StiffIntegrationError, or
    a ConvergenceError carrying stage 2's best scaled residual.  A returned
    state is a physical root within the tolerance.

    A coupled lossless cavity (kappa = 0, g > 0, gamma + eta > 0) skips
    the stages: below transparency the answer is the closed-form root, and
    at or above it, where that root does not exist, ConvergenceError is
    raised at once.  The info's growth_rate is the largest real part of
    the Jacobian's eigenvalues at the returned state: positive where the
    closure is unstable there.

    With gamma_p = gamma + eta + 4 chi = 0 (no pump, decay or dephasing)
    the answer is the ground-state vacuum (0, 0, -1, 0) at scaled residual
    0: it is stationary, and relaxation starts from it.
    """
    if solved is None:
        (solved,) = solve_all([params])
    if isinstance(solved, SimulationError):
        raise solved
    x, res = solved
    state = MomentState.from_vector(x)
    if return_info:
        growth = float(np.max(np.linalg.eigvals(_jacobian(x, params)).real))
        return state, SteadyStateInfo(scaled_residual=res, growth_rate=growth)
    return state
