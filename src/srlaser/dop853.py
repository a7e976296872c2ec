"""Explicit Runge-Kutta integration with the Dormand-Prince 8(5,3) pair.

The tableau and step-size control are those of Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I*, Sec. II.10, in the form that
``scipy.integrate.solve_ivp(method="DOP853")`` implements them: the same
initial step, stage sums, error norm and controller, so the two take the
same steps and evaluate the right-hand side the same number of times.
Dense output, events and backward integration are left out, which keeps
scipy.integrate out of the import graph.

The arithmetic is scipy's to the bit, at less call overhead.  Stage sums
call ``ndarray.dot``, the BLAS call behind the ``np.dot`` dispatcher that
scipy goes through, and the squared error norms take ``math.sqrt(v . v)
** 2``, which is what ``np.linalg.norm(v) ** 2`` computes for 1-D v.  The
error norm's scalar arithmetic runs on Python floats, whose IEEE
operations round as numpy's float64 scalars do.  The stage sums stay in
numpy: summed term by term in Python they round differently from BLAS in
the last bit, for about two in three sums, and the steps would drift from
scipy's.

``solve_ivp`` also integrates a batch: M independent rows, y0 shaped
(M, n), each with its own end time.  Each row takes the steps that its own
1-D call takes, with its own step size, accept/reject decisions and
too-small-step failure, a non-finite first step among them; rows that end
are dropped from the arrays, so a batch costs one numpy pass per trial
step over the rows still stepping.
Stacked ``np.matmul`` hands each row to BLAS as ``ndarray.dot`` does, and
the stage sums and the error norms' dot products round as the 1-D loop's
(the tests compare the two bit for bit).  The controller's powers do not
vectorise: the error norm's squares and the 1/8th powers are libm ``pow``
calls on Python floats (or numpy scalars) in the 1-D loop, and numpy's
vectorised ``power`` and ``square`` round differently from ``pow`` in the
last bit for some inputs (x * x for about one random x in 1,200, the
vectorised x ** 0.125 for about one in 20), so the batch takes them on
Python floats too.  Where the 1-D loop relies on Python's ``max``/``min``
keeping the first argument when the second is NaN, the batch uses
``_first_max``/``_first_min``, or ``np.fmax`` for max(MIN_FACTOR, x), and
``np.minimum`` only where neither argument can be NaN.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

N_STAGES = 12

C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])

# A[s, :s] combines the stages before stage s; row 0 is empty.
A = np.zeros((N_STAGES, N_STAGES))
A[1, :1] = [5.26001519587677318785587544488e-2]
A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
A[3, :3] = [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]
A[4, :4] = [2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
            9.24834003261792003115737966543e-1]
A[5, :5] = [3.7037037037037037037037037037e-2, 0.0, 0.0,
            1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1]
A[6, :6] = [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
            6.02165389804559606850219397283e-2, -1.7578125e-2]
A[7, :7] = [3.70920001185047927108779319836e-2, 0.0, 0.0,
            1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
            -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3]
A[8, :8] = [6.24110958716075717114429577812e-1, 0.0, 0.0,
            -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
            2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
            -4.34898841810699588477366255144e1]
A[9, :9] = [4.77662536438264365890433908527e-1, 0.0, 0.0,
            -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
            2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
            -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2]
A[10, :10] = [-9.3714243008598732571704021658e-1, 0.0, 0.0,
              5.18637242884406370830023853209, 1.09143734899672957818500254654,
              -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
              2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
              -3.0467644718982195003823669022]
A[11, :11] = [2.27331014751653820792359768449, 0.0, 0.0,
              -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
              -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
              -2.85899827713502369474065508674, -8.87285693353062954433549289258,
              1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1]

# Eighth-order weights of the step (the tableau's row 12).
B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])

# Fifth- and third-order error weights over the 12 stages and f(t + h).
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1
E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
]

SAFETY = 0.9
MIN_FACTOR = 0.2  # bounds on the step-size change after one trial step
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # the error estimate is of order 7
SUCCESS = "The solver successfully reached the end of the integration interval."
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


@dataclass(frozen=True)
class OdeResult:
    """Accepted steps: t shaped (m,), y shaped (n, m); nfev counts calls of fun."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool
    message: str


@dataclass(frozen=True)
class RowsResult:
    """The last accepted step of each row of a batch: y shaped (M, n),
    success shaped (M,), nfev the calls of fun summed over the rows and
    row_nfev (M,) each row's share, which is its 1-D call's nfev."""

    y: np.ndarray
    success: np.ndarray
    nfev: int
    row_nfev: np.ndarray


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, span, rtol, atol):
    """Hairer's starting step for an error estimate of order 7 (span > 0)."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = np.asarray(fun(t0 + h0, y0 + h0 * f0), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span)


def _sq_norm(v):
    """np.linalg.norm(v) ** 2 for 1-D v, computed as norm does it, less
    norm's checks, as a Python float."""
    return math.sqrt(v.dot(v)) ** 2


def _error_norm(K, h, scale):
    err5_norm_2 = _sq_norm(K.T.dot(E5) / scale)
    err3_norm_2 = _sq_norm(K.T.dot(E3) / scale)
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    if denom == 0.0:  # 0.01 * err3 underflowed: numpy's 0 / 0, not Python's raise
        return math.nan
    return abs(h) * err5_norm_2 / math.sqrt(denom * len(scale))


def solve_ivp(fun, t_span, y0, rtol=1e-3, atol=1e-6):
    """Integrate y' = fun(t, y) forward over t_span = (t0, tf) with DOP853.

    Called as scipy's solve_ivp(..., method="DOP853"), less the method.
    Returns an OdeResult with every accepted step.  If the step size falls
    below ten ulps of t, success is False and t, y end at the last accepted
    step; a first step that is not finite (fun is NaN at y0) ends the call
    the same way, at y0, where scipy would never return.  A zero-length
    span returns y0 twice, as scipy does; a span that runs backwards or
    has a non-finite end raises ValueError.

    A y0 shaped (M, n) is a batch of M rows, integrated from t0 to the
    per-row end times tf (a scalar or shaped (M,)); see _solve_rows.
    """
    if np.ndim(y0) == 2:
        return _solve_rows(fun, t_span, y0, rtol, atol)
    t0, tf = map(float, t_span)
    if not (math.isfinite(t0) and math.isfinite(tf)) or tf < t0:
        raise ValueError(f"t_span must be finite and not run backwards, got {t_span}")
    y = np.asarray(y0, dtype=float)
    f = np.asarray(fun(t0, y), dtype=float)
    nfev = 1
    ts, ys = [t0], [y]
    if tf == t0:
        return OdeResult(np.array([t0, t0]), np.stack([y, y], axis=1), nfev, True, SUCCESS)
    h_abs = _initial_step(fun, t0, y, f, tf - t0, rtol, atol)
    nfev += 1
    if not math.isfinite(h_abs):  # fun is not finite at or near y0
        return OdeResult(np.array(ts), np.stack(ys, axis=1), nfev, False, TOO_SMALL_STEP)
    K = np.empty((N_STAGES + 1, y.size))
    stages = [(s, c, K[:s].T, A[s, :s]) for s, c in enumerate(C.tolist()) if s > 0]
    t = t0
    while t < tf:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return OdeResult(np.array(ts), np.stack(ys, axis=1), nfev, False,
                                 TOO_SMALL_STEP)
            t_new = min(t + h_abs, tf)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, c, k_before, a in stages:
                K[s] = fun(t + c * h, y + k_before.dot(a) * h)
            y_new = y + h * K[:-1].T.dot(B)
            f_new = np.asarray(fun(t + h, y_new), dtype=float)
            K[-1] = f_new
            nfev += N_STAGES
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return OdeResult(np.array(ts), np.stack(ys, axis=1), nfev, True, SUCCESS)


# the least subnormal: SAFETY * _LEAST ** ERROR_EXPONENT exceeds MAX_FACTOR
_LEAST = 5e-324


def _first_max(a, b):
    """Python's max(a, b) entry by entry: b only where b > a, so a NaN b
    leaves a, as max(0.2, nan) == 0.2."""
    return np.where(b > a, b, a)


def _first_min(a, b):
    """Python's min(a, b) entry by entry: b only where b < a."""
    return np.where(b < a, b, a)


def _powers(x, p):
    """x ** p entry by entry with libm's pow, on Python floats; x is 1-D."""
    return np.fromiter(map(pow, x.tolist(), repeat(p)), float, len(x))


def _row_dots(v):
    """v[i].dot(v[i]) for each row of v shaped (m, n), to the same bits."""
    return np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0]


def _row_sq_norms(v):
    """_sq_norm of each row, the square taken with pow as ``** 2`` takes it."""
    return _powers(np.sqrt(_row_dots(v)), 2)


def _initial_steps(fun, t0, y0, f0, span, rtol, atol, rows):
    """_initial_step for each row of y0 shaped (m, n)."""
    scale = atol + np.abs(y0) * rtol
    root_n = y0.shape[1] ** 0.5
    d0 = np.sqrt(_row_dots(y0 / scale)) / root_n
    d1 = np.sqrt(_row_dots(f0 / scale)) / root_n
    # both branches are computed on every row; a row that the 1-D code
    # takes the other way round may divide by 0 here, unused
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = _first_min(h0, span)
    f1 = np.asarray(fun(t0 + h0, y0 + h0[:, None] * f0, rows), dtype=float)
    d2 = np.sqrt(_row_dots((f1 - f0) / scale)) / root_n / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    with np.errstate(divide="ignore"):
        power = _powers(0.01 / _first_max(d1, d2), 1 / 8)
    h1 = np.where(flat, _first_max(1e-6, h0 * 1e-3), power)
    return _first_min(_first_min(100 * h0, h1), span)


def _error_norms(K, h, scale):
    """_error_norm for each row: K shaped (m, 13, n), h and scale per row.

    Both weighted sums go into one array, so that the division by scale,
    the row dot products, the roots and the squares are one call each for
    the two.  err5 + err3 == 0 is err5 == 0 and err3 == 0, for squares."""
    m = len(h)
    Kt = K.transpose(0, 2, 1)
    err = np.empty((2,) + scale.shape)
    np.matmul(Kt, E5, out=err[0])
    np.matmul(Kt, E3, out=err[1])
    err /= scale
    sq = _row_sq_norms(err.reshape(2 * m, -1))
    err5_norm_2, err3_norm_2 = sq[:m], sq[m:]
    denom = err5_norm_2 + 0.01 * err3_norm_2
    # denom == 0 with err5 == 0 is numpy's 0 / 0, NaN, as in _error_norm
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.abs(h) * err5_norm_2 / np.sqrt(denom * scale.shape[1])
    return np.where(err5_norm_2 + err3_norm_2 == 0, 0.0, norm)


def _keep(mask, *arrays):
    return tuple(a[mask] for a in arrays)


def _solve_rows(fun, t_span, y0, rtol, atol):
    """Integrate the M rows of y0 (M, n) from t0 to tf[i] each; a RowsResult.

    fun(t, y, rows) takes the times (m,) and states (m, n) of the rows
    still stepping and their indices (m,) into y0, and returns the
    derivatives (m, n).  rows is one array object for as long as the set
    of rows stepping is unchanged, so fun may keep what it derives from
    it until another array comes.  Each trial step evaluates every such
    row, and each row's accept/reject and next step size follow the 1-D
    loop in solve_ivp, so a row's final y, success and nfev are those of
    its own 1-D call.

    One round, a trial step of every row, makes 12 calls of fun and 99
    numpy calls besides, whatever the number of rows: 4 for each of the 11
    stages (the stage sum, its product with h, the sum with y and the copy
    of fun's value into its slot of K), 18 for the error norms, and the
    rest for the step times and the step control.  Every stage time comes
    from one broadcast, t + C h.  The step control takes the 1-D loop's
    decisions in fewer calls.  Each row's step-size factor is min(cap,
    max(MIN_FACTOR, grow)), where cap is MAX_FACTOR, or 1 after a
    rejection; grow exceeds MAX_FACTOR after an error norm of 0, which is
    raised to the least subnormal before the power.  Each row's f, y and t
    sit side by side, as do its trial step's, after the stages in one work
    row, so that one np.where takes the accepted steps.  The next step's
    floor of ten ulps of t is applied at the end of the round, so the rows
    whose rejected step fell below it leave there, together with the rows
    that reached tf.  A row's nfev is counted when it leaves.
    """
    t0 = float(t_span[0])
    y_out = np.array(y0, dtype=float)
    n_rows, n = y_out.shape
    tf_all = np.broadcast_to(np.asarray(t_span[1], dtype=float), (n_rows,))
    if not (math.isfinite(t0) and np.all(np.isfinite(tf_all))) or np.any(tf_all < t0):
        raise ValueError(f"t_span must be finite and not run backwards, got {t_span}")
    idx = np.arange(n_rows)
    f = np.asarray(fun(np.full(n_rows, t0), y_out, idx), dtype=float)
    nfev = np.ones(n_rows, dtype=int)
    success = np.ones(n_rows, dtype=bool)
    idx = idx[tf_all > t0]  # a zero-length span ends at y0, as in solve_ivp
    if not idx.size:
        return RowsResult(y_out, success, int(nfev.sum()), nfev)
    tf, y, f = tf_all[idx], y_out[idx], f[idx]
    h_abs = _initial_steps(fun, t0, y, f, tf - t0, rtol, atol, idx)
    nfev[idx] += 1
    finite = np.isfinite(h_abs)
    if not finite.all():  # those rows end at y0, as in solve_ivp
        success[idx[~finite]] = False
        idx, tf, y, f, h_abs = _keep(finite, idx, tf, y, f, h_abs)
    h_abs = _first_max(h_abs, 10 * (math.nextafter(t0, math.inf) - t0))
    cap = np.full(idx.size, MAX_FACTOR)
    # a row's [f, y, t]; a trial step's [f_new, y_new, t_new] follow its
    # stages in the row's work buffer, f_new being stage 12
    fyt = np.concatenate([f, y, np.full((idx.size, 1), t0)], axis=1)
    buf = np.empty((idx.size, (N_STAGES + 2) * n + 1))
    stage_c = C[1:, None]  # C[-1] == 1: the last stage's time is that of f_new
    matmul, mul, add = np.matmul, np.multiply, np.add
    rounds = 0
    while idx.size:
        m = idx.size
        work = buf[:m]
        k = work[:, :(N_STAGES + 1) * n].reshape(m, N_STAGES + 1, n)
        trial = work[:, N_STAGES * n:]
        f_new, y_new, t_new = trial[:, :n], trial[:, n:-1], trial[:, -1]
        stages = [(k[:, s], k[:, :s].transpose(0, 2, 1), A[s, :s]) for s in range(1, N_STAGES)]
        k_b = k[:, :-1].transpose(0, 2, 1)
        y_s = np.empty((m, n))  # a stage's state
        h_rows = np.empty((m, n))  # each row's h, over its components
        while True:
            rounds += 1
            # contiguous copies of y and h: the stages read them 12 times
            f, y, t = fyt[:, :n], fyt[:, n:-1].copy(), fyt[:, -1]
            np.minimum(t + h_abs, tf, out=t_new)  # Python's min: tf is never NaN
            h = t_new - t
            h_abs = np.abs(h)
            times = t + stage_c * h
            h_rows[...] = h[:, None]
            k[:, 0] = f
            for (k_s, k_before, a), t_s in zip(stages, times):
                matmul(k_before, a, out=y_s)
                mul(y_s, h_rows, y_s)
                add(y, y_s, y_s)
                k_s[...] = fun(t_s, y_s, idx)
            matmul(k_b, B, out=y_s)
            mul(h_rows, y_s, y_s)
            add(y, y_s, y_new)
            f_new[...] = fun(times[-1], y_new, idx)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norms(k, h, scale)
            accepted = error_norm < 1
            grow = SAFETY * _powers(np.maximum(error_norm, _LEAST), ERROR_EXPONENT)
            h_abs = h_abs * np.minimum(np.fmax(grow, MIN_FACTOR), cap)
            cap = np.where(accepted, MAX_FACTOR, 1.0)
            fyt = np.where(accepted[:, None], trial, fyt)
            t = fyt[:, -1]
            min_step = 10 * (np.nextafter(t, np.inf) - t)
            short = h_abs < min_step
            h_abs = np.where(short, min_step, h_abs)
            done = t >= tf
            # a rejected row whose next step is too small stops at its last
            # accepted step, as does a row that reached tf
            leave = done | (short > accepted)
            if leave.any():
                break
        rows = idx[leave]
        y_out[rows] = fyt[leave, n:-1]
        success[rows] = done[leave]
        nfev[rows] += N_STAGES * rounds
        idx, fyt, tf, h_abs, cap = _keep(~leave, idx, fyt, tf, h_abs, cap)
    return RowsResult(y_out, success, int(nfev.sum()), nfev)
