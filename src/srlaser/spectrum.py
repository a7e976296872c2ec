"""Emission spectra measured through a weak auxiliary filter cavity.

The emitted light is probed by coupling the lasing mode to a second,
narrow "filter" mode with strength big_g and linewidth beta; its steady
photon number as a function of its frequency omega_f traces out the
emission spectrum convolved with a Lorentzian of width beta.  Two
independent evaluation routes are provided: the adiabatic closed form
(frozen lasing steady state, exact in the weak-probe limit) and the full
extended moment system solved on the whole frequency grid at once; their
agreement bounds the probe back-action.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cumulant import MomentState, _jacobian, _rhs_vec, steady_state
from .errors import FitError, ProbeError, SimulationError
from .model import SystemParams


@dataclass(frozen=True)
class FilterProbe:
    """Probe configuration: coupling big_g, filter linewidth beta, rad/s."""

    big_g: float
    beta: float
    omega_f: float = 0.0

    def __post_init__(self) -> None:
        if not (self.big_g > 0.0 and math.isfinite(self.big_g)):
            raise ValueError(f"big_g must be > 0, got {self.big_g}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not math.isfinite(self.omega_f):
            raise ValueError("omega_f must be finite")


@dataclass(frozen=True)
class ExtendedState:
    """Lasing moments plus the filter moments <f^dag f>, <a f^dag>,
    <sigma^- f^dag>."""

    base: MomentState
    filter_number: float
    cross_photon: complex
    cross_atom: complex

    def as_vector(self) -> np.ndarray:
        return np.concatenate([
            self.base.as_vector(),
            [self.filter_number,
             self.cross_photon.real, self.cross_photon.imag,
             self.cross_atom.real, self.cross_atom.imag],
        ])

    @staticmethod
    def from_vector(x) -> "ExtendedState":
        x = np.asarray(x, dtype=float)
        return ExtendedState(
            base=MomentState.from_vector(x[:6]),
            filter_number=float(x[6]),
            cross_photon=complex(x[7], x[8]),
            cross_atom=complex(x[9], x[10]),
        )


def _filter_widths(params: SystemParams, beta: float) -> tuple[float, float]:
    """Half-widths of the filter-cavity and filter-atom coherences."""
    return (0.5 * (beta + params.kappa),
            0.5 * (beta + params.gamma + params.eta) + 2.0 * params.chi)


def _ext_rhs(x: np.ndarray, params: SystemParams, probe: FilterProbe,
             omega_f) -> np.ndarray:
    """Extended time derivative of x, shaped (11,) or (11, M) with omega_f (M,)."""
    n, cr, ci, s, pr, pi, fn, yr, yi, zr, zi = x
    g, big_g = params.g, probe.big_g
    nn = params.n_atoms
    d1 = omega_f - params.omega_c
    d2 = omega_f - params.omega_a
    b1, b2 = _filter_widths(params, probe.beta)
    out = np.empty_like(x)
    out[:6] = _rhs_vec(x[:6], params)
    out[0] -= 2.0 * big_g * yi
    out[1] -= big_g * zi
    out[2] -= big_g * zr
    out[6] = 2.0 * big_g * yi - probe.beta * fn
    out[7] = -d1 * yi - b1 * yr + g * nn * zi
    out[8] = d1 * yr - b1 * yi + big_g * (n - fn) - g * nn * zr
    out[9] = -d2 * zi - b2 * zr + big_g * ci - g * s * yi
    out[10] = d2 * zr - b2 * zi + big_g * cr + g * s * yr
    return out


def _ext_jacobian(x: np.ndarray, omega_f: np.ndarray, params: SystemParams,
                  probe: FilterProbe) -> np.ndarray:
    """Stacked (M, 11, 11) Jacobians of _ext_rhs at the M columns of x."""
    s, yr, yi = x[3], x[7], x[8]
    g, big_g = params.g, probe.big_g
    nn = params.n_atoms
    b1, b2 = _filter_widths(params, probe.beta)
    d1 = omega_f - params.omega_c
    d2 = omega_f - params.omega_a
    jac = np.zeros((x.shape[1], 11, 11))
    jac[:, :6, :6] = _jacobian(x[:6], params)
    jac[:, 0, 8] = -2.0 * big_g
    jac[:, 1, 10] = -big_g
    jac[:, 2, 9] = -big_g
    jac[:, 6, 6] = -probe.beta
    jac[:, 6, 8] = 2.0 * big_g
    jac[:, 7, 7] = -b1
    jac[:, 7, 8] = -d1
    jac[:, 7, 10] = g * nn
    jac[:, 8, 0] = big_g
    jac[:, 8, 6] = -big_g
    jac[:, 8, 7] = d1
    jac[:, 8, 8] = -b1
    jac[:, 8, 9] = -g * nn
    jac[:, 9, 2] = big_g
    jac[:, 9, 3] = -g * yi
    jac[:, 9, 8] = -g * s
    jac[:, 9, 9] = -b2
    jac[:, 9, 10] = -d2
    jac[:, 10, 1] = big_g
    jac[:, 10, 3] = g * yr
    jac[:, 10, 7] = g * s
    jac[:, 10, 9] = d2
    jac[:, 10, 10] = -b2
    return jac


def _response_terms(base: MomentState, params: SystemParams, beta: float, omega_f):
    """w1, w2, the atomic term N g conj(c) and the denominator of the response.

    w1 and w2 are the complex filter-cavity and filter-atom frequencies;
    the ratio (w2 n + N g conj(c)) / (w1 w2 + N g^2 s) carries the whole
    adiabatic response.
    """
    b1, b2 = _filter_widths(params, beta)
    w1 = omega_f - params.omega_c + 1j * b1
    w2 = omega_f - params.omega_a + 1j * b2
    atom = params.n_atoms * params.g * base.atom_photon.conjugate()
    denom = w1 * w2 + params.n_atoms * params.g**2 * base.inversion
    return w1, w2, atom, denom


def filter_response(base: MomentState, params: SystemParams, probe: FilterProbe,
                    omega_f):
    """Adiabatic filter moments of a frozen lasing state, over an omega_f array.

    Returns (F, y, z), each shaped like omega_f: the filter photon number
    F = -(2 G^2 / beta) Im[(w2 n + N g conj(c)) / (w1 w2 + N g^2 s)],
    y = <a f^dag> and z = <sigma^- f^dag>, with w1, w2 the complex
    filter-cavity and filter-atom frequencies.  Exact in the weak-probe
    limit; it also seeds the extended Newton solve.
    """
    _, w2, atom, denom = _response_terms(base, params, probe.beta,
                                         np.asarray(omega_f, dtype=float))
    if np.any(denom == 0.0):
        raise SimulationError("filter response denominator vanished")
    ratio = (w2 * base.photon_number + atom) / denom
    y = -probe.big_g * ratio
    z = -(probe.big_g * base.atom_photon.conjugate() + params.g * base.inversion * y) / w2
    return -(2.0 * probe.big_g**2 / probe.beta) * ratio.imag, y, z


def _quotient(x: float, y: float) -> float:
    """x / y of two floats >= 0 or nan, as numpy divides: x / 0 is inf, 0 / 0 nan."""
    return x / y if y else math.inf if x > 0.0 else math.nan


@dataclass(frozen=True)
class ResponsePoles:
    """The two poles of the zero-probe filter response and their residues.

    poles[0] is the narrow pole.  Each pole k adds a line of FWHM
    2 |Im poles[k]| and peak weight |residues[k]| / |Im poles[k]| to the
    spectrum; delta_nu is the narrow one's FWHM, rad/s.
    """

    poles: np.ndarray
    residues: np.ndarray
    delta_nu: float

    @property
    def broad_weight(self) -> float:
        """Peak height of the broad pole's Lorentzian over the narrow one's.

        Small when the line is one Lorentzian of width delta_nu; nan when
        the response has no residue at all (n = c = 0).  The quotients are
        Python floats.  The residues' moduli stay numpy's: its vectorised
        complex abs rounds differently from hypot, which abs() of a Python
        complex calls, in about 30 % of random values.
        """
        (r0, r1), (p0, p1) = np.abs(self.residues).tolist(), self.poles.tolist()
        return _quotient(_quotient(r1, abs(p1.imag)), _quotient(r0, abs(p0.imag)))


def pole_linewidth(params: SystemParams, base: MomentState) -> ResponsePoles:
    """Emission linewidth from the poles of the filter response, no probe or fit.

    At zero filter width the response ratio (w2 n + N g conj(c)) /
    (w1 w2 + N g^2 s) is rational in omega_f with a quadratic
    denominator, so it is exactly the sum of two pole terms, one per root.
    Where the broad one carries no weight, the line is one Lorentzian and
    the narrow root's 2 |Im| is the width that linewidth() measures with a
    probe and a fit.

    The arithmetic is on Python complex numbers, bar two operations that
    stay numpy's so that the poles and residues keep their bits.  The
    square root is np.sqrt: cmath.sqrt rounds differently at half of the
    random points of the imaginary axis.  The divisions, for the small
    root and the residues, are numpy's Smith algorithm: CPython's complex
    division rounds differently in about 40 % of random pairs.  A double
    pole's residues are numpy's numerator / 0, without its warning.
    """
    w1, w2, atom, d0 = _response_terms(base, params, 0.0, 0.0)
    # denominator = omega^2 - 2 half omega + d0; the larger root first,
    # the smaller from the product of the roots, without cancellation
    half = -0.5 * (w1 + w2)
    root = complex(np.sqrt(half**2 - d0))
    big = half + root if abs(half + root) >= abs(half - root) else half - root
    small = complex(np.complex128(d0) / big) if big else big
    # the narrow pole first; on a tie in |Im| the small root, as a stable sort
    p0, p1 = (big, small) if abs(big.imag) < abs(small.imag) else (small, big)
    # the residue at a pole p is the numerator at omega_f = p,
    # (w2 + p) n + N g conj(c) with w2 at 0, over p minus the other pole
    n0, n1 = (w2 + p0) * base.photon_number + atom, (w2 + p1) * base.photon_number + atom
    residues = ((np.complex128(n0) / (p0 - p1), np.complex128(n1) / (p1 - p0)) if p0 != p1
                else (n0 * math.inf, n1 * math.inf))
    return ResponsePoles(np.array((p0, p1)), np.array(residues), 2.0 * abs(p0.imag))


# Newton steps of the extended solve; it stalls at round-off in a handful.
_NEWTON_STEPS = 40


def _extended_newton(params: SystemParams, probe: FilterProbe, base: MomentState,
                     omega_f: np.ndarray) -> np.ndarray:
    """Extended steady states at every omega_f at once, as an (11, M) array.

    One Newton iteration on all M points, seeded with the frozen closed
    form; each step is one stacked solve over the points still running.
    A point stops when its residual is zero or non-finite, or exceeds
    half the previous one: quadratic convergence reaches the round-off
    floor in a handful of steps.  Its best iterate is then validated
    against a loose physical bound.
    """
    fn, y, z = filter_response(base, params, probe, omega_f)
    x = np.vstack([np.repeat(base.as_vector()[:, None], omega_f.size, axis=1),
                   fn, y.real, y.imag, z.real, z.imag])
    best = x.copy()
    best_norm = np.full(omega_f.size, np.inf)
    norm = np.full(omega_f.size, np.inf)
    live = np.arange(omega_f.size)
    for _ in range(_NEWTON_STEPS):
        r = _ext_rhs(x[:, live], params, probe, omega_f[live])
        prev = norm[live]
        cur = norm[live] = np.max(np.abs(r), axis=0)
        better = live[cur < best_norm[live]]
        best[:, better] = x[:, better]
        best_norm[better] = norm[better]
        going = np.isfinite(cur) & (cur != 0.0) & (cur <= 0.5 * prev)
        live, r = live[going], r[:, going]
        if live.size == 0:
            break
        jac = _ext_jacobian(x[:, live], omega_f[live], params, probe)
        try:
            step = np.linalg.solve(jac, -r.T[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise SimulationError(
                f"extended Newton failed for omega_f in [{omega_f[live].min():.6e}, "
                f"{omega_f[live].max():.6e}]: {exc}"
            ) from exc
        x[:, live] += step.T
    rate_scale = np.maximum(
        max(params.kappa, probe.beta, params.gamma + params.eta, 4.0 * params.chi,
            math.sqrt(params.n_atoms) * params.g, probe.big_g),
        np.maximum(np.abs(omega_f - params.omega_c), np.abs(omega_f - params.omega_a)),
    )
    floor = 1e-8 * rate_scale * (1.0 + np.max(np.abs(best), axis=0))
    bad = np.flatnonzero(~np.all(np.isfinite(best), axis=0) | (best_norm > floor))
    if bad.size:
        k = bad[0]
        raise SimulationError(
            f"extended Newton stalled at omega_f = {omega_f[k]:.6e}: residual "
            f"{best_norm[k]:.3e} (bound {floor[k]:.3e})"
        )
    return best


def extended_steady_state(params: SystemParams, probe: FilterProbe,
                          base: MomentState) -> ExtendedState:
    """Full self-consistent steady state of the probed system at probe.omega_f.

    The one-point case of scan(method="ode"): Newton on the 11-component
    system, seeded with the frozen closed form, run until the residual
    stalls at its round-off floor and then checked against a loose
    physical bound.
    """
    x = _extended_newton(params, probe, base, np.array([probe.omega_f]))
    return ExtendedState.from_vector(x[:, 0])


def _checked_grid(grid) -> np.ndarray:
    """grid as floats; ValueError unless 1-d, >= 2 points, finite, increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be 1-d with at least 2 points")
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0.0)):
        raise ValueError("grid must be finite and strictly increasing")
    return grid


@dataclass(frozen=True)
class SpectrumScan:
    """Filter photon number (intensity) versus filter frequency omega, rad/s.

    Both are 1-d float arrays of one length, omega strictly increasing.
    """

    omega: np.ndarray
    intensity: np.ndarray

    def __post_init__(self) -> None:
        omega = _checked_grid(self.omega)
        intensity = np.asarray(self.intensity, dtype=float)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "intensity", intensity)
        if omega.shape != intensity.shape:
            raise ValueError("omega and intensity must be matching 1-d arrays")

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.omega.tolist(), self.intensity.tolist()))


def scan(params: SystemParams, probe: FilterProbe, grid,
         method: str = "closed_form", *, base: MomentState) -> SpectrumScan:
    """Sweep the filter frequency across grid and record its occupation.

    base is the lasing steady state (steady_state(params)).  method
    "closed_form" freezes it and evaluates the adiabatic filter_response on
    the grid; "ode" solves the full extended system, including probe
    back-action, at all grid points at once: one Newton iteration with a
    stacked 11 x 11 solve per step.  A point that does not converge raises
    SimulationError naming its omega_f.
    """
    grid = _checked_grid(grid)
    if method == "closed_form":
        intensity = filter_response(base, params, probe, grid)[0]
    elif method == "ode":
        intensity = _extended_newton(params, probe, base, grid)[6]
    else:
        raise ValueError(f"unknown method {method!r}")
    return SpectrumScan(omega=grid, intensity=intensity)


@dataclass(frozen=True)
class LorentzianFit:
    amplitude: float
    center: float
    fwhm: float
    offset: float
    rms_residual: float


def _lorentzian(omega, amplitude, center, fwhm, offset):
    half = 0.5 * abs(fwhm)
    return amplitude * half**2 / ((omega - center) ** 2 + half**2) + offset


def _lorentzian_jacobian(omega, amplitude, center, fwhm, offset):
    """Columns d/d(amplitude, center, fwhm, offset) of _lorentzian."""
    half = 0.5 * abs(fwhm)
    dw = omega - center
    denom = dw**2 + half**2
    shape = half**2 / denom
    return np.column_stack([
        shape,
        2.0 * amplitude * shape * dw / denom,
        np.sign(fwhm) * amplitude * half * dw**2 / denom**2,
        np.ones_like(omega),
    ])


def _initial_guess(omega, intensity):
    k_peak = int(np.argmax(intensity))
    center = omega[k_peak]
    lo, hi = float(np.min(intensity)), float(np.max(intensity))
    edge = np.concatenate([intensity[:3], intensity[-3:]])
    offset = float(np.median(edge))
    amplitude = hi - offset
    half_level = offset + 0.5 * amplitude
    left = right = None
    for k in range(k_peak, 0, -1):
        if intensity[k - 1] <= half_level <= intensity[k]:
            frac = (half_level - intensity[k - 1]) / (intensity[k] - intensity[k - 1])
            left = omega[k - 1] + frac * (omega[k] - omega[k - 1])
            break
    for k in range(k_peak, len(omega) - 1):
        if intensity[k + 1] <= half_level <= intensity[k]:
            frac = (intensity[k] - half_level) / (intensity[k] - intensity[k + 1])
            right = omega[k] + frac * (omega[k + 1] - omega[k])
            break
    if left is not None and right is not None:
        fwhm = right - left
        span_checked = True
    else:
        fwhm = 0.25 * (omega[-1] - omega[0])
        span_checked = False
    return amplitude, center, max(fwhm, 1e-300), offset, span_checked


def fit_lorentzian(scan_data: SpectrumScan) -> LorentzianFit:
    """Least-squares Lorentzian fit with half-max-crossing initialisation."""
    from scipy.optimize import least_squares

    omega = scan_data.omega
    intensity = scan_data.intensity
    if omega.size < 8:
        raise ValueError(f"need >= 8 points to fit, got {omega.size}")
    top = float(np.max(intensity))
    if top - float(np.min(intensity)) < 1e-12 * max(abs(top), 1e-300):
        raise FitError("no line: scan is flat")
    amplitude, center, fwhm, offset, span_checked = _initial_guess(omega, intensity)
    if span_checked and (omega[-1] - omega[0]) < 1.5 * fwhm:
        raise FitError(
            "scan span is narrower than 3 estimated half-widths; widen the grid"
        )

    y_scale = max(abs(amplitude), 1e-300)
    w_scale = max(fwhm, 1e-300)

    def residuals(theta):
        return (_lorentzian(omega, *theta) - intensity) / y_scale

    def jacobian(theta):
        return _lorentzian_jacobian(omega, *theta) / y_scale

    result = least_squares(
        residuals, jac=jacobian,
        x0=np.array([amplitude, center, fwhm, offset]),
        x_scale=[y_scale, w_scale, w_scale, y_scale],
        xtol=1e-12, ftol=1e-14, gtol=1e-14, max_nfev=1000,
    )
    fit = LorentzianFit(
        amplitude=float(result.x[0]),
        center=float(result.x[1]),
        fwhm=float(abs(result.x[2])),
        offset=float(result.x[3]),
        rms_residual=float(
            np.sqrt(np.mean(result.fun**2)) * y_scale / max(abs(result.x[0]), 1e-300)
        ),
    )
    if not result.success and result.status != 0:
        raise FitError(f"fit failed: {result.message}")
    if result.status == 0:
        raise FitError("fit did not converge within the evaluation budget")
    return fit


@dataclass(frozen=True)
class LinewidthResult:
    delta_nu: float
    fit: LorentzianFit
    probe: FilterProbe
    scan: SpectrumScan


# The line-width estimate over the filter width beta that auto_probe sets,
# so that linewidth reads the estimate back as this times beta.
_WIDTH_OVER_BETA = 10.0


def auto_probe(params: SystemParams, base: MomentState) -> FilterProbe:
    """Choose beta and big_g so the probe resolves the line of the lasing
    steady state base (steady_state(params)) faithfully.

    The design starts at the narrow response pole (pole_linewidth): its
    real part is the centre and its FWHM the width estimate.  Each estimate
    sets beta = estimate / 10 (_WIDTH_OVER_BETA), big_g = min(1e-3 kappa,
    1e-2 sqrt(beta * estimate)) and a 201-point closed-form pass over +-3
    (estimate + beta) whose fitted FWHM minus beta is the next estimate,
    until it moves by < 5 %.  An estimate below 1e-12 kappa, or 16 passes
    without settling, raise ProbeError, as does a settled probe whose
    coupling, halved on the full extended system, moves the normalised line
    shape by >= 0.5 % point-wise.  The returned probe's omega_f holds the
    fitted line centre.  A lossless cavity (kappa = 0) emits no light to
    probe, and raises ProbeError at once.
    """
    kappa = params.kappa
    if kappa == 0.0:
        raise ProbeError("no light leaves a lossless cavity (kappa = 0), so there "
                         "is no emission line to probe")
    floor = 1e-12 * kappa

    def design(est):
        beta = est / _WIDTH_OVER_BETA
        return beta, min(1e-3 * kappa, 1e-2 * math.sqrt(beta * est)), 3.0 * (est + beta)

    pole = pole_linewidth(params, base)
    center, est = float(pole.poles[0].real), pole.delta_nu
    beta, big_g, half_window = design(est)
    for _ in range(16):
        grid = np.linspace(center - half_window, center + half_window, 201)
        probe = FilterProbe(big_g=big_g, beta=beta, omega_f=center)
        fit = fit_lorentzian(scan(params, probe, grid, base=base))
        center, previous, est = fit.center, est, fit.fwhm - beta
        if est < floor:
            raise ProbeError(f"line estimate {est:.3e} rad/s is below the "
                             f"resolvable floor {floor:.3e}")
        beta, big_g, half_window = design(est)
        if abs(est - previous) < 0.05 * previous:
            break
    else:
        raise ProbeError(f"the probe design did not settle in 16 passes: its last "
                         f"two line estimates are {previous:.3e} and {est:.3e} rad/s")

    grid = np.linspace(center - half_window, center + half_window, 21)
    full, half = (scan(params, FilterProbe(big_g=g, beta=beta, omega_f=center), grid,
                       method="ode", base=base).intensity for g in (big_g, 0.5 * big_g))
    change = float(np.max(np.abs(full / np.max(full) - half / np.max(half))))
    if not change < 5e-3:
        raise ProbeError(f"halving the probe coupling {big_g:.3e} rad/s moves the "
                         f"line shape by {change:.3e} (gate 5e-3)")
    return FilterProbe(big_g=big_g, beta=beta, omega_f=center)


def linewidth(params: SystemParams, base: MomentState | None = None) -> LinewidthResult:
    """End-to-end deconvolved emission linewidth (FWHM, rad/s).

    steady state (unless base is given) -> automatic probe -> 101-point
    closed-form scan over +-60 beta around the line -> Lorentzian fit ->
    subtract the filter width beta.
    """
    if base is None:
        base = steady_state(params)
    probe = auto_probe(params, base=base)
    est = _WIDTH_OVER_BETA * probe.beta
    grid = np.linspace(probe.omega_f - 6.0 * est, probe.omega_f + 6.0 * est, 101)
    scan_data = scan(params, probe, grid, base=base)
    fit = fit_lorentzian(scan_data)
    delta_nu = fit.fwhm - probe.beta
    if delta_nu <= 0.0:
        raise ProbeError(
            f"fitted width {fit.fwhm:.3e} does not exceed the filter width "
            f"{probe.beta:.3e}"
        )
    return LinewidthResult(delta_nu=delta_nu, fit=fit, probe=probe, scan=scan_data)
