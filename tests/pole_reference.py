"""Array-form reference for the response poles.

`srlaser.spectrum.pole_linewidth` finds the two poles of the zero-probe
filter response, and their residues, on Python complex numbers.  This
module keeps the earlier numpy form of the same computation, with its
own copy of the response terms: the roots as numpy scalars, the poles
sorted by |Im| into an array, the numerators over that array, the
residues and peak weights as array quotients under np.errstate.  The
tests require the two forms to give the same delta_nu and poles bit for
bit, and the same broad-pole weight or nan on both sides.
"""
from __future__ import annotations

import numpy as np

from srlaser.cumulant import MomentState
from srlaser.model import SystemParams
from srlaser.spectrum import ResponsePoles, pole_linewidth


def response_terms(base: MomentState, params: SystemParams, omega_f):
    """w1, w2 and the numerator and denominator of the zero-width response."""
    b1 = 0.5 * (0.0 + params.kappa)
    b2 = 0.5 * (0.0 + params.gamma + params.eta) + 2.0 * params.chi
    w1 = omega_f - params.omega_c + 1j * b1
    w2 = omega_f - params.omega_a + 1j * b2
    numer = w2 * base.photon_number + params.n_atoms * params.g * base.atom_photon.conjugate()
    denom = w1 * w2 + params.n_atoms * params.g**2 * base.inversion
    return w1, w2, numer, denom


def reference_poles(params: SystemParams, base: MomentState):
    """(poles, residues, delta_nu, broad_weight) in the array form."""
    w1, w2, _, d0 = response_terms(base, params, 0.0)
    half = -0.5 * (w1 + w2)
    root = np.sqrt(half**2 - d0)
    big = half + root if abs(half + root) >= abs(half - root) else half - root
    small = d0 / big if big != 0.0 else big
    poles = np.array(sorted((small, big), key=lambda p: abs(p.imag)))
    numer = response_terms(base, params, poles)[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        residues = numer / (poles - poles[::-1])
        peak = np.abs(residues) / np.abs(poles.imag)
        weight = float(peak[1] / peak[0])
    return poles, residues, 2.0 * abs(float(poles[0].imag)), weight


def assert_matches_reference(params: SystemParams, base: MomentState) -> ResponsePoles:
    """pole_linewidth(params, base), checked against the array form.

    delta_nu and the poles must be equal, the residues equal part by part
    (nan where the reference has nan), and broad_weight equal or nan on
    both sides.
    """
    got = pole_linewidth(params, base)
    poles, residues, delta_nu, weight = reference_poles(params, base)
    assert got.delta_nu == delta_nu
    assert got.poles.dtype == got.residues.dtype == np.complex128
    assert np.array_equal(got.poles, poles)
    np.testing.assert_array_equal(got.residues.real, residues.real)
    np.testing.assert_array_equal(got.residues.imag, residues.imag)
    assert got.broad_weight == weight or (np.isnan(got.broad_weight) and np.isnan(weight))
    return got
