"""Product-basis reference for the exact oracle.

The oracle (`srlaser.oracle`) solves, measures and checks in the orbit
coordinates of permutation-invariant operators.  This module keeps the
direct product-basis forms the tests check those routes against: the
operators of cavity (x) [filter] (x) atom_1 ... atom_N, the Hamiltonian
and collapse operators, the vectorised Liouvillian and its matrix-form
action, the moments and their exact derivatives for any density matrix,
uncorrelated product states, and the collective spin operators with
their Dicke basis.  It also keeps the orbit block built the direct way,
from one list of entries summed into CSR (coo_orbit_block), which the
oracle's cached block pattern must reproduce byte for byte.

Hilbert-space ordering is cavity (x) [filter] (x) atom_1 ... atom_N with
the atomic basis |ground> = index 0, |excited> = index 1, and density
matrices are vectorised row-major.  Every operator here is a dense
d x d matrix, so d^2 is capped at the oracle's lift cap
(`oracle.MAX_SUPEROP_DIM`), the filter mode included.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from srlaser.errors import MemoryBudgetError
from srlaser.model import SystemParams
from srlaser.oracle import (
    _BRA_DOWN,
    _BRA_UP,
    _DECAY,
    _DEPHASE,
    _KET_DOWN,
    _KET_UP,
    _PUMP,
    _SM,
    _SZ,
    _UNIT,
    MAX_SUPEROP_DIM,
    OracleMoments,
    _atom_state,
    _Orbits,
    _unit_vector,
)


@dataclass(frozen=True)
class ReferenceMoments(OracleMoments):
    """The oracle's moments plus the filter mode's, set only with a filter."""
    filter_number: float | None = None
    cross_photon: complex | None = None
    cross_atom: complex | None = None

    def as_dict(self) -> dict:
        """The moments that were computed: the filter ones only with a filter mode."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def _product_dim(n_atoms: int, n_max: int, m_max: int | None = None) -> int:
    """Product-basis dimension d, once the sizes are checked."""
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if n_max < 0 or (m_max is not None and m_max < 0):
        raise ValueError("Fock cutoffs must be >= 0")
    dim = (n_max + 1) * (1 if m_max is None else m_max + 1) * 2**n_atoms
    if dim**2 > MAX_SUPEROP_DIM:
        raise MemoryBudgetError(f"product dimension {dim}^2 exceeds budget {MAX_SUPEROP_DIM}")
    return dim


def _destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def _lift(op: np.ndarray, site: int, dims: list[int]) -> np.ndarray:
    """op acting on factor `site` of a tensor product with factor sizes dims."""
    left, right = int(np.prod(dims[:site])), int(np.prod(dims[site + 1:]))
    return np.kron(np.kron(np.eye(left, dtype=complex), op), np.eye(right, dtype=complex))


class HilbertSpace:
    """Operator factory for the composite space.

    Parameters
    ----------
    n_atoms : number of atoms (>= 1)
    n_max : cavity Fock cutoff (highest retained Fock state)
    m_max : filter Fock cutoff, or None for no filter mode
    """

    def __init__(self, n_atoms: int, n_max: int, m_max: int | None = None):
        self.dim = _product_dim(n_atoms, n_max, m_max)
        self.n_atoms = n_atoms
        self.n_max = n_max
        self.m_max = m_max
        self.dims = [n_max + 1]
        if m_max is not None:
            self.dims.append(m_max + 1)
        self.dims.extend([2] * n_atoms)
        self._atom_offset = 1 if m_max is None else 2
        self.a = _lift(_destroy(n_max + 1), 0, self.dims)
        self.ad = self.a.conj().T
        if m_max is not None:
            self.f = _lift(_destroy(m_max + 1), 1, self.dims)
            self.fd = self.f.conj().T
        else:
            self.f = self.fd = None
        self.sm = [_lift(_SM, self._atom_offset + i, self.dims) for i in range(n_atoms)]
        self.sp = [op.conj().T for op in self.sm]
        self.sz = [_lift(_SZ, self._atom_offset + i, self.dims) for i in range(n_atoms)]


def hamiltonian(space: HilbertSpace, params: SystemParams,
                probe=None) -> np.ndarray:
    """H with the atomic energy written as (omega_a / 2) sum sigma_z."""
    h = params.omega_c * (space.ad @ space.a)
    for i in range(space.n_atoms):
        h = h + 0.5 * params.omega_a * space.sz[i]
        h = h + params.g * (space.ad @ space.sm[i] + space.a @ space.sp[i])
    if probe is not None:
        if space.f is None:
            raise ValueError("probe given but space was built without a filter mode")
        h = h + probe.omega_f * (space.fd @ space.f)
        h = h + probe.big_g * (space.ad @ space.f + space.a @ space.fd)
    return h


def lindblad_channels(space: HilbertSpace, params: SystemParams,
                      probe=None) -> list[tuple[float, np.ndarray]]:
    """(rate, collapse operator) pairs; chi multiplies the sigma_z channel."""
    channels = [(params.kappa, space.a)]
    for i in range(space.n_atoms):
        if params.gamma > 0.0:
            channels.append((params.gamma, space.sm[i]))
        if params.eta > 0.0:
            channels.append((params.eta, space.sp[i]))
        if params.chi > 0.0:
            channels.append((params.chi, space.sz[i]))
    if probe is not None:
        channels.append((probe.beta, space.f))
    return [(r, c) for r, c in channels if r > 0.0]


def _k_form(h, channels):
    """Sparse K = -iH - 1/2 sum r c^dag c, formed densely like H and
    converted once, and the sparse channels."""
    k = -1j * h
    for rate, c in channels:
        k = k - 0.5 * rate * (c.conj().T @ c)
    return sp.csr_matrix(k), [(rate, sp.csr_matrix(c)) for rate, c in channels]


def apply_liouvillian(rho: np.ndarray, h: np.ndarray,
                      channels: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Matrix-form action K rho + rho K^dag + sum r c rho c^dag of the
    Liouvillian, with sparse K and c; it never goes through the vectorised
    assembly, so it checks the sector solves independently."""
    k, jumps = _k_form(h, channels)
    # X A^dag = (A X^dag)^dag keeps every product sparse-times-dense
    rho_h = rho.conj().T
    out = k @ rho + (k @ rho_h).conj().T
    for rate, c in jumps:
        out = out + rate * (c @ (c @ rho_h).conj().T)
    return out


def build_liouvillian(params: SystemParams, n_max: int, probe=None,
                      m_max: int | None = None) -> sp.csr_matrix:
    """Vectorised (row-major) Liouvillian as a sparse matrix.

    Row-major vec(A rho B) = (A (x) B^T) vec(rho), so L is
    K (x) 1 + 1 (x) conj(K) + sum r c (x) conj(c).  No solve uses it: it is
    the product-basis reference the orbit blocks are checked against."""
    if probe is not None and m_max is None:
        raise ValueError("a filter probe requires an explicit m_max cutoff")
    space = HilbertSpace(params.n_atoms, n_max, m_max)
    k, jumps = _k_form(hamiltonian(space, params, probe),
                       lindblad_channels(space, params, probe))
    ident = sp.identity(space.dim, dtype=complex, format="csr")
    liouv = sp.kron(k, ident) + sp.kron(ident, k.conj())
    for rate, c in jumps:
        liouv = liouv + rate * sp.kron(c, c.conj())
    return liouv.tocsr()


def coo_orbit_block(params: SystemParams, n_max: int, charge: int) -> sp.csr_matrix:
    """The charge block of L in the orbit basis, built from scratch on
    every call: each parameter set's moves, their nonzero amplitudes, and
    one COO-to-CSR conversion that sorts the entries and sums any that
    share a place.  The oracle's _orbit_block fills a cached pattern
    instead and must give these CSR arrays byte for byte."""
    orbits = _Orbits(params.n_atoms, n_max, charge)
    nk, nb, counts = orbits.nk, orbits.nb, orbits.counts
    g, size = params.g, nk.size
    k_atom = np.array([0.5j * params.omega_a - 0.5 * (params.eta + params.chi),
                       -0.5j * params.omega_a - 0.5 * (params.gamma + params.chi)])
    k_cavity = -1j * params.omega_c - 0.5 * params.kappa
    pair_diag = np.add.outer(k_atom, k_atom.conj()).ravel() + params.chi * _DEPHASE.diagonal()
    diag = k_cavity * nk + np.conj(k_cavity) * nb + pair_diag @ counts
    # exactly, as _orbit_block writes it: nk - nb = charge + n_ge - n_eg
    diag.imag = ((params.omega_a - params.omega_c) * (counts[1] - counts[2])
                 - params.omega_c * charge)
    terms = [(0, 0, params.gamma * _DECAY + params.eta * _PUMP),
             (1, 0, -1j * g * _KET_DOWN), (-1, 0, -1j * g * _KET_UP),
             (0, 1, 1j * g * _BRA_DOWN), (0, -1, 1j * g * _BRA_UP)]
    moves = [(-1, -1, 0, 0, params.kappa)] + [
        (dk, db, p, q, m[q, p]) for dk, db, m in terms for q, p in zip(*np.nonzero(m))]
    dk, db, p, q, coef = (np.array(c) for c in zip(*moves))
    dk, db = dk[:, None], db[:, None]
    new_nk, new_nb = nk + dk, nb + db
    amp = coef[:, None] * np.where((p == q)[:, None], 1.0,
                                   np.sqrt(counts[p] * (counts[q] + 1.0)))
    amp = amp * np.sqrt(np.where(dk == 0, 1, np.maximum(nk, new_nk)))
    amp = amp * np.sqrt(np.where(db == 0, 1, np.maximum(nb, new_nb)))
    inside = (amp != 0.0) & (new_nk >= 0) & (new_nk <= n_max) & (new_nb >= 0) & (new_nb <= n_max)
    new_counts = counts[:, None, :] + (_UNIT[q] - _UNIT[p]).T[:, :, None]
    rows = np.append(np.arange(size), orbits.find(new_nk[inside], new_counts[:, inside]))
    cols = np.append(np.arange(size), np.broadcast_to(np.arange(size), amp.shape)[inside])
    return sp.csr_matrix((np.append(diag, amp[inside]), (rows, cols)), shape=(size, size))


def _expect(op: np.ndarray, rho: np.ndarray) -> complex:
    return complex(np.einsum("ij,ji->", op, rho))


def _collective(sp, sm, sz) -> dict[str, np.ndarray]:
    """J+-, Jz and J^2 from the lists of single-site sigma+, sigma-, sigma_z."""
    jp = sum(sp)
    jm = sum(sm)
    jz = 0.5 * sum(sz)
    j2 = 0.5 * (jp @ jm + jm @ jp) + jz @ jz
    return {"jp": jp, "jm": jm, "jz": jz, "j2": j2}


def moments_from_rho(space: HilbertSpace, rho: np.ndarray) -> ReferenceMoments:
    mom = {name: _expect(op, rho) for name, op in _moment_ops(space).items()}
    for name in ("photon_number", "inversion", "filter_number"):
        if name in mom:
            mom[name] = mom[name].real
    mom.setdefault("pair_corr", 0.0 + 0.0j)
    zz = _expect(space.sz[0] @ space.sz[1], rho).real if space.n_atoms >= 2 else 1.0
    j2 = _expect(_collective(space.sp, space.sm, space.sz)["j2"], rho).real
    return ReferenceMoments(zz_corr=zz, j_squared=j2, **mom)


def _moment_ops(space: HilbertSpace) -> dict[str, np.ndarray]:
    """The tracked moments' operators, keyed by moment name."""
    ops = {
        "photon_number": space.ad @ space.a,
        "atom_photon": space.a @ space.sp[0],
        "inversion": space.sz[0],
    }
    if space.n_atoms >= 2:
        ops["pair_corr"] = space.sp[0] @ space.sm[1]
    if space.f is not None:
        ops["filter_number"] = space.fd @ space.f
        ops["cross_photon"] = space.a @ space.fd
        ops["cross_atom"] = space.sm[0] @ space.fd
    return ops


def moment_derivatives(params: SystemParams, rho: np.ndarray,
                       space: HilbertSpace, probe=None) -> dict[str, complex]:
    """Exact d<O>/dt for every tracked moment, for an arbitrary state."""
    if rho.shape != (space.dim, space.dim):
        raise ValueError(
            f"state dimension {rho.shape} does not match space ({space.dim})"
        )
    drho = apply_liouvillian(
        rho, hamiltonian(space, params, probe), lindblad_channels(space, params, probe)
    )
    return {name: _expect(op, drho) for name, op in _moment_ops(space).items()}


def product_state(space: HilbertSpace, cavity_amps, bloch,
                  filter_amps=None) -> np.ndarray:
    """Uncorrelated state: pure cavity (x) [pure filter] (x) identical atoms.

    cavity_amps are Fock amplitudes (padded / truncated to the cutoff and
    normalised); bloch = (rx, ry, rz) fixes each atom's density matrix
    (I + r . sigma) / 2.
    """
    def _pure(amps, dim):
        vec = _unit_vector(amps, dim)
        return np.outer(vec, vec.conj())

    rho = _pure(cavity_amps, space.n_max + 1)
    if space.f is not None:
        if filter_amps is None:
            filter_amps = [1.0]
        rho = np.kron(rho, _pure(filter_amps, space.m_max + 1))
    elif filter_amps is not None:
        raise ValueError("filter amplitudes given but space has no filter mode")
    atom = _atom_state(bloch)
    for _ in range(space.n_atoms):
        rho = np.kron(rho, atom)
    return rho


# Pure atomic-space helpers for collective-spin tests -----------------------

def atomic_collective_ops(n_atoms: int) -> dict[str, np.ndarray]:
    """J operators on the bare 2^N atomic space (no cavity factor)."""
    space = HilbertSpace(n_atoms, 0)  # a one-state cavity adds no factor
    singles = {"sz": space.sz, "sp": space.sp, "sm": space.sm}
    return {**_collective(**singles), **singles}


def dicke_basis(n_atoms: int) -> list[tuple[float, float, np.ndarray]]:
    """Simultaneous (J, M) eigenvectors of J^2 and Jz on 2^N atoms."""
    ops = atomic_collective_ops(n_atoms)
    evals, evecs = np.linalg.eigh(ops["j2"].real)
    out = []
    used = np.zeros(len(evals), dtype=bool)
    jj_values = np.round(2.0 * ((np.sqrt(1.0 + 4.0 * evals) - 1.0) / 2.0)) / 2.0
    for jj in sorted(set(jj_values)):
        block = np.where((~used) & (np.abs(jj_values - jj) < 1e-6))[0]
        used[block] = True
        basis = evecs[:, block]
        jz_block = basis.conj().T @ ops["jz"].real @ basis
        m_vals, m_vecs = np.linalg.eigh(jz_block)
        for m, col in zip(m_vals, m_vecs.T):
            vec = basis @ col
            out.append((float(jj), float(np.round(2.0 * m) / 2.0), vec))
    return out
