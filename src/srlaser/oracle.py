"""Brute-force master-equation reference solver for small atom numbers.

Builds the exact Liouvillian of N two-level atoms coupled to a truncated
cavity mode (optionally plus a weak filter mode), finds its stationary
density matrix, evaluates exact moment derivatives for arbitrary states,
and computes emission spectra through the quantum regression theorem.
Everything here is deliberately direct: this module is the trust anchor
the fast moment-closure solver is checked against, and the two routes
must stay independent.

L rho = K rho + rho K^dag + sum_k r_k c_k rho c_k^dag, with the effective
Hamiltonian K = -iH - 1/2 sum_k r_k c_k^dag c_k.  Every term conserves
q(ket) - q(bra), where q counts cavity photons, filter photons and excited
atoms, so the Liouvillian is block diagonal in that charge, and only the
block being solved is assembled.  Every term also treats the atoms alike
(one g, gamma, eta and chi), so L maps permutation-invariant operators to
permutation-invariant operators; rho_ss and a rho_ss are such operators.
Each block is therefore assembled in the orthonormal basis of the sector's
orbits under atom permutations (_orbits), which has O(N^3) rather than
4^N atomic entries per pair of mode occupations.  Each Fock cutoff
assembles and LU-solves its charge-0 orbit block once for the stationary
state, the permutation-invariant one.  The spectrum is a resolvent of the
returned cutoff's charge -1 orbit block, which holds a rho_ss and has no
zero eigenvalue; a few block-diagonal stacks, one sparse LU each, solve
the whole grid, so nothing is propagated in time.  The assembly itself
still runs over the product basis's entries, and `build_liouvillian`
returns the full product-basis matrix.

Hilbert-space ordering is cavity (x) [filter] (x) atom_1 ... atom_N with
the atomic basis |ground> = index 0, |excited> = index 1, and density
matrices are vectorised row-major.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CutoffError, MemoryBudgetError, SimulationError
from .model import SystemParams

MAX_ATOMS = 6
MAX_SUPEROP_DIM = 2**20  # cap on d^2 for the vectorised Liouvillian
# relative change of every reported moment between cutoffs n_max and
# n_max + 2 below which the stationary state counts as converged
DRIFT_TOL = 1e-6
MAX_ROUNDS = 3  # cutoff raises before oracle_steady_state gives up
CHECK_SEED, CHECK_N_MAX = 7, 6  # of derivative_match_error's product states

_SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
_SZ = np.diag([-1.0, 1.0]).astype(complex)
_ID2 = np.eye(2, dtype=complex)


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
    n_atoms : number of atoms (<= MAX_ATOMS)
    n_max : cavity Fock cutoff (highest retained Fock state)
    m_max : filter Fock cutoff, or None for no filter mode
    """

    def __init__(self, n_atoms: int, n_max: int, m_max: int | None = None):
        if n_atoms < 1 or n_atoms > MAX_ATOMS:
            raise ValueError(f"n_atoms must be in 1..{MAX_ATOMS}, got {n_atoms}")
        if n_max < 0 or (m_max is not None and m_max < 0):
            raise ValueError("Fock cutoffs must be >= 0")
        self.n_atoms = n_atoms
        self.n_max = n_max
        self.m_max = m_max
        self.dims = [n_max + 1]
        if m_max is not None:
            self.dims.append(m_max + 1)
        self.dims.extend([2] * n_atoms)
        self.dim = int(np.prod(self.dims))
        # each basis state's occupation digits, one row per factor; q is their sum
        self.digits = np.indices(self.dims).reshape(len(self.dims), -1)
        self.charge = self.digits.sum(axis=0)
        if self.dim**2 > MAX_SUPEROP_DIM:
            raise MemoryBudgetError(
                f"superoperator dimension {self.dim}^2 exceeds budget {MAX_SUPEROP_DIM}"
            )
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


def _apply(rho: np.ndarray, k, jumps) -> np.ndarray:
    # X A^dag = (A X^dag)^dag keeps every product sparse-times-dense
    rho_h = rho.conj().T
    out = k @ rho + (k @ rho_h).conj().T
    for rate, c in jumps:
        out = out + rate * (c @ (c @ rho_h).conj().T)
    return out


def apply_liouvillian(rho: np.ndarray, h: np.ndarray,
                      channels: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Matrix-form action K rho + rho K^dag + sum r c rho c^dag of the
    Liouvillian, with sparse K and c; it never goes through the vectorised
    assembly, so it checks the sector solves independently."""
    return _apply(rho, *_k_form(h, channels))


def build_liouvillian(params: SystemParams, n_max: int, probe=None,
                      m_max: int | None = None) -> sp.csr_matrix:
    """Vectorised (row-major) Liouvillian as a sparse matrix."""
    if probe is not None and m_max is None:
        raise ValueError("a filter probe requires an explicit m_max cutoff")
    space = HilbertSpace(params.n_atoms, n_max, m_max)
    return _superoperator(space, *_k_form(hamiltonian(space, params, probe),
                                          lindblad_channels(space, params, probe)))


def _superoperator(space: HilbertSpace, k, jumps, charge=None) -> sp.csr_matrix:
    """Row-major vec(A rho B) = (A (x) B^T) vec(rho), so L is
    K (x) 1 + 1 (x) conj(K) + sum r c (x) conj(c), each term broadcast from
    its factors' COO entries.  With a charge, only that sector's rows are
    kept; every term conserves q, so its columns too.  The sector block is
    returned in the orthonormal orbit basis of its permutation-invariant
    operators (see _orbits): entry (r, c) goes to (orbit[r], orbit[c]) with
    weight w[r] w[c], which is V^T L V for the sector's orbit matrix V.
    Every term treats the atoms alike, so L V = V (V^T L V) exactly."""
    d, q = space.dim, space.charge
    k, ident = k.tocoo(), sp.identity(d, dtype=complex, format="coo")
    jumps = [(rate, c.tocoo()) for rate, c in jumps]
    data, row, col = [], [], []
    for rate, a, b in [(1.0, k, ident), (1.0, ident, k)] + [(r, c, c) for r, c in jumps]:
        keep = np.s_[:] if charge is None else q[a.row][:, None] - q[b.row] == charge
        data.append((rate * a.data[:, None] * b.data.conj())[keep].ravel())
        row.append((a.row[:, None] * d + b.row)[keep].ravel())
        col.append((a.col[:, None] * d + b.col)[keep].ravel())
    data, row, col = (np.concatenate(part) for part in (data, row, col))
    size = d * d
    if charge is not None:
        idx, orbit, w = _orbits(space, charge)
        row, col = np.searchsorted(idx, row), np.searchsorted(idx, col)
        data = data * w[row] * w[col]
        row, col, size = orbit[row], orbit[col], int(orbit.max(initial=-1)) + 1
    # one CSR build sums the overlapping entries of all terms and orbits
    return sp.csr_matrix((data, (row, col)), shape=(size, size))


@dataclass(frozen=True)
class OracleMoments:
    photon_number: float
    atom_photon: complex
    inversion: float
    pair_corr: complex
    zz_corr: float
    j_squared: float
    filter_number: float | None = None
    cross_photon: complex | None = None
    cross_atom: complex | None = None

    def as_dict(self) -> dict:
        """The moments that were computed: the filter ones only with a filter mode."""
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass
class OracleResult:
    rho: np.ndarray
    space: HilbertSpace
    moments: OracleMoments
    n_max: int
    # the cutoff's sparse K and jumps, from which the spectrum assembles
    # its charge -1 block
    k_form: tuple = field(repr=False)
    # max |L rho| and the least eigenvalue of rho, set on the returned cutoff
    residual: float = float("nan")
    eigmin: float = float("nan")


def _expect(op: np.ndarray, rho: np.ndarray) -> complex:
    return complex(np.einsum("ij,ji->", op, rho))


def _collective(sp, sm, sz) -> dict[str, np.ndarray]:
    """J+-, Jz and J^2 from the lists of single-site sigma+, sigma-, sigma_z."""
    jp = sum(sp)
    jm = sum(sm)
    jz = 0.5 * sum(sz)
    j2 = 0.5 * (jp @ jm + jm @ jp) + jz @ jz
    return {"jp": jp, "jm": jm, "jz": jz, "j2": j2}


def moments_from_rho(space: HilbertSpace, rho: np.ndarray) -> OracleMoments:
    mom = {name: _expect(op, rho) for name, op in _moment_ops(space).items()}
    for name in ("photon_number", "inversion", "filter_number"):
        if name in mom:
            mom[name] = mom[name].real
    mom.setdefault("pair_corr", 0.0 + 0.0j)
    zz = _expect(space.sz[0] @ space.sz[1], rho).real if space.n_atoms >= 2 else 1.0
    j2 = _expect(_collective(space.sp, space.sm, space.sz)["j2"], rho).real
    return OracleMoments(zz_corr=zz, j_squared=j2, **mom)


def _sector(space: HilbertSpace, charge: int) -> np.ndarray:
    """Row-major vec indices, in increasing order, of the entries rho[i, j]
    with q_i - q_j = charge, where q counts cavity photons, filter photons
    and excited atoms.  The Liouvillian never mixes two sectors."""
    q = space.charge
    return np.flatnonzero((q[:, None] - q).reshape(-1) == charge)


def _orbits(space: HilbertSpace, charge: int):
    """The sector's vec indices idx (as _sector), the orbit number of each
    entry and its weight w = 1 / sqrt(orbit size).

    Permuting the atoms moves rho[i, j] only among the entries with the same
    mode (cavity and filter) occupations of i and of j and the same number
    of atoms in each (ket, bra) pair gg, ge, eg and ee: one orbit.  Column o
    of the orbit matrix V holds w on orbit o's entries, so V's columns are an
    orthonormal basis of the sector's permutation-invariant operators, and
    vec[idx] = w * x[orbit] lifts orbit coordinates x.  Orbits are numbered
    in order of their first entry: orbit 0 of the charge-0 sector is
    rho[0, 0] alone, and at N = 1, where every orbit is one entry, orbit[r]
    is r and w is 1."""
    idx = _sector(space, charge)
    d, n = space.dim, space.n_atoms
    ket, bra = idx // d, idx % d
    atoms = space.digits[space._atom_offset:]
    excited = atoms.sum(axis=0)
    # the atom digits are the lowest, so i >> n numbers the mode occupations of i
    key = (ket >> n) * (d >> n) + (bra >> n)
    for count in (excited[ket], excited[bra], (atoms[:, ket] & atoms[:, bra]).sum(axis=0)):
        key = key * (n + 1) + count
    _, first, orbit, size = np.unique(key, return_index=True, return_inverse=True,
                                      return_counts=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return idx, rank[orbit], 1.0 / np.sqrt(size[orbit])


def _factor(block: sp.spmatrix, what: str):
    """Sparse LU of a Liouvillian block; a singular block is a typed error."""
    try:
        return spla.splu(block.tocsc())
    except RuntimeError as exc:
        raise SimulationError(f"Liouvillian block is singular ({what}): {exc}") from exc


def _solve_stationary(block: sp.csr_matrix, space: HilbertSpace) -> np.ndarray:
    """Stationary rho from the charge-0 orbit block, its first row (orbit 0,
    the entry rho[0, 0]) replaced by the trace functional, whose entry for
    an orbit is the sum of the weights of its diagonal entries.  rho is
    permutation invariant, so the orbit block holds it; a singular block
    means the invariant sector has no unique stationary state."""
    d, n = space.dim, block.shape[0]
    idx, orbit, w = _orbits(space, 0)
    diag = idx // d == idx % d
    trace_row = np.bincount(orbit[diag], weights=w[diag], minlength=n)
    b = np.zeros(n, dtype=complex)
    b[0] = 1.0
    x = _factor(sp.vstack([sp.csr_matrix(trace_row.astype(complex)), block[1:]]),
                "no unique stationary state").solve(b)
    vec = np.zeros(d * d, dtype=complex)
    vec[idx] = w * x[orbit]
    rho = vec.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    return rho


def _steady_once(params: SystemParams, n_max: int) -> OracleResult:
    space = HilbertSpace(params.n_atoms, n_max)
    k, jumps = _k_form(hamiltonian(space, params), lindblad_channels(space, params))
    rho = _solve_stationary(_superoperator(space, k, jumps, 0), space)
    return OracleResult(rho=rho, space=space, moments=moments_from_rho(space, rho),
                        n_max=n_max, k_form=(k, jumps))


def _moment_drift(a: OracleMoments, b: OracleMoments) -> float:
    drift = 0.0
    b_dict = b.as_dict()
    for key, va in a.as_dict().items():
        vb = b_dict[key]
        scale = max(abs(va), abs(vb), 1e-12)
        drift = max(drift, abs(va - vb) / scale)
    return drift


def oracle_steady_state(params: SystemParams, n_max: int = 6) -> OracleResult:
    """Stationary state with automatic Fock-cutoff convergence.

    Solves at n_max and n_max + 2 and requires every reported moment to
    agree to DRIFT_TOL relative; otherwise the cutoff is raised by 2, at
    most MAX_ROUNDS times, so the last cutoff solved is n_max + 6.  Each
    round's upper solve is the next round's lower one, so every cutoff is
    assembled and solved once.  CutoffError names the last cutoff and its
    drift.
    """
    low = _steady_once(params, n_max)
    for _ in range(MAX_ROUNDS):
        high = _steady_once(params, low.n_max + 2)
        drift = _moment_drift(low.moments, high.moments)
        if drift < DRIFT_TOL:
            high.residual = float(np.max(np.abs(_apply(high.rho, *high.k_form))))
            high.eigmin = float(np.linalg.eigvalsh(high.rho)[0])
            return high
        low = high
    raise CutoffError(
        f"moments still drift {drift:.2e} (> {DRIFT_TOL:.0e}) at n_max={high.n_max}",
        drift=drift,
    )


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
        vec = np.zeros(dim, dtype=complex)
        amps = np.asarray(amps, dtype=complex)
        vec[: len(amps)] = amps[:dim]
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ValueError("state amplitudes are all zero")
        vec = vec / norm
        return np.outer(vec, vec.conj())

    rho = _pure(cavity_amps, space.n_max + 1)
    if space.f is not None:
        if filter_amps is None:
            filter_amps = [1.0]
        rho = np.kron(rho, _pure(filter_amps, space.m_max + 1))
    elif filter_amps is not None:
        raise ValueError("filter amplitudes given but space has no filter mode")
    rx, ry, rz = bloch
    if rx * rx + ry * ry + rz * rz > 1.0 + 1e-12:
        raise ValueError("Bloch vector must satisfy |r| <= 1")
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
    atom = 0.5 * (_ID2 + rx * sx + ry * sy + rz * _SZ)
    for _ in range(space.n_atoms):
        rho = np.kron(rho, atom)
    return rho


def oracle_spectrum(params: SystemParams, n_max: int, omega_grid):
    """Emission spectrum via the quantum regression theorem.

    S(omega) = Re integral_0^inf Tr[a^dag exp(L tau)(a rho_ss)] e^{i omega tau}
    d tau = -Re Tr[a^dag (L + i omega)^-1 (a rho_ss)].  a rho_ss lies in
    the charge -1 block of L, which has no zero eigenvalue, so each grid
    point is a sparse solve of that block, exact at omega = 0 too.  a rho_ss
    is permutation invariant, so its solves stay in the orbit block:
    a rho_ss = V x and Tr[a^dag V y] = (V^T ad_vec) . y, both reduced by a
    weighted bincount.  The block-diagonal stacks of these systems hold at
    most d^2 unknowns each, d^2 // n systems of n orbits.
    Returns a unit-peak-normalised SpectrumScan.
    """
    from .spectrum import SpectrumScan  # local import to keep layering one-way

    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.ndim != 1 or omega_grid.size < 2:
        raise ValueError("omega_grid must be a 1-d grid with >= 2 points")
    result = oracle_steady_state(params, n_max=n_max)
    space = result.space
    idx, orbit, w = _orbits(space, -1)

    def reduce(vec):  # V^T vec, a weighted bincount of each part
        vec = vec.reshape(-1)[idx]
        return (np.bincount(orbit, weights=w * vec.real)
                + 1j * np.bincount(orbit, weights=w * vec.imag))

    # a rho_ss is invariant, so it is V x; Tr[ad X] = sum(ad.T * X) = ad_vec . x
    x = reduce(space.a @ result.rho)
    ad_vec = reduce(space.ad.T)

    c0 = ad_vec @ x
    if abs(c0) < 1e-14:
        return SpectrumScan(omega=omega_grid, intensity=np.zeros_like(omega_grid))

    block = _superoperator(space, *result.k_form, -1).tocoo()
    n = x.size
    per_stack = space.dim**2 // n
    intensity = []
    for start in range(0, omega_grid.size, per_stack):
        omega = omega_grid[start:start + per_stack]
        m = omega.size
        # system j of the stack sits at offset n j, with i omega_j on its diagonal
        at, diag = n * np.arange(m)[:, None], np.arange(n * m)
        stack = sp.csc_matrix((np.append(np.tile(block.data, m), np.repeat(1j * omega, n)),
                               (np.append(at + block.row, diag), np.append(at + block.col, diag))))
        sol = _factor(stack, "undamped correlation").solve(np.tile(x, m))
        intensity.extend(-(sol.reshape(m, n) @ ad_vec).real)
    intensity = np.array(intensity)
    peak = np.max(intensity)
    if peak <= 0.0:
        raise SimulationError("spectrum has no positive peak; grid may miss the line")
    return SpectrumScan(omega=omega_grid, intensity=intensity / peak)


def _random_product_inputs(rng, support: int = 4):
    """Seeded cavity amplitudes and Bloch vector for a derivative check."""
    amps = rng.normal(size=support) + 1j * rng.normal(size=support)
    r = rng.normal(size=3)
    r = r / np.linalg.norm(r) * rng.uniform(0.1, 0.9)
    return amps, tuple(r)


def derivative_match_error(params: SystemParams, n_states: int = 25) -> float:
    """Worst relative mismatch between the moment-closure right-hand side
    and the exact derivatives, over n_states uncorrelated product states
    drawn with CHECK_SEED at cutoff CHECK_N_MAX.

    On such states every factorization used by the closure is an exact
    identity, so the two must agree to round-off; this pins every sign
    and rate convention in the moment equations.
    """
    from .cumulant import MomentState, rhs

    rng = np.random.default_rng(CHECK_SEED)
    space = HilbertSpace(params.n_atoms, CHECK_N_MAX)
    k, jumps = _k_form(hamiltonian(space, params), lindblad_channels(space, params))
    ops = _moment_ops(space)
    worst = 0.0
    for _ in range(n_states):
        amps, bloch = _random_product_inputs(rng)
        rho = product_state(space, amps, bloch)
        drho = _apply(rho, k, jumps)
        mom = {name: _expect(op, rho) for name, op in ops.items()}
        exact = {name: _expect(op, drho) for name, op in ops.items()}
        approx = rhs(
            MomentState(
                photon_number=mom["photon_number"].real,
                atom_photon=mom["atom_photon"], inversion=mom["inversion"].real,
                pair_corr=mom.get("pair_corr", 0j),
            ),
            params,
        )
        pairs = [
            (exact["photon_number"], complex(approx.photon_number)),
            (exact["atom_photon"], approx.atom_photon),
            (exact["inversion"], complex(approx.inversion)),
        ]
        if params.n_atoms >= 2:
            pairs.append((exact["pair_corr"], approx.pair_corr))
        floor = 1e-3 * max(max(abs(a), abs(b)) for a, b in pairs)
        for a, b in pairs:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), floor, 1e-300))
    return worst


def consistency_report() -> list[dict]:
    """Cross-validation suite between this solver and the moment closure.

    Returns one record {test, max_error, pass} per check; meant for the
    oracle-check CLI subcommand.
    """
    report = []
    desk = dict(g=0.25, kappa=1.0, gamma=0.01, eta=0.2, chi=0.03)
    for n_atoms, n_states in ((2, 10), (3, 8), (4, 5)):
        err = derivative_match_error(
            SystemParams(n_atoms=n_atoms, **desk), n_states=n_states)
        report.append({
            "test": f"derivative_match_n{n_atoms}",
            "max_error": err, "pass": bool(err < 1e-10),
        })

    params2 = SystemParams(n_atoms=2, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
    result = oracle_steady_state(params2, n_max=6)
    trace_err = abs(np.trace(result.rho) - 1.0)
    herm_err = float(np.max(np.abs(result.rho - result.rho.conj().T)))
    neg = max(0.0, -result.eigmin)
    report.append({
        "test": "steady_state_validity_n2",
        "max_error": float(max(trace_err, herm_err, neg)),
        "pass": bool(trace_err < 1e-10 and herm_err < 1e-10 and neg < 1e-8),
    })

    from .cumulant import steady_state

    params3 = SystemParams(n_atoms=3, g=0.25, kappa=1.0, gamma=0.01, eta=0.2)
    exact_n = oracle_steady_state(params3, n_max=6).moments.photon_number
    closed_n = steady_state(params3).photon_number
    rel = abs(closed_n - exact_n) / abs(exact_n)
    report.append({
        "test": "steady_photon_closure_n3",
        "max_error": float(rel), "pass": bool(rel < 0.2),
    })

    decoupled = SystemParams(n_atoms=2, g=0.0, kappa=1.0, gamma=0.05, eta=0.1)
    pair = abs(oracle_steady_state(decoupled, n_max=2).moments.pair_corr)
    report.append({
        "test": "uncoupled_pair_corr_zero",
        "max_error": float(pair), "pass": bool(pair < 1e-12),
    })
    return report


# Pure atomic-space helpers for collective-spin tests -----------------------

def atomic_collective_ops(n_atoms: int) -> dict[str, np.ndarray]:
    """J operators on the bare 2^N atomic space (no cavity factor), N <= MAX_ATOMS."""
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
