"""Exact master-equation reference solver, sized by orbits, not atoms.

Solves the Lindblad master equation of N two-level atoms coupled to a
truncated cavity mode for its stationary state, evaluates exact moment
derivatives on uncorrelated states, and computes emission spectra
through the quantum regression theorem.  Everything here is deliberately
direct: this module is the trust anchor the fast moment-closure solver
is checked against, and the two routes must stay independent.

L rho = K rho + rho K^dag + sum_k r_k c_k rho c_k^dag, with the effective
Hamiltonian K = -iH - 1/2 sum_k r_k c_k^dag c_k.  Every term conserves
q(ket) - q(bra), where q counts cavity photons and excited atoms, so the
Liouvillian is block diagonal in that charge.  Every term also treats
the atoms alike (one g, gamma, eta and chi), so L maps
permutation-invariant operators to permutation-invariant operators;
rho_ss and a rho_ss are such operators.  The module therefore works in
the orthonormal basis of a sector's orbits under atom permutations
(_Orbits; Kirton and Keeling, NJP 20, 015009 (2018)): an orbit is
labelled by the cavity occupations of ket and bra and by how many atoms
sit in each (ket, bra) pair gg, ge, eg and ee, O(N^3) labels per pair of
cavity occupations.  Each term of L is a cavity factor times a sum over
atoms of one 4 x 4 pair superoperator, so its block (_orbit_block) is
written from the labels and the cavity ladder alone, with no
product-basis operator.

Nothing in a block's structure depends on the rates, so one object per
sector holds it: an _Orbits carries the orbit labels, the block's
pattern, the per-orbit structure that the solves read, the fold maps
of the real stationary solve and, once one LU has run on them, the LU
patterns (_Pattern) of the charge -1 block and of the real forms.  The
pattern is in CSC order, the one sparse layout that blocks, folds and
LUs share, so no values are gathered from one order to another.  Every
block keeps the whole pattern, with the exact zeros that rates at 0 (g,
eta or gamma) leave; _Pattern alone decides which entries an LU factors,
the nonzero ones, and keeps one column order per set of them.  _sector
keeps one sector per (N, n_max, charge) in a least-recently-used cache of
SECTOR_CACHE sectors, so a block build only fills in values, bit for bit
the ones a fresh build gives, and an LU of a sector factored before only
factors numbers, with the bytes of a fresh one.  The MAX_ORBITS
comparison runs on every request, cached or not.  The largest sector
under the cap, N = 30 at n_max = 11, keeps about 16 MB once solved on
resonance and about 20 MB once solved detuned.

Two exact symmetries make the solves real: the adjoint, which pairs
each orbit with its Hermitian partner (_Orbits.partner), and the
resonance gauge x_o = i^(nk - nb) y_o (_Orbits.gauge, the cavity
rotation i^(a^dag a)), which turns the -+i g of every photon move into a
real entry, so on resonance (omega_a = omega_c) the gauged charge-0
block is real, and at omega_a = omega_c = 0 every gauged block is.  The
stationary state is solved as a real system (_RealForm): on resonance
its real, P-symmetric half, 80 of 118 unknowns at N = 3, n_max = 6,
otherwise the size-n real adjoint form.

Each Fock cutoff builds its charge-0 block once and LU-solves its real
form for the stationary state, the permutation-invariant one, and
returns it as one record, an `OracleResult`: the orbit coordinates,
their moments and the residual max |L rho|, read off that cutoff's own
block.  It lifts the
coordinates to the d x d product-basis rho (_orbit_rho) only when rho is
read.  The moment derivatives that check the closure act on
identical-atom product states, which are permutation invariant; every
checked moment has charge 0 and L conserves charge, so the derivatives
are the charge-0 block applied to the states' charge-0 orbit
coordinates, all states in one product.  The spectrum is a resolvent of
the returned cutoff's charge -1 block, which holds a rho_ss and has no
zero eigenvalue.  That block is gauged, factored once, as float64 where
it and a rho_ss are real, and the whole grid is read off a shift-invert
Krylov reduced model whose order grows until two successive models agree
to MODEL_TOL of the peak, so nothing is propagated in time and no LU has
more than MAX_ORBITS unknowns.  Where the block is real, so are the
model's basis, its Hessenberg matrix and that matrix's Schur form, whose
2 x 2 diagonal blocks the grid's back substitution solves in closed
form.  Detuned, the spectrum stays complex.
Only the lift knows d.  The product-basis reference lives with the tests.

The lifted rho's basis is cavity (x) atom_1 ... atom_N with the atomic
basis |ground> = index 0, |excited> = index 1.
"""
from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CutoffError, MemoryBudgetError, SimulationError
from .model import SystemParams, _require

# Cap on a block's orbits, so on every LU's unknowns.  One cold desk
# _steady_once, which solves the real half on resonance (one BLAS thread,
# 2-vCPU 8 GB Xeon), at (N, n_max) = (15, 16), 10,440 orbits: 0.62 s CPU,
# 169 MB peak RSS; (20, 14), 16,977: 1.7 s, 259 MB; (20, 16), 20,449: 2.8 s,
# 327 MB; (30, 11), 28,552: 4.3 s, 448 MB; (30, 12), 32,778, raises.
# Detuned (chi = 0.03, omega_a = 0.3), the real adjoint form of all n
# unknowns: 3.2 s, 327 MB at (15, 16); 10.9 s, 598 MB at (20, 14); 29.2 s,
# 1.03 GB at (30, 11).  The complex solve this replaced took 79 s and 1.77 GB
# at (30, 11) on resonance.
MAX_ORBITS = 2**15
# cap on the entries of a dense array whose size grows with the problem:
# the d^2 of a rho lifted by _orbit_rho, the m n of the spectrum's Krylov basis
MAX_SUPEROP_DIM = 2**20
# two successive reduced spectrum models (_reduced_model) that agree on the
# grid to this fraction of the peak end the model's growth; the tests hold
# the spectrum to direct solves at 1e-12 of the peak
MODEL_TOL = 1e-13
MODEL_STEP = 10  # Arnoldi steps between two reduced models
# relative change of every reported moment between cutoffs n_max and
# n_max + 2 below which the stationary state counts as converged
DRIFT_TOL = 1e-6
CHECK_SEED, CHECK_N_MAX = 7, 6  # of derivative_match_error's product states

_SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
_SZ = np.diag([-1.0, 1.0]).astype(complex)
_ID2 = np.eye(2, dtype=complex)
# Pair superoperators on one atom's (ket, bra) pair p = 2 ket + bra (gg,
# ge, eg, ee): row-major vec(A rho B) = (A (x) B^T) vec(rho).  The jumps
# c rho c^dag, then sigma^- and sigma^+ on the ket and on the bra
_DECAY, _PUMP, _DEPHASE = (np.kron(c, c) for c in (_SM, _SM.T, _SZ))
_KET_DOWN, _KET_UP = np.kron(_SM, _ID2), np.kron(_SM.T, _ID2)
_BRA_DOWN, _BRA_UP = np.kron(_ID2, _SM), np.kron(_ID2, _SM.T)
_UNIT = np.eye(4, dtype=int)  # _UNIT[p] adds one atom to pair p
# Every move that an off-diagonal block entry can make, whatever the
# parameters: (ket photon shift, bra photon shift, pair p an atom leaves,
# pair q it enters, rate).  The rate indexes _orbit_block's [kappa, gamma,
# eta, -i g, i g, 0].  kappa a rho a^dag moves no atom (p = q); the other
# moves are the nonzero entries M[q, p], each 1, of _TERMS' pair
# superoperators: the atomic decay and pump, then sigma^- and sigma^+ on
# the ket (-i g) and on the bra (i g).
_TERMS = ((0, 0, _DECAY, 1), (0, 0, _PUMP, 2), (1, 0, _KET_DOWN, 3), (-1, 0, _KET_UP, 3),
          (0, 1, _BRA_DOWN, 4), (0, -1, _BRA_UP, 4))
_MOVES = np.array([(-1, -1, 0, 0, 0)] + [
    (dk, db, p, q, rate) for dk, db, m, rate in _TERMS for q, p in zip(*np.nonzero(m))])
_DIAGONAL = len(_MOVES)  # the move number of a block's diagonal entries
_RATE_INDEX = np.append(_MOVES[:, 4], 5)  # each move's rate, then the diagonal's 0
_I_POWERS = np.array([1, 1j, -1, -1j])  # i^k, k = 0..3: the resonance gauge
# conj(i^a) i^b at 4 a + b: the phase that the gauge puts on a block entry
# whose row has the phase i^a and whose column i^b (_gauged)
_ENTRY_PHASES = (_I_POWERS.conj()[:, None] * _I_POWERS).ravel()
# sectors that _sector keeps: one pass of the oracle_small benchmark
# workload builds blocks of 12 sectors, a climb and its spectrum up to 5
SECTOR_CACHE = 16


def _frozen(*arrays: np.ndarray):
    """The arrays, made read-only: cached sectors share them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays if len(arrays) > 1 else arrays[0]


def _check_orbit_count(n_atoms: int, n_max: int, charge: int) -> None:
    """Raises ValueError for N < 1 or an n_max that is not an integer >= 0,
    and MemoryBudgetError if the sector has more than MAX_ORBITS orbits,
    from a closed-form count (_orbit_count), so before any label is built.
    The count is cached; its comparison with MAX_ORBITS runs on every call."""
    _require(n_max, numbers.Integral, "n_max")
    if n_atoms < 1 or n_max < 0:
        raise ValueError(f"need n_atoms >= 1 and n_max >= 0, got {n_atoms}, {n_max}")
    count = _orbit_count(n_atoms, n_max, charge, MAX_ORBITS)
    if count > MAX_ORBITS:
        raise MemoryBudgetError(f"N = {n_atoms}, n_max = {n_max} has at least {count:.0f} "
                                f"orbits, more than MAX_ORBITS = {MAX_ORBITS}")


@lru_cache(maxsize=SECTOR_CACHE)
def _orbit_count(n_atoms: int, n_max: int, charge: int, cap: int) -> float:
    """The sector's orbits in closed form, or a number above cap that is at
    most that count; cached per (N, n_max, charge, cap) like _sector."""
    # the atom labels with n_eg - n_ge = t number m (N - |t| + 2 - m),
    # m = (N - |t|) // 2 + 1, each with n_max + 1 - |t - charge| cavity
    # pairs; every t in range has an orbit, so cap + 1 t suffice
    lo, hi = max(charge - n_max, -n_atoms), min(charge + n_max, n_atoms)
    t = np.arange(lo, min(hi, lo + cap) + 1.0)
    m = (n_atoms - np.abs(t)) // 2 + 1
    return np.sum(m * (n_atoms - np.abs(t) + 2 - m) * (n_max + 1 - np.abs(t - charge)))


class _Orbits:
    """One charge sector of cavity (x) N atoms: its orbits under atom
    permutations, in the one numbering every orbit solve uses, and the CSC
    pattern of its block.  Nothing here depends on the rates, so _sector
    builds one per (N, n_max, charge) and shares it between calls.

    An orbit is labelled by the cavity occupations nk of the ket and nb of
    the bra and by counts[p], the number of atoms in the (ket, bra) pair
    p = 2 ket + bra: gg, ge, eg, ee.  Its basis operator is the sum of its
    entries |i><j| over sqrt(size), size = N! / (n_gg! n_ge! n_eg! n_ee!),
    so these operators are an orthonormal basis of the sector's
    permutation-invariant operators, and x are the coordinates of
    rho = sum_o x_o V_o.  The charge is nk - nb + n_eg - n_ge, so nb follows
    from the rest, and orbits are numbered in increasing order of
    (nk, n_ge, n_eg, n_ee): orbit 0 of the charge-0 sector is rho[0, 0], the
    vacuum with every atom in g.  At N = 1 every orbit is one entry.  More
    than MAX_ORBITS orbits raise MemoryBudgetError before any label is built.

    The pattern holds every entry that some parameters fill, in CSC order:
    indptr delimits the columns and indices holds each entry's row.  Per
    entry it keeps the move (a row of _MOVES, or _DIAGONAL) and the three
    factors (atom, ket, bra) that scale the move's coefficient; diagonal
    holds the positions of the diagonal entries.
    Moving one atom from pair p to pair q scales the coefficient by the
    atom factor sqrt(n_p (n_q + 1)); a photon shift scales it by the
    ladder's sqrt of the larger occupation.  An entry is kept where the
    atom factor is nonzero and the target lies inside the cutoff; no two
    entries share a place, since each move changes (nk, nb, counts)
    differently and none returns to its orbit, so (column, row) order is
    the CSC order.

    Every block of the sector is written on this whole pattern, with exact
    zeros where rates at 0 (g, eta or gamma) leave them, and every LU reads
    that layout.

    Every array is read-only: the labels and the pattern, built here, and
    the per-orbit structure that the solves read (trace_row, partner,
    moment_terms, ad_vec, lowering, gauge), the per-entry gauge phases
    (entry_phase), the fold maps of the real stationary solve (half_form,
    adjoint_form) and the column orders of the sets of nonzero places that
    an LU has met on the pattern (pattern), built on first use.
    """

    def __init__(self, n_atoms: int, n_max: int, charge: int):
        _check_orbit_count(n_atoms, n_max, charge)
        self.n_atoms, self.n_max, self.charge = n_atoms, n_max, charge
        # the (n_ge, n_eg) that some cavity pair reaches, each with every n_ee
        ge, eg = np.indices((n_atoms + 1,) * 2).reshape(2, -1)
        few = (ge + eg <= n_atoms) & (np.abs(eg - ge - charge) <= n_max)
        reps = n_atoms + 1 - ge[few] - eg[few]
        ge, eg = np.repeat(ge[few], reps), np.repeat(eg[few], reps)
        ee = np.arange(ge.size) - np.repeat(np.cumsum(reps) - reps, reps)
        nk = np.repeat(np.arange(n_max + 1), ge.size)
        ge, eg, ee = (np.tile(c, n_max + 1) for c in (ge, eg, ee))
        nb = nk + eg - ge - charge
        keep = (nb >= 0) & (nb <= n_max)
        self.nk, self.nb = nk, nb = _frozen(nk[keep], nb[keep])
        self.counts = counts = _frozen(np.stack([n_atoms - ge - eg - ee, ge, eg, ee])[:, keep])
        self.code = _frozen(self._code(nk, counts))  # increasing
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n_atoms + 1)))))
        self.sqrt_size = _frozen(
            np.exp(0.5 * (log_fact[n_atoms] - log_fact[counts].sum(axis=0))))
        # the block pattern
        size = nk.size
        dk, db, p, q = _MOVES[:, 0, None], _MOVES[:, 1, None], _MOVES[:, 2], _MOVES[:, 3]
        new_nk, new_nb = nk + dk, nb + db
        atom = np.where((p == q)[:, None], 1.0, np.sqrt(counts[p] * (counts[q] + 1.0)))
        ket = np.sqrt(np.where(dk == 0, 1, np.maximum(nk, new_nk)))
        bra = np.sqrt(np.where(db == 0, 1, np.maximum(nb, new_nb)))
        inside = (atom != 0.0) & (new_nk >= 0) & (new_nk <= n_max) & (new_nb >= 0) & (new_nb <= n_max)
        new_counts = counts[:, None, :] + (_UNIT[q] - _UNIT[p]).T[:, :, None]
        move, cols = np.nonzero(inside)  # in the order of a boolean index
        rows = np.append(np.arange(size), self.find(new_nk[inside], new_counts[:, inside]))
        cols = np.append(np.arange(size), cols)
        order = np.lexsort((rows, cols))
        self.move = _frozen(np.append(np.full(size, _DIAGONAL), move)[order].astype(np.int8))
        self.indptr = _frozen(np.searchsorted(cols[order], np.arange(size + 1)).astype(np.int32))
        self.indices = _frozen(rows[order].astype(np.int32))
        self.factors = _frozen(*(np.append(np.ones(size), f[inside])[order]
                                 for f in (atom, ket, bra)))
        self.diagonal = _frozen(np.flatnonzero(self.move == _DIAGONAL))

    def _code(self, nk, counts):
        base = self.n_atoms + 1
        return ((nk * base + counts[1]) * base + counts[2]) * base + counts[3]

    def find(self, nk, counts) -> np.ndarray:
        """Numbers of the orbits with these labels, which must exist."""
        return np.searchsorted(self.code, self._code(nk, counts))

    def atom_diagonal(self) -> np.ndarray:
        """The orbits whose atoms all sit in gg or ee."""
        return (self.counts[1] == 0) & (self.counts[2] == 0)

    @cached_property
    def trace_row(self) -> np.ndarray:
        """The trace functional: sqrt(size) on the orbits on rho's diagonal."""
        return _frozen(np.where(self.atom_diagonal() & (self.nk == self.nb), self.sqrt_size, 0.0))

    @cached_property
    def partner(self) -> np.ndarray:
        """Each orbit's Hermitian partner: the adjoint swaps ket and bra,
        nk <-> nb and ge <-> eg."""
        return _frozen(self.find(self.nb, self.counts[[0, 2, 1, 3]]))

    @cached_property
    def moment_terms(self) -> tuple:
        """The charge-0 orbits and label weights that _moment_rows reads:
        the masks diag (on rho's diagonal, every atom in gg or ee), flips (on
        rho's diagonal, one atom in ge and one in eg) and hop (one photon
        more in the ket, one atom in ge: a sigma^+_i), then nk and
        n_ee - n_gg on diag and sqrt(nk) on hop."""
        nk, nb, (gg, ge, eg, ee) = self.nk, self.nb, self.counts
        diag = self.atom_diagonal() & (nk == nb)
        hop = (nb == nk - 1) & (ge == 1) & (eg == 0)
        return _frozen(diag, (nk == nb) & (ge == 1) & (eg == 1), hop,
                       nk[diag], (ee - gg)[diag], np.sqrt(nk[hop]))

    @cached_property
    def ad_vec(self) -> np.ndarray:
        """Tr[a^dag V_o]: sqrt(size) sqrt(nb) on the atom-diagonal orbits."""
        return _frozen(np.where(self.atom_diagonal(), self.sqrt_size * np.sqrt(self.nb), 0.0))

    @cached_property
    def lowering(self) -> tuple:
        """a on the sector of charge + 1 at the same (N, n_max), which maps
        its orbit (nk, nb, counts) to this sector's (nk - 1, nb, counts) with
        factor sqrt(nk): the mask of its orbits with nk > 0, their images'
        numbers here, and the factors."""
        upper = _sector(self.n_atoms, self.n_max, self.charge + 1)
        lit = upper.nk > 0
        return _frozen(lit, self.find(upper.nk[lit] - 1, upper.counts[:, lit]),
                       np.sqrt(upper.nk[lit]))

    @cached_property
    def gauge(self) -> np.ndarray:
        """The resonance gauge i^(nk - nb), the phase of x_o = i^(nk - nb) y_o."""
        return _frozen(_I_POWERS[(self.nk - self.nb) % 4])

    @cached_property
    def entry_phase(self) -> np.ndarray:
        """Where _ENTRY_PHASES holds each entry's gauge phase, per entry of
        the whole pattern (_gauged): 4 a + b, with i^a the gauge of the
        entry's row and i^b that of its column."""
        power = (self.nk - self.nb) % 4
        cols = np.repeat(np.arange(self.nk.size), np.diff(self.indptr))
        return _frozen((4 * power[self.indices] + power[cols]).astype(np.int8))

    @cached_property
    def pattern(self) -> _Pattern:
        """The block pattern as its LUs see it (_Pattern), on the sector's
        own arrays; the spectrum factors the charge -1 block through it."""
        return _Pattern(self.indices, self.indptr)

    @cached_property
    def half_form(self) -> _RealForm:
        """The real, P-symmetric half of the stationary equations."""
        return _RealForm(self, half=True)

    @cached_property
    def adjoint_form(self) -> _RealForm:
        """The size-n real adjoint form of the stationary equations."""
        return _RealForm(self, half=False)


class _RealForm:
    """The charge-0 stationary equations as a real bordered system, and the
    map from its solution back to the orbit coordinates x (_solve_stationary).

    In the gauged coordinates y, x_o = i^(nk - nb) y_o (_Orbits.gauge), the
    block becomes G = D^-1 B D, D = diag(i^(nk - nb)), and a Hermitian rho
    has y[P] = conj(y), P = partner.  So one orbit of each Hermitian pair,
    its representative o <= P(o), carries the pair: unknown o is Re y_o and,
    if P(o) != o, unknown P(o) is Im y_o.  The equations are Re (G y)_r in
    row r and Im (G y)_r in row P(r), for each representative r; the other
    rows are their conjugates.  That is the size-n real adjoint form, valid
    at any parameters.  Where every gauged entry is real, as on resonance,
    no Im part couples to a Re part, so the Im half drops and the real,
    P-symmetric half remains (half): the representatives alone, renumbered
    in order.  In both, row 0 (orbit 0, rho[0, 0], its own partner) is
    replaced by the trace functional.

    The fold, built once per cached sector: each entry of G in a kept row
    (a representative's, but row 0), taken in the sector's CSC order, adds
    its Re or Im part (source, an index into G's interleaved Re and Im
    values) times sign to one place (target) of the real matrix's CSC
    pattern (pattern).  Two entries of one kept row share a place where
    their columns are a Hermitian pair o < P(o), and they are summed in
    that order, the order of the row alone.  trace_at holds the places of
    the trace row's values trace, on the unknowns trace_cols.  For real
    rates the gauge leaves every off-diagonal entry of G real (each -+i g
    meets a photon move's phase +-i, every other rate is real), so only
    diagonal entries fold an Im part: an entry fills at most two places,
    or four on the diagonal.  bordered sums a solve's values into place,
    in CSC order, and pattern, the _Pattern of the CSC pattern, factors
    them, its nonzero places only; lift reads y back: Re y from the
    unknowns re_pick, Im y as im_sign times the unknowns im_pick
    (None in the half)."""

    def __init__(self, orbits: _Orbits, half: bool):
        n = orbits.nk.size
        every, partner = np.arange(n), orbits.partner
        rep = np.minimum(every, partner)  # each orbit's representative
        rows, cols = orbits.indices, np.repeat(every, np.diff(orbits.indptr))
        e = np.flatnonzero((rows == rep[rows]) & (rows > 0))  # the kept rows' entries
        r, c = rows[e], cols[e]
        o = rep[c]
        on = np.flatnonzero(orbits.trace_row)  # orbits on rho's diagonal: their own partners
        if half:
            number = np.cumsum(rep == every) - 1
            self.size = number[-1] + 1
            row, col, source = number[r], number[o], 2 * e
            sign = np.ones(e.size, dtype=np.int8)
            self.trace_cols, self.re_pick = number[on], _frozen(number[rep])
            self.im_pick = self.im_sign = None
        else:
            self.size = n
            # column c of G meets y_c = Re y_o + i s Im y_o, s = -1 on the
            # partner of a representative o; on the diagonal c = r = o, s = 1
            pr, po = partner[r], partner[o]
            s = np.where(c == o, 1, -1).astype(np.int8)
            one, diagonal = np.ones_like(s), c == r
            keep = np.concatenate([one > 0, diagonal & (pr != r), diagonal & (pr != r),
                                   (pr != r) & (po != o)])
            row = np.concatenate([r, r, pr, pr])[keep]
            col = np.concatenate([o, po, o, po])[keep]
            source = np.concatenate([2 * e, 2 * e + 1, 2 * e + 1, 2 * e])[keep]
            sign = np.concatenate([one, -s, one, s])[keep]
            self.trace_cols = on
            self.re_pick, self.im_pick, self.im_sign = _frozen(
                rep, partner[rep], np.where(every == rep, 1.0, -1.0) * (partner != every))
        size = self.size
        place, at = np.unique(np.append(col * size + row, self.trace_cols * size),
                              return_inverse=True)  # CSC order; the trace row is row 0
        self.target, self.trace_at = _frozen(at[:row.size].astype(np.int32), at[row.size:])
        self.source, self.sign = _frozen(source.astype(np.int32), sign)
        self.pattern = _Pattern((place % size).astype(np.int32),
                                np.searchsorted(place // size, np.arange(size + 1)).astype(np.int32))
        self.trace_cols, self.trace = _frozen(self.trace_cols, orbits.trace_row[on])
        self.gauge = orbits.gauge

    def bordered(self, gauged: np.ndarray) -> np.ndarray:
        """The real bordered matrix's values on its CSC pattern, from G's
        values on the sector's whole pattern; a place can hold 0.0."""
        data = np.bincount(self.target, self.sign * gauged.view(float)[self.source],
                           minlength=self.pattern.indices.size)
        data[self.trace_at] = self.trace
        return data

    def lift(self, z: np.ndarray) -> np.ndarray:
        """x of unit trace from the real solution z."""
        z = z / (self.trace @ z[self.trace_cols])
        y = np.zeros(self.gauge.size, dtype=complex)
        y.real = z[self.re_pick]
        if self.im_pick is not None:
            y.imag = self.im_sign * z[self.im_pick]
        return self.gauge * y


class _Pattern:
    """One square CSC pattern as SuperLU factors it, and the one place that
    decides which of its entries an LU factors: the nonzero ones.  It is
    kept with the cached sector (_Orbits.pattern, _RealForm.pattern), with
    the symbolic part of every LU on it, so that a solve runs only the
    numeric part.

    The values handed to factor are in CSC order (a sector's pattern, or a
    real form's): values[k] sits in row indices[k] of the column that
    indptr delimits.  Rates at 0 (g, eta or gamma) and the real form's
    cancellations leave exact zeros among them, and those places leave the
    LU: factored, they would leave round-off in moments that are exactly 0
    (at g = 0 the photon number read -1.8e-16 at N = 4).  So each set of
    nonzero places has a column order of its own, kept in orders under the
    set's bytes.  The first LU on a set orders its columns as spla.splu
    does by default (COLAMD, then the postorder of the column elimination
    tree) and keeps, with that order perm_c and its inverse columns =
    argsort(perm_c), the layout of Pc^T A Pc: column j is A's column
    columns[j], its row r renamed perm_c[r] and listed where A lists it,
    and take holds the places in values of its entries.  Every later LU on
    the set hands SuperLU that matrix with permc_spec="NATURAL": the
    postorder of a postordered tree is the identity, so SuperLU factors the
    same columns in the same order.  It walks a column's rows in the order
    listed, and prefers as pivot the row of the column's own number when
    that row ties the column's largest entry, which is A's diagonal entry
    in both LUs; so it makes the same pivots, and returns the same bytes as
    the COLAMD solve once its solution w of Pc^T A Pc w = b[columns] is
    read as w[perm_c] (_Reordered).  spla.splu sorts the rows of a matrix
    that is not marked canonical, so the reordered matrix, which has no
    duplicate entries, is marked so."""

    def __init__(self, indices: np.ndarray, indptr: np.ndarray):
        self.indices, self.indptr = _frozen(indices, indptr)
        self.orders = {}

    def factor(self, values: np.ndarray, what: str):
        """The LU of the nonzero entries of the matrix with these values."""
        size = self.indptr.size - 1
        kept = values != 0.0
        key = kept.tobytes()
        if key in self.orders:
            take, indices, indptr, order = self.orders[key]
            matrix = sp.csc_matrix((values[take], indices, indptr), shape=(size, size))
            matrix.has_canonical_format = True  # rows listed as A lists them
            return _factor(matrix, what, order)
        indices = self.indices[kept]
        indptr = np.append(0, np.cumsum(kept))[self.indptr].astype(np.int32)
        lu = _factor(sp.csc_matrix((values[kept], indices, indptr), shape=(size, size)), what)
        # a copy: SuperLU's own perm_c keeps the whole factorisation alive
        perm_c = lu.perm_c.copy()
        columns = np.argsort(perm_c)
        lengths = np.diff(indptr)[columns]
        reordered = np.append(0, np.cumsum(lengths)).astype(np.int32)
        at = np.repeat(indptr[columns] - reordered[:-1], lengths) + np.arange(reordered[-1])
        self.orders[key] = (*_frozen(np.flatnonzero(kept)[at].astype(np.int32),
                                     perm_c[indices[at]], reordered),
                            _frozen(perm_c, columns))
        return lu


class _Reordered(NamedTuple):
    """The LU of Pc^T A Pc (_Pattern), columns = argsort(perm_c), which
    solves A x = b as x = w[perm_c], with w the solution of
    Pc^T A Pc w = b[columns]."""
    lu: spla.SuperLU
    perm_c: np.ndarray
    columns: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b[self.columns])[self.perm_c]


@lru_cache(maxsize=SECTOR_CACHE)
def _sector(n_atoms: int, n_max: int, charge: int) -> _Orbits:
    """The _Orbits of one sector, its labels and block pattern, kept in a
    least-recently-used cache of SECTOR_CACHE sectors keyed by (N, n_max,
    charge); _orbit_block runs the MAX_ORBITS count before asking.  The
    largest sector under MAX_ORBITS, charge 0 at (N, n_max) = (30, 11) with
    28,552 orbits and 302,898 entries, keeps 9.1 MB of pattern, 1.8 MB of
    labels, 1.0 MB of per-orbit structure and 0.3 MB of entry_phase once
    the solves have read it all, and for each real form solved its fold
    and its _Pattern, whose layout of the whole CSC pattern counts with
    the fold, and the column order and layout of the set of nonzero places
    that the LU factored, with the key that finds it: 2.4 + 1.7 MB for the
    resonant half (157,642 places), 4.9 + 3.2 MB for the adjoint form
    (308,287 places).  The spectrum's _Pattern (_Orbits.pattern) shares
    the sector's pattern and adds only its column orders.  Each further
    set of nonzero places that an LU meets (rates at 0) adds at most as
    much again as the whole set.  So a full cache of such sectors would
    hold about 260 MB on resonance and 325 MB detuned.  The sector takes
    0.1 s to build and its half's fold 0.02 s, against 4.3 s for one
    resonant solve at that size (the adjoint form's fold 0.04 s, against
    29 s)."""
    return _Orbits(n_atoms, n_max, charge)


def _orbit_block(params: SystemParams, n_max: int, charge: int):
    """The charge block of L in the orbit basis of _Orbits, written from
    the orbit labels and the cavity ladder.

    Each term of L is a cavity factor times sum_i M^(i), one 4 x 4 pair
    superoperator M acting on atom i's (ket, bra) pair.  On the orbit of
    counts n the sum contributes sum_p M[p, p] n_p on the diagonal, and
    moving one atom from pair p to pair q gives M[q, p] sqrt(n_p (n_q + 1)),
    each times the cavity matrix elements.  The orbits, with their
    pattern, come from _sector, cached per (N, n_max, charge) after the
    MAX_ORBITS count, which runs on every call; this call fills in the
    values on the sector's whole pattern, exact zeros included: a rate at
    0 leaves its entries at 0.0, which the LUs leave out (_Pattern).
    Returns (orbits, CSC block)."""
    _check_orbit_count(params.n_atoms, n_max, charge)
    orbits = _sector(params.n_atoms, n_max, charge)
    nk, nb, counts = orbits.nk, orbits.nb, orbits.counts
    g = params.g
    # K's atomic part, diagonal in (g, e); the ket takes K, the bra conj(K)
    k_atom = np.array([0.5j * params.omega_a - 0.5 * (params.eta + params.chi),
                       -0.5j * params.omega_a - 0.5 * (params.gamma + params.chi)])
    k_cavity = -1j * params.omega_c - 0.5 * params.kappa
    pair_diag = np.add.outer(k_atom, k_atom.conj()).ravel() + params.chi * _DEPHASE.diagonal()
    # each move's coefficient (_MOVES), then 0 for the diagonal: -i g
    # (a^dag sigma^- + a sigma^+) on the ket and its conjugate on the bra
    rates = np.array([params.kappa, params.gamma, params.eta, -1j * g, 1j * g, 0.0])
    atom, ket, bra = orbits.factors
    data = ((rates[_RATE_INDEX][orbits.move] * atom) * ket) * bra
    diagonal = k_cavity * nk + np.conj(k_cavity) * nb + pair_diag @ counts
    # the sum leaves round-off in the imaginary part, which is exactly
    # (omega_a - omega_c)(n_ge - n_eg) - omega_c charge (nk - nb = charge +
    # n_ge - n_eg), so a common frame frequency leaves it at 0 in charge 0
    diagonal.imag = ((params.omega_a - params.omega_c) * (counts[1] - counts[2])
                     - params.omega_c * charge)
    data[orbits.diagonal] = diagonal
    return orbits, sp.csc_matrix((data, orbits.indices, orbits.indptr), shape=(nk.size, nk.size))


@dataclass(frozen=True)
class OracleMoments:
    photon_number: float
    atom_photon: complex
    inversion: float
    pair_corr: complex
    zz_corr: float
    j_squared: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class OracleResult:
    """A stationary state at one cutoff (_steady_once): its charge-0 orbit
    coordinates x on `orbits` (_Orbits), its moments, and the residual
    max |L rho| over rho's entries, read off that cutoff's orbit block."""
    orbits: _Orbits
    x: np.ndarray
    moments: OracleMoments
    residual: float

    @property
    def n_atoms(self) -> int:
        return self.orbits.n_atoms

    @property
    def n_max(self) -> int:
        return self.orbits.n_max

    @cached_property
    def rho(self) -> np.ndarray:
        """The d x d product-basis density matrix, lifted from x on first
        read and kept: no solve, moment or residual needs it."""
        return _orbit_rho(self.orbits, self.x)


def _moment_rows(orbits: _Orbits, x: np.ndarray) -> tuple:
    """The moments of each row of x (k, n), charge-0 orbit coordinates, as
    linear functionals of the row: Tr[O rho] sums O's matrix element over
    each orbit's entries, size / sqrt(size) = sqrt(size) times x.  The
    atom-symmetric forms are used, e.g. <sigma_z^1> = <sum_i sigma_z^i> / N.
    Returns OracleMoments' fields in order, each an array of k.  Every sum
    runs along a contiguous row (compress, not a mask index, which leaves
    rows strided), so a row's moments round as that row alone would.  The
    orbits each moment reads are the sector's cached moment_terms."""
    n = orbits.n_atoms
    diag, flips, hop, photons, z, root_photons = orbits.moment_terms
    s = orbits.sqrt_size * x
    on_diag = s.compress(diag, axis=-1)
    # sum of the orbits of sigma^+_i sigma^-_j, i != j
    flip = s.compress(flips, axis=-1).sum(axis=-1)
    pairs = n * (n - 1)
    rows = x.shape[0]
    return (
        np.sum(photons * on_diag, axis=-1).real,
        np.sum(root_photons * s.compress(hop, axis=-1), axis=-1) / n,
        np.sum(z * on_diag, axis=-1).real / n,
        flip / pairs if n >= 2 else np.zeros(rows, dtype=complex),
        np.sum((z * z - n) * on_diag, axis=-1).real / pairs if n >= 2 else np.ones(rows),
        (np.sum((0.5 * n + 0.25 * z * z) * on_diag, axis=-1) + flip).real,
    )


def _orbit_moments(orbits: _Orbits, x: np.ndarray) -> OracleMoments:
    """The moments of the rho with charge-0 orbit coordinates x: the one-row
    case of _moment_rows."""
    return OracleMoments(*(field[0].item() for field in _moment_rows(orbits, x[None])))


def _factor(block: sp.csc_matrix, what: str, order: tuple | None = None):
    """Sparse LU of a Liouvillian block in CSC form; a singular block is a
    typed error.  With order, (perm_c, argsort(perm_c)), the block is
    already Pc^T A Pc for the order that SuperLU chose for its pattern
    (_Pattern), so no ordering runs and the LU solves for the unknowns in
    their own order (_Reordered)."""
    try:
        if order is None:
            return spla.splu(block)
        return _Reordered(spla.splu(block, permc_spec="NATURAL"), *order)
    except RuntimeError as exc:
        raise SimulationError(f"Liouvillian block is singular ({what}): {exc}") from exc


def _gauged(block: sp.csc_matrix, orbits: _Orbits) -> np.ndarray:
    """The values of D^-1 block D, D = diag(orbits.gauge), on the sector's
    whole pattern in its CSC order, which every block keeps.  The phases
    are +-1 and +-i, so every product is exact; their places in
    _ENTRY_PHASES are cached (orbits.entry_phase)."""
    return block.data * _ENTRY_PHASES[orbits.entry_phase]


def _solve_stationary(block: sp.csc_matrix, orbits: _Orbits) -> np.ndarray:
    """Orbit coordinates of the stationary rho from the charge-0 block, as a
    real system (_RealForm): the block, gauged, folded into real unknowns
    and equations, its first row (orbit 0, the entry rho[0, 0]) replaced by
    the trace functional, sqrt(size) on the orbits on rho's diagonal.  Where
    every gauged entry is real, the real, P-symmetric half is solved, else
    the size-n adjoint form.  rho is permutation invariant, so the orbit
    block holds it; a singular system means the invariant sector has no
    unique stationary state.  x is Hermitian by construction and of unit
    trace.  The fold is built once per cached sector (_sector), so a solve
    only gauges the block's values on the sector's whole pattern, sums them
    into the real matrix with np.bincount, both in CSC order, and factors
    its nonzero entries as float64 through the column order of the first
    LU on the same nonzero places (_Pattern), so a sector factored before
    runs no ordering, whichever rates are 0."""
    gauged = _gauged(block, orbits)
    form = orbits.adjoint_form if gauged.imag.any() else orbits.half_form
    b = np.zeros(form.size)
    b[0] = 1.0
    return form.lift(form.pattern.factor(form.bordered(gauged), "no unique stationary state")
                     .solve(b))


def _orbit_rho(orbits: _Orbits, x: np.ndarray) -> np.ndarray:
    """The product-basis d x d rho of charge-0 orbit coordinates x.

    Basis state i holds i >> N photons, and its low N bits are the atoms'
    excitations, so each entry's pair counts are popcounts."""
    n, d = orbits.n_atoms, (orbits.n_max + 1) * 2**orbits.n_atoms
    if d * d > MAX_SUPEROP_DIM:
        raise MemoryBudgetError(f"lifted rho has {d}^2 entries, more than {MAX_SUPEROP_DIM}")
    ones = np.array([bin(b).count("1") for b in range(2**n)])
    photons, atoms = np.divmod(np.arange(d), 2**n)
    ee = ones[atoms[:, None] & atoms]
    eg, ge = ones[atoms][:, None] - ee, ones[atoms] - ee
    nk = np.broadcast_to(photons[:, None], ee.shape)
    inside = nk + eg == photons + ge  # the charge-0 entries
    counts = np.stack([n - ge - eg - ee, ge, eg, ee])[:, inside]
    o = orbits.find(nk[inside], counts)
    rho = np.zeros((d, d), dtype=complex)
    rho[inside] = x[o] / orbits.sqrt_size[o]
    return rho


def _max_entry(orbits: _Orbits, y: np.ndarray) -> float:
    """max |entry| of the operator with orbit coordinates y: each entry of
    orbit o holds y_o / sqrt(size_o)."""
    return float(np.max(np.abs(y) / orbits.sqrt_size))


def _steady_once(params: SystemParams, n_max: int) -> OracleResult:
    """The stationary state at cutoff n_max, from one build and LU solve of
    its charge-0 block.  L rho lies in the orbit span, so the residual
    max |L rho| is read off that block times x (_max_entry)."""
    orbits, block = _orbit_block(params, n_max, 0)
    x = _solve_stationary(block, orbits)
    return OracleResult(orbits, x, _orbit_moments(orbits, x), _max_entry(orbits, block @ x))


def _moment_drift(a: OracleMoments, b: OracleMoments) -> float:
    # the fields in order; astuple would deep-copy them
    return max(0.0, *(abs(va - vb) / max(abs(va), abs(vb), 1e-12)
                      for va, vb in zip(vars(a).values(), vars(b).values())))


def _climb(params: SystemParams, n_max: int) -> OracleResult:
    """Solves at n_max and n_max + 2 and requires every reported moment to
    agree to DRIFT_TOL relative; otherwise the cutoff is raised by 2 until
    they do.  Each round's upper solve is the next round's lower one, so
    every cutoff is built and solved once.  Returns the upper cutoff's
    state, with the residual of its own block.

    CutoffError is raised only where no cutoff can converge.  A lossless
    cavity (kappa = 0, g > 0) pumped at or above transparency (eta >=
    gamma, eta > 0) raises before any solve: with no photon loss, energy
    balance needs P_e = eta / (eta + gamma) >= 1/2 of atoms that the
    growing field saturates at 1/2, so the photons pile up against the
    cutoff and the drift falls only algebraically (desk N = 1 to 3 from
    n_max 4: 0.34, 0.25, 0.20, ... 0.063 after 14 rounds, with 31.9
    photons at n_max 32).  A climb whose next cutoff has more than
    MAX_ORBITS orbits raises, chained from the MemoryBudgetError, naming
    the last cutoff solved and its drift, None if only the start was
    solved.  At eta = gamma = 0 the block is singular, a SimulationError."""
    if params.kappa == 0.0 and params.g > 0.0 and params.eta >= params.gamma and params.eta > 0.0:
        raise CutoffError("a lossless cavity pumped at or above transparency (eta >= gamma) "
                          "has no stationary state: its photons pile up at every cutoff")
    high, drift = _steady_once(params, n_max), None
    while drift is None or drift >= DRIFT_TOL:
        low = high
        try:
            high = _steady_once(params, low.n_max + 2)
        except MemoryBudgetError as exc:
            seen = "no drift yet" if drift is None else f"moments still drift {drift:.2e}"
            raise CutoffError(f"{seen} at n_max={low.n_max}; the next cutoff is over MAX_ORBITS",
                              drift=drift) from exc
        drift = _moment_drift(low.moments, high.moments)
    return high


def oracle_steady_state(params: SystemParams, n_max: int = 6) -> OracleResult:
    """Stationary state with automatic Fock-cutoff convergence: the
    climb's (_climb) returned cutoff, solved on orbit blocks only, with the
    residual max |L rho| of that cutoff's own block (_steady_once).  The
    climb starts at n_max and raises it by 2 until the moments converge,
    so the start sets only where the climb begins: desk N = 8 and 10
    converge at n_max 14 and 16 from the default.  CutoffError means no
    cutoff can converge: a lossless cavity pumped at or above
    transparency, or a next cutoff over MAX_ORBITS.  The result keeps the
    orbit coordinates; its product-basis rho is lifted only when read.
    """
    return _climb(params, n_max)


def _unit_vector(amps, dim: int) -> np.ndarray:
    """Fock amplitudes padded / truncated to dim entries and normalised; a
    stack of amplitude rows (k, m) gives k such vectors (k, dim), each with
    the bytes of its own."""
    amps = np.asarray(amps, dtype=complex)
    vec = np.zeros(amps.shape[:-1] + (dim,), dtype=complex)
    vec[..., :amps.shape[-1]] = amps[..., :dim]
    # np.linalg.norm's two dot products per vector, as matmul's vector case
    re, im = vec.real[..., None, :], vec.imag[..., None, :]
    norm = np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0]
    if np.any(norm == 0.0):
        raise ValueError("state amplitudes are all zero")
    return vec / norm


def _atom_state(bloch) -> np.ndarray:
    """One atom's density matrix (I + r . sigma) / 2 of bloch = (rx, ry,
    rz); a stack of Bloch vectors (k, 3) gives k matrices (k, 2, 2)."""
    rx, ry, rz = np.moveaxis(np.asarray(bloch, dtype=float), -1, 0)[..., None, None]
    if np.any(rx * rx + ry * ry + rz * rz > 1.0 + 1e-12):
        raise ValueError("Bloch vector must satisfy |r| <= 1")
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
    return 0.5 * (_ID2 + rx * sx + ry * sy + rz * _SZ)


def _product_orbit_state(orbits: _Orbits, cavity_amps, bloch) -> np.ndarray:
    """Charge-0 orbit coordinates of an uncorrelated state with no filter
    mode: a pure cavity with Fock amplitudes cavity_amps (padded /
    truncated to the cutoff and normalised) and identical atoms, each in
    the Bloch state (I + r . sigma) / 2 of bloch = (rx, ry, rz).  Each
    entry of orbit o holds c[nk] conj(c[nb]) times prod_p atom_p^counts[p],
    atom_p the atom's matrix element on pair p (gg, ge, eg, ee), so x_o is
    sqrt(size_o) times that; the state's other charges are dropped.  k
    amplitude rows and k Bloch vectors give the k states' coordinates as
    one array (k, n), each row with the bytes of its own state."""
    c = _unit_vector(cavity_amps, orbits.n_max + 1)
    atom = _atom_state(bloch)
    atom = atom.reshape(atom.shape[:-2] + (4, 1))
    return (orbits.sqrt_size * c[..., orbits.nk] * c[..., orbits.nb].conj()
            * np.prod(atom**orbits.counts, axis=-2))


class _Model(NamedTuple):
    """A reduced model of the resolvent: the Krylov basis V_m, kept as its
    m x n transpose (row j is column j of V_m), and per grid point the
    coordinates y of (A + i omega)^-1 x ~ V_m y and -Re ad^T V_m y.  The
    basis takes x's dtype: it is real when A and x are."""
    basis: np.ndarray
    coords: np.ndarray
    spectrum: np.ndarray


def _reduced_model(lu, x: np.ndarray, ad_vec: np.ndarray, omega: np.ndarray) -> _Model:
    """Shift-invert Krylov model reduction of -Re ad^T (A + i omega)^-1 x,
    with lu the LU of A (Pade via Lanczos: Feldmann and Freund, IEEE Trans.
    CAD 14, 639 (1995); rational Krylov: Ruhe, SIAM J. Sci. Comput. 19, 1535
    (1998)).

    (A + i omega)^-1 x = (I + i omega A^-1)^-1 b with b = A^-1 x.  Arnoldi
    on A^-1 from b, with Gram-Schmidt run twice per step, gives an
    orthonormal V_m and a Hessenberg H_m with A^-1 V_m = V_m H_m + h v e_m^T,
    so the solution is about V_m (I + i omega H_m)^-1 e1 |b|.  With the
    Schur form H_m = Z T Z^H that is one back substitution on I + i omega T,
    run for the whole grid at once.  A complex H_m has a triangular T; a
    real one, as on resonance, has LAPACK's real Schur form, cheaper to
    compute, with a real Z and a quasi-triangular T whose 2 x 2 diagonal
    blocks (one per complex pair of eigenvalues) are solved by Cramer's
    rule.  m grows by
    MODEL_STEP, and straight to n once one more step would reach n, until
    the spectra of two successive models agree on the grid to MODEL_TOL of
    the larger one's peak, or the Krylov space is exhausted (m = n, or a
    step adds no direction), where the model is exact.  A model with no
    predecessor whose next round reaches m = n is not evaluated: it could
    end nothing, since the exact model returns without a comparison.  With
    a real A and x (lu real), V_m and H_m are real, half the memory of a
    complex basis.  A basis of more than MAX_SUPEROP_DIM entries raises
    MemoryBudgetError."""
    n, eps = x.size, np.finfo(float).eps
    start = lu.solve(x)
    scale = np.linalg.norm(start)
    basis = np.empty((0, n), dtype=x.dtype)
    hess = np.empty((1, 0), dtype=x.dtype)  # H_m and its subdiagonal row m
    v, last, exhausted = start / scale, None, False
    while True:
        m = basis.shape[0]
        size = m + MODEL_STEP if m + 2 * MODEL_STEP < n else n
        if size * n > MAX_SUPEROP_DIM:
            raise MemoryBudgetError(f"a Krylov basis of {size} x {n} is more than "
                                    f"MAX_SUPEROP_DIM = {MAX_SUPEROP_DIM} entries")
        basis = np.concatenate([basis, np.empty((size - m, n), dtype=x.dtype)])
        grown = np.zeros((size + 1, size), dtype=x.dtype)
        grown[:m + 1, :m] = hess
        hess = grown
        for j in range(m, size):
            basis[j] = v
            w = before = lu.solve(v)
            for _ in range(2):
                h = (basis[:j + 1] @ w.conj()).conj()
                w = w - h @ basis[:j + 1]
                hess[:j + 1, j] += h
            hess[j + 1, j] = norm = np.linalg.norm(w)
            if norm <= eps * np.linalg.norm(before):
                basis, hess, exhausted = basis[:j + 1], hess[:j + 2, :j + 1], True
                break
            v = w / norm
        m = basis.shape[0]
        exact = exhausted or m == n
        if not exact and last is None and m + 2 * MODEL_STEP >= n:
            continue
        tri, z = la.schur(hess[:m])
        # row k of (I + i omega T) u = Z^H e1 is u_k (1 + i omega T_kk)
        # + i omega sum_{l > k} T_kl u_l = conj(Z_0k); a real T pairs rows
        # k - 1 and k where T[k, k - 1] != 0, and that 2 x 2 block is
        # solved by Cramer's rule
        den = 1.0 + np.multiply.outer(tri.diagonal(), 1j * omega)
        u, gain = z[0].conj()[:, None] / den, 1j * omega / den
        k = m - 1
        while k >= 0:
            if k and tri[k, k - 1] != 0.0:
                pair = slice(k - 1, k + 1)
                r0, r1 = z[0, pair, None] - 1j * omega * (tri[pair, k + 1:] @ u[k + 1:])
                a, d = den[pair]
                b, c = 1j * omega * tri[k - 1, k], 1j * omega * tri[k, k - 1]
                det = a * d - b * c
                u[k - 1], u[k] = (d * r0 - b * r1) / det, (a * r1 - c * r0) / det
                k -= 2
                continue
            if k < m - 1:
                u[k] -= gain[k] * (tri[k, k + 1:] @ u[k + 1:])
            k -= 1
        coords = scale * (z @ u).T
        spectrum = -(coords @ (basis @ ad_vec)).real
        if exact or (last is not None and np.max(np.abs(spectrum - last))
                     <= MODEL_TOL * np.max(np.abs(spectrum))):
            return _Model(basis, coords, spectrum)
        last = spectrum


def oracle_spectrum(params: SystemParams, n_max: int, omega_grid):
    """Emission spectrum via the quantum regression theorem.

    S(omega) = Re integral_0^inf Tr[a^dag exp(L tau)(a rho_ss)] e^{i omega tau}
    d tau = -Re Tr[a^dag (L + i omega)^-1 (a rho_ss)].  a rho_ss lies in
    the charge -1 block A of L, which has no zero eigenvalue, so nothing is
    propagated in time and omega = 0 is as regular as any other point.  The
    cutoff climb is oracle_steady_state's (_climb), on orbit blocks only,
    run again from n_max, with its CutoffError cases.  a rho_ss
    is permutation invariant, so the resolvent stays in the charge -1 orbit
    block (_orbit_block): a lowers the ket's photons, mapping the orbit
    (nk, nb, counts) to (nk - 1, nb, counts) with factor sqrt(nk), and
    Tr[a^dag V_o] is sqrt(size) sqrt(nb) on the atom-diagonal orbits (the
    cached sector's lowering and ad_vec).  The gauge x_o = i^(nk - nb + 1)
    y_o, D^-1 A D with D its diagonal, leaves the resolvent's value alone:
    ad_vec sits on orbits with nk - nb = -1, where the phase is 1.  It
    turns a rho_ss's coordinates y into the stationary state's gauged ones
    (_RealForm) times sqrt(nk), and where the gauged block and y are real,
    as at omega_a = omega_c = 0, the block is factored as float64 and the
    reduced model is real; otherwise both stay complex (a common frame
    frequency omega_c leaves i omega_c on the diagonal).  The block's
    nonzero entries are factored once, through the cached column order of
    their places (_Orbits.pattern), and the whole grid is read off a rational
    reduced model of the resolvent (_reduced_model), whose order grows
    until two successive models agree to MODEL_TOL of the peak.  Returns a
    unit-peak-normalised SpectrumScan.
    """
    from .spectrum import SpectrumScan, _checked_grid  # layering stays one-way

    omega_grid = _checked_grid(omega_grid)
    steady = _climb(params, n_max)
    orbits, block = _orbit_block(params, steady.n_max, -1)
    lit, target, root_photons = orbits.lowering
    y = np.zeros(orbits.nk.size, dtype=complex)
    y[target] = root_photons * (steady.x[lit] * steady.orbits.gauge.conj()[lit])
    ad_vec = orbits.ad_vec

    c0 = ad_vec @ y
    if abs(c0) < 1e-14:
        return SpectrumScan(omega=omega_grid, intensity=np.zeros_like(omega_grid))

    data, what = _gauged(block, orbits), "undamped correlation"
    if not (data.imag.any() or y.imag.any()):
        data, y = data.real.copy(), y.real.copy()
    lu = orbits.pattern.factor(data, what)
    intensity = _reduced_model(lu, y, ad_vec, omega_grid).spectrum
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
    drawn with CHECK_SEED at cutoff CHECK_N_MAX; an n_states that is not
    an integer >= 1 raises ValueError before any block is built.

    On such states every factorization used by the closure is an exact
    identity, so the two must agree to round-off; this pins every sign
    and rate convention in the moment equations.  The states are
    permutation invariant and the checked moments have charge 0, so the
    exact derivatives are the moments of the charge-0 orbit block times
    the states' orbit coordinates (_product_orbit_state).  The draws run
    state by state, in order; the states' coordinates are then built as
    one array, the block is built and applied to them once per call, and
    one _moment_rows call reads every state's moments and derivatives.
    Only the closure's rhs runs per state, so the result equals a loop
    over the states, byte for byte.
    """
    from .cumulant import MomentState, rhs

    _require(n_states, numbers.Integral, "n_states")
    if n_states < 1:
        raise ValueError(f"need n_states >= 1, got {n_states}")
    rng = np.random.default_rng(CHECK_SEED)
    orbits, block = _orbit_block(params, CHECK_N_MAX, 0)
    amps, bloch = zip(*(_random_product_inputs(rng) for _ in range(n_states)))
    states = _product_orbit_state(orbits, np.array(amps), np.array(bloch))
    # rows 0..n_states-1 hold the states' moments, the rest their derivatives
    fields = _moment_rows(orbits, np.concatenate([states, (block @ states.T).T]))
    worst = 0.0
    checked = 4 if params.n_atoms >= 2 else 3  # n, <a sigma^+>, <sigma_z>, pair_corr
    for i in range(n_states):
        # MomentState's fields are OracleMoments' first four
        approx = vars(rhs(MomentState(*(f[i] for f in fields[:4])), params)).values()
        pairs = [(f[n_states + i], b) for f, b in zip(fields[:checked], approx)]
        floor = 1e-3 * max(max(abs(a), abs(b)) for a, b in pairs)
        for a, b in pairs:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), floor, 1e-300))
    return worst


def consistency_report() -> list[dict]:
    """Cross-validation suite between this solver and the moment closure.

    Returns one record {test, max_error, pass} per check; meant for the
    oracle-check CLI subcommand.  Only the N = 2 validity check lifts its
    state to the product-basis rho, for its trace, Hermiticity and least
    eigenvalue; every other check reads orbit coordinates.
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
    rho = oracle_steady_state(params2, n_max=6).rho
    trace_err = abs(np.trace(rho) - 1.0)
    herm_err = float(np.max(np.abs(rho - rho.conj().T)))
    neg = max(0.0, -float(np.linalg.eigvalsh(rho)[0]))
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
