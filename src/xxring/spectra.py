"""Dense Hermitian eigensolving and ground-manifold extraction.

``eigh`` wraps the LAPACK Hermitian solver with a symmetry check and a
deterministic phase convention (largest component of each eigenvector made
real positive).  ``block_levels`` gives one momentum block's eigenvalues from
a per-process table of levels: H(J) = J * H(1), the spin flip maps sector k
onto sector n-k at equal momentum (particle-hole symmetry), and block n-m is
the complex conjugate of block m, so blocks (k, m), (n-k, m), (k, n-m) and
(n-k, n-m) share the levels of one canonical block (k <= n/2, m <= n/2).
The canonical blocks of a sector are solved together, once per process, at
J = 1 and in real arithmetic: ``real_block_pieces`` gives each block in the
basis that K R fixes (real, and split in two by R at m = 0 and n/2), each
piece is checked to be symmetric, and the block's levels are the sorted
union of its pieces' ``eigvalsh``.  Every other request scales those levels
by J.

``ground_manifold`` solves in two phases.  It scans the levels of the
canonical blocks, each with the field offsets -b*(k - n/2) of its sector k
and of n-k.  The ground energy and tolerance window come from that scan,
and the window levels of every block are counted over the joined levels,
with one ``np.bincount`` at the offsets of the sectors k and one at those
of n-k.  Then only blocks reaching the window are solved with eigenvectors,
at the given J, as complex blocks, and lifted.  One ``eigh`` serves both
sectors of a spin-flip pair: the spin flip commutes with H and with the
translations, and lists sector n-k as sector k's complements in reverse
order, so a state of block (n-k, m) is the lifted state of block (k, m)
reversed, at the same level and momentum.  The lower sector of the pair is
the one solved.  Exact
ground-level degeneracies are symmetry-protected, so the default tolerance
of 1e-9 times the spectral range separates them cleanly from solver noise.
Blocks are built on ``enumerate_sector``'s sectors, which each process builds
once per ring size, all n + 1 in one pass, and shares read-only, so the scan
and the ground solve read the same orbit arrays and hop rows.

The lowest ground sector, which the orbit tables read, is always solved
directly: its states are the lifted columns of ``np.linalg.eigh`` on
``build_momentum_block`` at J, bit for bit.  Orbit-table rows tied by
reflection are ordered by last-bit differences of those amplitudes, so
neither a real ground solve nor a momentum-reversal image (block n-m from
block m, in the same sector) is used for them.

Ground solves are reused within a process: ``ground_manifold`` keeps the
results of its last ``GROUND_CACHE_SIZE`` distinct inputs and returns the
same object when an input repeats.  Its amplitude arrays are read-only, so
one caller cannot change what the next one reads.  Code that monkeypatches
the solver internals (``eigh``, ``build_momentum_block``,
``real_block_pieces``, ...) must call ``_ground_manifold.cache_clear()`` and
``_unit_levels.cache_clear()`` first, or it may be handed results solved
before the patch; code that patches how sectors are built (``ring_bonds``,
...) must call ``basis._ring_sectors.cache_clear()`` as well, the one cache
that holds every sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import SectorBasis, check_sector, enumerate_sector
from .hamiltonian import (Coupling, FieldSetting, MomentumBlock, build_momentum_block,
                          check_momentum, real_block_pieces, sector_energy_offset)

HERMITICITY_RTOL = 1e-12
DEGENERACY_RTOL = 1e-9
GROUND_CACHE_SIZE = 32  # distinct ground-solve inputs kept per process


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues ascending, eigenvectors in matching columns."""

    values: np.ndarray
    vectors: np.ndarray


def _fix_phases(vectors: np.ndarray, count: int | None = None) -> np.ndarray:
    """The first ``count`` columns (all by default), each rotated so its
    largest-magnitude entry is real positive.

    The columns are rotated in a copy of the whole matrix, so each one is
    multiplied with the same memory layout whatever ``count`` is: numpy's
    complex multiply may take a fused multiply-add loop on contiguous data,
    which can differ in the last bit.
    """
    out = vectors.copy()
    for col in range(out.shape[1] if count is None else count):
        lead = out[np.argmax(np.abs(out[:, col])), col]
        if lead != 0:
            out[:, col] *= np.conj(lead) / abs(lead)
    return out[:, :count]


def _hermitian(matrix: np.ndarray) -> np.ndarray:
    """The matrix itself, once it is checked to be Hermitian."""
    scale = max(np.abs(matrix).max() if matrix.size else 0.0, 1.0)
    if matrix.size and np.abs(matrix - matrix.conj().T).max() > HERMITICITY_RTOL * scale:
        raise ValueError("matrix is not Hermitian within 1e-12 relative tolerance")
    return matrix


def eigh(matrix: np.ndarray, count: int | None = None) -> Spectrum:
    """Decomposition of a Hermitian matrix with fixed phases.

    All eigenvalues, and the eigenvectors of the lowest ``count`` of them
    (all by default); the phases are fixed only on the columns returned.
    """
    values, vectors = np.linalg.eigh(_hermitian(np.asarray(matrix)))
    return Spectrum(values=values, vectors=_fix_phases(vectors, count))


def _block(n: int, k: int, m: int, coupling: Coupling) -> MomentumBlock:
    return build_momentum_block(enumerate_sector(n, k), m, coupling)


@lru_cache(maxsize=None)
def _unit_levels(n: int, k: int, /) -> tuple[np.ndarray, np.ndarray]:
    """J = 1 eigenvalues of blocks (k, m), m = 0..n//2, solved once per process.

    Returns ``(levels, bounds)``, both read-only: block m's levels ascend in
    ``levels[bounds[m]:bounds[m + 1]]``.  Each block's levels are the sorted
    union of its real pieces' levels, every piece checked to be symmetric
    first.
    """
    blocks = []
    for pieces in real_block_pieces(enumerate_sector(n, k)):
        parts = [np.linalg.eigvalsh(_hermitian(piece)) for piece in pieces]
        blocks.append(np.sort(np.concatenate(parts)) if parts else np.empty(0))
    levels = np.concatenate(blocks)
    bounds = np.cumsum([0] + [len(block) for block in blocks])
    levels.flags.writeable = bounds.flags.writeable = False
    return levels, bounds


def block_levels(n: int, k: int, m: int, coupling: Coupling) -> np.ndarray:
    """Ascending eigenvalues of momentum block (k, m), without the field offset.

    Read from the J = 1 levels of the canonical block (min(k, n-k),
    min(m, n-m)) and scaled by J, as a new array.
    """
    check_sector(n, k)
    check_momentum(m, n)
    levels, bounds = _unit_levels(n, min(k, n - k))
    m = min(m, -m % n)
    levels = coupling.j * levels[bounds[m]:bounds[m + 1]]
    return levels[::-1] if coupling.j < 0 else levels


def check_finite_energies(energies, coupling: Coupling, field: FieldSetting) -> None:
    """Refuse energies, or a spread of energies, that overflow to inf or nan.

    An infinite spectral range would make the degeneracy window infinite, so
    every level would count as degenerate with the ground level.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.size and not np.isfinite(float(energies.max()) - float(energies.min())):
        raise ValueError(f"energies overflow at J={coupling.j:g}, b={field.b:g}")


@dataclass(frozen=True)
class SectorState:
    """Amplitude vector over one sector basis, with its momentum tag."""

    basis: SectorBasis
    amplitudes: np.ndarray
    momentum: int | None = None

    @property
    def k(self) -> int:
        return self.basis.k


def lift_block_vector(block: MomentumBlock, v: np.ndarray) -> np.ndarray:
    """Expand a momentum-block vector into sector amplitudes.

    The orbit representative ``a`` with period p contributes amplitude
    v_a * exp(-2*pi*i*m*t/n) / sqrt(p) on each member T^t(a).  The
    sector's orbit map gives every configuration's orbit, hence its block
    column, and its shift t, so the lift is array indexing.
    """
    v = np.asarray(v)
    if v.shape != (block.dim,):
        raise ValueError(f"vector has shape {v.shape}, block dimension is {block.dim}")
    basis = block.basis
    phase = np.exp(-2j * np.pi * block.m * np.arange(basis.n) / basis.n)
    periods = basis.period[block.orbits]
    column_of_orbit = np.full(len(basis.reps), -1)
    column_of_orbit[block.orbits] = np.arange(block.dim)
    column = column_of_orbit[basis.orbit]
    members = column >= 0
    column = column[members]
    w = (v / np.sqrt(periods))[column]
    # index by the shift modulo the period: phase[t] and phase[t + p] are the
    # same number mathematically but not always in the last bit
    p = phase[basis.shift[members] % periods[column]]
    # w * p is written out: numpy's array complex multiply may use fused
    # multiply-adds (it does on AVX-512) and then differs in the last bit
    # from the scalar product w_a * phase[t]
    out = np.zeros(basis.dim, dtype=complex)
    out.real[members] = w.real * p.real - w.imag * p.imag
    out.imag[members] = w.real * p.imag + w.imag * p.real
    return out


@dataclass(frozen=True)
class GroundManifold:
    """All states at the minimum energy, one amplitude vector per (k, m)."""

    energy: float
    states: tuple[SectorState, ...]
    tolerance: float

    @property
    def degeneracy(self) -> int:
        return len(self.states)

    def sectors(self) -> tuple[int, ...]:
        return tuple(sorted({s.k for s in self.states}))


def ground_manifold(n: int, coupling: Coupling, field: FieldSetting = FieldSetting(),
                    tol: float = DEGENERACY_RTOL) -> GroundManifold:
    """Ground energy and every degenerate ground state of the n-site ring.

    Scans the levels of the symmetry-distinct blocks (k <= n/2, m <= n/2),
    takes every level within ``tol`` times the spectral range of the minimum,
    and diagonalizes only the blocks holding one.  States are lifted to
    read-only sector amplitudes and ordered by (k, m).  A repeated input
    returns the cached result of the first call.  ``tol`` must be finite and
    nonnegative; 0 keeps only levels equal to the minimum.  J and b whose
    levels or spectral range overflow are refused with ValueError.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    return _ground_manifold(n, coupling, field, tol)


@lru_cache(maxsize=GROUND_CACHE_SIZE)
def _ground_manifold(n: int, coupling: Coupling, field: FieldSetting,
                     tol: float) -> GroundManifold:
    offsets = [sector_energy_offset(k, n, field) for k in range(n + 1)]
    width = n // 2 + 1  # canonical sectors, and canonical blocks per sector
    unit = [_unit_levels(n, k) for k in range(width)]
    sizes = [len(levels) for levels, _ in unit]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        values = coupling.j * np.concatenate([levels for levels, _ in unit])
        ends = [end + offsets[sector]  # each sector's lowest and highest level
                for k, part in enumerate(np.split(values, np.cumsum(sizes)[:-1]))
                for end in (part.min(), part.max()) for sector in {k, n - k}]
    check_finite_energies(ends, coupling, field)
    e0 = float(min(ends))
    window = tol * max(float(max(ends)) - e0, np.finfo(float).tiny)

    # every level's block k * width + m; one count of window levels per block,
    # with the offsets of sector k, then with those of sector n - k
    tag = np.repeat(np.arange(width * width), np.concatenate([np.diff(b) for _, b in unit]))
    counts = {}  # (k, m) -> levels in the window, for every block that holds one
    for flip in (False, True):
        offset = np.repeat([offsets[n - k if flip else k] for k in range(width)], sizes)
        inside = np.bincount(tag[values + offset - e0 <= window], minlength=width * width)
        for b in np.flatnonzero(inside).tolist():
            k, m = divmod(b, width)
            for momentum in {m, -m % n}:
                counts[n - k if flip else k, momentum] = int(inside[b])

    solved, states, energies = {}, [], []
    for k, m in sorted(counts):
        image = (n - k, m) in solved  # the spin flip of a lower sector's solve
        if image:
            spectrum, lifted = solved[n - k, m]
        else:
            block = _block(n, k, m, coupling)
            spectrum = eigh(block.matrix, max(counts[k, m], counts.get((n - k, m), 0)))
            lifted = [lift_block_vector(block, v) for v in spectrum.vectors.T]
            solved[k, m] = spectrum, lifted
        energies.append(spectrum.values[0] + offsets[k])
        for amplitudes in lifted[:counts[k, m]]:
            if image:  # sector n - k lists sector k's complements in reverse
                amplitudes = amplitudes[::-1].copy()
            amplitudes.flags.writeable = False
            states.append(SectorState(basis=enumerate_sector(n, k), amplitudes=amplitudes,
                                      momentum=m))
    # the energy of the decompositions the states come from (the scan's
    # eigenvalue-only minimum can differ from it in the last bits)
    return GroundManifold(energy=float(min(energies)), states=tuple(states), tolerance=tol)
