"""Dense Hermitian eigensolving, ground-manifold extraction and its concurrence.

``eigh`` wraps the LAPACK Hermitian solver with a symmetry check and a
deterministic phase convention (largest component of each eigenvector made
real positive).  ``ring_levels`` lists the levels of every momentum block of
the ring, or of chosen sectors, as (k, m, energy) arrays; the ``spectrum``
command prints that listing and the ground scan reads it, and no other code
turns the per-process table of J = 1 levels into energies.  The table rests
on three symmetries: H(J) = J * H(1), the spin flip maps sector k onto
sector n-k at equal momentum (particle-hole symmetry), and block n-m is the
complex conjugate of block m, so blocks (k, m), (n-k, m), (k, n-m) and
(n-k, n-m) share the levels of one canonical block (k <= n/2, m <= n/2).
The canonical blocks of a sector are solved together, once per process, at
J = 1 and in real arithmetic: ``real_block_pieces`` gives each block in the
basis that K R fixes (real, and split in two by R at m = 0 and n/2), each
piece is checked to be symmetric, and the block's levels are its pieces'
``eigvalsh``, piece after piece.  The table lists block m > n/2 as a copy of
block n-m's levels, so it holds every block m = 0..n-1 and no reader maps
momenta; the listing is J times the table plus the field offset, for either
sign of J.  It sorts nothing: the ground scan reads levels in any order, and
the ``spectrum`` command sorts the rows it prints.

``ground_manifold`` solves in two phases.  It scans the listing of every
sector k = 0..n: the ground energy (the listing's minimum, which the result
reports), the spectral range and the tolerance window come from its
energies, and one ``Counter`` over the (k, m) of the levels inside the
window counts each block's window levels.  Then only blocks reaching the
window are solved with eigenvectors, at the given J, as complex blocks, and
each solve is lifted in one call.  One ``eigh`` serves both sectors of a
spin-flip pair: the spin flip commutes with H and with the translations, and
lists sector n-k as sector k's complements in reverse order, so a state of
block (n-k, m) is the lifted state of block (k, m) reversed, at the same
level and momentum.  The lower sector of the pair is the one solved.  Exact
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

Each ground solve ends by building its mixture's concurrence profile on the
pairs (0, d), d = 1..n//2 (``concurrence.concurrence_profile``), and stores
it on the result, so ``ground_concurrence`` and every command that prints a
concurrence read one array per solve.  The states come in (k, m) order, so
the profile reduces the mixture once per sector, all of that sector's states
in one stacked call.  A pair (p, q) reads the entry at its ring distance
less one, and ``concurrence.ring_distance`` is the one rule for that
distance (and for which pairs a ring has).

Ground solves are reused within a process: ``ground_manifold`` keeps the
results of its last ``GROUND_CACHE_SIZE`` distinct inputs and returns the
same object when an input repeats.  Its amplitude and profile arrays are
read-only, so one caller cannot change what the next one reads.  Code that
monkeypatches the solver internals (``eigh``, ``build_momentum_block``,
``real_block_pieces``, ``concurrence_profile``, ...) must call
``_ground_manifold.cache_clear()`` and ``_unit_levels.cache_clear()`` first,
or it may be handed results solved before the patch; code that patches how
sectors are built (``ring_bonds``, ...) must call
``basis._ring_sectors.cache_clear()`` as well, the one cache that holds
every sector.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .basis import SectorBasis, check_ring_size, check_sector, enumerate_sector
from .concurrence import concurrence_profile, ring_distance
from .hamiltonian import (Coupling, FieldSetting, MomentumBlock, build_momentum_block,
                          real_block_pieces, sector_energy_offset)

HERMITICITY_RTOL = 1e-12
DEGENERACY_RTOL = 1e-9
GROUND_CACHE_SIZE = 32  # distinct ground-solve inputs kept per process


class Spectrum(NamedTuple):
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
    matrix = np.asarray(matrix)
    if count is not None and not 0 <= count <= len(matrix):
        raise ValueError(f"count {count} is outside 0..{len(matrix)}, the matrix dimension")
    values, vectors = np.linalg.eigh(_hermitian(matrix))
    return Spectrum(values=values, vectors=_fix_phases(vectors, count))


@lru_cache(maxsize=None)
def _unit_levels(n: int, k: int, /) -> tuple[np.ndarray, np.ndarray]:
    """J = 1 eigenvalues of blocks (k, m), m = 0..n-1, solved once per process.

    Returns ``(levels, momenta)``, both read-only: the levels of blocks
    m = 0..n-1 one block after another, and the momentum m of each level.
    Block m <= n/2 lists its real pieces' levels, every piece checked to be
    symmetric first; block m > n/2, the complex conjugate of block n - m,
    repeats that block's levels and is not solved again.
    """
    blocks = [[np.linalg.eigvalsh(_hermitian(piece)) for piece in pieces]
              for pieces in real_block_pieces(enumerate_sector(n, k))]
    blocks += blocks[1:(n + 1) // 2][::-1]
    levels = np.concatenate([part for parts in blocks for part in parts])
    momenta = np.repeat(np.arange(n), [sum(map(len, parts)) for parts in blocks])
    levels.flags.writeable = momenta.flags.writeable = False
    return levels, momenta


def ring_levels(n: int, coupling: Coupling, field: FieldSetting = FieldSetting(),
                sectors=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every level of the given sectors (all k = 0..n by default) as ``(k, m, energy)`` arrays.

    Rows come in (k, m) order: J times sector min(k, n-k)'s J = 1 table
    plus the sector's offset -b*(k - n/2).  Levels that overflow come out
    as inf or nan, unrefused: each caller refuses, with
    ``check_finite_energies``, the levels it keeps.
    """
    check_ring_size(n)
    columns = []
    for k in range(n + 1) if sectors is None else sectors:
        check_sector(n, k)
        levels, momenta = _unit_levels(n, min(k, n - k))
        with np.errstate(over="ignore", invalid="ignore"):  # refused by the caller
            energy = coupling.j * levels + sector_energy_offset(k, n, field)
        columns.append((np.full(len(levels), k), momenta, energy))
    return tuple(map(np.concatenate, zip(*columns)))


def check_finite_energies(energies: np.ndarray, coupling: Coupling, field: FieldSetting) -> None:
    """Refuse a float array of energies, or its spread, that overflows to inf or nan.

    An infinite spectral range would make the degeneracy window infinite, so
    every level would count as degenerate with the ground level.
    """
    if energies.size and not np.isfinite(float(energies.max()) - float(energies.min())):
        raise ValueError(f"energies overflow at J={coupling.j:g}, b={field.b:g}")


class SectorState(NamedTuple):
    """Amplitude vector over one sector basis, with its momentum tag."""

    basis: SectorBasis
    amplitudes: np.ndarray
    momentum: int | None = None

    @property
    def k(self) -> int:
        return self.basis.k


def lift_block_vector(block: MomentumBlock, vectors: np.ndarray) -> np.ndarray:
    """Expand momentum-block vectors into sector amplitudes.

    ``vectors`` is one vector of the block, or a (dim, count) array of them,
    lifted to one row per column.  The orbit representative ``a`` with
    period p contributes amplitude v_a * exp(-2*pi*i*m*t/n) / sqrt(p) on
    each member T^t(a).  The sector's orbit map gives every configuration's
    orbit, hence its block column, and its shift t, so the lift is array
    indexing.
    """
    rows = np.asarray(vectors).T
    if rows.ndim > 2 or rows.shape[-1:] != (block.dim,):
        raise ValueError(f"vector has shape {np.shape(vectors)}, block dimension is {block.dim}")
    basis = block.basis
    phase = np.exp(-2j * np.pi * block.m * np.arange(basis.n) / basis.n)
    periods = basis.period[block.orbits]
    column_of_orbit = np.full(len(basis.reps), -1)
    column_of_orbit[block.orbits] = np.arange(block.dim)
    column = column_of_orbit[basis.orbit]
    members = column >= 0
    column = column[members]
    w = (rows / np.sqrt(periods))[..., column]
    # index by the shift modulo the period: phase[t] and phase[t + p] are the
    # same number mathematically but not always in the last bit
    p = phase[basis.shift[members] % periods[column]]
    # w * p is written out: numpy's array complex multiply may use fused
    # multiply-adds (it does on AVX-512) and then differs in the last bit
    # from the scalar product w_a * phase[t]
    out = np.zeros(rows.shape[:-1] + (basis.dim,), dtype=complex)
    out.real[..., members] = w.real * p.real - w.imag * p.imag
    out.imag[..., members] = w.real * p.imag + w.imag * p.real
    return out


class GroundManifold(NamedTuple):
    """All states at the minimum energy, one amplitude vector per (k, m).

    ``energy`` is the minimum of the level listing (``ring_levels``) that
    the ground scan reads, bit for bit.  ``concurrence`` is the read-only
    concurrence of the states' equal-weight mixture on the pair (0, d) at
    index d - 1, d = 1..n//2.
    """

    energy: float
    states: tuple[SectorState, ...]
    concurrence: np.ndarray

    @property
    def degeneracy(self) -> int:
        return len(self.states)


def ground_manifold(n: int, coupling: Coupling, field: FieldSetting = FieldSetting(),
                    tol: float = DEGENERACY_RTOL) -> GroundManifold:
    """Ground energy and every degenerate ground state of the n-site ring.

    Scans every level of the ring (``ring_levels``), takes every level within
    ``tol`` times the spectral range of the minimum, and diagonalizes only
    the blocks holding one.  States are lifted to read-only sector amplitudes
    and ordered by (k, m), and their mixture's concurrence profile is built
    from them (``concurrence_profile``).  A repeated input returns the cached result of the
    first call.  ``tol`` must be finite and nonnegative; 0 keeps only levels
    equal to the minimum.  J and b whose levels or spectral range overflow
    are refused with ValueError.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    check_ring_size(n)  # before the cache, which takes 8.0 for 8
    return _ground_manifold(n, coupling, field, tol)


@lru_cache(maxsize=GROUND_CACHE_SIZE)
def _ground_manifold(n: int, coupling: Coupling, field: FieldSetting,
                     tol: float) -> GroundManifold:
    sector, momentum, levels = ring_levels(n, coupling, field)
    check_finite_energies(levels, coupling, field)
    e0 = float(levels.min())
    window = tol * max(float(levels.max()) - e0, np.finfo(float).tiny)
    inside = levels - e0 <= window
    counts = Counter(zip(sector[inside].tolist(), momentum[inside].tolist()))  # per (k, m)

    solved, states = {}, []
    for k, m in sorted(counts):
        if (n - k, m) in solved:  # the spin flip of a lower sector's solve
            # sector n - k lists sector k's complements in reverse
            lifted = solved[n - k, m][:counts[k, m], ::-1].copy()
        else:
            block = build_momentum_block(enumerate_sector(n, k), m, coupling)
            count = max(counts[k, m], counts.get((n - k, m), 0))
            lifted = solved[k, m] = lift_block_vector(block, eigh(block.matrix, count).vectors)
        lifted.flags.writeable = False
        states.extend(SectorState(basis=enumerate_sector(n, k), amplitudes=amplitudes,
                                  momentum=m) for amplitudes in lifted[:counts[k, m]])
    return GroundManifold(energy=e0, states=tuple(states), concurrence=concurrence_profile(states))


def ground_concurrence(n: int, coupling: Coupling, field: FieldSetting = FieldSetting(),
                       pair: tuple[int, int] = (0, 1),
                       tol: float = DEGENERACY_RTOL) -> float:
    """Pair concurrence of the ground-manifold mixture, read from its distance profile."""
    distance = ring_distance(pair, n)  # before the solve, which can take seconds
    return float(ground_manifold(n, coupling, field, tol=tol).concurrence[distance - 1])
