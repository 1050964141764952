"""Dense Hermitian eigensolving and ground-manifold extraction.

``eigh`` wraps the LAPACK Hermitian solver with a symmetry check and a
deterministic phase convention (largest component of each eigenvector made
real positive).  ``block_levels`` gives one momentum block's eigenvalues from
a per-process table of levels: H(J) = J * H(1), the spin flip maps sector k
onto sector n-k at equal momentum (particle-hole symmetry), and block n-m is
the complex conjugate of block m, so blocks (k, m), (n-k, m), (k, n-m) and
(n-k, n-m) share the levels of one canonical block (k <= n/2, m <= n/2).
Each canonical block is solved once per process at J = 1, after the
Hermiticity check, and every other request scales those levels by J.

``ground_manifold`` solves in two phases.  It scans the levels of the
canonical blocks, each standing for up to four blocks with their own field
offsets -b*(k - n/2).  The ground energy and tolerance window come from that
full multiset; then only blocks reaching the window are fully solved at the
given J and lifted.  Exact ground-level degeneracies are symmetry-protected,
so the default tolerance of 1e-9 times the spectral range separates them
cleanly from solver noise.  Blocks are built on ``enumerate_sector``'s
sectors, which each process builds once and shares read-only, so the scan
and the ground solve read the same orbit arrays and hop table.

Ground solves are reused within a process: ``ground_manifold`` keeps the
results of its last ``GROUND_CACHE_SIZE`` distinct inputs and returns the
same object when an input repeats.  Its amplitude arrays are read-only, so
one caller cannot change what the next one reads.  Code that monkeypatches
the solver internals (``eigh``, ``build_momentum_block``, ...) must call
``_ground_manifold.cache_clear()`` and ``_unit_levels.cache_clear()`` first,
or it may be handed results solved before the patch; code that patches how
sectors are built (``hop_table``, ...) must call
``enumerate_sector.cache_clear()`` as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import SectorBasis, check_sector, enumerate_sector
from .hamiltonian import (Coupling, FieldSetting, MomentumBlock, build_momentum_block,
                          check_momentum, sector_energy_offset)

HERMITICITY_RTOL = 1e-12
DEGENERACY_RTOL = 1e-9
GROUND_CACHE_SIZE = 32  # distinct ground-solve inputs kept per process


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues ascending, eigenvectors in matching columns."""

    values: np.ndarray
    vectors: np.ndarray


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = vectors.copy()
    for col in range(out.shape[1]):
        lead = out[np.argmax(np.abs(out[:, col])), col]
        if lead != 0:
            out[:, col] *= np.conj(lead) / abs(lead)
    return out


def _hermitian(matrix: np.ndarray) -> np.ndarray:
    """The matrix itself, once it is checked to be Hermitian."""
    scale = max(np.abs(matrix).max() if matrix.size else 0.0, 1.0)
    if matrix.size and np.abs(matrix - matrix.conj().T).max() > HERMITICITY_RTOL * scale:
        raise ValueError("matrix is not Hermitian within 1e-12 relative tolerance")
    return matrix


def eigh(matrix: np.ndarray) -> Spectrum:
    """Full decomposition of a Hermitian matrix with fixed phases."""
    values, vectors = np.linalg.eigh(_hermitian(np.asarray(matrix)))
    return Spectrum(values=values, vectors=_fix_phases(vectors))


def _block(n: int, k: int, m: int, coupling: Coupling) -> MomentumBlock:
    return build_momentum_block(enumerate_sector(n, k), m, coupling)


@lru_cache(maxsize=None)
def _unit_levels(n: int, k: int, m: int, /) -> np.ndarray:
    """Read-only ascending eigenvalues of block (k, m) at J = 1, solved once per process."""
    levels = np.linalg.eigvalsh(_hermitian(_block(n, k, m, Coupling(1.0)).matrix))
    levels.flags.writeable = False
    return levels


def block_levels(n: int, k: int, m: int, coupling: Coupling) -> np.ndarray:
    """Ascending eigenvalues of momentum block (k, m), without the field offset.

    Read from the J = 1 levels of the canonical block (min(k, n-k),
    min(m, n-m)) and scaled by J, as a new array.
    """
    check_sector(n, k)
    check_momentum(m, n)
    levels = coupling.j * _unit_levels(n, min(k, n - k), min(m, -m % n))
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
    column (``block.orbits`` is ascending), and its shift t, so the lift is
    array indexing.
    """
    v = np.asarray(v)
    if v.shape != (block.dim,):
        raise ValueError(f"vector has shape {v.shape}, block dimension is {block.dim}")
    basis = block.basis
    phase = np.exp(-2j * np.pi * block.m * np.arange(basis.n) / basis.n)
    periods = basis.period[block.orbits]
    members = np.isin(basis.orbit, block.orbits)
    column = np.searchsorted(block.orbits, basis.orbit[members])
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
    levels = {}  # (k, m) -> levels plus the field offset of k, for every block
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for k in range(n // 2 + 1):
            for m in range(n // 2 + 1):
                values = block_levels(n, k, m, coupling)
                for image in {(k, m), (n - k, m), (k, -m % n), (n - k, -m % n)}:
                    levels[image] = values + sector_energy_offset(image[0], n, field)
    all_values = np.concatenate(list(levels.values()))
    check_finite_energies(all_values, coupling, field)
    e0 = float(all_values.min())
    window = tol * max(float(all_values.max()) - e0, np.finfo(float).tiny)

    states, energies = [], []
    for k, m in sorted(levels):
        count = int(np.count_nonzero(levels[k, m] - e0 <= window))
        if count == 0:
            continue
        block = _block(n, k, m, coupling)
        spectrum = eigh(block.matrix)
        energies.append(spectrum.values[0] + sector_energy_offset(k, n, field))
        for col in range(count):
            amplitudes = lift_block_vector(block, spectrum.vectors[:, col])
            amplitudes.flags.writeable = False
            states.append(SectorState(basis=block.basis, amplitudes=amplitudes, momentum=m))
    # the energy of the decompositions the states come from (the scan's
    # eigenvalue-only minimum can differ from it in the last bits)
    return GroundManifold(energy=float(min(energies)), states=tuple(states), tolerance=tol)
