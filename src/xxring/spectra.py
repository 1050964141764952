"""Dense Hermitian eigensolving and ground-manifold extraction.

``eigh`` wraps the LAPACK Hermitian solver with a symmetry check and a
deterministic phase convention (largest component of each eigenvector made
real positive); ``block_levels`` gives one momentum block's eigenvalues after
the same check.  ``ground_manifold`` solves in two phases.  It scans the
eigenvalues of the blocks k <= n/2, m <= n/2 only: the spin flip maps sector
k onto sector n-k at equal momentum (particle-hole symmetry), and block n-m
is the complex conjugate of block m, so each scanned block also stands for
up to three others, each with its own field offset -b*(k - n/2).  The ground
energy and tolerance window come from that full multiset; then only blocks
reaching the window are fully solved and lifted.  Exact ground-level
degeneracies are symmetry-protected, so the default tolerance of 1e-9 times
the spectral range separates them cleanly from solver noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SectorBasis, rotate
from .hamiltonian import (Coupling, FieldSetting, MomentumBlock, build_momentum_block,
                          sector_energy_offset, sector_plan)

HERMITICITY_RTOL = 1e-12
DEGENERACY_RTOL = 1e-9


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
    basis, orbits, hops = sector_plan(n, k)
    return build_momentum_block(basis, orbits, m, coupling, hops=hops)


def block_levels(n: int, k: int, m: int, coupling: Coupling) -> np.ndarray:
    """Ascending eigenvalues of momentum block (k, m), without the field offset."""
    return np.linalg.eigvalsh(_hermitian(_block(n, k, m, coupling).matrix))


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
    v_a * exp(-2*pi*i*m*t/n) / sqrt(p) on each member rotate(a, t).
    """
    v = np.asarray(v)
    if v.shape != (block.dim,):
        raise ValueError(f"vector has shape {v.shape}, block dimension is {block.dim}")
    basis = block.basis
    n = basis.n
    phase = np.exp(-2j * np.pi * block.m * np.arange(n) / n)
    out = np.zeros(basis.dim, dtype=complex)
    for rep, period, amp in zip(block.reps, block.periods, v):
        w = amp / np.sqrt(period)
        for t in range(period):
            out[basis.index_of(rotate(rep, t, n))] = w * phase[t]
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
    sector amplitudes and ordered by (k, m).
    """
    levels = {}  # (k, m) -> levels plus the field offset of k, for every block
    for k in range(n // 2 + 1):
        for m in range(n // 2 + 1):
            values = block_levels(n, k, m, coupling)
            for image in {(k, m), (n - k, m), (k, -m % n), (n - k, -m % n)}:
                levels[image] = values + sector_energy_offset(image[0], n, field)
    all_values = np.concatenate(list(levels.values()))
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
        states.extend(SectorState(basis=block.basis, momentum=m,
                                  amplitudes=lift_block_vector(block, spectrum.vectors[:, col]))
                      for col in range(count))
    # the energy of the decompositions the states come from (the scan's
    # eigenvalue-only minimum can differ from it in the last bits)
    return GroundManifold(energy=float(min(energies)), states=tuple(states), tolerance=tol)
