"""Scalar references the tests check the library against.

Each one works on single configurations or Python loops and shares no code
with the array paths it cross-checks: rotations and reflections of one
bitmask, the dihedral classes of a sector's orbits, a configuration's
position in its sector, the dense sector Hamiltonian with a matrix-free
product, the dense 2^n Hamiltonian, and the X-form concurrence.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from xxring.basis import SectorBasis, TranslationOrbit, ring_bonds
from xxring.concurrence import PairDensity
from xxring.hamiltonian import Coupling
from xxring.oracle import FULL_DIAGONALIZE_CAP

X_OFFDIAG_TOL = 1e-10


def rotate(bits: int, t: int, n: int) -> int:
    """Cyclic rotation moving the spin at site i to site (i + t) mod n."""
    t %= n
    if t == 0:
        return bits
    mask = (1 << n) - 1
    return ((bits << t) | (bits >> (n - t))) & mask


def reflect(bits: int, n: int) -> int:
    """Ring reflection mapping site i to site (n - i) mod n."""
    out = bits & 1  # site 0 is the mirror axis
    for i in range(1, n):
        if (bits >> i) & 1:
            out |= 1 << (n - i)
    return out


def orbit_representative(bits: int, n: int) -> tuple[int, int]:
    """Minimal rotation of ``bits`` and the shift back to it.

    Returns ``(rep, t)`` with ``rep = min over rotations`` and
    ``rotate(rep, t) == bits``.
    """
    rep, shift = bits, 0
    for t in range(1, n):
        x = rotate(bits, t, n)
        if x < rep:
            rep, shift = x, t
    return rep, (n - shift) % n


def dihedral_representative(bits: int, n: int) -> int:
    """Minimal configuration over all rotations and reflections."""
    rep, _ = orbit_representative(bits, n)
    rep_r, _ = orbit_representative(reflect(bits, n), n)
    return min(rep, rep_r)


@dataclass(frozen=True)
class DihedralClass:
    """Translation orbits joined by ring reflection (one or two of them)."""

    canonical: int
    orbits: tuple[TranslationOrbit, ...]


def dihedral_classes(orbits: list[TranslationOrbit], n: int) -> list[DihedralClass]:
    """Group orbits whose members map onto each other under reflection."""
    groups: dict[int, list[TranslationOrbit]] = {}
    for orb in orbits:
        key = dihedral_representative(orb.representative, n)
        groups.setdefault(key, []).append(orb)
    return [
        DihedralClass(canonical=key,
                      orbits=tuple(sorted(groups[key], key=lambda o: o.representative)))
        for key in sorted(groups)
    ]


def index_of(basis: SectorBasis, bits: int) -> int:
    """Position of ``bits`` in ``basis.configs``; KeyError if it is not in the sector."""
    i = bisect_left(basis.configs, bits)
    if i == len(basis.configs) or basis.configs[i] != bits:
        raise KeyError(bits)
    return i


def build_sector_hamiltonian(basis: SectorBasis, coupling: Coupling) -> np.ndarray:
    """Dense real-symmetric Hamiltonian of one magnetization sector."""
    n = basis.n
    h = np.zeros((basis.dim, basis.dim))
    for a, c in enumerate(basis.configs):
        for i, j in ring_bonds(n):
            if ((c >> i) & 1) != ((c >> j) & 1):
                h[index_of(basis, c ^ ((1 << i) | (1 << j))), a] += coupling.j
    return h


def apply_hamiltonian(basis: SectorBasis, coupling: Coupling, v: np.ndarray) -> np.ndarray:
    """Matrix-free H @ v, for cross-checking the dense build."""
    v = np.asarray(v)
    if v.shape != (basis.dim,):
        raise ValueError(f"state has length {v.shape}, sector dimension is {basis.dim}")
    out = np.zeros(basis.dim, dtype=np.result_type(v, float))
    for a, c in enumerate(basis.configs):
        if v[a] == 0:
            continue
        for i, j in ring_bonds(basis.n):
            if ((c >> i) & 1) != ((c >> j) & 1):
                out[index_of(basis, c ^ ((1 << i) | (1 << j)))] += coupling.j * v[a]
    return out


def full_hamiltonian(n: int, coupling: Coupling) -> np.ndarray:
    """Dense 2^n x 2^n Hamiltonian over all configurations."""
    if n > FULL_DIAGONALIZE_CAP:
        raise ValueError(f"full diagonalization is capped at n={FULL_DIAGONALIZE_CAP}")
    dim = 1 << n
    h = np.zeros((dim, dim))
    for c in range(dim):
        for i, j in ring_bonds(n):
            if ((c >> i) & 1) != ((c >> j) & 1):
                h[c ^ ((1 << i) | (1 << j)), c] += coupling.j
    return h


def concurrence_xstate(rho: PairDensity) -> float:
    """Closed form 2*max(0, |z| - sqrt(u+ u-)) for X-form pair densities."""
    off = rho.matrix.copy()
    np.fill_diagonal(off, 0.0)
    off[1, 2] = off[2, 1] = 0.0
    if np.abs(off).max() > X_OFFDIAG_TOL:
        raise ValueError("pair density is not in X form (stray off-diagonals)")
    d = rho.diagonal()
    u_plus, u_minus = max(d[0], 0.0), max(d[3], 0.0)
    return 2.0 * max(0.0, abs(rho.coherence()) - np.sqrt(u_plus * u_minus))
