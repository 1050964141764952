"""XX-ring Hamiltonian in fixed-magnetization sectors and momentum blocks.

The model is H = J * sum_i (s+_i s-_{i+1} + s+_{i+1} s-_i) on a periodic
ring (site n identified with site 0), i.e. equal-strength x-x and y-y
exchange.  J < 0 is the ferromagnetic regime, J > 0 the antiferromagnetic
one.  Within a sector the matrix element between two configurations is J
times the number of ring bonds whose swap maps one onto the other; on the
two-site ring the single bond enters the sum twice and is counted twice.

Translation symmetry refines each sector into momentum blocks m = 0..n-1.
The normalized momentum state built on an orbit representative ``a`` with
period p is

    |a(m)> = (1/sqrt(n^2/p)) * sum_t exp(-2*pi*i*m*t/n) T^t |a>,

which is nonzero iff m*p = 0 (mod n).  A uniform field b couples only to
the conserved total magnetization, so it enters as the per-sector scalar
offset -b*(k - n/2) and never as a matrix term.  A block reads its orbits
and hops from the sector's ``SectorBasis``, which ``enumerate_sector`` builds
once per process and shares read-only, so every block of a sector, at every
J, uses the same orbit arrays and hop table.  ``ring_bonds`` and
``hop_table`` live in ``basis``, since neither depends on J.  Only momentum
blocks are built; the dense sector matrix and the matrix-free product that
cross-check them are test references (``tests/reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SectorBasis


@dataclass(frozen=True)
class Coupling:
    """Exchange constant J; sign selects the magnetic regime."""

    j: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.j):
            raise ValueError(f"exchange constant j must be finite, got {self.j}")
        if self.j == 0:
            raise ValueError("exchange constant must be nonzero")

    @property
    def regime(self) -> str:
        return "ferromagnetic" if self.j < 0 else "antiferromagnetic"


@dataclass(frozen=True)
class FieldSetting:
    """Uniform field b adding the Zeeman term -b * sum_i Sz_i."""

    b: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.b):
            raise ValueError(f"field b must be finite, got {self.b}")


def sector_energy_offset(k: int, n: int, field: FieldSetting) -> float:
    """Zeeman shift of every level in the k-up sector: -b*(k - n/2)."""
    return -field.b * (k - n / 2)


@dataclass(frozen=True)
class MomentumBlock:
    """Hamiltonian restricted to one momentum sector of one k sector.

    ``orbits`` holds the ascending, read-only indices of the sector's
    admissible orbits (those with m * period = 0 mod n), one per block
    column, and ``matrix`` the complex Hermitian block.
    """

    basis: SectorBasis
    m: int
    orbits: np.ndarray
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.orbits)


def check_momentum(m: int, n: int) -> None:
    """Refuse a momentum index outside 0..n-1."""
    if not 0 <= m < n:
        raise ValueError(f"momentum index must be in 0..{n - 1}, got {m}")


def build_momentum_block(basis: SectorBasis, m: int, coupling: Coupling) -> MomentumBlock:
    """Complex Hermitian block of the sector Hamiltonian at momentum m."""
    n = basis.n
    check_momentum(m, n)
    orbits = np.flatnonzero(m * basis.period % n == 0)
    orbits.flags.writeable = False
    col = np.full(len(basis.reps), -1)
    col[orbits] = np.arange(len(orbits))
    a, b, shift = basis.hops[:, :3].astype(int).T
    keep = (col[a] >= 0) & (col[b] >= 0)
    matrix = np.zeros((len(orbits),) * 2, dtype=complex)
    phase = np.exp(2j * np.pi * m * np.arange(n) / n)
    np.add.at(matrix, (col[b[keep]], col[a[keep]]),
              coupling.j * phase[shift[keep]] * basis.hops[keep, 3])
    return MomentumBlock(basis=basis, m=m, orbits=orbits, matrix=matrix)
