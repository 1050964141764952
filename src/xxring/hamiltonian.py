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
offset -b*(k - n/2) and never as a matrix term.  ``sector_plan`` builds a
sector's basis, orbits and hop table once per process for all its blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import SectorBasis, TranslationOrbit, enumerate_sector, translation_orbits


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


def ring_bonds(n: int) -> list[tuple[int, int]]:
    """Bond list (i, i+1 mod n); a one-site ring has no bond to swap."""
    return [(i, (i + 1) % n) for i in range(n) if i != (i + 1) % n]


def build_sector_hamiltonian(basis: SectorBasis, coupling: Coupling) -> np.ndarray:
    """Dense real-symmetric Hamiltonian of one magnetization sector."""
    n = basis.n
    h = np.zeros((basis.dim, basis.dim))
    for a, c in enumerate(basis.configs):
        for i, j in ring_bonds(n):
            if ((c >> i) & 1) != ((c >> j) & 1):
                h[basis.index_of(c ^ ((1 << i) | (1 << j))), a] += coupling.j
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
                out[basis.index_of(c ^ ((1 << i) | (1 << j)))] += coupling.j * v[a]
    return out


@dataclass(frozen=True)
class MomentumBlock:
    """Hamiltonian restricted to one momentum sector of one k sector.

    ``reps`` lists the admissible orbit representatives (those with
    m * period = 0 mod n), ``periods`` their orbit periods, and ``matrix``
    the complex Hermitian block.
    """

    basis: SectorBasis
    m: int
    reps: tuple[int, ...]
    periods: tuple[int, ...]
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.reps)


def hop_table(basis: SectorBasis, orbits: list[TranslationOrbit]) -> np.ndarray:
    """All bond swaps between orbit representatives, resolved once per sector.

    One row (a, b, shift, weight) per hop, indices as exact floats: the swap
    takes representative ``a`` (by orbit index) to ``rotate(reps[b], shift)``
    and carries the amplitude ratio sqrt(period_a / period_b).  Rows run
    a-major and bond-minor.  Each swapped configuration is found in the
    sector with one ``searchsorted``; its orbit ``b`` and ``shift`` are read
    from the sector's orbit map.
    """
    reps = np.array([orb.representative for orb in orbits], dtype=np.int64)
    periods = np.array([orb.period for orb in orbits], dtype=float)
    i, j = np.array(ring_bonds(basis.n), dtype=np.int64).reshape(-1, 2).T
    a, bond = np.nonzero(((reps[:, None] >> i) & 1) != ((reps[:, None] >> j) & 1))
    swapped = np.searchsorted(basis.bits, reps[a] ^ ((1 << i[bond]) | (1 << j[bond])))
    b = basis.orbit[swapped]
    return np.column_stack([a, b, basis.shift[swapped], np.sqrt(periods[a] / periods[b])])


@lru_cache(maxsize=None)
def sector_plan(n: int, k: int) -> tuple[SectorBasis, tuple[TranslationOrbit, ...], np.ndarray]:
    """Basis, translation orbits and read-only hop table of sector (n, k), built once."""
    basis = enumerate_sector(n, k)
    orbits = translation_orbits(basis)
    hops = hop_table(basis, orbits)
    hops.flags.writeable = False
    return basis, tuple(orbits), hops


def build_momentum_block(basis: SectorBasis, orbits: list[TranslationOrbit], m: int,
                         coupling: Coupling, hops: np.ndarray | None = None) -> MomentumBlock:
    """Complex Hermitian block of the sector Hamiltonian at momentum m."""
    n = basis.n
    if not 0 <= m < n:
        raise ValueError(f"momentum index must be in 0..{n - 1}, got {m}")
    if hops is None:
        hops = hop_table(basis, orbits)
    admissible = [i for i, orb in enumerate(orbits) if (m * orb.period) % n == 0]
    col = np.full(len(orbits), -1)
    col[admissible] = np.arange(len(admissible))
    a, b, shift = hops[:, :3].astype(int).T
    keep = (col[a] >= 0) & (col[b] >= 0)
    matrix = np.zeros((len(admissible),) * 2, dtype=complex)
    phase = np.exp(2j * np.pi * m * np.arange(n) / n)
    np.add.at(matrix, (col[b[keep]], col[a[keep]]),
              coupling.j * phase[shift[keep]] * hops[keep, 3])
    reps = tuple(orbits[i].representative for i in admissible)
    periods = tuple(orbits[i].period for i in admissible)
    return MomentumBlock(basis=basis, m=m, reps=reps, periods=periods, matrix=matrix)
