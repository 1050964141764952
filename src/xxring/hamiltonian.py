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
once per process, with every other sector of the ring in the same pass, and
shares read-only, so every block of a sector, at every J, uses the same
orbit arrays and hop rows.  ``ring_bonds`` and the hop rows live in
``basis``, since neither depends on J.  Only momentum
blocks are built; the dense sector matrix and the matrix-free product that
cross-check them are test references (``tests/reference.py``).

``build_momentum_block`` gives the complex block at any J and
``real_block_pieces`` every canonical block m = 0..n//2 of a sector at J = 1
as real symmetric pieces: the block in the basis fixed by K R (complex
conjugation times reflection), the semi-momentum states of Sandvik, AIP
Conf. Proc. 1297 (2010), section 4, split by R where R keeps the block.
Both read the same hop rows, once per block or once per sector.

``Coupling``, ``FieldSetting`` and ``MomentumBlock`` are immutable named
tuples.  The first two are the ground-solve cache keys, equal and hashed by
value, and check their input in ``__new__``, which ``_make`` and so
``_replace`` go through as well: J and b must be finite, J nonzero, and
neither may be subnormal, since the tolerance window of a subnormal
spectrum would hold every level.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .basis import SectorBasis

_HALF = np.sqrt(0.5)
# smallest normal float; subnormal J or b products keep too few digits
_TINY = float(np.finfo(float).tiny)
_PIECE_BUDGET = 1 << 15  # matrix entries of the pieces assembled at once


class _CouplingFields(NamedTuple):
    j: float


class Coupling(_CouplingFields):
    """Exchange constant J; sign selects the magnetic regime."""

    __slots__ = ()

    def __new__(cls, j: float):
        if not np.isfinite(j):
            raise ValueError(f"exchange constant j must be finite, got {j}")
        if j == 0:
            raise ValueError("exchange constant must be nonzero")
        if abs(j) < _TINY:
            raise ValueError(f"exchange constant j is subnormal: |j| must be at least {_TINY}, "
                             f"got {j}")
        return super().__new__(cls, j)

    @classmethod
    def _make(cls, iterable):  # so ``_replace`` checks its input too
        return cls(*iterable)

    @property
    def regime(self) -> str:
        return "ferromagnetic" if self.j < 0 else "antiferromagnetic"


class _FieldSettingFields(NamedTuple):
    b: float = 0.0


class FieldSetting(_FieldSettingFields):
    """Uniform field b adding the Zeeman term -b * sum_i Sz_i."""

    __slots__ = ()

    def __new__(cls, b: float = 0.0):
        if not np.isfinite(b):
            raise ValueError(f"field b must be finite, got {b}")
        if 0 < abs(b) < _TINY:
            raise ValueError(f"field b is subnormal: |b| must be 0 or at least {_TINY}, got {b}")
        return super().__new__(cls, b)

    @classmethod
    def _make(cls, iterable):  # so ``_replace`` checks its input too
        return cls(*iterable)


def sector_energy_offset(k: int, n: int, field: FieldSetting) -> float:
    """Zeeman shift of every level in the k-up sector: -b*(k - n/2)."""
    return -field.b * (k - n / 2)


class MomentumBlock(NamedTuple):
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
    a, b, shift = basis.hop_index.T
    keep = (col[a] >= 0) & (col[b] >= 0)
    matrix = np.zeros((len(orbits),) * 2, dtype=complex)
    phase = np.exp(2j * np.pi * m * np.arange(n) / n)
    np.add.at(matrix, (col[b[keep]], col[a[keep]]),
              coupling.j * phase[shift[keep]] * basis.hop_weight[keep])
    return MomentumBlock(basis=basis, m=m, orbits=orbits, matrix=matrix)


def real_block_pieces(basis: SectorBasis):
    """Real symmetric pieces of the momentum blocks m = 0..n//2 at J = 1, one list per m.

    The basis of each block is the one fixed by the antiunitary K R (complex
    conjugation times the reflection R), which preserves the momentum and
    maps |a(m)> to exp(i*phi) |mirror(a)(m)>, phi = 2*pi*m*s/n with s the
    ``mirror_shift`` of a.  A self-mirrored orbit a gives the column
    exp(i*phi/2) |a>; a mirror pair a < b gives (|a> + exp(i*phi) |b>)/sqrt(2)
    in column a and i(|a> - exp(i*phi) |b>)/sqrt(2) in column b.  In that
    basis the block is real, and at m = 0 and m = n/2, where R itself keeps
    the block, the first kind of column is R-even and the second R-odd
    (a self-mirrored orbit is odd when exp(i*phi) = -1), so the block splits
    into the even piece and the odd piece, in that order.  Elsewhere the
    block is one piece.  Each piece's rows and columns follow the ascending
    index of their column's orbit.

    Each column writes the coefficient of each of its orbits as
    amp * exp(i*(pi*m*x/n + g*pi/2)), with amp, the integer x and the quarter
    turns g independent of m.  So a hop from a to b with shift t and weight w
    adds, for each column of a and each column of b, amp_a * amp_b * w *
    cos(pi*m*S/n + g*pi/2) with S = x_a - x_b + 2t and g = g_a - g_b: four
    terms per hop, less those through the second column that a self-mirrored
    orbit lacks.  A generator: these terms are built from the sector's hop
    rows on the first step and dropped with it.  Blocks are summed a few
    momenta at a time into orbit-by-orbit matrices of at most about
    ``_PIECE_BUDGET`` entries, and the pieces are read out of them.
    """
    n, period = basis.n, basis.period
    count = len(period)
    orbits = np.arange(count)
    mirror, mirror_shift = basis.mirror, basis.mirror_shift
    lone, follower = mirror == orbits, mirror < orbits
    twice = np.where(follower, 2 * mirror_shift, 0)
    # slot o is orbit o's entry in its even (+) column, slot count + o in its odd (-) one
    column = np.concatenate([np.minimum(orbits, mirror), np.maximum(orbits, mirror)])
    x = np.concatenate([np.where(lone, mirror_shift, twice), twice])
    turns = np.concatenate([np.zeros_like(orbits), np.where(follower, 3, 1)])
    amp = np.concatenate([np.where(lone, 1.0, _HALF), np.where(lone, 0.0, _HALF)])
    a, b, shift = basis.hop_index.T
    from_slot = a + count * np.array([[0], [0], [1], [1]])  # the four terms of each hop
    to_slot = b + count * np.array([[0], [1], [0], [1]])
    weight = basis.hop_weight * amp[from_slot] * amp[to_slot]
    kept = weight != 0
    from_slot, to_slot, weight = from_slot[kept], to_slot[kept], weight[kept]
    cell = column[to_slot] * count + column[from_slot]  # entry in an orbit-by-orbit matrix
    angle = x[from_slot] - x[to_slot] + 2 * np.broadcast_to(shift, kept.shape)[kept]
    turn = (turns[from_slot] - turns[to_slot]) % 4 * (2 * n)
    del kept, from_slot, to_slot  # the generator's frame lives across its steps
    # cosines[g * 2n + j] = cos(pi*j/n + g*pi/2), exact in the quarter turns g
    half_turns = np.pi * np.arange(2 * n) / n
    cosines = np.concatenate([np.cos(half_turns), -np.sin(half_turns),
                              -np.cos(half_turns), np.sin(half_turns)])
    momenta = np.arange(n // 2 + 1)
    admissible = momenta[:, None] * period % n == 0  # (momentum, column)
    odd = ((2 * momenta % n == 0)[:, None]
           & (follower | lone & (2 * momenta[:, None] * mirror_shift // n % 2 == 1)))
    # every term is added at every momentum: one that touches an inadmissible
    # column, or joins an even column to an odd one, lands outside the pieces
    whole = (admissible.all(axis=1) & ~odd.any(axis=1)).tolist()  # one piece, every orbit
    step = max(1, _PIECE_BUDGET // count ** 2)  # momenta assembled together
    for first in range(0, len(momenta), step):
        m = momenta[first:first + step, None]
        values = weight * cosines[turn + m * angle % (2 * n)]
        flat = ((m - first) * count ** 2 + cell).ravel()
        blocks = np.bincount(flat, weights=values.ravel(), minlength=len(m) * count ** 2)
        for i, block in enumerate(blocks.reshape(len(m), count, count), first):
            if whole[i]:
                yield [block]
                continue
            columns = (np.flatnonzero(admissible[i] & ~odd[i]),
                       np.flatnonzero(admissible[i] & odd[i]))
            yield [block[c][:, c] for c in columns if len(c)]
