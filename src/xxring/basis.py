"""Spin-configuration bookkeeping on a ring of n sites.

A configuration of n spin-1/2 sites is stored as an integer bitmask: bit i
set means the spin at site i points up (sites 0..n-1, bits above n-1 must be
zero).  The Hamiltonian conserves the number of up spins, so almost all work
happens inside a fixed-magnetization sector: one int64 array of all C(n, k)
masks with popcount k, ordered by integer value.

Ring translations partition a sector into orbits.  T^t is the rotation
that moves the spin at site i to site (i + t) mod n, and R the reflection
that maps site i to site (n - i) mod n.  ``enumerate_sector`` builds each
sector once per process and hands out the same read-only ``SectorBasis`` on
every later call.  It carries everything about the sector that does not
depend on the coupling: per configuration, the index of its orbit (orbits
numbered by ascending representative, the minimal member) and the shift t
with T^t(representative) == config, taken from the configuration's first
minimal rotation; per orbit, the representative, the period, the orbit
that R maps it onto (``mirror``) and the shift that R's image sits at in
that orbit (``mirror_shift``); and the bond swaps between representatives
(``hop_table``), as integer columns (``hop_index``) and amplitude ratios
(``hop_weight``).  Momentum blocks, lifted amplitudes and
orbit-probability tables all read these arrays instead of rotating
configurations again; no orbit is kept as an object, and ``rotation_order``
lists each orbit's members in turn.  An orbit and its mirror form one
dihedral class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

# largest ring accepted.  Sectors enumerate in well under a second up to here,
# but dense ground solves grow fast: on one core of a 2-core x86-64 VM with
# numpy 2.4 and OpenBLAS, n = 16 takes about 2.5 s and n = 17 about 14 s,
# n = 18..20 minutes to hours; the 2^n oracle stops at n = 14.
RING_CAP = 20


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """All configurations with ``k`` up spins on ``n`` sites, ascending, and their orbits.

    ``bits`` holds the configurations as an int64 array.  ``orbit[i]`` is
    the translation orbit of ``bits[i]``, orbits numbered by ascending
    representative, and ``shift[i]`` the shift t with
    T^t(reps[orbit[i]]) == bits[i], where t = n - u (mod n) for the first u
    at which T^u(bits[i]) is minimal.
    ``reps`` and ``period`` give each orbit's representative and period,
    ``mirror[a]`` the orbit that contains the reflection R(reps[a]) (equal
    to ``a`` for an orbit that R maps onto itself) and ``mirror_shift[a]``
    the shift s with R(reps[a]) == T^s(reps[mirror[a]]), that is ``shift``
    of the configuration R(reps[a]).
    ``hop_index`` and ``hop_weight`` are the sector's ``hop_table``: the
    (a, b, shift) columns of its hops as int64, and their float weights.
    Every array is read-only.
    """

    n: int
    k: int
    bits: np.ndarray = field(repr=False)
    orbit: np.ndarray = field(repr=False)
    shift: np.ndarray = field(repr=False)
    reps: np.ndarray = field(repr=False)
    period: np.ndarray = field(repr=False)
    mirror: np.ndarray = field(repr=False)
    mirror_shift: np.ndarray = field(repr=False)
    hop_index: np.ndarray = field(repr=False)
    hop_weight: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.bits)


def check_ring_size(n: int) -> None:
    """Refuse ring sizes outside 1..RING_CAP."""
    if not 1 <= n <= RING_CAP:
        raise ValueError(f"ring size must be in 1..{RING_CAP}, got {n}")


def check_sector(n: int, k: int) -> None:
    """Refuse a ring size outside 1..RING_CAP or an up-spin count outside 0..n."""
    check_ring_size(n)
    if not 0 <= k <= n:
        raise ValueError(f"up-spin count must be in 0..{n}, got {k}")


@lru_cache(maxsize=1)
def _ring_codes(n: int, /) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One pass over all 2^n configurations of the ring, kept for the last n asked.

    Returns ``(by_count, starts, least, shift, mirrored)``: every
    configuration ordered by popcount, ascending within a popcount, with
    popcount k at ``by_count[starts[k]:starts[k + 1]]``; and, indexed by
    configuration, its first minimal rotation, the shift t with
    T^t(least) == config, and its reflection R(config).  A strictly smaller
    rotation replaces the running minimum, so ties keep the first one.
    """
    codes = np.arange(1 << n, dtype=np.int64)
    mask = (1 << n) - 1
    ones = codes & 1
    least, first = codes, np.zeros_like(codes)
    mirrored = codes & 1  # site 0 is the mirror axis
    for t in range(1, n):
        bit = (codes >> t) & 1
        ones += bit
        mirrored |= bit << (n - t)
        rotated = ((codes << t) | (codes >> (n - t))) & mask
        first = np.where(rotated < least, t, first)
        least = np.minimum(least, rotated)
    by_count = np.argsort(ones, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(ones, minlength=n + 1))))
    return by_count, starts, least, (n - first) % n, mirrored


@lru_cache(maxsize=None)
def enumerate_sector(n: int, k: int, /) -> SectorBasis:
    """The k-up-spin sector of the n-site ring, built once per process.

    The arguments are positional-only, so every call for a sector shares one
    cache entry and one ``SectorBasis``.

    Configurations, their minimal rotations (hence representatives and
    orbit indices), their shifts and their reflections are read from
    ``_ring_codes(n)``, one pass over ``arange(2**n)`` shared by the sectors
    of a ring size.  The orbits of the reflected representatives, and the
    shifts at which they sit, come from the orbit map.
    """
    check_sector(n, k)
    by_count, starts, least, shifts, mirrored = _ring_codes(n)
    bits = by_count[starts[k]:starts[k + 1]].copy()
    reps, orbit, period = np.unique(least[bits], return_inverse=True, return_counts=True)
    shift = shifts[bits]
    image = np.searchsorted(bits, mirrored[reps])
    basis = SectorBasis(n=n, k=k, bits=bits, orbit=orbit, shift=shift,
                        reps=reps, period=period, mirror=orbit[image],
                        mirror_shift=shift[image], hop_index=None, hop_weight=None)
    hop_index, hop_weight = hop_table(basis)
    basis = replace(basis, hop_index=hop_index, hop_weight=hop_weight)
    for name in ("bits", "orbit", "shift", "reps", "period", "mirror", "mirror_shift",
                 "hop_index", "hop_weight"):
        getattr(basis, name).flags.writeable = False
    return basis


def ring_bonds(n: int) -> list[tuple[int, int]]:
    """Bond list (i, i+1 mod n); a one-site ring has no bond to swap."""
    return [(i, (i + 1) % n) for i in range(n) if i != (i + 1) % n]


def hop_table(basis: SectorBasis) -> tuple[np.ndarray, np.ndarray]:
    """All bond swaps between orbit representatives of a sector.

    Returns ``(index, weight)``: one int64 row (a, b, shift) per hop, whose
    swap takes representative ``a`` (by orbit index) to
    T^shift(basis.reps[b]), and the hop's amplitude ratio
    sqrt(period_a / period_b).  Rows run a-major and bond-minor.  Each
    swapped configuration is found in the sector with one ``searchsorted``;
    its orbit ``b`` and ``shift`` are read from the sector's orbit map.
    ``enumerate_sector`` keeps the two as ``basis.hop_index`` and
    ``basis.hop_weight``.
    """
    reps, period = basis.reps, basis.period
    i, j = np.array(ring_bonds(basis.n), dtype=np.int64).reshape(-1, 2).T
    a, bond = np.nonzero(((reps[:, None] >> i) & 1) != ((reps[:, None] >> j) & 1))
    swapped = np.searchsorted(basis.bits, reps[a] ^ ((1 << i[bond]) | (1 << j[bond])))
    b = basis.orbit[swapped]
    index = np.column_stack([a, b, basis.shift[swapped]]).astype(np.int64, copy=False)
    return index, np.sqrt(period[a] / period[b])


def rotation_order(basis: SectorBasis) -> np.ndarray:
    """Configuration indices sorted by orbit, then by shift modulo the period.

    Orbit a fills the a-th run of ``period[a]`` entries, in rotation order.
    """
    return np.lexsort((basis.shift % basis.period[basis.orbit], basis.orbit))
