"""Spin-configuration bookkeeping on a ring of n sites.

A configuration of n spin-1/2 sites is stored as an integer bitmask: bit i
set means the spin at site i points up (sites 0..n-1, bits above n-1 must be
zero).  The Hamiltonian conserves the number of up spins, so almost all work
happens inside a fixed-magnetization sector: one int64 array of all C(n, k)
masks with popcount k, ordered by integer value.

Ring translations partition a sector into orbits.  T^t is the rotation
that moves the spin at site i to site (i + t) mod n, and R the reflection
that maps site i to site (n - i) mod n.  The first ``enumerate_sector`` call
for a ring size builds all n + 1 of its sectors from one array pass over the
2^n configurations, and every later call hands out the same read-only
``SectorBasis``, a named tuple that compares and hashes by identity; one
cache, ``_ring_sectors``, holds them.  A sector carries everything about
itself that does not depend on the coupling: per
configuration, the index of its orbit (orbits numbered by ascending
representative, the minimal member) and the shift t with
T^t(representative) == config, taken from the configuration's first
minimal rotation; per orbit, the representative, the period, the orbit
that R maps it onto (``mirror``) and the shift that R's image sits at in
that orbit (``mirror_shift``); and the bond swaps between representatives,
as integer columns (``hop_index``) and amplitude ratios (``hop_weight``).
Momentum blocks, lifted amplitudes and orbit-probability tables all read
these arrays instead of rotating configurations again; no orbit is kept as
an object, and ``rotation_order`` lists each orbit's members in turn.  An
orbit and its mirror form one dihedral class.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

# largest ring accepted.  Sectors enumerate in well under a second up to here,
# but dense ground solves grow fast: at J = +-1 with one BLAS thread on a
# 2-core x86-64 VM (numpy 2.4, OpenBLAS), n = 16 takes 1.6-2.0 s and n = 17
# 8.8-13.9 s, n = 18..20 minutes to hours; the 2^n oracle stops at n = 14.
RING_CAP = 20


class SectorBasis(NamedTuple):
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
    ``hop_index`` holds one int64 row (a, b, shift) per bond swap of a
    representative: the swap takes ``reps[a]`` to T^shift(reps[b]).  Rows
    run a-major and bond-minor, and ``hop_weight`` gives each hop's
    amplitude ratio sqrt(period[a] / period[b]).  Every array is read-only.
    A basis compares and hashes by identity, and its repr shows n and k only.
    """

    n: int
    k: int
    bits: np.ndarray
    orbit: np.ndarray
    shift: np.ndarray
    reps: np.ndarray
    period: np.ndarray
    mirror: np.ndarray
    mirror_shift: np.ndarray
    hop_index: np.ndarray
    hop_weight: np.ndarray

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __repr__(self) -> str:
        return f"SectorBasis(n={self.n!r}, k={self.k!r})"

    @property
    def dim(self) -> int:
        return len(self.bits)


def check_ring_size(n: int) -> None:
    """Refuse ring sizes that are not ints (numpy integers too) in 1..RING_CAP.

    A float is refused even when it is whole: 8.0 would pass the range test
    and then index arrays and caches as if it were 8.
    """
    if not (isinstance(n, (int, np.integer)) and 1 <= n <= RING_CAP):
        raise ValueError(f"ring size must be in 1..{RING_CAP}, got {n}")


def check_sector(n: int, k: int) -> None:
    """Refuse a bad ring size, then an up-spin count that is not an int in 0..n."""
    check_ring_size(n)
    if not (isinstance(k, (int, np.integer)) and 0 <= k <= n):
        raise ValueError(f"up-spin count must be in 0..{n}, got {k}")


def ring_bonds(n: int) -> list[tuple[int, int]]:
    """Bond list (i, i+1 mod n); a one-site ring has no bond to swap."""
    return [(i, (i + 1) % n) for i in range(n) if i != (i + 1) % n]


def _ring_pass(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One array pass over the 2^n configurations of the ring, indexed by configuration.

    Returns each configuration's popcount, its first minimal rotation (a
    strictly smaller rotation replaces the running minimum, so ties keep the
    first), the shift t with T^t(least) == config, and its reflection.  The
    pass's temporaries are freed when it returns.
    """
    codes, mask = np.arange(1 << n, dtype=np.int64), (1 << n) - 1
    ones, least, first = codes & 1, codes.copy(), np.zeros_like(codes)
    mirrored = codes & 1  # site 0 is the mirror axis
    for t in range(1, n):
        bit = (codes >> t) & 1
        ones += bit
        mirrored |= bit << (n - t)
        rotated = ((codes << t) | (codes >> (n - t))) & mask
        first[rotated < least] = t
        np.minimum(least, rotated, out=least)
    return ones, least, (n - first) % n, mirrored


@lru_cache(maxsize=None)
def _ring_sectors(n: int, /) -> tuple[SectorBasis, ...]:
    """Every sector k = 0..n of the n-site ring, cut from one ``_ring_pass``.

    A configuration is its orbit's representative exactly when it is its own
    least rotation, so the representatives in popcount order, ascending
    within a popcount, list every sector's orbits with no sort.  Orbit
    numbers, periods, mirrors and hop targets are then lookups by
    configuration, made once for the ring, and each sector is a read-only
    slice of the ring's arrays.  No 2^n lookup table is kept.
    """
    ones, least, shift, mirrored = _ring_pass(n)
    by_count = np.argsort(ones, kind="stable")
    reps = by_count[least[by_count] == by_count]
    starts, orbit_starts = (np.concatenate(([0], np.cumsum(np.bincount(x, minlength=n + 1))))
                            for x in (ones, ones[reps]))
    base = orbit_starts[ones[reps]]  # the first orbit of each orbit's sector
    number = np.empty_like(least)
    number[reps] = np.arange(len(reps)) - base  # each representative's orbit in its sector
    orbit, period, mirrored = number[least], np.bincount(least)[reps], mirrored[reps]
    del ones, least, number
    i, j = np.array(ring_bonds(n), dtype=np.int64).reshape(-1, 2).T
    a, bond = np.nonzero(((reps[:, None] >> i) & 1) != ((reps[:, None] >> j) & 1))
    target = reps[a] ^ ((1 << i[bond]) | (1 << j[bond]))
    hop_index = np.column_stack([a - base[a], orbit[target], shift[target]])
    hop_weight = np.sqrt(period[a] / period[hop_index[:, 1] + base[a]])  # period_a / period_b
    hop_starts = np.searchsorted(a, orbit_starts)
    mirror, mirror_shift = orbit[mirrored], shift[mirrored]
    orbit, shift = orbit[by_count], shift[by_count]
    for array in (by_count, orbit, shift, reps, period, mirror, mirror_shift, hop_index,
                  hop_weight):
        array.flags.writeable = False
    sectors = []
    for k in range(n + 1):
        c, o, h = (slice(*bounds[k:k + 2]) for bounds in (starts, orbit_starts, hop_starts))
        sectors.append(SectorBasis(n=n, k=k, bits=by_count[c], orbit=orbit[c], shift=shift[c],
                                   reps=reps[o], period=period[o], mirror=mirror[o],
                                   mirror_shift=mirror_shift[o], hop_index=hop_index[h],
                                   hop_weight=hop_weight[h]))
    return tuple(sectors)


def enumerate_sector(n: int, k: int, /) -> SectorBasis:
    """The k-up-spin sector of the n-site ring, built once per process.

    The first call for a ring size builds all n + 1 of its sectors in one
    pass (``_ring_sectors``); every call for a sector returns the same
    ``SectorBasis``.
    """
    check_sector(n, k)
    return _ring_sectors(n)[k]


def rotation_order(basis: SectorBasis) -> np.ndarray:
    """Configuration indices sorted by orbit, then by shift modulo the period.

    Orbit a fills the a-th run of ``period[a]`` entries, in rotation order.
    """
    return np.lexsort((basis.shift % basis.period[basis.orbit], basis.orbit))
