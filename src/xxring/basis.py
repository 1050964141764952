"""Spin-configuration bookkeeping on a ring of n sites.

A configuration of n spin-1/2 sites is stored as an integer bitmask: bit i
set means the spin at site i points up (sites 0..n-1, bits above n-1 must be
zero).  The Hamiltonian conserves the number of up spins, so almost all work
happens inside a fixed-magnetization sector: the list of all C(n, k) masks
with popcount k, ordered by integer value.

Ring translations partition a sector into orbits.  T^t is the rotation
that moves the spin at site i to site (i + t) mod n, and R the reflection
that maps site i to site (n - i) mod n.  ``enumerate_sector`` builds each
sector once per process and hands out the same read-only ``SectorBasis`` on
every later call.  It carries everything about the sector that does not
depend on the coupling: per configuration, the index of its orbit (orbits
numbered by ascending representative, the minimal member) and the shift t
with T^t(representative) == config, taken from the configuration's first
minimal rotation; per orbit, the representative, the period and the orbit
that R maps it onto (``mirror``); and the table of bond swaps between
representatives (``hop_table``).  Momentum blocks, lifted amplitudes and
orbit-probability tables all read these arrays instead of rotating
configurations again.  An orbit and its mirror form one dihedral class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

# largest ring accepted.  Sectors enumerate in well under a second up to here,
# but dense ground solves above n = 16 take minutes to hours, and the 2^n
# oracle stops at n = 14.
RING_CAP = 20


def up_sites(bits: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if (bits >> i) & 1)


def config_label(bits: int, n: int) -> str:
    """Offset pattern of a configuration, e.g. ``|j,j+2,j+4>`` for {0,2,4}."""
    sites = up_sites(bits, n)
    if not sites:
        return "|->"
    parts = ["j"] + [f"j+{s - sites[0]}" for s in sites[1:]]
    return "|" + ",".join(parts) + ">"


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """All configurations with ``k`` up spins on ``n`` sites, ascending, and their orbits.

    ``configs`` holds the configurations as Python ints and ``bits`` the same
    values as an int64 array.  ``orbit[i]`` is the translation orbit of
    ``configs[i]``, orbits numbered by ascending representative, and
    ``shift[i]`` the shift t with T^t(reps[orbit[i]]) == configs[i], where
    t = n - u (mod n) for the first u at which T^u(configs[i]) is minimal.
    ``reps`` and ``period`` give each orbit's representative and period,
    ``mirror[a]`` the orbit that contains the reflection R(reps[a]) (equal
    to ``a`` for an orbit that R maps onto itself), and ``hops`` is the
    sector's ``hop_table``.  Every array is read-only.
    """

    n: int
    k: int
    configs: tuple[int, ...]
    bits: np.ndarray = field(repr=False)
    orbit: np.ndarray = field(repr=False)
    shift: np.ndarray = field(repr=False)
    reps: np.ndarray = field(repr=False)
    period: np.ndarray = field(repr=False)
    mirror: np.ndarray = field(repr=False)
    hops: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.configs)


def check_ring_size(n: int) -> None:
    """Refuse ring sizes outside 1..RING_CAP."""
    if not 1 <= n <= RING_CAP:
        raise ValueError(f"ring size must be in 1..{RING_CAP}, got {n}")


def check_sector(n: int, k: int) -> None:
    """Refuse a ring size outside 1..RING_CAP or an up-spin count outside 0..n."""
    check_ring_size(n)
    if not 0 <= k <= n:
        raise ValueError(f"up-spin count must be in 0..{n}, got {k}")


@lru_cache(maxsize=None)
def enumerate_sector(n: int, k: int, /) -> SectorBasis:
    """The k-up-spin sector of the n-site ring, built once per process.

    The arguments are positional-only, so every call for a sector shares one
    cache entry and one ``SectorBasis``.

    Configurations are the popcount-k entries of ``arange(2**n)``.  All n
    rotations of every configuration form one (dim, n) array; the first
    ``argmin`` of each row is the first minimal rotation, which gives the
    representative (hence the orbit index) and the shift back to it.  The
    reflected representatives come from one more bit pass over ``reps``,
    and their orbits from the orbit map.
    """
    check_sector(n, k)
    codes = np.arange(1 << n, dtype=np.int64)
    ones = np.zeros_like(codes)
    for i in range(n):
        ones += (codes >> i) & 1
    bits = codes[ones == k]
    t = np.arange(n)
    rotations = ((bits[:, None] << t) | (bits[:, None] >> (n - t))) & ((1 << n) - 1)
    reps, orbit, period = np.unique(rotations.min(axis=1), return_inverse=True,
                                    return_counts=True)
    shift = (n - rotations.argmin(axis=1)) % n
    mirrored = sum(((reps >> i) & 1) << (-i % n) for i in range(n))
    mirror = orbit[np.searchsorted(bits, mirrored)]
    basis = SectorBasis(n=n, k=k, configs=tuple(bits.tolist()), bits=bits, orbit=orbit,
                        shift=shift, reps=reps, period=period, mirror=mirror, hops=None)
    basis = replace(basis, hops=hop_table(basis))
    for array in (bits, orbit, shift, reps, period, mirror, basis.hops):
        array.flags.writeable = False
    return basis


def ring_bonds(n: int) -> list[tuple[int, int]]:
    """Bond list (i, i+1 mod n); a one-site ring has no bond to swap."""
    return [(i, (i + 1) % n) for i in range(n) if i != (i + 1) % n]


def hop_table(basis: SectorBasis) -> np.ndarray:
    """All bond swaps between orbit representatives of a sector.

    One row (a, b, shift, weight) per hop, indices as exact floats: the swap
    takes representative ``a`` (by orbit index) to
    T^shift(basis.reps[b]) and carries the amplitude ratio
    sqrt(period_a / period_b).  Rows run a-major and bond-minor.  Each
    swapped configuration is found in the sector with one ``searchsorted``;
    its orbit ``b`` and ``shift`` are read from the sector's orbit map.
    ``enumerate_sector`` keeps the result as ``basis.hops``.
    """
    reps, period = basis.reps, basis.period
    i, j = np.array(ring_bonds(basis.n), dtype=np.int64).reshape(-1, 2).T
    a, bond = np.nonzero(((reps[:, None] >> i) & 1) != ((reps[:, None] >> j) & 1))
    swapped = np.searchsorted(basis.bits, reps[a] ^ ((1 << i[bond]) | (1 << j[bond])))
    b = basis.orbit[swapped]
    return np.column_stack([a, b, basis.shift[swapped], np.sqrt(period[a] / period[b])])


@dataclass(frozen=True)
class TranslationOrbit:
    """One translation orbit: ``members[t]`` is T^t(representative)."""

    representative: int
    period: int
    members: tuple[int, ...]


def rotation_order(basis: SectorBasis) -> np.ndarray:
    """Configuration indices sorted by orbit, then by shift modulo the period.

    Orbit a fills the a-th run of ``period[a]`` entries, in rotation order.
    """
    return np.lexsort((basis.shift % basis.period[basis.orbit], basis.orbit))


def translation_orbits(basis: SectorBasis) -> list[TranslationOrbit]:
    """The sector's orbits, representatives ascending, members in ``rotation_order``."""
    ordered = basis.bits[rotation_order(basis)].tolist()
    starts = np.concatenate(([0], np.cumsum(basis.period))).tolist()
    return [TranslationOrbit(representative=ordered[a], period=b - a,
                             members=tuple(ordered[a:b]))
            for a, b in zip(starts, starts[1:])]
