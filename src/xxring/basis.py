"""Spin-configuration bookkeeping on a ring of n sites.

A configuration of n spin-1/2 sites is stored as an integer bitmask: bit i
set means the spin at site i points up (sites 0..n-1, bits above n-1 must be
zero).  The Hamiltonian conserves the number of up spins, so almost all work
happens inside a fixed-magnetization sector: the list of all C(n, k) masks
with popcount k, ordered by integer value.  Ring translations partition a
sector into orbits, and ring reflections pair those orbits into dihedral
classes; both groupings are what make the momentum-block diagonalization and
the orbit-probability reports tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

RING_CAP = 20  # 2^n brute-force checks stay feasible well below this


def popcount(bits: int) -> int:
    return bits.bit_count()


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


def up_sites(bits: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if (bits >> i) & 1)


def config_label(bits: int, n: int) -> str:
    """Offset pattern of a configuration, e.g. ``|j,j+2,j+4>`` for {0,2,4}."""
    sites = up_sites(bits, n)
    if not sites:
        return "|->"
    parts = ["j"] + [f"j+{s - sites[0]}" for s in sites[1:]]
    return "|" + ",".join(parts) + ">"


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


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """All configurations with ``k`` up spins on ``n`` sites, ascending."""

    n: int
    k: int
    configs: tuple[int, ...]
    _index: dict[int, int] = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.configs)

    def index_of(self, bits: int) -> int:
        return self._index[bits]

    def __contains__(self, bits: int) -> bool:
        return bits in self._index


def check_ring_size(n: int) -> None:
    """Refuse ring sizes outside 1..RING_CAP."""
    if not 1 <= n <= RING_CAP:
        raise ValueError(f"ring size must be in 1..{RING_CAP}, got {n}")


def enumerate_sector(n: int, k: int) -> SectorBasis:
    """Ordered basis of the k-up-spin sector with an inverse lookup."""
    check_ring_size(n)
    if not 0 <= k <= n:
        raise ValueError(f"up-spin count must be in 0..{n}, got {k}")
    configs = sorted(sum(1 << i for i in sites) for sites in combinations(range(n), k))
    index = {c: i for i, c in enumerate(configs)}
    return SectorBasis(n=n, k=k, configs=tuple(configs), _index=index)


@dataclass(frozen=True)
class TranslationOrbit:
    """One translation orbit: ``members[t] = rotate(representative, t)``."""

    representative: int
    period: int
    members: tuple[int, ...]


def translation_orbits(basis: SectorBasis) -> list[TranslationOrbit]:
    """Partition a sector into translation orbits, representatives ascending."""
    n = basis.n
    seen: set[int] = set()
    orbits: list[TranslationOrbit] = []
    for c in basis.configs:  # ascending, so the first unseen member is minimal
        if c in seen:
            continue
        members: list[int] = []
        for t in range(n):
            x = rotate(c, t, n)
            if x in seen:
                break
            seen.add(x)
            members.append(x)
        orbits.append(TranslationOrbit(representative=c, period=len(members),
                                       members=tuple(members)))
    return orbits


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
