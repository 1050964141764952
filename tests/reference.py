"""Scalar references the tests check the library against.

Each one works on single configurations, Python loops or dense matrices
and shares no code with the array paths it cross-checks: rotations and
reflections of one bitmask, its offset label and clustering score, a
sector's translation orbits found by walking unseen rotations (the library
keeps orbits only as arrays), the dihedral classes of those orbits, a
configuration's position in its sector, the dense sector Hamiltonian with a
matrix-free product, the basis that makes a momentum block real, the dense
2^n Hamiltonian and its dense popcount blocks, the grouping of ascending
levels one level at a time, the pair reduction that numbers configuration
groups with ``np.unique``, and the X-form concurrence.

Three more keep an earlier array form of a library path, so the tests can
pin the library's arrays and payloads to it bit for bit: a sector built on
its own (orbits numbered by ``np.unique``, reflections and hop targets found
with ``searchsorted``), orbit reports summed one orbit at a time, and the
ground window counted one sector at a time with ``cumsum``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from xxring.basis import SectorBasis, rotation_order, ring_bonds
from xxring.concurrence import PairDensity
from xxring.hamiltonian import Coupling, FieldSetting, sector_energy_offset
from xxring.oracle import FULL_DIAGONALIZE_CAP
from xxring.polarization import (OrbitReport, OrbitRow, _labels, _rank_correlation,
                                 clustering_scores)
from xxring.spectra import GroundManifold, _unit_levels

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


def up_sites(bits: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if (bits >> i) & 1)


def config_label(bits: int, n: int) -> str:
    """Offset pattern of a configuration, e.g. ``|j,j+2,j+4>`` for {0,2,4}."""
    sites = up_sites(bits, n)
    if not sites:
        return "|->"
    parts = ["j"] + [f"j+{s - sites[0]}" for s in sites[1:]]
    return "|" + ",".join(parts) + ">"


def clustering_score(bits: int, n: int) -> float:
    """Sum of 1/ring-distance over all pairs of up sites, one pair at a time."""
    sites = up_sites(bits, n)
    score = 0.0
    for a in range(len(sites)):
        for b in range(a + 1, len(sites)):
            d = abs(sites[a] - sites[b])
            score += 1.0 / min(d, n - d)
    return score


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


class Orbit(NamedTuple):
    """One translation orbit: ``members[t]`` is ``rotate(representative, t, n)``."""

    representative: int
    period: int
    members: tuple[int, ...]


def set_walk_orbits(n: int, k: int) -> list[Orbit]:
    """Translation orbits of the k-up sector by walking unseen rotations.

    Orbits come in ascending order of their least member, the representative.
    """
    mask = (1 << n) - 1
    seen, orbits = set(), []
    for c in sorted(c for c in range(1 << n) if bin(c).count("1") == k):
        if c in seen:
            continue
        members = []
        for t in range(n):
            x = ((c << t) | (c >> (n - t))) & mask
            if x in seen:
                break
            seen.add(x)
            members.append(x)
        orbits.append(Orbit(c, len(members), tuple(members)))
    return orbits


def dihedral_representative(bits: int, n: int) -> int:
    """Minimal configuration over all rotations and reflections."""
    rep, _ = orbit_representative(bits, n)
    rep_r, _ = orbit_representative(reflect(bits, n), n)
    return min(rep, rep_r)


@dataclass(frozen=True)
class DihedralClass:
    """Translation orbits joined by ring reflection (one or two of them)."""

    canonical: int
    orbits: tuple[Orbit, ...]


def dihedral_classes(orbits: list[Orbit], n: int) -> list[DihedralClass]:
    """Group orbits whose members map onto each other under reflection."""
    groups: dict[int, list[Orbit]] = {}
    for orb in orbits:
        key = dihedral_representative(orb.representative, n)
        groups.setdefault(key, []).append(orb)
    return [
        DihedralClass(canonical=key,
                      orbits=tuple(sorted(groups[key], key=lambda o: o.representative)))
        for key in sorted(groups)
    ]


def index_of(basis: SectorBasis, bits: int) -> int:
    """Position of ``bits`` in ``basis.bits``; KeyError if it is not in the sector."""
    i = bisect_left(basis.bits, bits)
    if i == basis.dim or basis.bits[i] != bits:
        raise KeyError(bits)
    return i


def build_sector_hamiltonian(basis: SectorBasis, coupling: Coupling) -> np.ndarray:
    """Dense real-symmetric Hamiltonian of one magnetization sector."""
    n = basis.n
    h = np.zeros((basis.dim, basis.dim))
    for a, c in enumerate(basis.bits.tolist()):
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
    for a, c in enumerate(basis.bits.tolist()):
        if v[a] == 0:
            continue
        for i, j in ring_bonds(basis.n):
            if ((c >> i) & 1) != ((c >> j) & 1):
                out[index_of(basis, c ^ ((1 << i) | (1 << j)))] += coupling.j * v[a]
    return out


def kr_basis(basis: SectorBasis, m: int) -> tuple[np.ndarray, list[int]]:
    """The basis of momentum block m that K R fixes, and each column's R parity.

    K is complex conjugation and R the reflection; K R maps the momentum
    state of orbit a to exp(i*phi) times that of the orbit b holding
    R(rep_a) = T^s(rep_b), phi = 2*pi*m*s/n.  Returns U, whose column c
    holds the coefficients over the block's admissible orbits (ascending):
    exp(i*phi/2) on a self-mirrored orbit a (column a); for a mirror pair
    a < b, (1, exp(i*phi))/sqrt(2) in column a and i(1, -exp(i*phi))/sqrt(2)
    in column b.  ``parity[c]`` is the R eigenvalue of column c (+1 or -1)
    at m = 0 and m = n/2, where R keeps the block, and 0 elsewhere.  Each
    reflected representative is found with ``reflect`` and
    ``orbit_representative``, one orbit at a time.
    """
    n = basis.n
    reps, periods = basis.reps.tolist(), basis.period.tolist()
    admissible = [a for a, p in enumerate(periods) if m * p % n == 0]
    row = {a: i for i, a in enumerate(admissible)}
    orbit_of = {rep: a for a, rep in enumerate(reps)}
    u = np.zeros((len(admissible), len(admissible)), dtype=complex)
    parity = [0] * len(admissible)
    split = 2 * m % n == 0
    for a in admissible:
        rep, s = orbit_representative(reflect(reps[a], n), n)
        b = orbit_of[rep]
        phi = 2 * np.pi * m * s / n
        if b == a:
            u[row[a], row[a]] = np.exp(0.5j * phi)
            if split:  # R multiplies the momentum state of a by exp(-i*phi) = +-1
                parity[row[a]] = round(np.cos(phi))
        elif a < b:
            u[row[a], row[a]] = 1 / np.sqrt(2)
            u[row[a], row[b]] = 1j / np.sqrt(2)
            u[row[b], row[a]] = np.exp(1j * phi) / np.sqrt(2)
            u[row[b], row[b]] = -1j * np.exp(1j * phi) / np.sqrt(2)
            if split:
                parity[row[a]], parity[row[b]] = 1, -1
    return u, parity


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


def popcount_block(n: int, k: int, coupling: Coupling) -> tuple[np.ndarray, np.ndarray]:
    """Ascending k-up configurations and their dense Hamiltonian block, one step per bond."""
    full = np.arange(1 << n)
    configs = full[((full[:, None] >> np.arange(n)) & 1).sum(axis=1) == k]
    block = np.zeros((len(configs), len(configs)))
    for i, j in ring_bonds(n):
        hop = np.flatnonzero(((configs >> i) ^ (configs >> j)) & 1)
        rows = np.searchsorted(configs, configs[hop] ^ ((1 << i) | (1 << j)))
        block[rows, hop] += coupling.j  # one entry per hop; n = 2 lists its bond twice
    return configs, block


def anchored_groups(values: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Half-open index ranges of ascending levels, one level at a time.

    A group is anchored at its first level and ends at the first level more
    than tol times the spectral range above it.
    """
    window = tol * max(float(values[-1] - values[0]), np.finfo(float).tiny)
    groups = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[start] > window:
            groups.append((start, i))
            start = i
    return groups


def reduce_pure_by_unique(amplitudes: np.ndarray, configs: np.ndarray,
                          p: int, q: int) -> np.ndarray:
    """Pair reduction of one state, its groups numbered by ``np.unique`` of the rest bits."""
    pair_index = (1 - ((configs >> p) & 1)) * 2 + (1 - ((configs >> q) & 1))
    rests, group = np.unique(configs & ~((1 << p) | (1 << q)), return_inverse=True)
    a = np.zeros((len(rests), 4), dtype=complex)
    a[group, pair_index] = amplitudes
    return a.T @ a.conj()


def concurrence_xstate(rho: PairDensity) -> float:
    """Closed form 2*max(0, |z| - sqrt(u+ u-)) for X-form pair densities."""
    off = rho.matrix.copy()
    np.fill_diagonal(off, 0.0)
    off[1, 2] = off[2, 1] = 0.0
    if np.abs(off).max() > X_OFFDIAG_TOL:
        raise ValueError("pair density is not in X form (stray off-diagonals)")
    d = rho.matrix.diagonal().real
    u_plus, u_minus = max(d[0], 0.0), max(d[3], 0.0)
    return 2.0 * max(0.0, abs(rho.matrix[1, 2]) - np.sqrt(u_plus * u_minus))


@lru_cache(maxsize=1)
def _ring_codes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(by_count, starts, least, shift, mirrored)`` of all 2^n configurations.

    Every configuration ordered by popcount, ascending within a popcount,
    with popcount k at ``by_count[starts[k]:starts[k + 1]]``; and, indexed by
    configuration, its first minimal rotation, the shift t with
    T^t(least) == config, and its reflection R(config).
    """
    codes = np.arange(1 << n, dtype=np.int64)
    mask = (1 << n) - 1
    ones = codes & 1
    least, first = codes, np.zeros_like(codes)
    mirrored = codes & 1
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


def sector_by_unique(n: int, k: int) -> SectorBasis:
    """The k-up sector built on its own, every array read-only.

    Representatives, orbit indices and periods come from ``np.unique`` of
    the sector's minimal rotations; each reflected representative and each
    bond swap of a representative is found in the sector with
    ``searchsorted``.
    """
    by_count, starts, least, shifts, mirrored = _ring_codes(n)
    bits = by_count[starts[k]:starts[k + 1]].copy()
    reps, orbit, period = np.unique(least[bits], return_inverse=True, return_counts=True)
    shift = shifts[bits]
    image = np.searchsorted(bits, mirrored[reps])
    i, j = np.array(ring_bonds(n), dtype=np.int64).reshape(-1, 2).T
    a, bond = np.nonzero(((reps[:, None] >> i) & 1) != ((reps[:, None] >> j) & 1))
    swapped = np.searchsorted(bits, reps[a] ^ ((1 << i[bond]) | (1 << j[bond])))
    b = orbit[swapped]
    hop_index = np.column_stack([a, b, shift[swapped]]).astype(np.int64, copy=False)
    basis = SectorBasis(n=n, k=k, bits=bits, orbit=orbit, shift=shift, reps=reps,
                        period=period, mirror=orbit[image], mirror_shift=shift[image],
                        hop_index=hop_index, hop_weight=np.sqrt(period[a] / period[b]))
    for name in ("bits", "orbit", "shift", "reps", "period", "mirror", "mirror_shift",
                 "hop_index", "hop_weight"):
        getattr(basis, name).flags.writeable = False
    return basis


def orbit_report_by_split(manifold: GroundManifold, sector: SectorBasis) -> OrbitReport:
    """``orbit_probabilities`` with one ``mean`` and one ``sum`` per orbit's slice."""
    in_sector = [s for s in manifold.states if s.basis.k == sector.k
                 and s.basis.n == sector.n]
    d = manifold.degeneracy
    raw = np.zeros(sector.dim)
    for state in in_sector:
        raw += np.abs(state.amplitudes) ** 2 / d
    weight = float(raw.sum())
    n, reps, period = sector.n, sector.reps, sector.period
    members = np.split(raw[rotation_order(sector)] / weight, np.cumsum(period)[:-1])
    _, dihedral = np.unique(np.minimum(reps, reps[sector.mirror]), return_inverse=True)
    rows = [OrbitRow(representative=rep, pattern=label, period=p,
                     member_probability=float(member.mean()),
                     orbit_probability=float(member.sum()),
                     clustering=score, dihedral_class=cid)
            for rep, label, p, member, score, cid in zip(
                reps.tolist(), _labels(reps, n), period.tolist(), members,
                clustering_scores(reps, n).tolist(), dihedral.tolist())]
    rows.sort(key=lambda r: (r.member_probability, r.representative))
    return OrbitReport(n=sector.n, k=sector.k, sector_weight=weight, rows=tuple(rows),
                       rank_correlation=_rank_correlation([r.clustering for r in rows],
                                                          [r.member_probability for r in rows]))


def window_counts_by_cumsum(n: int, coupling: Coupling, field: FieldSetting,
                            tol: float) -> dict[tuple[int, int], int]:
    """Levels of each block (k, m) in the ground window, one sector at a time.

    Blocks that hold no window level are left out.
    """
    offsets = [sector_energy_offset(k, n, field) for k in range(n + 1)]
    scan, lows, highs = [], [], []
    for k in range(n // 2 + 1):
        levels, bounds = _unit_levels(n, k)
        values = coupling.j * levels
        scan.append((k, values, bounds))
        for sector in {k, n - k}:
            lows.append(values.min() + offsets[sector])
            highs.append(values.max() + offsets[sector])
    e0 = float(min(lows))
    window = tol * max(float(max(highs)) - e0, np.finfo(float).tiny)
    counts = {}
    for k, values, bounds in scan:
        for sector in {k, n - k}:
            inside = np.concatenate(([0], np.cumsum(values + offsets[sector] - e0 <= window)))
            for m in np.flatnonzero(np.diff(inside[bounds])).tolist():
                for momentum in {m, -m % n}:
                    counts[sector, momentum] = int(inside[bounds[m + 1]] - inside[bounds[m]])
    return counts
