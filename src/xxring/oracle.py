"""Brute-force reference path over the full 2^n-dimensional space.

It deliberately avoids the translation-symmetry machinery: popcount blocks
are built from ``np.arange(2**n)`` with numpy bit operations, eigenvectors
stay in their blocks, and only the columns of the level group a caller reads
are scattered into full-space vectors for an independent pair reduction.  It
cross-checks the momentum-block pipeline: ground energy, degeneracy,
per-configuration probabilities and mixture concurrence agree to 1e-10.

H(J) = J * H(1), so each popcount block is decomposed once, at J = 1, and
both signs of J, any field and the level scan read that one decomposition.
Spin inversion halves that work.  Complementing the bits maps the k-up
configurations onto the (n - k)-up ones in reversed order, so block n - k is
exactly block k with both axes reversed (a test checks this entry by entry):

- blocks k <= n/2 are solved;
- blocks k > n/2 are not solved: they reuse block n - k's levels and take
  its eigenvectors with the rows reversed, a read-only view;
- the half-filled block (even n) maps onto itself, so it splits into two
  half-size blocks A +- C[:, ::-1] (A, C its top-left and top-right
  quarters) with eigenvectors [x; +-x[::-1]] / sqrt(2).

Eigenvectors are solved only for the blocks a caller reads.  At zero field
the ground level lies in block n // 2 (or its mirror) for both signs of J,
so ``_unit_spectrum(n)`` takes every other block's levels from
``np.linalg.eigvalsh`` and runs ``np.linalg.eigh`` on block n // 2 alone.
``_unit_vectors(n, k)`` solves any other block's eigenvectors on first read
(a field that moves the ground level, or the level scan) and keeps them
beside the levels.

The process keeps the decomposition for one ring size at a time, as
read-only arrays.  Code that monkeypatches the block builder
(``_popcount_block``) or a solver (``np.linalg.eigh``, ``np.linalg.eigvalsh``)
must call ``_unit_spectrum.cache_clear()`` first, which drops the levels and
the eigenvectors together, or it may be handed a decomposition made before
the patch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .concurrence import PairDensity, concurrence_wootters, manifold_pair_density
from .hamiltonian import Coupling, FieldSetting, ring_bonds, sector_energy_offset
from .spectra import DEGENERACY_RTOL, ground_manifold

FULL_DIAGONALIZE_CAP = 14
SCAN_CAP = 10
AGREEMENT_ATOL = 1e-10


def _popcount_block(n: int, k: int, coupling: Coupling) -> tuple[np.ndarray, np.ndarray]:
    """Ascending k-up configurations and their Hamiltonian block, one step per bond."""
    full = np.arange(1 << n)
    configs = full[((full[:, None] >> np.arange(n)) & 1).sum(axis=1) == k]
    block = np.zeros((len(configs), len(configs)))
    for i, j in ring_bonds(n):
        hop = np.flatnonzero(((configs >> i) ^ (configs >> j)) & 1)
        rows = np.searchsorted(configs, configs[hop] ^ ((1 << i) | (1 << j)))
        block[rows, hop] += coupling.j  # one entry per hop; n = 2 lists its bond twice
    return configs, block


def _split_eigh(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Configurations, ascending levels and eigenvectors of an even ring's half-filled block.

    The block equals ``block[::-1, ::-1]``.  With A and C its top-left and
    top-right quarters, (A +- C[:, ::-1]) x = w x gives the eigenvector
    [x; +-x[::-1]] / sqrt(2); both halves are symmetric.  The unsplit block is
    dropped before the halves are solved, and each half's eigenvectors are
    written straight into their level-ordered columns of one array.
    """
    configs, block = _popcount_block(n, n // 2, Coupling(1.0))
    half = len(configs) // 2
    top, cross = block[:half, :half], block[:half, half:][:, ::-1]
    even, odd = top + cross, top - cross
    del block, top, cross
    w_even, x_even = np.linalg.eigh(even)
    del even
    w_odd, x_odd = np.linalg.eigh(odd)
    del odd
    w = np.concatenate([w_even, w_odd])
    order = np.argsort(w, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(w))
    v = np.empty((len(w), len(w)))
    for x, sign, cols in ((x_even, 1.0, rank[:half]), (x_odd, -1.0, rank[half:])):
        x /= np.sqrt(2)
        v[:half, cols] = x
        x *= sign
        v[half:, cols] = x[::-1]
    return configs, w[order], v


@lru_cache(maxsize=1)
def _unit_spectrum(n: int, /) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...],
                                       dict[int, np.ndarray]]:
    """Read-only (configs, levels) of each popcount block at J = 1, by k, and its eigenvectors.

    Blocks k <= n/2 are solved; block n - k is block k mirrored by spin
    inversion.  Every block gets its levels from ``np.linalg.eigvalsh`` except
    block n // 2, whose ``eigh`` also gives the eigenvectors.  The dict maps
    each k <= n/2 solved so far to its eigenvectors; ``_unit_vectors`` fills
    it on first read.

    The solve order keeps the peak low.  For even n block n // 2 goes last,
    so its eigenvectors are not held while block n/2 - 1's levels are solved,
    a larger solve than its two halves.  For odd n its whole-block ``eigh``
    is the largest solve of the ring and goes first, before the level solves
    leave their buffers on the heap.
    """
    levels, vectors = {}, {}
    for k in range(n // 2 + 1) if n % 2 == 0 else range(n // 2, -1, -1):
        if 2 * k == n:
            configs, w, vectors[k] = _split_eigh(n)
        else:
            configs, block = _popcount_block(n, k, Coupling(1.0))
            if k == n // 2:
                w, vectors[k] = np.linalg.eigh(block)
            else:
                w = np.linalg.eigvalsh(block)
            del block  # not held while the next block is built
        configs.flags.writeable = w.flags.writeable = False
        levels[k] = (configs, w)
        if 2 * k < n:
            mirror = ((1 << n) - 1 - configs)[::-1]
            mirror.flags.writeable = False
            levels[n - k] = (mirror, w)
    vectors[n // 2].flags.writeable = False
    return tuple(levels[k] for k in range(n + 1)), vectors


def _unit_vectors(n: int, k: int) -> np.ndarray:
    """Read-only J = 1 eigenvectors of popcount block k, solved on first read.

    They are kept beside the levels of ``_unit_spectrum(n)``.  Block n - k > n/2
    takes block k's eigenvectors with the rows reversed, a view.
    """
    _, vectors = _unit_spectrum(n)
    canonical = min(k, n - k)
    if canonical not in vectors:
        v = np.linalg.eigh(_popcount_block(n, canonical, Coupling(1.0))[1])[1]
        v.flags.writeable = False
        vectors[canonical] = v
    return vectors[canonical] if k == canonical else vectors[canonical][::-1]


def _full_spectrum(n, coupling, field):
    """All 2^n levels ascending, each with its popcount k and its column in block k.

    Magnetization is conserved, so the full matrix is block diagonal by
    popcount; diagonalizing block-wise keeps every eigenvector exactly
    inside one sector and gives it an unambiguous k tag.  Each block's J = 1
    levels are scaled by J, their column order reversed for J < 0.  Levels
    or a spectral range that overflow are refused: every level would fall
    inside an infinite tolerance window.
    """
    if n > FULL_DIAGONALIZE_CAP:
        raise ValueError(f"full diagonalization is capped at n={FULL_DIAGONALIZE_CAP}")
    if n < 2:
        raise ValueError("pairwise concurrence needs at least two sites")
    values, tags, columns = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for k, (configs, w) in enumerate(_unit_spectrum(n)[0]):
            column = np.arange(len(configs))
            if coupling.j < 0:
                w, column = w[::-1], column[::-1]
            values.append(coupling.j * w + sector_energy_offset(k, n, field))
            tags.append(np.full(len(configs), k))
            columns.append(column)
    values = np.concatenate(values)
    if not np.isfinite(float(values.max()) - float(values.min())):
        raise ValueError(f"energies overflow at J={coupling.j:g}, b={field.b:g}")
    order = np.argsort(values, kind="stable")
    return values[order], np.concatenate(tags)[order], np.concatenate(columns)[order]


def _columns(n: int, tags: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The given levels' eigenvectors as columns over all 2^n configurations."""
    levels, _ = _unit_spectrum(n)
    out = np.zeros((1 << n, len(tags)))
    for i, (k, column) in enumerate(zip(tags.tolist(), columns.tolist())):
        out[levels[k][0], i] = _unit_vectors(n, k)[:, column]
    return out


def _window(values: np.ndarray, tol: float) -> float:
    """Width of a level group: tol times the spectral range."""
    return tol * max(float(values[-1] - values[0]), np.finfo(float).tiny)


def _first_group_end(values: np.ndarray, tol: float) -> int:
    """End of the ground group, without scanning the levels above it.

    ``values - values[0]`` is ascending, so the levels within the window
    are exactly the first ones.
    """
    return int(np.count_nonzero(values - values[0] <= _window(values, tol)))


def _degenerate_groups(values: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Half-open index ranges of levels equal within tol * spectral range."""
    window = _window(values, tol)
    groups = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[start] > window:
            groups.append((start, i))
            start = i
    return groups


def _mixture_pair_density(vectors: np.ndarray, n: int, pair: tuple[int, int]) -> PairDensity:
    """Equal-weight pair reduction of full-space columns (independent path).

    Each column becomes an n-index tensor whose first axis is bit n-1; the
    axes of sites p and q move to the front, reversed so that up (bit 1)
    comes first, which gives the (uu, ud, du, dd) order.
    """
    if n < 2:
        raise ValueError("pairwise concurrence needs at least two sites")
    p, q = pair
    d = vectors.shape[1]
    amps = np.moveaxis(vectors.T.reshape((d,) + (2,) * n), (n - p, n - q), (0, 1))
    amps = amps[::-1, ::-1].reshape(4, -1)
    return PairDensity(matrix=amps @ amps.conj().T / d, pair=pair)


@dataclass(frozen=True)
class FullSpectrumReport:
    n: int
    ground_energy: float
    ground_degeneracy: int
    ground_sectors: tuple[int, ...]
    ground_concurrence: float
    config_probabilities: np.ndarray  # ground mixture, indexed by configuration


def full_diagonalize(n: int, coupling: Coupling, field: FieldSetting = FieldSetting(),
                     tol: float = DEGENERACY_RTOL) -> FullSpectrumReport:
    """Ground-level structure from the popcount-blocked full spectrum."""
    values, tags, columns = _full_spectrum(n, coupling, field)
    d = _first_group_end(values, tol)
    ground = _columns(n, tags[:d], columns[:d])
    probs = (np.abs(ground) ** 2).sum(axis=1) / d
    ground_c = concurrence_wootters(_mixture_pair_density(ground, n, (0, 1))).value
    return FullSpectrumReport(
        n=n,
        ground_energy=float(values[0]),
        ground_degeneracy=d,
        ground_sectors=tuple(sorted(set(tags[:d].tolist()))),
        ground_concurrence=ground_c,
        config_probabilities=probs,
    )


@dataclass(frozen=True)
class LevelRow:
    energy: float
    degeneracy: int
    concurrence: float


@dataclass(frozen=True)
class LevelScan:
    """Nearest-pair concurrence of every level's equal-weight mixture."""

    n: int
    rows: tuple[LevelRow, ...]
    ground_is_max: bool  # ties allowed


def eigenvector_concurrence_scan(n: int, coupling: Coupling,
                                 field: FieldSetting = FieldSetting(),
                                 tol: float = DEGENERACY_RTOL) -> LevelScan:
    """Per-level mixture concurrence; flags whether the ground level leads.

    Degenerate levels are mixed with equal weights, the only
    basis-independent per-level choice.
    """
    if n > SCAN_CAP:
        raise ValueError(f"level scan is capped at n={SCAN_CAP}")
    values, tags, columns = _full_spectrum(n, coupling, field)
    rows = []
    for start, stop in _degenerate_groups(values, tol):
        rho = _mixture_pair_density(_columns(n, tags[start:stop], columns[start:stop]),
                                    n, (0, 1))
        rows.append(LevelRow(energy=float(values[start]), degeneracy=stop - start,
                             concurrence=concurrence_wootters(rho).value))
    top = max(row.concurrence for row in rows)
    return LevelScan(n=n, rows=tuple(rows),
                     ground_is_max=rows[0].concurrence >= top - 1e-12)


@dataclass(frozen=True)
class PipelineAgreement:
    """Deltas between the full-space oracle and the momentum pipeline."""

    n: int
    j: float
    energy_delta: float
    oracle_degeneracy: int
    pipeline_degeneracy: int
    concurrence_delta: float
    probability_delta: float

    @property
    def ok(self) -> bool:
        return (self.energy_delta <= AGREEMENT_ATOL
                and self.oracle_degeneracy == self.pipeline_degeneracy
                and self.concurrence_delta <= AGREEMENT_ATOL
                and self.probability_delta <= AGREEMENT_ATOL)


def compare_with_pipeline(n: int, coupling: Coupling,
                          field: FieldSetting = FieldSetting(),
                          tol: float = DEGENERACY_RTOL) -> PipelineAgreement:
    """Cross-check ground energy, degeneracy, probabilities and concurrence."""
    report = full_diagonalize(n, coupling, field, tol)
    manifold = ground_manifold(n, coupling, field, tol=tol)
    mixture_c = concurrence_wootters(manifold_pair_density(manifold, (0, 1))).value

    d = manifold.degeneracy
    pipeline_probs = np.zeros(1 << n)
    for state in manifold.states:
        pipeline_probs[list(state.basis.configs)] += np.abs(state.amplitudes) ** 2 / d

    return PipelineAgreement(
        n=n,
        j=coupling.j,
        energy_delta=abs(report.ground_energy - manifold.energy),
        oracle_degeneracy=report.ground_degeneracy,
        pipeline_degeneracy=manifold.degeneracy,
        concurrence_delta=abs(report.ground_concurrence - mixture_c),
        probability_delta=float(np.abs(report.config_probabilities - pipeline_probs).max()),
    )
