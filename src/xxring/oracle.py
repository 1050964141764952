"""Brute-force reference path over the full 2^n-dimensional space.

It deliberately avoids the translation-symmetry machinery: popcount blocks
are built from ``np.arange(2**n)`` with numpy bit operations, eigenvectors
stay in their blocks, and only the columns of the level group a caller reads
are scattered into full-space vectors for an independent pair reduction.  It
cross-checks the momentum-block pipeline: ground energy, degeneracy,
per-configuration probabilities and mixture concurrence agree to 1e-10.

H(J) = J * H(1), so each popcount block is decomposed once, at J = 1, and
both signs of J, any field and the level scan read that one decomposition.
The process keeps it for one ring size at a time: ``_unit_spectrum(n)``
solves the largest block (k = n/2) first, so its solver workspace is freed
before the other blocks' eigenvectors accumulate, and holds read-only
arrays.  Code that monkeypatches the block builder (``_popcount_block``) or
the solver (``np.linalg.eigh``) must call ``_unit_spectrum.cache_clear()``
first, or it may be handed a decomposition made before the patch.
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


@lru_cache(maxsize=1)
def _unit_spectrum(n: int, /) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Read-only (configs, levels, eigenvectors) of each popcount block at J = 1, by k.

    Blocks are solved from the largest (k = n/2) outward.
    """
    solved = {}
    for k in sorted(range(n + 1), key=lambda k: abs(2 * k - n)):
        configs, block = _popcount_block(n, k, Coupling(1.0))
        solved[k] = (configs, *np.linalg.eigh(block))
        for array in solved[k]:
            array.flags.writeable = False
    return tuple(solved[k] for k in range(n + 1))


def _full_spectrum(n, coupling, field):
    """All 2^n levels, a (configs, eigenvector) source per level, sector tags.

    Magnetization is conserved, so the full matrix is block diagonal by
    popcount; diagonalizing block-wise keeps every eigenvector exactly
    inside one sector and gives it an unambiguous k tag.  Each block's J = 1
    decomposition is scaled by J, its column order reversed for J < 0.
    """
    if n > FULL_DIAGONALIZE_CAP:
        raise ValueError(f"full diagonalization is capped at n={FULL_DIAGONALIZE_CAP}")
    values, sources, tags = [], [], []
    for k, (configs, w, v) in enumerate(_unit_spectrum(n)):
        if coupling.j < 0:
            w, v = w[::-1], v[:, ::-1]
        values.append(coupling.j * w + sector_energy_offset(k, n, field))
        sources.extend((configs, v[:, col]) for col in range(len(configs)))
        tags.append(np.full(len(configs), k))
    values = np.concatenate(values)
    order = np.argsort(values, kind="stable")
    return values[order], [sources[i] for i in order], np.concatenate(tags)[order]


def _columns(sources, n: int) -> np.ndarray:
    """The given levels' eigenvectors as columns over all 2^n configurations."""
    out = np.zeros((1 << n, len(sources)))
    for col, (configs, vector) in enumerate(sources):
        out[configs, col] = vector
    return out


def _degenerate_groups(values: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Half-open index ranges of levels equal within tol * spectral range."""
    window = tol * max(float(values[-1] - values[0]), np.finfo(float).tiny)
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
    values, sources, tags = _full_spectrum(n, coupling, field)
    start, stop = _degenerate_groups(values, tol)[0]
    ground = _columns(sources[start:stop], n)
    probs = (np.abs(ground) ** 2).sum(axis=1) / (stop - start)
    ground_c = concurrence_wootters(_mixture_pair_density(ground, n, (0, 1))).value
    return FullSpectrumReport(
        n=n,
        ground_energy=float(values[start]),
        ground_degeneracy=stop - start,
        ground_sectors=tuple(sorted(set(tags[start:stop].tolist()))),
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
    values, sources, _ = _full_spectrum(n, coupling, field)
    rows = []
    for start, stop in _degenerate_groups(values, tol):
        rho = _mixture_pair_density(_columns(sources[start:stop], n), n, (0, 1))
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
