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

- blocks k < n/2 are solved with ``np.linalg.eigh``;
- blocks k > n/2 are not solved: they reuse block n - k's levels and take
  its eigenvectors with the rows reversed, a read-only view;
- the half-filled block (even n) maps onto itself, so it splits into two
  half-size blocks A +- C[:, ::-1] (A, C its top-left and top-right
  quarters) with eigenvectors [x; +-x[::-1]] / sqrt(2).

The process keeps the decomposition for one ring size at a time:
``_unit_spectrum(n)`` solves the largest block (k = n/2) first, so its solver
workspace is freed before the other blocks' eigenvectors accumulate, and
holds read-only arrays.  Code that monkeypatches the block builder
(``_popcount_block``) or the solver (``np.linalg.eigh``) must call
``_unit_spectrum.cache_clear()`` first, or it may be handed a decomposition
made before the patch.
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


def _split_eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending levels and eigenvectors of a block equal to ``block[::-1, ::-1]``.

    With A and C the top-left and top-right quarters, (A +- C[:, ::-1]) x = w x
    gives the eigenvector [x; +-x[::-1]] / sqrt(2); both halves are symmetric.
    """
    half = len(block) // 2
    top, cross = block[:half, :half], block[:half, half:][:, ::-1]
    w_even, x_even = np.linalg.eigh(top + cross)
    w_odd, x_odd = np.linalg.eigh(top - cross)
    w = np.concatenate([w_even, w_odd])
    order = np.argsort(w, kind="stable")
    v = np.block([[x_even, x_odd], [x_even[::-1], -x_odd[::-1]]])[:, order]
    v /= np.sqrt(2)
    return w[order], v


@lru_cache(maxsize=1)
def _unit_spectrum(n: int, /) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Read-only (configs, levels, eigenvectors) of each popcount block at J = 1, by k.

    Blocks k <= n/2 are solved from the largest (k = n/2) down; block n - k
    is block k mirrored by spin inversion.
    """
    solved = {}
    for k in range(n // 2, -1, -1):
        configs, block = _popcount_block(n, k, Coupling(1.0))
        solved[k] = (configs, *(_split_eigh(block) if 2 * k == n else np.linalg.eigh(block)))
        for array in solved[k]:
            array.flags.writeable = False
        if 2 * k < n:
            _, w, v = solved[k]
            mirror = ((1 << n) - 1 - configs)[::-1]
            mirror.flags.writeable = False
            solved[n - k] = (mirror, w, v[::-1])
    return tuple(solved[k] for k in range(n + 1))


def _full_spectrum(n, coupling, field):
    """All 2^n levels ascending, each with its popcount k and its column in block k.

    Magnetization is conserved, so the full matrix is block diagonal by
    popcount; diagonalizing block-wise keeps every eigenvector exactly
    inside one sector and gives it an unambiguous k tag.  Each block's J = 1
    decomposition is scaled by J, its column order reversed for J < 0.
    """
    if n > FULL_DIAGONALIZE_CAP:
        raise ValueError(f"full diagonalization is capped at n={FULL_DIAGONALIZE_CAP}")
    if n < 2:
        raise ValueError("pairwise concurrence needs at least two sites")
    values, tags, columns = [], [], []
    for k, (configs, w, _) in enumerate(_unit_spectrum(n)):
        column = np.arange(len(configs))
        if coupling.j < 0:
            w, column = w[::-1], column[::-1]
        values.append(coupling.j * w + sector_energy_offset(k, n, field))
        tags.append(np.full(len(configs), k))
        columns.append(column)
    values = np.concatenate(values)
    order = np.argsort(values, kind="stable")
    return values[order], np.concatenate(tags)[order], np.concatenate(columns)[order]


def _columns(n: int, tags: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The given levels' eigenvectors as columns over all 2^n configurations."""
    blocks = _unit_spectrum(n)
    out = np.zeros((1 << n, len(tags)))
    for i, (k, column) in enumerate(zip(tags.tolist(), columns.tolist())):
        configs, _, v = blocks[k]
        out[configs, i] = v[:, column]
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
