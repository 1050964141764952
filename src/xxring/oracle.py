"""Brute-force reference path over the full 2^n-dimensional space.

This module deliberately avoids the translation-symmetry machinery: states
are plain amplitude vectors over all 2^n configurations, diagonalization
happens per up-spin count (which only needs popcount, not orbits), and the
pair reduction is an independent reimplementation on full-space vectors.
It exists to cross-check the momentum-block pipeline: ground energy,
degeneracy, per-configuration probabilities and mixture concurrence must
all agree to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _full_spectrum(n, coupling, field):
    """All 2^n levels, eigenvectors as full-space columns, sector tags.

    Magnetization is conserved, so the full matrix is block diagonal by
    popcount; diagonalizing block-wise keeps every eigenvector exactly
    inside one sector and gives it an unambiguous k tag.
    """
    if n > FULL_DIAGONALIZE_CAP:
        raise ValueError(f"full diagonalization is capped at n={FULL_DIAGONALIZE_CAP}")
    dim = 1 << n
    values = np.empty(dim)
    vectors = np.zeros((dim, dim))
    tags = np.empty(dim, dtype=int)
    bonds = ring_bonds(n)
    pos = 0
    for k in range(n + 1):
        configs = [c for c in range(dim) if c.bit_count() == k]
        index = {c: i for i, c in enumerate(configs)}
        block = np.zeros((len(configs), len(configs)))
        for a, c in enumerate(configs):
            for i, j in bonds:
                if ((c >> i) & 1) != ((c >> j) & 1):
                    block[index[c ^ ((1 << i) | (1 << j))], a] += coupling.j
        w, v = np.linalg.eigh(block)
        w = w + sector_energy_offset(k, n, field)
        stop = pos + len(configs)
        values[pos:stop] = w
        vectors[configs, pos:stop] = v
        tags[pos:stop] = k
        pos = stop
    order = np.argsort(values, kind="stable")
    return values[order], vectors[:, order], tags[order]


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


def _mixture_pair_density(vectors: np.ndarray, n: int,
                          pair: tuple[int, int]) -> PairDensity:
    """Equal-weight pair reduction of full-space columns (independent path)."""
    p, q = pair
    pair_mask = (1 << p) | (1 << q)
    d = vectors.shape[1]
    rho = np.zeros((4, 4), dtype=complex)
    for col in range(d):
        psi = vectors[:, col]
        groups: dict[int, np.ndarray] = {}
        for c in np.nonzero(psi)[0]:
            i4 = (1 - ((int(c) >> p) & 1)) * 2 + (1 - ((int(c) >> q) & 1))
            rest = int(c) & ~pair_mask
            vec = groups.get(rest)
            if vec is None:
                vec = groups[rest] = np.zeros(4, dtype=complex)
            vec[i4] += psi[c]
        for vec in groups.values():
            rho += np.outer(vec, vec.conj()) / d
    return PairDensity(matrix=rho, pair=pair)


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
    values, vectors, tags = _full_spectrum(n, coupling, field)
    start, stop = _degenerate_groups(values, tol)[0]
    ground = vectors[:, start:stop]
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
    values, vectors, _ = _full_spectrum(n, coupling, field)
    rows = []
    for start, stop in _degenerate_groups(values, tol):
        rho = _mixture_pair_density(vectors[:, start:stop], n, (0, 1))
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

    pipeline_probs = np.zeros(1 << n)
    for state in manifold.states:
        for c, amp in zip(state.basis.configs, state.amplitudes):
            pipeline_probs[c] += abs(amp) ** 2 / manifold.degeneracy

    return PipelineAgreement(
        n=n,
        j=coupling.j,
        energy_delta=abs(report.ground_energy - manifold.energy),
        oracle_degeneracy=report.ground_degeneracy,
        pipeline_degeneracy=manifold.degeneracy,
        concurrence_delta=abs(report.ground_concurrence - mixture_c),
        probability_delta=float(np.abs(report.config_probabilities - pipeline_probs).max()),
    )
