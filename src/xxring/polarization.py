"""Orbit-resolved probability structure of the ground manifold.

Every member of a translation orbit carries the same weight in the ground
mixture, so the natural report is one row per orbit: its offset pattern,
period, per-member and total probability, and a clustering score.  The score
is the sum of inverse ring distances over all pairs of up sites; it is a
diagnostic for how bunched the up spins are (the contiguous block scores
highest, the maximally spread pattern lowest) and tracks the probabilities
only qualitatively, so the report includes a rank correlation rather than
asserting monotonicity.  Orbits related by reflection always share both the
score and the probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import spearmanr

from .basis import SectorBasis, config_label, dihedral_classes, up_sites
from .hamiltonian import Coupling, FieldSetting, sector_plan
from .spectra import DEGENERACY_RTOL, GroundManifold, ground_manifold

EQUAL_PROBABILITY_ATOL = 1e-9


def _quantize(values) -> np.ndarray:
    """Snap to the equal-probability grid so exact symmetry ties rank as ties."""
    return np.round(np.asarray(values) / EQUAL_PROBABILITY_ATOL) * EQUAL_PROBABILITY_ATOL


def clustering_score(bits: int, n: int) -> float:
    """Sum of 1/ring-distance over all pairs of up sites."""
    sites = up_sites(bits, n)
    score = 0.0
    for a in range(len(sites)):
        for b in range(a + 1, len(sites)):
            d = abs(sites[a] - sites[b])
            score += 1.0 / min(d, n - d)
    return score


@dataclass(frozen=True)
class OrbitRow:
    representative: int
    pattern: str
    period: int
    member_probability: float
    orbit_probability: float
    clustering: float
    dihedral_class: int


@dataclass(frozen=True)
class OrbitReport:
    """Per-orbit ground-mixture probabilities for one sector.

    When the manifold spans several sectors (odd rings at zero field) the
    probabilities are conditioned on the reported sector; ``sector_weight``
    is the unconditioned weight the mixture puts there.
    """

    n: int
    k: int
    sector_weight: float
    rows: tuple[OrbitRow, ...]
    rank_correlation: float | None

    def member_probabilities(self) -> list[float]:
        return [row.member_probability for row in self.rows]


def orbit_probabilities(manifold: GroundManifold, sector: SectorBasis) -> OrbitReport:
    """Aggregate the manifold mixture's diagonal into orbit rows.

    Rows are sorted by ascending per-member probability, mirroring the
    strongest-clustering-first narrative of the ground-state structure.
    """
    in_sector = [s for s in manifold.states if s.basis.k == sector.k
                 and s.basis.n == sector.n]
    if not in_sector:
        raise ValueError(f"manifold has no state in sector k={sector.k}")
    d = manifold.degeneracy
    raw = np.zeros(sector.dim)
    for state in in_sector:
        raw += np.abs(state.amplitudes) ** 2 / d
    weight = float(raw.sum())

    _, orbits, _ = sector_plan(sector.n, sector.k)
    class_of = {}
    for cid, cls in enumerate(dihedral_classes(orbits, sector.n)):
        for orb in cls.orbits:
            class_of[orb.representative] = cid

    rows = []
    for orb in orbits:
        member = np.array([raw[sector.index_of(c)] for c in orb.members]) / weight
        rows.append(OrbitRow(
            representative=orb.representative,
            pattern=config_label(orb.representative, sector.n),
            period=orb.period,
            member_probability=float(member.mean()),
            orbit_probability=float(member.sum()),
            clustering=clustering_score(orb.representative, sector.n),
            dihedral_class=class_of[orb.representative],
        ))
    rows.sort(key=lambda r: (r.member_probability, r.representative))

    if len(rows) > 1:
        corr = spearmanr(_quantize([r.clustering for r in rows]),
                         _quantize([r.member_probability for r in rows])).statistic
        rank_correlation = None if np.isnan(corr) else float(corr)
    else:
        rank_correlation = None
    return OrbitReport(n=sector.n, k=sector.k, sector_weight=weight,
                       rows=tuple(rows), rank_correlation=rank_correlation)


def lp_table(n: int, coupling: Coupling, field: FieldSetting = FieldSetting(),
             tol: float = DEGENERACY_RTOL) -> OrbitReport:
    """Ground-manifold orbit report for the lowest occupied sector."""
    manifold = ground_manifold(n, coupling, field, tol=tol)
    sector = manifold.states[0].basis  # states are (k, m)-sorted
    return orbit_probabilities(manifold, sector)
