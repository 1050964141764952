"""Orbit-resolved probability structure of the ground manifold.

Every member of a translation orbit carries the same weight in the ground
mixture, so the natural report is one row per orbit: its offset pattern,
period, per-member and total probability, and a clustering score.  The score
is the sum of inverse ring distances over all pairs of up sites; it is a
diagnostic for how bunched the up spins are (the contiguous block scores
highest, the maximally spread pattern lowest) and tracks the probabilities
only qualitatively, so the report includes a rank correlation rather than
asserting monotonicity.  The exact relation is the chord law of Dyson's
beta = 2 gas: a member with up sites x has probability
n^-k prod_{l<l'} 4 sin^2(pi (x_l - x_l') / n), a function of the pairwise
gaps alone, which the tests check on every table up to n = 14.  ROADMAP
item 4 replaces the score with its log-chord energy
E(x) = -sum_{l<l'} ln(2 sin(pi |x_l - x_l'| / n)), so that P = n^-k e^(-2E).
Orbits related by reflection always share the score, and the probability
up to rounding.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .basis import SectorBasis, rotation_order
from .hamiltonian import Coupling, FieldSetting
from .spectra import DEGENERACY_RTOL, GroundManifold, ground_manifold

EQUAL_PROBABILITY_ATOL = 1e-9


def _rank_correlation(x, y) -> float | None:
    """Spearman's coefficient of two columns, None where it is undefined.

    Values are snapped to the equal-probability grid so exact symmetry ties
    rank as ties, and tied values share the mean of their 1-based positions:
    a grid value held c times, with C values at or below it, ranks
    C - (c - 1)/2, an exact half-integer.  A constant column, a single row
    included, leaves the coefficient undefined.
    """
    ranks = []
    for values in (x, y):
        grid = np.round(np.asarray(values) / EQUAL_PROBABILITY_ATOL)
        _, inverse, counts = np.unique(grid, return_inverse=True, return_counts=True)
        if len(counts) == 1:
            return None
        ranks.append((np.cumsum(counts) - (counts - 1) / 2)[inverse])
    return float(np.corrcoef(*ranks)[1, 0])


def _sites(configs, n: int) -> np.ndarray:
    """Row i holds the up sites of configs[i], ascending; mixed popcounts are refused."""
    up = (np.asarray(configs, dtype=np.int64).reshape(-1, 1) >> np.arange(n)) & 1
    if (up.sum(axis=1) != up[:1].sum()).any():
        raise ValueError("the configurations must share one popcount")
    return np.nonzero(up)[1].reshape(len(up), up[:1].sum())


def clustering_scores(configs, n: int) -> np.ndarray:
    """Sum of 1/ring-distance over all pairs of up sites, per configuration.

    The configurations must share one popcount; two up sites whose indices
    differ by g are min(g, n - g) apart on the ring.
    """
    sites = _sites(configs, n)
    first, second = np.triu_indices(sites.shape[1], 1)
    gaps = sites[:, second] - sites[:, first]
    return (1 / np.minimum(gaps, n - gaps)).sum(axis=1)


def _labels(configs, n: int) -> list[str]:
    """Offset pattern of each configuration, e.g. ``|j,j+2,j+4>`` for {0,2,4}.

    The configurations must share one popcount; ``|->`` when it is 0.
    """
    sites = _sites(configs, n)
    return ["|" + ",".join([f"j+{o}" if o else "j" for o in row]) + ">" if row else "|->"
            for row in (sites - sites[:, :1]).tolist()]


class OrbitRow(NamedTuple):
    representative: int
    pattern: str
    period: int
    member_probability: float
    orbit_probability: float
    clustering: float
    dihedral_class: int


class OrbitReport(NamedTuple):
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


def orbit_probabilities(manifold: GroundManifold, sector: SectorBasis) -> OrbitReport:
    """Aggregate the manifold mixture's diagonal into orbit rows.

    Rows are sorted by ascending per-member probability, mirroring the
    strongest-clustering-first narrative of the ground-state structure.
    An orbit and its reflection (``sector.mirror``) share a ``dihedral_class``,
    numbered by ascending smaller representative.  The orbits of each period
    p are summed as the rows of one (orbits x p) array, which numpy sums row
    by row in the order it sums a single orbit's slice; a member's
    probability is its orbit's over p.
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

    n, reps, period = sector.n, sector.reps, sector.period
    members = raw[rotation_order(sector)] / weight
    # orbit a's members start at first[a]; each period's orbits are summed as rows
    total, first = np.empty(len(reps)), np.cumsum(period) - period
    for p in set(period.tolist()):  # np.unique would import numpy.ma
        orbits = np.flatnonzero(period == p)
        total[orbits] = members[first[orbits, None] + np.arange(p)].sum(axis=1)
    _, dihedral = np.unique(np.minimum(reps, reps[sector.mirror]), return_inverse=True)
    rows = [OrbitRow(representative=rep, pattern=label, period=p, member_probability=mean,
                     orbit_probability=sum_, clustering=score, dihedral_class=cid)
            for rep, label, p, mean, sum_, score, cid in zip(
                reps.tolist(), _labels(reps, n), period.tolist(), (total / period).tolist(),
                total.tolist(), clustering_scores(reps, n).tolist(), dihedral.tolist())]
    rows.sort(key=lambda r: (r.member_probability, r.representative))

    return OrbitReport(n=sector.n, k=sector.k, sector_weight=weight, rows=tuple(rows),
                       rank_correlation=_rank_correlation([r.clustering for r in rows],
                                                          [r.member_probability for r in rows]))


def lp_table(n: int, coupling: Coupling, field: FieldSetting = FieldSetting(),
             tol: float = DEGENERACY_RTOL) -> OrbitReport:
    """Ground-manifold orbit report for the lowest occupied sector."""
    manifold = ground_manifold(n, coupling, field, tol=tol)
    sector = manifold.states[0].basis  # states are (k, m)-sorted
    return orbit_probabilities(manifold, sector)
