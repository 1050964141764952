"""Clustering scores and orbit-probability reports of the ground mixture."""

import math

import numpy as np
import pytest

from xxring.basis import enumerate_sector
from xxring.hamiltonian import Coupling, FieldSetting
from xxring.polarization import _labels, clustering_scores, lp_table, orbit_probabilities
from xxring.spectra import ground_manifold

from reference import (clustering_score, config_label, dihedral_classes, index_of,
                       orbit_report_by_split, reflect, rotate, set_walk_orbits)

FERRO = Coupling(-1.0)


def bits_of(sites):
    return sum(1 << s for s in sites)


def grid(values):
    return [round(v / 1e-9) for v in values]


def spearman_by_hand(xs, ys):
    """Pearson's r of the ranks on the 1e-9 grid; ties share their mean 1-based position."""
    def ranks(values):
        order = sorted(grid(values))
        return [order.index(g) + (order.count(g) + 1) / 2 for g in grid(values)]
    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    return cov / math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))


def score(bits, n):
    return float(clustering_scores([bits], n)[0])


class TestClusteringScore:
    def test_hand_computed_values(self):
        assert score(bits_of({0, 1, 2}), 6) == pytest.approx(2.5)
        assert score(bits_of({0, 2, 4}), 6) == pytest.approx(1.5)
        assert score(bits_of({0, 1, 2, 5}), 8) == pytest.approx(41 / 12)
        assert score(bits_of({0, 1, 3, 4}), 8) == pytest.approx(41 / 12)

    def test_symmetry_invariance(self):
        n = 8
        for c in enumerate_sector(n, 3).bits.tolist():
            expected = score(c, n)
            for t in range(n):
                assert score(rotate(c, t, n), n) == pytest.approx(expected)
            assert score(reflect(c, n), n) == pytest.approx(expected)

    def test_trivial_configurations(self):
        assert score(0, 6) == 0.0
        assert score(1, 6) == 0.0

    @pytest.mark.parametrize("n", range(1, 15))
    def test_scores_equal_the_pair_loop(self, n):
        for k in range(n + 1):
            reps = enumerate_sector(n, k).reps
            np.testing.assert_allclose(clustering_scores(reps, n),
                                       [clustering_score(c, n) for c in reps.tolist()],
                                       rtol=1e-14, atol=0)


class TestLabels:
    def test_offset_patterns(self):
        assert _labels([bits_of({0, 2, 4})], 6) == ["|j,j+2,j+4>"]
        assert _labels([bits_of({1, 2}), bits_of({0, 4})], 5) == ["|j,j+1>", "|j,j+4>"]
        assert _labels([0], 4) == ["|->"]

    @pytest.mark.parametrize("n", range(1, 15))
    def test_labels_equal_the_scalar_labels(self, n):
        for k in range(n + 1):
            reps = enumerate_sector(n, k).reps
            assert _labels(reps, n) == [config_label(c, n) for c in reps.tolist()]


class TestOrbitReports:
    def test_four_site_probabilities(self):
        report = lp_table(4, FERRO)
        np.testing.assert_allclose(report.member_probabilities(), [1 / 8, 1 / 4],
                                   atol=1e-10)
        np.testing.assert_allclose(report.sector_weight, 1.0, atol=1e-12)

    def test_six_site_probabilities(self):
        report = lp_table(6, FERRO)
        np.testing.assert_allclose(report.member_probabilities(),
                                   [1 / 72, 1 / 18, 1 / 18, 1 / 8], atol=1e-10)
        # strongest clustering carries the smallest weight, weakest the largest
        assert report.rows[0].pattern == "|j,j+1,j+2>"
        assert report.rows[0].clustering == pytest.approx(2.5)
        assert report.rows[-1].pattern == "|j,j+2,j+4>"
        assert report.rows[-1].clustering == pytest.approx(1.5)

    def test_eight_site_probabilities(self):
        # pinned against the 2^8 oracle (paths cross-checked in test_oracle)
        report = lp_table(8, FERRO)
        np.testing.assert_allclose(
            report.member_probabilities(),
            [0.000670206544, 0.004576456544, 0.004576456544, 0.0078125, 0.0078125,
             0.015625, 0.022767293456, 0.026673543456, 0.026673543456, 0.0625],
            atol=1e-10)

    def test_rows_sum_to_one_and_stay_orbit_constant(self):
        for n in (4, 5, 6, 7, 8):
            manifold = ground_manifold(n, FERRO)
            sector = manifold.states[0].basis
            report = orbit_probabilities(manifold, sector)
            assert sum(r.orbit_probability for r in report.rows) == pytest.approx(1.0, abs=1e-10)
            probs = report.member_probabilities()
            assert probs == sorted(probs)
            # per-member constancy, checked against the raw mixture diagonal
            raw = np.zeros(sector.dim)
            for state in manifold.states:
                if state.basis.k == sector.k:
                    raw += np.abs(state.amplitudes) ** 2 / manifold.degeneracy
            raw /= report.sector_weight
            for row in report.rows:
                member = [raw[index_of(sector, rotate(row.representative, t, n))]
                          for t in range(row.period)]
                assert max(member) - min(member) <= 1e-10

    @pytest.mark.parametrize("n", range(2, 15))
    def test_reports_equal_the_orbit_at_a_time_sums(self, n):
        # summing each period's orbits as the rows of one array keeps numpy's
        # summation order per orbit, so every field of every row is unchanged
        for j in (-1.0, 1.0, 0.5):
            for b in (0.0, 0.3, -0.7):
                for tol in (0.0, 1e-9, 1e-3):
                    manifold = ground_manifold(n, Coupling(j), FieldSetting(b), tol=tol)
                    for k in manifold.sectors():
                        sector = enumerate_sector(n, k)
                        assert (orbit_probabilities(manifold, sector)
                                == orbit_report_by_split(manifold, sector)), (j, b, tol, k)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_dihedral_partners_share_probability_and_score(self, n):
        report = lp_table(n, FERRO)
        by_class = {}
        for row in report.rows:
            by_class.setdefault(row.dihedral_class, []).append(row)
        for rows in by_class.values():
            probs = [r.member_probability for r in rows]
            scores = [r.clustering for r in rows]
            assert max(probs) - min(probs) <= 1e-9
            assert max(scores) - min(scores) <= 1e-9

    @pytest.mark.parametrize("n", range(1, 15))
    @pytest.mark.parametrize("coupling", [FERRO, Coupling(1.0)], ids=["ferro", "antiferro"])
    def test_dihedral_class_ids_equal_the_scalar_classes(self, n, coupling):
        report = lp_table(n, coupling)
        orbits = set_walk_orbits(n, report.k)
        expected = {orb.representative: cid
                    for cid, cls in enumerate(dihedral_classes(orbits, n))
                    for orb in cls.orbits}
        assert {row.representative: row.dihedral_class for row in report.rows} == expected
        assert all(type(row.dihedral_class) is int for row in report.rows)

    def test_eight_site_equal_pair_that_is_not_dihedral(self):
        # the two self-reflective orbits with clustering 41/12 tie in
        # probability without being reflections of each other
        report = lp_table(8, FERRO)
        tied = [r for r in report.rows if abs(r.clustering - 41 / 12) < 1e-12]
        assert len(tied) == 2
        assert abs(tied[0].member_probability - tied[1].member_probability) <= 1e-10
        assert tied[0].dihedral_class != tied[1].dihedral_class

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_score_extremes(self, n):
        report = lp_table(n, FERRO)
        k = n // 2
        block = bits_of(set(range(k)))
        alternating = bits_of(set(range(0, n, 2)))
        top = max(report.rows, key=lambda r: r.clustering)
        bottom = min(report.rows, key=lambda r: r.clustering)
        assert top.representative == block
        assert bottom.representative == alternating

    def test_rank_correlation_is_negative(self):
        assert lp_table(4, FERRO).rank_correlation == pytest.approx(-1.0)
        assert lp_table(6, FERRO).rank_correlation == pytest.approx(-1.0)
        assert lp_table(8, FERRO).rank_correlation < -0.8  # not strictly monotone

    @pytest.mark.parametrize("n, coupling", [(8, FERRO), (11, Coupling(1.0))])
    def test_rank_correlation_is_spearmans(self, n, coupling):
        report = lp_table(n, coupling)
        probs = [r.member_probability for r in report.rows]
        assert len(set(grid(probs))) < len(probs)  # reflection partners tie
        expected = spearman_by_hand([r.clustering for r in report.rows], probs)
        assert report.rank_correlation == pytest.approx(expected, abs=1e-12)

    def test_odd_ring_reports_conditional_distribution(self):
        report = lp_table(3, FERRO)
        assert report.k == 1
        np.testing.assert_allclose(report.sector_weight, 0.5, atol=1e-12)
        np.testing.assert_allclose(report.member_probabilities(), [1 / 3], atol=1e-12)
        assert report.rank_correlation is None  # undefined on a single row

    def test_missing_sector_rejected(self):
        manifold = ground_manifold(4, FERRO)
        with pytest.raises(ValueError):
            orbit_probabilities(manifold, enumerate_sector(4, 1))
