"""Full-space brute-force path and its agreement with the block pipeline."""

import numpy as np
import pytest

from xxring.hamiltonian import Coupling, FieldSetting
from xxring.oracle import (_full_spectrum, compare_with_pipeline,
                           eigenvector_concurrence_scan, full_diagonalize,
                           full_hamiltonian)

FERRO = Coupling(-1.0)
ANTIFERRO = Coupling(1.0)


class TestFullHamiltonian:
    def test_literal_matrix_matches_blocked_spectrum(self):
        # the popcount-blocked solve must reproduce the one-shot 2^n solve
        for n in range(2, 7):
            for coupling in (FERRO, ANTIFERRO):
                literal = np.linalg.eigvalsh(full_hamiltonian(n, coupling))
                report = full_diagonalize(n, coupling)
                np.testing.assert_allclose(report.ground_energy, literal[0], atol=1e-12)

    def test_symmetric(self):
        h = full_hamiltonian(5, ANTIFERRO)
        np.testing.assert_array_equal(h, h.T)

    def test_blocked_spectrum_is_the_full_multiset(self):
        for n in range(2, 9):
            for coupling in (FERRO, ANTIFERRO):
                literal = np.linalg.eigvalsh(full_hamiltonian(n, coupling))
                blocked, _, _ = _full_spectrum(n, coupling, FieldSetting())
                np.testing.assert_allclose(np.sort(blocked), literal, atol=1e-10)

    def test_cap(self):
        with pytest.raises(ValueError):
            full_hamiltonian(15, FERRO)


class TestFullDiagonalize:
    def test_three_site_antiferro(self):
        report = full_diagonalize(3, ANTIFERRO)
        np.testing.assert_allclose(report.ground_energy, -1.0, atol=1e-12)
        assert report.ground_degeneracy == 4
        assert report.ground_sectors == (1, 2)

    def test_eight_site_closed_form(self):
        report = full_diagonalize(8, FERRO)
        np.testing.assert_allclose(report.ground_energy,
                                   -2 * np.sqrt(4 + 2 * np.sqrt(2)), atol=1e-10)
        assert report.ground_degeneracy == 1
        assert report.ground_sectors == (4,)

    def test_two_site_concurrence(self):
        report = full_diagonalize(2, FERRO)
        np.testing.assert_allclose(report.ground_concurrence, 1.0, atol=1e-12)

    def test_probabilities_normalized(self):
        report = full_diagonalize(6, ANTIFERRO)
        np.testing.assert_allclose(report.config_probabilities.sum(), 1.0, atol=1e-10)

    def test_cap(self):
        with pytest.raises(ValueError):
            full_diagonalize(15, FERRO)


class TestLevelScan:
    def test_two_site_levels(self):
        scan = eigenvector_concurrence_scan(2, FERRO)
        assert [row.degeneracy for row in scan.rows] == [1, 2, 1]
        np.testing.assert_allclose(scan.rows[0].concurrence, 1.0, atol=1e-12)
        np.testing.assert_allclose(scan.rows[1].concurrence, 0.0, atol=1e-12)
        assert scan.ground_is_max  # tie with the top Bell level is allowed

    def test_four_site_ground_leads(self):
        scan = eigenvector_concurrence_scan(4, FERRO)
        np.testing.assert_allclose(scan.rows[0].concurrence, 0.457106781187, atol=1e-10)
        assert scan.ground_is_max
        assert max(r.concurrence for r in scan.rows) <= scan.rows[0].concurrence + 1e-12

    def test_three_site_ferro_reported(self):
        scan = eigenvector_concurrence_scan(3, FERRO)
        np.testing.assert_allclose(scan.rows[0].concurrence, 1 / 3, atol=1e-10)
        assert scan.ground_is_max

    def test_three_site_antiferro_counterexample(self):
        # the degenerate antiferro ground mixes to zero concurrence while an
        # excited level reaches 1/3, so the ground does not lead here
        scan = eigenvector_concurrence_scan(3, ANTIFERRO)
        np.testing.assert_allclose(scan.rows[0].concurrence, 0.0, atol=1e-12)
        assert not scan.ground_is_max

    def test_cap(self):
        with pytest.raises(ValueError):
            eigenvector_concurrence_scan(11, FERRO)


class TestPipelineAgreement:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("j, b", [(-1.0, 0.0), (1.0, 0.0), (-1.0, 0.7), (1.0, 0.7)],
                             ids=["-1.0", "1.0", "-1.0-b0.7", "1.0-b0.7"])
    def test_small_rings(self, n, j, b):
        # at b=0.7 the ground level of n=3, 5..8 lies in a sector k > n/2,
        # whose levels the pipeline's scan takes from the mirror sector n-k
        result = compare_with_pipeline(n, Coupling(j), FieldSetting(b))
        assert result.ok, result

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_equal_weight_mixture_confirmed_on_larger_odd_rings(self, n):
        # the mixing rule for degenerate manifolds stays consistent with the
        # brute-force path beyond the small sizes it was designed against
        for j in (-1.0, 1.0):
            result = compare_with_pipeline(n, Coupling(j))
            assert result.energy_delta <= 1e-10
            assert result.oracle_degeneracy == result.pipeline_degeneracy
            assert result.concurrence_delta <= 1e-10
            assert result.probability_delta <= 1e-10
