"""Full-space brute-force path and its agreement with the block pipeline."""

import re
import tracemalloc
from math import comb

import numpy as np
import pytest

import xxring.oracle
from xxring.basis import enumerate_sector
from xxring.concurrence import PairDensity, concurrence_wootters, pair_density
from xxring.hamiltonian import Coupling, FieldSetting
from xxring.oracle import (_degenerate_groups, _first_group_end, _full_spectrum,
                           _mixture_pair_density, _popcount_block, _unit_spectrum,
                           _unit_vectors, compare_with_pipeline,
                           eigenvector_concurrence_scan, full_diagonalize)
from xxring.spectra import DEGENERACY_RTOL, SectorState

from reference import full_hamiltonian

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

    @pytest.mark.parametrize("j", [-1.0, 1.0, 0.5, -2.5])
    @pytest.mark.parametrize("b", [0.0, 0.3])
    def test_ground_matches_the_literal_matrix(self, j, b):
        # a J = 1 column order kept for J < 0 leaves every level in place but
        # pairs it with the wrong eigenvector
        coupling = Coupling(j)
        for n in range(2, 9):
            up = np.array([c.bit_count() for c in range(1 << n)])
            w, v = np.linalg.eigh(full_hamiltonian(n, coupling) + np.diag(-b * (up - n / 2)))
            d = int(np.count_nonzero(w - w[0] <= DEGENERACY_RTOL * (w[-1] - w[0])))
            probs = (v[:, :d] ** 2).sum(axis=1) / d
            # sites 0 and 1 are the two lowest bits; rows in (uu, ud, du, dd) order
            amps = v[:, :d].T.reshape(d, -1, 4)[:, :, [3, 1, 2, 0]]
            rho = np.einsum("dra,drb->ab", amps, amps) / d
            report = full_diagonalize(n, coupling, FieldSetting(b))
            label = f"n={n}"
            np.testing.assert_allclose(report.ground_energy, w[0], rtol=0, atol=1e-10,
                                       err_msg=label)
            assert report.ground_degeneracy == d, label
            assert report.ground_sectors == tuple(
                np.flatnonzero(np.bincount(up, weights=probs) > 1e-8).tolist()), label
            np.testing.assert_allclose(report.config_probabilities, probs, rtol=0,
                                       atol=1e-10, err_msg=label)
            np.testing.assert_allclose(
                report.ground_concurrence,
                concurrence_wootters(PairDensity(matrix=rho, pair=(0, 1))).value,
                rtol=0, atol=1e-10, err_msg=label)

    def test_symmetric(self):
        h = full_hamiltonian(5, ANTIFERRO)
        np.testing.assert_array_equal(h, h.T)

    def test_blocked_spectrum_is_the_full_multiset(self):
        for n in range(2, 9):
            for coupling in (FERRO, ANTIFERRO):
                literal = np.linalg.eigvalsh(full_hamiltonian(n, coupling))
                blocked, _, _ = _full_spectrum(n, coupling, FieldSetting())
                np.testing.assert_allclose(np.sort(blocked), literal, atol=1e-10)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("coupling", [FERRO, ANTIFERRO], ids=["-1.0", "1.0"])
    def test_popcount_block_is_the_literal_block(self, n, coupling):
        # n = 1 has no bond; n = 2 has its single bond twice
        literal = full_hamiltonian(n, coupling)
        for k in range(n + 1):
            configs, block = _popcount_block(n, k, coupling)
            assert configs.tolist() == [c for c in range(1 << n) if c.bit_count() == k]
            np.testing.assert_array_equal(block, literal[np.ix_(configs, configs)])

    @pytest.mark.parametrize("n", range(1, 15))
    def test_spin_inversion_mirrors_the_popcount_blocks(self, n):
        # complementing the bits reverses the ascending configuration order,
        # so block n - k is block k with both axes reversed, entry for entry
        literal = full_hamiltonian(n, ANTIFERRO) if n <= 8 else None
        for k in range(n // 2 + 1):
            configs, block = _popcount_block(n, k, ANTIFERRO)
            mirror_configs, mirror = _popcount_block(n, n - k, ANTIFERRO)
            label = f"n={n} k={k}"
            assert np.array_equal(mirror_configs, ((1 << n) - 1 - configs)[::-1]), label
            assert np.array_equal(mirror, block[::-1, ::-1]), label
            if literal is not None:
                assert np.array_equal(block[::-1, ::-1],
                                      literal[np.ix_(mirror_configs, mirror_configs)]), label

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

    def test_no_full_space_matrix(self):
        # a 2^12 x 2^12 float array alone would take 128 MiB; a cached n = 12
        # decomposition would hide the cost of the solve
        _unit_spectrum.cache_clear()
        tracemalloc.start()
        try:
            full_diagonalize(12, ANTIFERRO)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"

    @pytest.mark.parametrize("n", range(2, 13))
    def test_first_group_is_the_scanned_first_group(self, n):
        for j in (-1.0, 1.0):
            for b in (0.0, 0.3):
                values, _, _ = _full_spectrum(n, Coupling(j), FieldSetting(b))
                assert ((0, _first_group_end(values, DEGENERACY_RTOL))
                        == _degenerate_groups(values, DEGENERACY_RTOL)[0]), (j, b)

    @pytest.mark.filterwarnings("error")  # overflow is refused, not warned about
    @pytest.mark.parametrize("n, j, b", [(2, 1.0, 1e308), (4, 1e308, 0.0), (4, 1e308, -1e308)])
    def test_refuses_energies_that_overflow(self, n, j, b):
        message = f"energies overflow at J={j:g}, b={b:g}"
        with pytest.raises(ValueError, match=re.escape(message)):
            full_diagonalize(n, Coupling(j), FieldSetting(b))
        with pytest.raises(ValueError, match=re.escape(message)):
            compare_with_pipeline(n, Coupling(j), FieldSetting(b))

    def test_field_just_below_overflow(self):
        # an infinite range once took all four levels of n = 2 into the ground
        # group; the true ground level is the all-up state, alone in k = 2
        report = full_diagonalize(2, ANTIFERRO, FieldSetting(1e307))
        assert (report.ground_energy, report.ground_degeneracy) == (-1e307, 1)
        assert report.ground_sectors == (2,)
        assert compare_with_pipeline(2, ANTIFERRO, FieldSetting(1e307)).ok

    def test_refuses_rings_without_a_pair(self):
        for n in (0, 1):
            with pytest.raises(ValueError, match="at least two sites"):
                full_diagonalize(n, FERRO)

    def test_no_level_scan(self, monkeypatch):
        calls = []
        monkeypatch.setattr(xxring.oracle, "eigenvector_concurrence_scan",
                            lambda *args, **kwargs: calls.append(args))
        full_diagonalize(8, FERRO)
        assert calls == []


@pytest.fixture
def solves(monkeypatch):
    """(solver, dimension) of every np.linalg.eigh and eigvalsh call while the test runs."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls.append((_name, len(a)))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def block_solves(calls):
    """The calls that solve a popcount block or a half of one.

    Each oracle concurrence also solves the 4 x 4 pair density it reduces to;
    no popcount block or half of the rings these tests use has dimension 4.
    """
    return [call for call in calls if call[1] != 4]


class TestUnitSpectrum:
    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_each_block_solved_once_for_both_signs(self, solves, n):
        _unit_spectrum.cache_clear()
        full_diagonalize(n, FERRO)
        full_diagonalize(n, ANTIFERRO)
        # for even n the levels of blocks k < n/2 upward, then the two halves
        # of block n/2 with its eigenvectors; for odd n the whole block n // 2
        # with its eigenvectors first, then the levels of blocks k < n // 2
        # downward.  Blocks k > n/2 are mirrored, not solved, and both ground
        # levels lie in block n // 2 or its mirror, so no other eigenvectors
        # are read
        if n % 2 == 0:
            expected = [("eigvalsh", comb(n, k)) for k in range(n // 2)]
            expected += [("eigh", comb(n, n // 2) // 2)] * 2
        else:
            expected = [("eigh", comb(n, n // 2))]
            expected += [("eigvalsh", comb(n, k)) for k in range(n // 2 - 1, -1, -1)]
        assert block_solves(solves) == expected
        assert solves.count(("eigh", 4)) == 2  # one pair density per call

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_block_is_decomposed(self, n):
        levels, _ = _unit_spectrum(n)
        for k, (configs, w) in enumerate(levels):
            expected_configs, block = _popcount_block(n, k, ANTIFERRO)
            v = _unit_vectors(n, k)
            label = f"n={n} k={k}"
            assert np.array_equal(configs, expected_configs), label
            assert np.abs(w - np.linalg.eigvalsh(block)).max() <= 1e-12, label
            assert np.abs(block @ v - v * w).max() <= 1e-12, label
            assert np.abs(v.T @ v - np.eye(len(w))).max() <= 1e-12, label
            if 2 * k > n:  # block n - k's levels and its rows reversed, no copy
                assert w is levels[n - k][1], label
                assert np.shares_memory(v, _unit_vectors(n, n - k)), label

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_half_filled_block_from_its_two_halves(self, n):
        configs, w = _unit_spectrum(n)[0][n // 2]
        v = _unit_vectors(n, n // 2)
        # the unsplit block, which test_popcount_block_is_the_literal_block
        # pins to the literal matrix
        _, block = _popcount_block(n, n // 2, ANTIFERRO)
        assert np.abs(block @ v - v * w).max() <= 1e-12
        assert np.abs(v.T @ v - np.eye(len(w))).max() <= 1e-12
        assert np.all(np.diff(w) >= 0)
        assert np.abs(w - np.linalg.eigvalsh(block)).max() <= 1e-12
        # each column is [x; +-x[::-1]] / sqrt(2), half of them of each sign
        even = [np.array_equal(v[::-1, c], v[:, c]) for c in range(len(w))]
        odd = [np.array_equal(v[::-1, c], -v[:, c]) for c in range(len(w))]
        assert all(e != o for e, o in zip(even, odd))
        assert sum(even) == sum(odd) == len(w) // 2

    @pytest.mark.parametrize("coupling", [FERRO, ANTIFERRO], ids=["-1.0", "1.0"])
    def test_level_scan_solves_each_block_once(self, solves, coupling):
        _unit_spectrum.cache_clear()
        full_diagonalize(8, coupling)
        solves.clear()
        eigenvector_concurrence_scan(8, coupling)
        # every level is read: the eigenvectors of blocks k < 4, on first read
        assert sorted(block_solves(solves)) == [("eigh", comb(8, k)) for k in range(4)]
        solves.clear()
        scan = eigenvector_concurrence_scan(8, coupling)
        assert solves == [("eigh", 4)] * len(scan.rows)  # pair densities only

    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("b", [1.0, 2.0, 5.0])
    @pytest.mark.parametrize("coupling", [FERRO, ANTIFERRO], ids=["-1.0", "1.0"])
    def test_field_moved_ground_solved_on_read(self, solves, n, b, coupling):
        _unit_spectrum.cache_clear()
        full_diagonalize(n, coupling)
        solves.clear()
        report = full_diagonalize(n, coupling, FieldSetting(b))
        # the field moves the ground level out of block n // 2 and its mirror
        read = {min(k, n - k) for k in report.ground_sectors}
        assert n // 2 not in read, report.ground_sectors
        assert sorted(block_solves(solves)) == [("eigh", comb(n, k)) for k in sorted(read)]
        solves.clear()
        full_diagonalize(n, coupling, FieldSetting(b))
        assert block_solves(solves) == []
        assert compare_with_pipeline(n, coupling, FieldSetting(b)).ok

    def test_arrays_are_read_only(self):
        levels, _ = _unit_spectrum(5)
        arrays = [array for block in levels for array in block]
        for array in arrays + [_unit_vectors(5, k) for k in range(6)]:
            with pytest.raises(ValueError):
                array[0] = 0


class TestPairReduction:
    def test_every_pair_matches_the_sector_reduction(self):
        n = 6
        basis = enumerate_sector(n, 3)
        rng = np.random.default_rng(20061)
        amplitudes = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        amplitudes /= np.linalg.norm(amplitudes)
        column = np.zeros((1 << n, 1), dtype=complex)
        column[list(basis.configs), 0] = amplitudes
        state = SectorState(basis=basis, amplitudes=amplitudes)
        for p in range(n):
            for q in range(p + 1, n):
                np.testing.assert_allclose(
                    _mixture_pair_density(column, n, (p, q)).matrix,
                    pair_density([(1.0, state)], (p, q)).matrix, rtol=0, atol=1e-12,
                    err_msg=f"pair {(p, q)}")


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
