"""Sector Hamiltonians, momentum blocks, and their symmetries."""

from dataclasses import replace

import numpy as np
import pytest

from xxring.basis import enumerate_sector, ring_bonds
from xxring.hamiltonian import (Coupling, FieldSetting, build_momentum_block, real_block_pieces,
                                sector_energy_offset)

from reference import (apply_hamiltonian, build_sector_hamiltonian, kr_basis,
                       orbit_representative, rotate, set_walk_orbits)

FERRO = Coupling(-1.0)
ANTIFERRO = Coupling(1.0)


def sector_spectrum(n, k, coupling):
    return np.linalg.eigvalsh(build_sector_hamiltonian(enumerate_sector(n, k), coupling))


def block_spectra(n, k, coupling):
    basis = enumerate_sector(n, k)
    values = []
    for m in range(n):
        block = build_momentum_block(basis, m, coupling)
        if block.dim:
            values.append(np.linalg.eigvalsh(block.matrix))
    return np.sort(np.concatenate(values))


class TestCoupling:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Coupling(0.0)

    @pytest.mark.parametrize("j", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, j):
        with pytest.raises(ValueError, match="j must be finite"):
            Coupling(j)

    def test_regimes(self):
        assert FERRO.regime == "ferromagnetic"
        assert ANTIFERRO.regime == "antiferromagnetic"


class TestRingBonds:
    def test_counts(self):
        assert ring_bonds(1) == []
        assert ring_bonds(2) == [(0, 1), (1, 0)]  # the single bond, twice
        assert len(ring_bonds(6)) == 6


class TestSectorHamiltonian:
    def test_three_site_single_up(self):
        h = build_sector_hamiltonian(enumerate_sector(3, 1), FERRO)
        assert h.shape == (3, 3)
        np.testing.assert_allclose(np.linalg.eigvalsh(h)[0], -2.0, atol=1e-12)

    def test_four_site_extremes(self):
        values = sector_spectrum(4, 2, FERRO)
        np.testing.assert_allclose(values[0], -2 * np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(values[-1], 2 * np.sqrt(2), atol=1e-12)

    def test_two_site_double_counted_bond(self):
        h = build_sector_hamiltonian(enumerate_sector(2, 1), FERRO)
        np.testing.assert_array_equal(h, [[0.0, -2.0], [-2.0, 0.0]])

    def test_trivial_sectors_are_zero(self):
        for n, k in [(1, 0), (1, 1), (5, 0), (5, 5)]:
            assert not build_sector_hamiltonian(enumerate_sector(n, k), FERRO).any()

    def test_symmetric_with_nonnegative_bond_counts(self):
        for n in range(2, 9):
            for k in range(n + 1):
                h = build_sector_hamiltonian(enumerate_sector(n, k), ANTIFERRO)
                np.testing.assert_array_equal(h, h.T)
                assert ((h == 0) | (h >= 1.0)).all()  # J times integer counts

    def test_row_sums_bounded_by_hoppable_spins(self):
        # every up spin has at most two antiparallel neighbours
        for n in range(2, 9):
            for k in range(n + 1):
                h = build_sector_hamiltonian(enumerate_sector(n, k), Coupling(-1.0))
                bound = 2 * 1.0 * min(k, n - k) + 1e-12
                assert np.abs(h).sum(axis=0).max() <= bound


class TestApplyHamiltonian:
    def test_matches_dense_on_random_states(self):
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            for k in range(n + 1):
                basis = enumerate_sector(n, k)
                h = build_sector_hamiltonian(basis, FERRO)
                v = rng.normal(size=basis.dim)
                np.testing.assert_allclose(apply_hamiltonian(basis, FERRO, v), h @ v,
                                           rtol=1e-12, atol=1e-12)

    def test_eigen_relation(self):
        basis = enumerate_sector(6, 3)
        h = build_sector_hamiltonian(basis, ANTIFERRO)
        values, vectors = np.linalg.eigh(h)
        ground = vectors[:, 0]
        np.testing.assert_allclose(apply_hamiltonian(basis, ANTIFERRO, ground),
                                   values[0] * ground, atol=1e-10)

    def test_uniform_vector_counts_hoppable_bonds(self):
        # hand count for the six 4-site half-filling configurations:
        # adjacent pairs hop over 2 bonds, alternating pairs over all 4
        basis = enumerate_sector(4, 2)
        out = apply_hamiltonian(basis, FERRO, np.ones(6))
        np.testing.assert_allclose(out, -1.0 * np.array([2, 4, 2, 2, 4, 2]), atol=0)

    def test_empty_sector_gives_zero(self):
        basis = enumerate_sector(5, 0)
        np.testing.assert_array_equal(apply_hamiltonian(basis, FERRO, np.ones(1)), [0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_hamiltonian(enumerate_sector(4, 2), FERRO, np.ones(5))


def reference_hop_table(basis, orbits):
    """The hop table as a loop over representatives and bonds."""
    n = basis.n
    rep_index = {orb.representative: i for i, orb in enumerate(orbits)}
    hops = []
    for a, orb in enumerate(orbits):
        c = orb.representative
        for i, j in ring_bonds(n):
            if ((c >> i) & 1) == ((c >> j) & 1):
                continue
            rep, shift = orbit_representative(c ^ ((1 << i) | (1 << j)), n)
            b = rep_index[rep]
            hops.append((a, b, shift, np.sqrt(orb.period / orbits[b].period)))
    return np.array(hops, dtype=float).reshape(-1, 4)


class TestHopTable:
    # n = 1 has no bond (shape (0, 3)); n = 2 lists its one bond twice
    @pytest.mark.parametrize("n", range(1, 15))
    def test_equals_the_loop(self, n):
        for k in range(n + 1):
            basis = enumerate_sector(n, k)
            reference = reference_hop_table(basis, set_walk_orbits(n, k))
            index, weight = basis.hop_index, basis.hop_weight
            assert index.dtype == np.int64 and weight.dtype == float
            assert index.shape == (len(reference), 3) and weight.shape == (len(reference),)
            assert np.array_equal(index, reference[:, :3])
            assert np.array_equal(weight, reference[:, 3])

    @pytest.mark.parametrize("n", range(1, 15))
    def test_sector_carries_the_loop_table(self, n):
        # the scan's real pieces read the sector's table; built on the loop's
        # table instead, every canonical sector's pieces come out bit for bit
        for k in range(n // 2 + 1):
            basis = enumerate_sector(n, k)
            reference = reference_hop_table(basis, set_walk_orbits(n, k))
            looped = replace(basis, hop_index=reference[:, :3].astype(np.int64),
                             hop_weight=reference[:, 3])
            for pieces, expected in zip(real_block_pieces(basis), real_block_pieces(looped),
                                        strict=True):
                assert len(pieces) == len(expected), (n, k)
                for piece, want in zip(pieces, expected):
                    assert np.array_equal(piece, want), (n, k)

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_blocks_are_bit_identical(self, n):
        for k in range(n + 1):
            basis = enumerate_sector(n, k)
            orbits = set_walk_orbits(n, k)
            reference = reference_hop_table(basis, orbits)
            for m in range(n):
                for coupling in (FERRO, ANTIFERRO):
                    block = build_momentum_block(basis, m, coupling)
                    expected = build_momentum_block(
                        replace(basis, hop_index=reference[:, :3].astype(np.int64),
                                hop_weight=reference[:, 3]), m, coupling)
                    assert np.array_equal(block.orbits, expected.orbits)
                    assert np.array_equal(block.matrix, expected.matrix)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_hop_index_holds_the_integer_columns(self, n):
        # every row names two orbits of its own sector, rows run a-major, and
        # T^shift(reps[b]) is reps[a] with the spins of one bond swapped
        for k in range(n + 1):
            basis = enumerate_sector(n, k)
            reps = basis.reps.tolist()
            assert basis.hop_index.flags.c_contiguous
            assert (np.diff(basis.hop_index[:, 0]) >= 0).all()
            for a, b, shift in basis.hop_index.tolist():
                assert 0 <= a < len(reps) and 0 <= b < len(reps) and 0 <= shift < n
                swapped = reps[a] ^ rotate(reps[b], shift, n)
                assert bin(swapped).count("1") == 2 and swapped & rotate(swapped, 1, n)


class TestRealPieces:
    """The K R basis makes every canonical block real and splits m = 0, n/2 by R."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_pieces_are_the_block_in_the_kr_basis(self, n):
        for k in range(n // 2 + 1):
            basis = enumerate_sector(n, k)
            all_pieces = list(real_block_pieces(basis))
            assert len(all_pieces) == n // 2 + 1
            for m, pieces in enumerate(all_pieces):
                u, parity = kr_basis(basis, m)
                np.testing.assert_allclose(u.conj().T @ u, np.eye(len(u)), atol=1e-14)
                columns = [[c for c, p in enumerate(parity) if p >= 0],
                           [c for c, p in enumerate(parity) if p < 0]]
                columns = [c for c in columns if c]
                assert [len(piece) for piece in pieces] == [len(c) for c in columns]
                for coupling in (FERRO, ANTIFERRO):
                    h = build_momentum_block(basis, m, coupling).matrix
                    real = u.conj().T @ h @ u
                    label = (n, k, m, coupling.j)
                    assert np.abs(real.imag).max(initial=0.0) <= 1e-12, label
                    for piece, c in zip(pieces, columns):
                        assert np.abs(piece - piece.T).max() <= 1e-12, label
                        np.testing.assert_allclose(coupling.j * piece,
                                                   real.real[np.ix_(c, c)], rtol=0,
                                                   atol=1e-12, err_msg=str(label))
                    levels = np.sort(np.concatenate(
                        [np.linalg.eigvalsh(coupling.j * piece) for piece in pieces]
                        or [np.empty(0)]))
                    np.testing.assert_allclose(levels, np.linalg.eigvalsh(h), rtol=0,
                                               atol=1e-12, err_msg=str(label))

    def test_reflection_splits_only_the_real_momenta(self):
        basis = enumerate_sector(8, 4)
        counts = [len(pieces) for pieces in real_block_pieces(basis)]
        assert counts == [2, 1, 1, 1, 2]
        assert [sum(len(p) for p in pieces) for pieces in real_block_pieces(basis)] == [
            build_momentum_block(basis, m, FERRO).dim for m in range(5)]


class TestMomentumBlocks:
    def test_admissibility_four_sites(self):
        basis = enumerate_sector(4, 2)
        dims = [build_momentum_block(basis, m, FERRO).dim for m in range(4)]
        assert dims == [2, 1, 2, 1]  # the period-2 orbit only enters even m

    @pytest.mark.parametrize("n", range(1, 13))
    def test_block_orbits_are_the_admissible_orbits(self, n):
        for k in range(n + 1):
            basis = enumerate_sector(n, k)
            orbits = set_walk_orbits(n, k)
            for m in range(n):
                block = build_momentum_block(basis, m, FERRO)
                expected = [i for i, o in enumerate(orbits) if m * o.period % n == 0]
                assert block.orbits.tolist() == expected
                assert block.dim == len(expected)

    def test_block_orbits_are_read_only(self):
        block = build_momentum_block(enumerate_sector(6, 3), 0, FERRO)
        with pytest.raises(ValueError, match="read-only"):
            block.orbits[0] = 1

    def test_orbits_come_only_from_the_sector(self):
        # the orbits of (6, 2) once gave the (6, 3) block eigenvalues [-2, -2, -2]
        basis = enumerate_sector(6, 3)
        with pytest.raises(TypeError):
            build_momentum_block(basis, set_walk_orbits(6, 2), 0, FERRO)
        values = np.linalg.eigvalsh(build_momentum_block(basis, 0, FERRO).matrix)
        np.testing.assert_allclose(values, [-4, 0, 2, 2], atol=1e-12)

    def test_fifteen_site_block_dimension(self):
        basis = enumerate_sector(15, 7)
        for m in (0, 1, 7):
            block = build_momentum_block(basis, m, FERRO)
            assert block.dim == 429

    def test_momentum_range_validated(self):
        basis = enumerate_sector(4, 2)
        with pytest.raises(ValueError):
            build_momentum_block(basis, 4, FERRO)

    def test_blocks_are_hermitian(self):
        for n in range(2, 11):
            basis = enumerate_sector(n, n // 2)
            for m in range(n):
                h = build_momentum_block(basis, m, ANTIFERRO).matrix
                scale = max(np.abs(h).max(), 1.0)
                assert np.abs(h - h.conj().T).max() <= 1e-12 * scale

    def test_block_spectra_recompose_sector_spectrum(self):
        for n in range(2, 13):
            for k in range(n + 1):
                np.testing.assert_allclose(block_spectra(n, k, FERRO),
                                           sector_spectrum(n, k, FERRO),
                                           atol=1e-10)

    def test_four_site_zero_momentum_block(self):
        basis = enumerate_sector(4, 2)
        block = build_momentum_block(basis, 0, FERRO)
        np.testing.assert_allclose(block.matrix,
                                   [[0, -2 * np.sqrt(2)], [-2 * np.sqrt(2), 0]],
                                   atol=1e-12)


class TestSpectrumSymmetries:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_even_rings_are_bipartite(self, n):
        for k in range(n + 1):
            values = sector_spectrum(n, k, ANTIFERRO)
            np.testing.assert_allclose(values, -values[::-1], atol=1e-10)

    def test_particle_hole_pairs(self):
        for n in range(2, 11):
            for k in range(n // 2 + 1):
                np.testing.assert_allclose(sector_spectrum(n, k, ANTIFERRO),
                                           sector_spectrum(n, n - k, ANTIFERRO),
                                           atol=1e-10)

    def test_matrices_scale_linearly_in_j(self):
        basis = enumerate_sector(5, 2)
        dense1 = build_sector_hamiltonian(basis, Coupling(-1.0))
        dense3 = build_sector_hamiltonian(basis, Coupling(-3.0))
        np.testing.assert_allclose(dense3, 3 * dense1, atol=0)
        for m in range(5):
            b1 = build_momentum_block(basis, m, Coupling(-1.0)).matrix
            b3 = build_momentum_block(basis, m, Coupling(-3.0)).matrix
            np.testing.assert_allclose(b3, 3 * b1, atol=1e-15)


class TestFieldOffset:
    def test_zero_field(self):
        assert sector_energy_offset(2, 5, FieldSetting()) == 0.0

    @pytest.mark.parametrize("b", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, b):
        with pytest.raises(ValueError, match="b must be finite"):
            FieldSetting(b=b)

    def test_signed_shift(self):
        assert sector_energy_offset(2, 3, FieldSetting(b=0.1)) == pytest.approx(-0.05)
        assert sector_energy_offset(1, 3, FieldSetting(b=0.1)) == pytest.approx(0.05)
