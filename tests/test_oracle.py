"""Full-space brute-force path and its agreement with the block pipeline."""

import ast
import re
import sys
import tracemalloc
from math import comb

import numpy as np
import pytest

import xxring.oracle
from xxring.basis import enumerate_sector
from xxring.concurrence import PairDensity, concurrence_wootters, pair_density
from xxring.hamiltonian import Coupling, FieldSetting
from xxring.oracle import (_columns, _concurrence, _degenerate_groups, _full_spectrum, _hops,
                           _pair_amplitudes, _piece_matrix, _unit_columns,
                           _unit_spectrum, compare_with_pipeline,
                           eigenvector_concurrence_scan, full_diagonalize)
from xxring.spectra import DEGENERACY_RTOL, SectorState

from reference import anchored_groups, full_hamiltonian, popcount_block, reflect, rotate

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
                concurrence_wootters(PairDensity(matrix=rho, pair=(0, 1))),
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
            configs, block = popcount_block(n, k, coupling)
            assert configs.tolist() == [c for c in range(1 << n) if c.bit_count() == k]
            np.testing.assert_array_equal(block, literal[np.ix_(configs, configs)])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_hop_list_rebuilds_the_dense_block(self, n):
        # one unit entry per hop, accumulated where hops land on one entry
        for k in range(n + 1):
            configs, rows, columns = _hops(n, k)
            dense = np.zeros((len(configs), len(configs)))
            np.add.at(dense, (rows, columns), 1.0)
            expected_configs, block = popcount_block(n, k, ANTIFERRO)
            assert np.array_equal(configs, expected_configs), k
            assert np.array_equal(dense, block), k

    @pytest.mark.parametrize("n", range(1, 15))
    def test_spin_inversion_mirrors_the_popcount_blocks(self, n):
        # complementing the bits reverses the ascending configuration order,
        # so block n - k is block k with both axes reversed, entry for entry
        if n > 12:  # dense blocks of 3432 x 3432 at n = 14: compare hop lists
            for k in range(n // 2 + 1):
                configs, rows, columns = _hops(n, k)
                mirror_configs, mirror_rows, mirror_columns = _hops(n, n - k)
                label = f"n={n} k={k}"
                assert np.array_equal(mirror_configs, ((1 << n) - 1 - configs)[::-1]), label
                d = len(configs)  # an entry is J times the hops (row, column), a multiset
                assert np.array_equal(np.sort(mirror_rows * d + mirror_columns),
                                      np.sort((d - 1 - rows) * d + (d - 1 - columns))), label
            return
        literal = full_hamiltonian(n, ANTIFERRO) if n <= 8 else None
        for k in range(n // 2 + 1):
            configs, block = popcount_block(n, k, ANTIFERRO)
            mirror_configs, mirror = popcount_block(n, n - k, ANTIFERRO)
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

    @pytest.mark.parametrize("j", [-1.0, 1.0, 0.5])
    def test_two_site_closed_form(self, j):
        # the one bond counted twice: block k = 1 is [[0, 2J], [2J, 0]], blocks 0 and 2 are 0
        report = full_diagonalize(2, Coupling(j))
        np.testing.assert_allclose(report.ground_energy, -2 * abs(j), rtol=0, atol=1e-12)

    def test_imports_no_pipeline_hamiltonian(self):
        # a fault in the pipeline's bonds, sectors or blocks must not reach the
        # oracle too, or verify could not see it
        package = set()  # (module, name) of every import from xxring
        for node in ast.walk(ast.parse(open(xxring.oracle.__file__).read())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("xxring")):
                package |= {((node.module or "").rpartition(".")[2], alias.name)
                            for alias in node.names}
            elif isinstance(node, ast.Import):
                package |= {("", alias.name) for alias in node.names
                            if alias.name.startswith("xxring")}
        assert package == {("concurrence", "ring_distance"), ("hamiltonian", "Coupling"),
                           ("hamiltonian", "FieldSetting"), ("spectra", "DEGENERACY_RTOL"),
                           ("spectra", "ground_manifold")}

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

    def test_peak_below_one_dense_block(self):
        # no popcount block is built or solved whole: the n = 12 solve peaks
        # below the bytes of its largest block as one dense float64 array
        bound = comb(12, 6) ** 2 * np.dtype(float).itemsize
        _unit_spectrum.cache_clear()
        tracemalloc.start()
        try:
            full_diagonalize(12, ANTIFERRO)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak / 2 ** 20:.2f} MiB, bound {bound / 2 ** 20:.2f} MiB"

    @pytest.mark.parametrize("n", range(2, 13))
    def test_first_group_is_the_scanned_first_group(self, n):
        for j in (-1.0, 1.0):
            for b in (0.0, 0.3):
                values, _, _ = _full_spectrum(n, Coupling(j), FieldSetting(b))
                first = anchored_groups(values, DEGENERACY_RTOL)[0]
                assert next(_degenerate_groups(values, DEGENERACY_RTOL)) == first, (j, b)
                report = full_diagonalize(n, Coupling(j), FieldSetting(b))
                assert (0, report.ground_degeneracy) == first, (j, b)

    @pytest.mark.parametrize("tol", [-1, -1e-12, float("nan"), float("inf")])
    def test_refuses_a_tolerance_that_groups_nothing_or_everything(self, monkeypatch, tol):
        # a negative window gave an empty ground group (degeneracy 0), an
        # infinite one took all 16 states into it, and nan did both; the
        # oracle refuses before its own pair reduction and before the pipeline
        message = re.escape(f"tol must be finite and nonnegative, got {tol}")
        calls = []
        monkeypatch.setattr(xxring.oracle, "ground_manifold",
                            lambda *args, **kwargs: calls.append(args))
        for check in (full_diagonalize, eigenvector_concurrence_scan, compare_with_pipeline):
            with pytest.raises(ValueError, match=message):
                check(4, FERRO, tol=tol)
        assert calls == []

    @pytest.mark.parametrize("tol", [-1, float("nan"), float("inf")])
    def test_refuses_a_tolerance_before_any_decomposition(self, monkeypatch, tol):
        # the refusal came after a full decomposition (about 2 s at n = 14, cold)
        def decompose(n):
            raise AssertionError(f"decomposed n={n} before checking tol")

        monkeypatch.setattr(xxring.oracle, "_unit_spectrum", decompose)
        message = re.escape(f"tol must be finite and nonnegative, got {tol}")
        for check in (full_diagonalize, eigenvector_concurrence_scan, compare_with_pipeline):
            with pytest.raises(ValueError, match=message):
                check(10, FERRO, tol=tol)  # the level scan's cap

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
    """(solver, dimension, calling module) of every np.linalg.eigh, eigvalsh and svd call."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        def counted(a, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls.append((_name, len(a), sys._getframe(1).f_globals["__name__"]))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def block_solves(calls):
    """(solver, dimension) of the oracle's calls that solve a piece of a popcount block.

    Each oracle concurrence also solves the 4 x 4 middle factors of its
    pairs, one stack per call, with ``svd``; pieces are symmetric and solved
    with ``eigh`` or ``eigvalsh``.
    """
    return [(solver, dim) for solver, dim, module in calls
            if module == "xxring.oracle" and solver != "svd"]


def pair_solves(calls):
    """Number of the oracle's own concurrence solves (one stack each) among the calls."""
    return sum(solver == "svd" and module == "xxring.oracle" for solver, _, module in calls)


def mirror_site(bits, n):
    """The oracle's reflection, site i -> n - 1 - i, as a rotation of the reference one."""
    return rotate(reflect(bits, n), n - 1, n)


def piece_dimensions(n, k):
    """Dimension of each non-empty piece of block k, in character-table order.

    A character chi of the group appears (1/|G|) sum_g chi(g) |Fix(g)| times
    in its permutation action on the k-up configurations: the reflection R
    on every block, and R with spin inversion C on the half-filled block of
    an even ring.  Fixed points are counted one configuration at a time.
    """
    flip = (1 << n) - 1
    elements = [lambda c: c, lambda c: mirror_site(c, n)]
    characters = [(1, 1), (1, -1)]
    if 2 * k == n:
        elements += [lambda c: flip ^ c, lambda c: mirror_site(flip ^ c, n)]
        characters = [(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)]
    configs = [c for c in range(1 << n) if c.bit_count() == k]
    fixed = [sum(g(c) == c for c in configs) for g in elements]
    dims = [sum(x * f for x, f in zip(chi, fixed)) // len(elements) for chi in characters]
    return [d for d in dims if d]


def all_columns(n, k):
    """Every eigenvector of block k <= n/2, read through the column accessor."""
    return _unit_columns(n, k, np.arange(comb(n, k)))


class TestUnitSpectrum:
    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_each_block_solved_once_for_both_signs(self, solves, n):
        _unit_spectrum.cache_clear()
        full_diagonalize(n, FERRO)
        full_diagonalize(n, ANTIFERRO)
        # one solve per non-empty piece: two for each block 0 < k < n/2, four
        # for block n/2 of an even ring, and one for k = 0, whose single
        # configuration is its own mirror image.  The levels of blocks
        # k < n // 2 upward, then block n // 2 with its eigenvectors.  Blocks
        # k > n/2 are complements, not solved, and both ground levels lie in
        # block n // 2 or its complement, so no other eigenvectors are read
        expected = [("eigvalsh", dim) for k in range(n // 2) for dim in piece_dimensions(n, k)]
        expected += [("eigh", dim) for dim in piece_dimensions(n, n // 2)]
        assert block_solves(solves) == expected
        counts = [1] + [2] * (n // 2 - 1) + [4 if n % 2 == 0 else 2]
        assert [len(piece_dimensions(n, k)) for k in range(n // 2 + 1)] == counts
        assert [sum(piece_dimensions(n, k)) for k in range(n // 2 + 1)] == [
            comb(n, k) for k in range(n // 2 + 1)]
        assert pair_solves(solves) == 2  # one concurrence solve per call

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_block_is_decomposed(self, n):
        blocks, _ = _unit_spectrum(n)
        assert len(blocks) == n // 2 + 1  # one record per block k <= n/2
        for k in range(n + 1):
            configs, block = popcount_block(n, k, ANTIFERRO)
            canonical, w = blocks[min(k, n - k)][:2]
            label = f"n={n} k={k}"
            if 2 * k <= n:
                assert np.array_equal(canonical, configs), label
                placed = canonical
            else:  # block n - k's levels, its columns at the complemented configurations
                placed = (1 << n) - 1 - canonical
                assert np.array_equal(np.sort(placed), configs), label
            full = _columns(n, np.full(len(w), k), np.arange(len(w)))
            assert np.array_equal(full[placed], all_columns(n, min(k, n - k))), label
            assert not np.delete(full, placed, axis=0).any(), label
            v = full[configs]
            assert np.abs(np.sort(w) - np.linalg.eigvalsh(block)).max() <= 1e-12, label
            assert np.abs(block @ v - v * w).max() <= 1e-12, label
            assert np.abs(v.T @ v - np.eye(len(w))).max() <= 1e-12, label
            # each column lies in one reflection piece: exactly even or odd
            r = np.searchsorted(configs, [mirror_site(c, n) for c in configs.tolist()])
            even = [np.array_equal(v[r, c], v[:, c]) for c in range(len(w))]
            odd = [np.array_equal(v[r, c], -v[:, c]) for c in range(len(w))]
            assert all(e != o for e, o in zip(even, odd)), label
            assert 2 * sum(even) == len(w) + np.count_nonzero(r == np.arange(len(w))), label

    @pytest.mark.parametrize("n", range(1, 11))
    def test_pieces_are_the_block_in_a_symmetric_basis(self, n):
        # each piece's basis vectors u(i) e_a(i) are orthonormal and the block
        # maps their span into itself; together the pieces span the block
        blocks, _ = _unit_spectrum(n)
        for k, (_, _, pieces, _, _) in enumerate(blocks):
            configs, rows, columns = _hops(n, k)
            _, block = popcount_block(n, k, ANTIFERRO)
            bases = []
            for a, u in pieces:
                basis = np.zeros((len(configs), a.max() + 1))
                basis[np.arange(len(configs)), a] = u
                piece = _piece_matrix(a, u, rows, columns)
                label = f"n={n} k={k} dim={len(piece)}"
                assert np.abs(basis.T @ basis - np.eye(len(piece))).max() <= 1e-12, label
                assert np.abs(block @ basis - basis @ piece).max() <= 1e-12, label
                bases.append(basis)
            span = np.hstack(bases)
            assert span.shape == block.shape
            assert np.abs(span.T @ span - np.eye(len(span))).max() <= 1e-12

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_half_filled_block_from_its_four_pieces(self, n):
        _, w, _, piece, _ = _unit_spectrum(n)[0][n // 2]
        v = all_columns(n, n // 2)
        # the dense block, which test_popcount_block_is_the_literal_block
        # pins to the literal matrix
        _, block = popcount_block(n, n // 2, ANTIFERRO)
        assert np.abs(block @ v - v * w).max() <= 1e-12
        assert np.abs(v.T @ v - np.eye(len(w))).max() <= 1e-12
        # the pieces' levels one piece after another, each piece's ascending
        assert np.all(np.diff(piece) >= 0)
        assert all(np.all(np.diff(w[piece == p]) >= 0) for p in range(4))
        assert np.abs(np.sort(w) - np.linalg.eigvalsh(block)).max() <= 1e-12
        # spin inversion reverses the rows: each column is exactly even or odd
        # under it, half of them of each sign
        even = [np.array_equal(v[::-1, c], v[:, c]) for c in range(len(w))]
        odd = [np.array_equal(v[::-1, c], -v[:, c]) for c in range(len(w))]
        assert all(e != o for e, o in zip(even, odd))
        assert sum(even) == sum(odd) == len(w) // 2

    def test_rings_with_one_bond_or_none(self):
        # n = 1 has no bond, so no hop; n = 2 lists its one bond twice
        for k in (0, 1):
            configs, rows, columns = _hops(1, k)
            assert configs.tolist() == [k] and rows.size == columns.size == 0
        # block 1 is block 0's complement: its one level, at configuration 1
        blocks, _ = _unit_spectrum(1)
        assert len(blocks) == 1 and blocks[0][1].tolist() == [0.0]
        assert _columns(1, np.array([0, 1]), np.array([0, 0])).tolist() == [[1.0, 0.0],
                                                                             [0.0, 1.0]]
        configs, rows, columns = _hops(2, 1)
        assert configs.tolist() == [1, 2]
        assert sorted(zip(rows.tolist(), columns.tolist())) == [(0, 1)] * 2 + [(1, 0)] * 2
        blocks, _ = _unit_spectrum(2)
        np.testing.assert_allclose(np.sort(blocks[1][1]), [-2.0, 2.0], rtol=0, atol=1e-12)
        assert [len(pieces) for _, _, pieces, _, _ in blocks] == [1, 2]

    @pytest.mark.parametrize("coupling", [FERRO, ANTIFERRO], ids=["-1.0", "1.0"])
    def test_level_scan_solves_each_block_once(self, solves, coupling):
        _unit_spectrum.cache_clear()
        full_diagonalize(8, coupling)
        solves.clear()
        eigenvector_concurrence_scan(8, coupling)
        # every level is read: the pieces of blocks k < 4, on first read
        assert sorted(block_solves(solves)) == sorted(
            ("eigh", dim) for k in range(4) for dim in piece_dimensions(8, k))
        solves.clear()
        scan = eigenvector_concurrence_scan(8, coupling)
        assert block_solves(solves) == []
        assert pair_solves(solves) == len(solves) == len(scan.rows)  # concurrences only

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
        assert sorted(block_solves(solves)) == sorted(
            ("eigh", dim) for k in read for dim in piece_dimensions(n, k))
        solves.clear()
        full_diagonalize(n, coupling, FieldSetting(b))
        assert block_solves(solves) == []
        assert compare_with_pipeline(n, coupling, FieldSetting(b)).ok

    def test_arrays_are_read_only(self):
        blocks, vectors = _unit_spectrum(5)
        columns = [all_columns(5, k) for k in range(3)]  # solves every block
        arrays = []
        for configs, w, pieces, piece, local in blocks:
            arrays += [configs, w, piece, local] + [array for pair in pieces for array in pair]
        arrays += [x for pieces in vectors.values() for x in pieces]
        assert sorted(vectors) == [0, 1, 2] and len(columns) == len(blocks) == 3
        for array in arrays:
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
        column[basis.bits, 0] = amplitudes
        state = SectorState(basis=basis, amplitudes=amplitudes)
        for p in range(n):
            for q in range(p + 1, n):
                amplitudes = _pair_amplitudes(column, n, (p, q))
                np.testing.assert_allclose(
                    amplitudes @ amplitudes.conj().T,
                    pair_density([(1.0, state)], (p, q)).matrix, rtol=0, atol=1e-12,
                    err_msg=f"pair {(p, q)}")

    def test_own_concurrence_matches_the_pipeline_solver(self):
        # the ring's pair densities are all X-shaped; the two Wootters routes
        # must also agree on general complex densities, entangled or not, and
        # of any rank: a rank-deficient one has zero l, which the square root
        # of an eigenvalue of rho rho~ resolved only to about sqrt(eps)
        for rank in (1, 2, 3, 4, 6):
            rng = np.random.default_rng(2245 + rank)
            factors = rng.normal(size=(60, 4, rank)) + 1j * rng.normal(size=(60, 4, rank))
            factors /= np.linalg.norm(factors, axis=(1, 2))[:, None, None]
            values = _concurrence(factors)
            for a, value in zip(factors, values):
                rho = a @ a.conj().T
                assert abs(value - concurrence_wootters(PairDensity(rho, (0, 1)))) <= 1e-12
                assert value == _concurrence(a)  # a stack solves each density alone
            # both branches of max(0, ...): these densities of rank 3 and up
            # include separable ones, those of rank 1 and 2 are all entangled
            assert max(values) > 0.0 and (min(values) == 0.0) == (rank >= 3), rank


class TestDegenerateGroups:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_the_level_by_level_loop(self, n):
        for j in (-1.0, 1.0):
            for b in (0.0, 0.3):
                values, _, _ = _full_spectrum(n, Coupling(j), FieldSetting(b))
                for tol in (0.0, 1e-9, 1e-3):
                    assert (list(_degenerate_groups(values, tol))
                            == anchored_groups(values, tol)), (j, b, tol)

    @pytest.mark.parametrize("values, tol, expected", [
        ([0.0, 0.0, 1.0, 1.0, 1.0, 2.0], 0.0, [(0, 2), (2, 5), (5, 6)]),  # exact ties
        ([0.0, 0.0, 1.0, 1.0, 1.0, 2.0], 1e-9, [(0, 2), (2, 5), (5, 6)]),
        ([-3.5], 0.0, [(0, 1)]),  # one level
        ([-3.5], 1e-3, [(0, 1)]),
        ([1.5] * 5, 0.0, [(0, 5)]),  # all levels equal: a zero range
        ([1.5] * 5, 1e-3, [(0, 5)]),
        # anchored at each group's first level, not chained across small gaps
        ([0.0, 6e-4, 1.2e-3, 1.8e-3, 1.0], 1e-3, [(0, 2), (2, 4), (4, 5)]),
        ([0.0, 1.0 - 1e-12, 1.0], 1e-9, [(0, 1), (1, 3)]),
    ])
    def test_hand_made_levels(self, values, tol, expected):
        values = np.array(values)
        assert list(_degenerate_groups(values, tol)) == expected
        assert anchored_groups(values, tol) == expected


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
