"""Pair reductions, Wootters concurrence, and ground-mixture values."""

import re
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from xxring import cli, concurrence, spectra
from xxring.basis import enumerate_sector
from xxring.concurrence import (PairDensity, _add_reductions, _wootters, concurrence_wootters,
                                pair_density, ring_distance, state_concurrence)
from xxring.hamiltonian import Coupling, FieldSetting
from xxring.spectra import GROUND_CACHE_SIZE, SectorState, ground_concurrence, ground_manifold

from reference import concurrence_xstate, reduce_pure_by_unique

FERRO = Coupling(-1.0)
ANTIFERRO = Coupling(1.0)


def w_state(n):
    return SectorState(basis=enumerate_sector(n, 1),
                       amplitudes=np.full(n, 1 / np.sqrt(n)))


def flipped_w_state(n):
    return SectorState(basis=enumerate_sector(n, n - 1),
                       amplitudes=np.full(n, 1 / np.sqrt(n)))


def mixture_density(manifold, pair):
    """Pair density of the equal-weight mixture over a ground manifold."""
    return pair_density([(1 / manifold.degeneracy, s) for s in manifold.states], pair)


def reference_concurrence(manifold, pair):
    """X-form closed form of the equal-weight sum of ``np.unique``-grouped reductions."""
    rho = sum(reduce_pure_by_unique(s.amplitudes, s.basis.bits, *pair)
              for s in manifold.states) / manifold.degeneracy
    return concurrence_xstate(PairDensity(rho, pair))


def x_density(u_plus, w1, w2, u_minus, z):
    m = np.diag([u_plus, w1, w2, u_minus]).astype(complex)
    m[1, 2], m[2, 1] = z, np.conj(z)
    return PairDensity(matrix=m, pair=(0, 1))


class TestPairDensity:
    def test_w3_reduction(self):
        rho = pair_density([(1.0, w_state(3))], (0, 1))
        expected = np.diag([0, 1 / 3, 1 / 3, 1 / 3]).astype(complex)
        expected[1, 2] = expected[2, 1] = 1 / 3
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_mixture_of_w3_and_flipped_w3(self):
        rho = pair_density([(0.5, w_state(3)), (0.5, flipped_w_state(3))], (0, 1))
        diag = rho.matrix.diagonal()
        np.testing.assert_allclose([diag[0], diag[3]], [1 / 6, 1 / 6], atol=1e-12)
        np.testing.assert_allclose(rho.matrix[1, 2], 1 / 3, atol=1e-12)

    def test_product_state_all_up(self):
        state = SectorState(basis=enumerate_sector(4, 4), amplitudes=np.ones(1))
        rho = pair_density([(1.0, state)], (1, 3))
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0, 0, 0]), atol=0)

    def test_invariants_on_random_mixtures(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(3, 8)
            states = []
            weights = rng.random(2)
            weights /= weights.sum()
            for w in weights:
                k = int(rng.integers(1, n))
                basis = enumerate_sector(n, k)
                amp = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
                states.append((w, SectorState(basis=basis, amplitudes=amp / np.linalg.norm(amp))))
            q = int(rng.integers(1, n))
            rho = pair_density(states, (0, q))
            np.testing.assert_allclose(np.trace(rho.matrix), 1.0, atol=1e-12)
            np.testing.assert_allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10

    def test_weight_and_norm_validation(self):
        with pytest.raises(ValueError):
            pair_density([(0.7, w_state(3))], (0, 1))
        with pytest.raises(ValueError):
            pair_density([(1.5, w_state(3)), (-0.5, flipped_w_state(3))], (0, 1))
        bad = SectorState(basis=enumerate_sector(3, 1), amplitudes=np.ones(3))
        with pytest.raises(ValueError):
            pair_density([(1.0, bad)], (0, 1))
        with pytest.raises(ValueError):
            pair_density([(1.0, w_state(3))], (1, 1))
        with pytest.raises(ValueError):
            pair_density([], (0, 1))
        # NaN fails every `x > tol` test, so non-finite inputs are refused first
        for weights in ([np.nan], [np.inf], [0.5, np.nan]):
            mixture = list(zip(weights, [w_state(3), flipped_w_state(3)]))
            with pytest.raises(ValueError, match="mixture weights must be finite"):
                pair_density(mixture, (0, 1))
        for value in (np.nan, np.inf):
            amplitudes = np.full(3, 1 / np.sqrt(3))
            amplitudes[1] = value
            bad = SectorState(basis=enumerate_sector(3, 1), amplitudes=amplitudes)
            with pytest.raises(ValueError, match="state amplitudes must be finite"):
                pair_density([(1.0, bad)], (0, 1))

    @pytest.mark.parametrize("pair", [(0, 1.0), (0.0, 1), (np.int64(0), np.float64(2))])
    def test_refuses_a_pair_of_non_int_sites_before_reducing(self, monkeypatch, pair):
        def refuse(*args, **kwargs):
            raise AssertionError("a bad pair must be refused before any reduction")

        monkeypatch.setattr(concurrence, "_add_reductions", refuse)
        with pytest.raises(ValueError, match=re.escape(f"pair {pair} is not ordered within 0..2")):
            pair_density([(1.0, w_state(3))], pair)

    def test_takes_numpy_integer_sites(self):
        pair = (np.int64(0), np.int32(2))
        np.testing.assert_array_equal(pair_density([(1.0, w_state(3))], pair).matrix,
                                      pair_density([(1.0, w_state(3))], (0, 2)).matrix)

    @pytest.mark.parametrize("shape", [(4,), (2,), (3, 1)], ids=["dim+1", "dim-1", "column"])
    def test_refuses_amplitudes_not_shaped_by_the_basis(self, shape):
        amplitudes = np.full(shape, 1 / np.sqrt(np.prod(shape)))  # unit norm
        bad = SectorState(basis=enumerate_sector(3, 1), amplitudes=amplitudes)
        message = f"state amplitudes have shape {shape}, not (3,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            pair_density([(1.0, bad)], (0, 1))

    def test_matrix_invariants_enforced(self):
        with pytest.raises(ValueError):
            PairDensity(matrix=np.diag([0.5, 0.2, 0.2, 0.2]).astype(complex), pair=(0, 1))
        skew = np.diag([0.25] * 4).astype(complex)
        skew[0, 1] = 0.1
        with pytest.raises(ValueError):
            PairDensity(matrix=skew, pair=(0, 1))
        hermitian_not_psd = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            PairDensity(matrix=hermitian_not_psd, pair=(0, 1))
        one_nan = np.diag([np.nan, 0.5, 0.5, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="non-finite"):
            PairDensity(matrix=one_nan, pair=(0, 1))


def reference_reduction(state, p, q):
    """Partial trace onto (p, q) as a per-group sum of outer products."""
    groups = {}
    for c, amp in zip(state.basis.bits.tolist(), state.amplitudes):
        rest = c & ~((1 << p) | (1 << q))
        vec = groups.setdefault(rest, np.zeros(4, dtype=complex))
        vec[(1 - ((c >> p) & 1)) * 2 + (1 - ((c >> q) & 1))] += amp
    rho = np.zeros((4, 4), dtype=complex)
    for vec in groups.values():
        rho += np.outer(vec, vec.conj())
    return rho


def random_state(rng, n, k):
    basis = enumerate_sector(n, k)
    amp = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return SectorState(basis=basis, amplitudes=amp / np.linalg.norm(amp))


class TestPairReductionReference:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_pair_of_every_sector(self, n):
        rng = np.random.default_rng(100 + n)
        for k in range(n + 1):  # k = 0 and k = n have dimension 1
            state = random_state(rng, n, k)
            for p in range(n):
                for q in range(p + 1, n):
                    np.testing.assert_allclose(pair_density([(1.0, state)], (p, q)).matrix,
                                               reference_reduction(state, p, q),
                                               rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_groups_numbered_as_np_unique_numbers_them(self, n):
        """The reduction whose groups ``np.unique`` numbers, within 1e-14."""
        rng = np.random.default_rng(200 + n)
        for k in range(n + 1):
            state = random_state(rng, n, k)
            for p in range(n):
                for q in range(p + 1, n):
                    np.testing.assert_allclose(
                        pair_density([(1.0, state)], (p, q)).matrix,
                        reduce_pure_by_unique(state.amplitudes, state.basis.bits, p, q),
                        rtol=0, atol=1e-14)

    def test_reduction_sorts_nothing(self, monkeypatch):
        states = [random_state(np.random.default_rng(3), 9, k) for k in (4, 5)]

        def refuse(*args, **kwargs):
            raise AssertionError("a pair reduction must not sort configurations")

        monkeypatch.setattr(np, "unique", refuse)
        for p, q in [(0, 1), (0, 8), (3, 5), (7, 8)]:
            assert pair_density([(0.5, states[0]), (0.5, states[1])], (p, q))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_a_stacked_call_adds_what_its_states_add_one_by_one(self, n):
        rng = np.random.default_rng(300 + n)
        qs = np.arange(1, n)  # p = 0 and every q
        for k in range(n + 1):
            states = [random_state(rng, n, k) for _ in range(4)]
            start = np.tile(np.eye(4, dtype=complex), (len(qs), 1, 1))
            stacked, one_by_one = start.copy(), start.copy()
            _add_reductions(stacked, states[0].basis.bits,
                            np.stack([s.amplitudes for s in states], axis=1), 0, qs)
            for state in states:
                _add_reductions(one_by_one, state.basis.bits, state.amplitudes[:, None], 0, qs)
            np.testing.assert_allclose(stacked, one_by_one, rtol=0, atol=1e-15)

    def test_mixture_across_two_sectors(self):
        rng = np.random.default_rng(7)
        first, second = random_state(rng, 7, 3), random_state(rng, 7, 5)
        for p, q in [(0, 1), (0, 3), (2, 6), (5, 6)]:
            expected = (0.3 * reference_reduction(first, p, q)
                        + 0.7 * reference_reduction(second, p, q))
            np.testing.assert_allclose(
                pair_density([(0.3, first), (0.7, second)], (p, q)).matrix,
                expected, rtol=0, atol=1e-14)

    # X states on the border |z| = sqrt(u+ u-), so C = 0 exactly
    @pytest.mark.parametrize("n, distance, coherence", [(4, 2, 1 / 4), (6, 3, 2 / 9)])
    @pytest.mark.parametrize("coupling", [FERRO, ANTIFERRO], ids=["ferro", "antiferro"])
    def test_border_x_states_have_zero_concurrence(self, n, distance, coherence, coupling):
        rho = mixture_density(ground_manifold(n, coupling), (0, distance))
        u_plus, u_minus = rho.matrix.diagonal().real[[0, 3]]
        np.testing.assert_allclose([abs(rho.matrix[1, 2]), np.sqrt(u_plus * u_minus)],
                                   [coherence, coherence], rtol=0, atol=1e-14)
        assert concurrence_wootters(rho) < 1e-15


class TestWoottersConcurrence:
    def test_bell_state(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = 0.5
        value = concurrence_wootters(PairDensity(matrix=m, pair=(0, 1)))
        np.testing.assert_allclose(value, 1.0, atol=1e-12)

    def test_one_eigh_per_ground_solve_none_in_constructor(self, monkeypatch):
        calls = []  # (solver, calling function, matrix shape)

        def counted(name):
            solve = getattr(np.linalg, name)

            def wrapper(a, *args, **kwargs):
                calls.append((name, sys._getframe(1).f_code.co_name, np.shape(a)))
                return solve(a, *args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        built = []
        construct = PairDensity.__new__

        def new(cls, matrix, pair):
            built.append(pair)
            before = len(calls)
            rho = construct(cls, matrix, pair)
            assert len(calls) == before, calls[before:]  # no eigendecomposition here
            return rho

        monkeypatch.setattr(PairDensity, "__new__", new)
        spectra._ground_manifold.cache_clear()  # a fresh solve, so a fresh profile
        for distance in ("1", "2", "3"):
            assert cli.run(["concurrence", "--n", "7", "--j", "1", "--distance", distance]) == 0
        assert built == []
        assert [call for call in calls if call[1] == "_wootters"] == \
            [("eigh", "_wootters", (3, 4, 4))]
        before = len(calls)
        for distance in ("1", "2", "3"):  # the same ground solve, so the same profile
            assert cli.run(["sweep", "--n", "7", "--regime", "antiferro",
                            "--distance", distance]) == 0
        assert calls[before:] == []
        rho = mixture_density(ground_manifold(7, ANTIFERRO), (0, 1))
        assert built == [(0, 1)]
        concurrence_wootters(rho)
        assert calls[before:] == [("eigh", "_wootters", (4, 4))]

    def test_product_state(self):
        rho = PairDensity(matrix=np.diag([1.0, 0, 0, 0]).astype(complex), pair=(0, 1))
        assert concurrence_wootters(rho) == 0.0

    def test_w3_pair(self):
        np.testing.assert_allclose(state_concurrence(w_state(3), (0, 1)), 2 / 3,
                                   atol=1e-12)

    def test_only_values_within_the_density_tolerance_read_zero(self):
        # C = 2 * (|z| - sqrt(u+ u-)): 2e-9 is resolved, 5e-13 is below DENSITY_TOL
        resolved = concurrence_wootters(x_density(0.1, 0.4, 0.4, 0.1, 0.1 + 1e-9))
        assert resolved == pytest.approx(2e-9, rel=1e-5)
        below = x_density(0.1, 0.4, 0.4, 0.1, 0.1 + 2.5e-13)
        assert concurrence_wootters(below) == 0.0


class TestXStateFastPath:
    def test_matches_three_site_mixtures(self):
        np.testing.assert_allclose(
            concurrence_xstate(x_density(1 / 6, 1 / 3, 1 / 3, 1 / 6, 1 / 3)),
            1 / 3, atol=1e-12)
        np.testing.assert_allclose(
            concurrence_xstate(x_density(1 / 6, 1 / 3, 1 / 3, 1 / 6, -1 / 6)),
            0.0, atol=1e-12)

    def test_zero_coherence(self):
        assert concurrence_xstate(x_density(0.25, 0.25, 0.25, 0.25, 0.0)) == 0.0

    def test_rejects_non_x_input(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = m[0, 3] = m[3, 0] = 0.5  # coherence on the wrong corner
        with pytest.raises(ValueError):
            concurrence_xstate(PairDensity(matrix=m, pair=(0, 1)))

    def test_agrees_with_wootters_on_random_fixed_k_states(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, n))
            basis = enumerate_sector(n, k)
            amp = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
            state = SectorState(basis=basis, amplitudes=amp / np.linalg.norm(amp))
            q = int(rng.integers(1, n))
            rho = pair_density([(1.0, state)], (0, q))
            assert abs(concurrence_xstate(rho)
                       - concurrence_wootters(rho)) <= 1e-10


class TestStateConcurrence:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_w_state_pairs(self, n):
        state = w_state(n)
        for q in range(1, n):
            np.testing.assert_allclose(state_concurrence(state, (0, q)), 2 / n,
                                       atol=1e-12)

    def test_field_selected_three_site_ground(self):
        manifold = ground_manifold(3, FERRO, FieldSetting(b=0.1))
        assert manifold.degeneracy == 1
        np.testing.assert_allclose(state_concurrence(manifold.states[0], (0, 1)),
                                   2 / 3, atol=1e-10)

    def test_single_configuration_is_unentangled(self):
        basis = enumerate_sector(5, 2)
        amplitudes = np.zeros(basis.dim)
        amplitudes[3] = 1.0
        state = SectorState(basis=basis, amplitudes=amplitudes)
        assert state_concurrence(state, (0, 1)) == 0.0


class TestGroundConcurrence:
    # nearest-pair values, pinned against the full 2^n oracle (test_oracle
    # re-derives them independently)
    TABLE = {
        (2, -1.0): 1.0,
        (2, 1.0): 1.0,
        (3, -1.0): 1 / 3,
        (3, 1.0): 0.0,
        (4, -1.0): 0.457106781187,
        (4, 1.0): 0.457106781187,
        (5, -1.0): 0.336656314600,
        (5, 1.0): 0.213049516850,
        (6, -1.0): 0.388888888889,
        (6, 1.0): 0.388888888889,
        (7, -1.0): 0.337868349614,
        (7, 1.0): 0.274290939912,
        (8, -1.0): 0.366669830087,
        (8, 1.0): 0.366669830087,
    }

    @pytest.mark.parametrize("case", sorted(TABLE))
    def test_nearest_pair_table(self, case):
        n, j = case
        np.testing.assert_allclose(ground_concurrence(n, Coupling(j)),
                                   self.TABLE[case], atol=1e-10)

    def test_field_lifting_restores_single_state_value(self):
        np.testing.assert_allclose(
            ground_concurrence(3, FERRO, FieldSetting(b=0.1)), 2 / 3, atol=1e-10)

    def test_translation_invariance_of_pairs(self):
        for n, coupling in [(5, FERRO), (6, ANTIFERRO), (7, ANTIFERRO)]:
            manifold = ground_manifold(n, coupling)
            for distance in range(1, n // 2 + 1):
                values = []
                for shift in range(n):
                    p, q = sorted(((0 + shift) % n, (distance + shift) % n))
                    rho = mixture_density(manifold, (p, q))
                    values.append(concurrence_wootters(rho))
                assert max(values) - min(values) <= 1e-10

    def test_invariant_under_coupling_scale(self):
        for j in (-2.5, -1.0):
            np.testing.assert_allclose(ground_concurrence(5, Coupling(j)),
                                       0.336656314600, atol=1e-10)

    def test_nearest_dominates_next_nearest_on_four_sites(self):
        nearest = ground_concurrence(4, FERRO, pair=(0, 1))
        next_nearest = ground_concurrence(4, FERRO, pair=(0, 2))
        assert 0.0 <= next_nearest < nearest <= 1.0

    def test_two_site_minimum(self):
        with pytest.raises(ValueError):
            ground_concurrence(1, FERRO)


class TestConcurrenceProfile:
    """``ground_concurrence`` reads the manifold's own profile.  ``pair_density``
    shares its reduction kernel and its Wootters route, so the reference is
    independent of both: the X-form closed form of the equal-weight sum of
    ``reduce_pure_by_unique``, whose groups ``np.unique`` numbers."""

    @pytest.mark.parametrize("n", range(2, 14))
    def test_every_pair_equals_the_per_pair_reduction(self, n):
        for coupling in (FERRO, ANTIFERRO, Coupling(0.5)):
            for field in (FieldSetting(), FieldSetting(b=0.3)):
                manifold = ground_manifold(n, coupling, field)
                for p in range(n):
                    for q in range(p + 1, n):
                        reference = reference_concurrence(manifold, (p, q))
                        assert abs(ground_concurrence(n, coupling, field, (p, q))
                                   - reference) <= 1e-12, (p, q)

    @pytest.mark.parametrize("n", range(2, 14))
    def test_distance_d_and_n_minus_d_agree(self, n):
        for coupling in (FERRO, ANTIFERRO):
            manifold = ground_manifold(n, coupling)
            for d in range(1, n):
                reference = reference_concurrence(manifold, (0, n - d))
                assert abs(ground_concurrence(n, coupling, pair=(0, d)) - reference) <= 1e-12

    @pytest.mark.parametrize("n", range(6, 10))
    @pytest.mark.parametrize("coupling", [FERRO, ANTIFERRO], ids=["ferro", "antiferro"])
    def test_wide_windows_equal_the_per_pair_reduction(self, n, coupling):
        """n = 7..9 hold 12-34 states, up to 9 in one sector, so a sector's stack has many
        rows; n = 6 holds 3, one per sector."""
        manifold = ground_manifold(n, coupling, tol=0.2)
        per_sector = Counter(state.k for state in manifold.states)
        assert max(per_sector.values()) > 1 or n == 6
        assert manifold.concurrence[0] > 0
        for p in range(n):
            for q in range(p + 1, n):
                reference = reference_concurrence(manifold, (p, q))
                assert abs(ground_concurrence(n, coupling, pair=(p, q), tol=0.2)
                           - reference) <= 1e-12, (p, q)

    def test_reduces_once_per_sector(self, monkeypatch):
        widths = []

        def counted(matrices, bits, amplitudes, p, qs):
            widths.append(amplitudes.shape[1])
            _add_reductions(matrices, bits, amplitudes, p, qs)

        monkeypatch.setattr(concurrence, "_add_reductions", counted)
        spectra._ground_manifold.cache_clear()
        try:
            manifold = ground_manifold(12, FERRO, tol=1.0)  # every level: 4,096 states
        finally:
            spectra._ground_manifold.cache_clear()
        assert manifold.degeneracy == sum(widths) == 4096
        assert len(widths) == 13  # one call per sector k = 0..12
        # the all-level mixture is I / 2^n, so every pair density is I / 4
        np.testing.assert_array_equal(manifold.concurrence, np.zeros(6))

    def test_profile_is_read_only_and_kept_for_the_manifold_object(self):
        manifold = ground_manifold(6, FERRO)
        profile = manifold.concurrence
        assert profile.shape == (3,) and not profile.flags.writeable
        with pytest.raises(ValueError):
            profile[0] = 0.0
        spectra._ground_manifold.cache_clear()
        fresh = ground_manifold(6, FERRO)
        assert fresh is not manifold
        assert fresh.concurrence is not profile  # a fresh solve carries its own profile
        np.testing.assert_array_equal(fresh.concurrence, profile)

    @pytest.mark.parametrize("coupling", [FERRO, ANTIFERRO], ids=["ferro", "antiferro"])
    def test_one_site_ring_has_an_empty_profile(self, coupling):
        profile = ground_manifold(1, coupling).concurrence
        assert profile.shape == (0,) and not profile.flags.writeable

    def test_an_evicted_solve_is_freed(self):
        spectra._ground_manifold.cache_clear()  # so each call below is a fresh solve
        ground_concurrence(6, FERRO, FieldSetting(b=0.5))
        amplitudes = weakref.ref(ground_manifold(6, FERRO, FieldSetting(b=0.5))
                                 .states[0].amplitudes)
        for i in range(GROUND_CACHE_SIZE):
            ground_manifold(4, FERRO, FieldSetting(b=0.01 * (i + 1)))
        assert amplitudes() is None  # nothing holds a solve the cache let go

    def test_refuses_a_pair_outside_the_ring_before_solving(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a bad pair must be refused before the ground solve")

        monkeypatch.setattr(spectra, "ground_manifold", refuse)
        for pair in [(1, 0), (2, 2), (0, 5), (-1, 3), (0, 1.0), (0.0, 2),
                     (np.int64(1), np.float64(3))]:
            message = f"pair {pair} is not ordered within 0..4"
            with pytest.raises(ValueError, match=re.escape(message)):
                ground_concurrence(5, FERRO, pair=pair)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_ring_distance_of_every_pair(self, n):
        for p in range(n):
            for q in range(n):
                if p < q:
                    assert ring_distance((p, q), n) == min((q - p) % n, (p - q) % n)
                else:
                    with pytest.raises(ValueError,
                                       match=re.escape(f"is not ordered within 0..{n - 1}")):
                        ring_distance((p, q), n)
        with pytest.raises(ValueError, match=re.escape(f"pair (0, {n}) is not ordered")):
            ring_distance((0, n), n)

    def test_takes_numpy_integer_sites(self):
        assert (ground_concurrence(5, FERRO, pair=(np.int64(1), np.int32(3)))
                == ground_concurrence(5, FERRO, pair=(1, 3)))

    def test_stack_solve_equals_one_solve_per_matrix(self):
        rng = np.random.default_rng(11)
        matrices = []
        for _ in range(20):
            n = int(rng.integers(3, 9))
            state = random_state(rng, n, int(rng.integers(1, n)))
            matrices.append(pair_density([(1.0, state)], (0, int(rng.integers(1, n)))).matrix)
        matrices.append(x_density(0.25, 0.25, 0.25, 0.25, 0.0).matrix)  # reads 0
        stack = np.stack(matrices)
        expected = [concurrence_wootters(PairDensity(m, (0, 1))) for m in matrices]
        np.testing.assert_allclose(_wootters(stack), expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(_wootters(stack.reshape(7, 3, 4, 4)).ravel(), expected,
                                   rtol=0, atol=1e-15)
