"""Eigensolver contract, block-vector lifting, and ground manifolds."""

import re

import numpy as np
import pytest

from xxring.basis import enumerate_sector
from xxring.concurrence import concurrence_wootters, pair_density
from xxring.hamiltonian import Coupling, FieldSetting, build_momentum_block, real_block_pieces
import xxring.cli
import xxring.spectra
from xxring.oracle import full_diagonalize
from xxring.spectra import (DEGENERACY_RTOL, eigh, ground_concurrence, ground_manifold,
                            lift_block_vector, ring_levels)

from reference import (apply_hamiltonian, build_sector_hamiltonian, index_of, set_walk_orbits,
                       window_counts_by_cumsum)

FERRO = Coupling(-1.0)
ANTIFERRO = Coupling(1.0)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


class TestEigh:
    def test_diagonal_matrix(self):
        spectrum = eigh(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(spectrum.values, [-1.0, 2.0, 3.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigh(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("count", [-1, 4], ids=["-1", "dim+1"])
    def test_refuses_count_outside_the_dimension(self, count):
        # a negative count would slice columns off the end; one above the
        # dimension would index past it
        with pytest.raises(ValueError, match=rf"count {count} is outside 0\.\.3"):
            eigh(np.diag([3.0, -1.0, 2.0]), count)
        assert [eigh(np.eye(3), c).vectors.shape for c in (0, 3)] == [(3, 0), (3, 3)]

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for dim in (2, 5, 17, 40):
            h = random_hermitian(rng, dim)
            spectrum = eigh(h)
            scale = np.linalg.norm(h)
            for i in range(dim):
                residual = np.linalg.norm(h @ spectrum.vectors[:, i]
                                          - spectrum.values[i] * spectrum.vectors[:, i])
                assert residual <= 1e-10 * scale
            gram = spectrum.vectors.conj().T @ spectrum.vectors
            assert np.abs(gram - np.eye(dim)).max() <= 1e-10

    def test_phase_convention_and_determinism(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 9)
        first, second = eigh(h), eigh(h)
        np.testing.assert_array_equal(first.vectors, second.vectors)
        for col in range(9):
            lead = first.vectors[np.argmax(np.abs(first.vectors[:, col])), col]
            assert abs(lead.imag) <= 1e-12 and lead.real > 0

    def test_six_site_half_filling_minimum(self):
        h = build_sector_hamiltonian(enumerate_sector(6, 3), ANTIFERRO)
        np.testing.assert_allclose(eigh(h).values[0], -4.0, atol=1e-10)

    def test_seven_site_minimum(self):
        # -2*(1 + 2*cos(2*pi/7)); pinned against the 2^7 brute-force path
        h = build_sector_hamiltonian(enumerate_sector(7, 3), FERRO)
        np.testing.assert_allclose(eigh(h).values[0],
                                   -2 * (1 + 2 * np.cos(2 * np.pi / 7)), atol=1e-10)


def loop_lift(block, v):
    """The lift as a literal loop over orbit members, one scalar product each."""
    basis, n = block.basis, block.basis.n
    position = {c: i for i, c in enumerate(basis.bits.tolist())}
    phase = np.exp(-2j * np.pi * block.m * np.arange(n) / n)
    out = np.zeros(basis.dim, dtype=complex)
    for rep, period, amp in zip(basis.reps[block.orbits], basis.period[block.orbits], v):
        w = amp / np.sqrt(period)
        for t in range(period):
            member = ((rep << t) | (rep >> (n - t))) & ((1 << n) - 1)
            out[position[member]] = w * phase[t]
    return out


class TestLiftBlockVector:
    def test_bit_identical_to_the_member_loop(self):
        for n in range(1, 13):
            for k in range(n + 1):
                basis = enumerate_sector(n, k)
                for m in range(n):
                    for coupling in (FERRO, ANTIFERRO):
                        block = build_momentum_block(basis, m, coupling)
                        vectors = eigh(block.matrix).vectors[:, :6]
                        together = lift_block_vector(block, vectors)  # one row per column
                        assert together.shape == (vectors.shape[1], basis.dim)
                        for v, row in zip(vectors.T, together):
                            lifted = lift_block_vector(block, v)
                            expected = loop_lift(block, v)
                            for got in (lifted, row):
                                assert np.array_equal(got.view(np.int64),
                                                      expected.view(np.int64)), (n, k, m)

    def test_four_site_ground_amplitudes(self):
        basis = enumerate_sector(4, 2)
        block = build_momentum_block(basis, 0, FERRO)
        spectrum = eigh(block.matrix)
        lifted = lift_block_vector(block, spectrum.vectors[:, 0])
        np.testing.assert_allclose(np.linalg.norm(lifted), 1.0, atol=1e-12)
        by_config = dict(zip(basis.bits.tolist(), lifted))
        for c in (0b0011, 0b0110, 0b1100, 0b1001):
            np.testing.assert_allclose(by_config[c], 1 / (2 * np.sqrt(2)), atol=1e-12)
        for c in (0b0101, 0b1010):
            np.testing.assert_allclose(by_config[c], 0.5, atol=1e-12)

    def test_single_representative_block_is_momentum_state(self):
        basis = enumerate_sector(3, 1)
        block = build_momentum_block(basis, 1, FERRO)
        assert block.dim == 1
        lifted = lift_block_vector(block, np.array([1.0]))
        expected = np.exp(-2j * np.pi * np.arange(3) / 3) / np.sqrt(3)
        np.testing.assert_allclose(lifted, expected, atol=1e-12)

    def test_orbit_constant_magnitudes(self):
        for n, k, m in [(6, 3, 0), (6, 3, 3), (8, 4, 2), (7, 3, 5)]:
            basis = enumerate_sector(n, k)
            orbits = set_walk_orbits(n, k)
            block = build_momentum_block(basis, m, FERRO)
            spectrum = eigh(block.matrix)
            for col in range(block.dim):
                lifted = lift_block_vector(block, spectrum.vectors[:, col])
                for orbit in orbits:
                    if (m * orbit.period) % n:
                        continue
                    mags = [abs(lifted[index_of(basis, c)]) for c in orbit.members]
                    assert max(mags) - min(mags) <= 1e-10

    def test_six_site_orbit_weights(self):
        basis = enumerate_sector(6, 3)
        orbits = set_walk_orbits(6, 3)
        block = build_momentum_block(basis, 0, FERRO)
        spectrum = eigh(block.matrix)
        lifted = lift_block_vector(block, spectrum.vectors[:, 0])
        probs = sorted(abs(lifted[index_of(basis, o.members[0])]) ** 2 for o in orbits)
        np.testing.assert_allclose(probs, [1 / 72, 1 / 18, 1 / 18, 1 / 8], atol=1e-12)

    def test_dimension_mismatch(self):
        basis = enumerate_sector(4, 2)
        block = build_momentum_block(basis, 0, FERRO)
        with pytest.raises(ValueError):
            lift_block_vector(block, np.ones(3))


class TestGroundManifold:
    def test_four_site_unique_ground(self):
        manifold = ground_manifold(4, FERRO)
        assert manifold.degeneracy == 1
        np.testing.assert_allclose(manifold.energy, -2 * np.sqrt(2), atol=1e-10)
        assert manifold.states[0].k == 2 and manifold.states[0].momentum == 0

    @pytest.mark.filterwarnings("error")  # overflow is refused, not warned about
    @pytest.mark.parametrize("n, j, b, message", [
        (2, -1.0, 1e308, "J=-1, b=1e+308"),  # levels +-1e308, their range inf
        (4, 1e308, 0.0, "J=1e+308, b=0"),  # levels inf
        (4, 1e308, -1e308, "J=1e+308, b=-1e+308"),  # inf - inf: levels nan
    ])
    def test_refuses_energies_that_overflow(self, n, j, b, message):
        with pytest.raises(ValueError, match=f"energies overflow at {re.escape(message)}$"):
            ground_manifold(n, Coupling(j), FieldSetting(b))

    def test_field_just_below_overflow(self):
        # an infinite range once made every level of n = 2 fall in the window;
        # the true ground level is the all-up state, alone in k = 2
        manifold = ground_manifold(2, FERRO, FieldSetting(1e307))
        assert manifold.energy == -1e307
        assert [(s.k, s.momentum) for s in manifold.states] == [(2, 0)]

    def test_three_site_degeneracies(self):
        ferro = ground_manifold(3, FERRO)
        assert ferro.degeneracy == 2 and ferro.energy == pytest.approx(-2.0)
        assert [(s.k, s.momentum) for s in ferro.states] == [(1, 0), (2, 0)]
        anti = ground_manifold(3, ANTIFERRO)
        assert anti.degeneracy == 4 and anti.energy == pytest.approx(-1.0)
        assert [(s.k, s.momentum) for s in anti.states] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    @pytest.mark.parametrize("n", list(range(2, 13, 2)))
    def test_even_rings_nondegenerate(self, n):
        for coupling in (FERRO, ANTIFERRO):
            manifold = ground_manifold(n, coupling)
            assert manifold.degeneracy == 1
            assert [s.k for s in manifold.states] == [n // 2]

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_rings_degenerate(self, n):
        ferro = ground_manifold(n, FERRO)
        assert ferro.degeneracy == 2
        anti = ground_manifold(n, ANTIFERRO)
        assert anti.degeneracy == 4
        for manifold in (ferro, anti):
            assert {s.k for s in manifold.states} == {(n - 1) // 2, (n + 1) // 2}

    def test_block_path_matches_dense_scan(self):
        for n in range(2, 13):
            for coupling in (FERRO, ANTIFERRO):
                dense_minimum = min(
                    np.linalg.eigvalsh(
                        build_sector_hamiltonian(enumerate_sector(n, k), coupling))[0]
                    for k in range(n + 1))
                manifold = ground_manifold(n, coupling)
                np.testing.assert_allclose(manifold.energy, dense_minimum, atol=1e-10)

    def test_states_are_orthonormal_eigenstates(self):
        manifold = ground_manifold(5, ANTIFERRO)
        states = manifold.states
        for i, state in enumerate(states):
            np.testing.assert_allclose(np.linalg.norm(state.amplitudes), 1.0, atol=1e-12)
            image = apply_hamiltonian(state.basis, ANTIFERRO, state.amplitudes)
            rayleigh = np.vdot(state.amplitudes, image).real
            np.testing.assert_allclose(rayleigh, manifold.energy, atol=1e-10)
            for other in states[i + 1:]:
                if other.basis.k == state.basis.k:
                    overlap = abs(np.vdot(state.amplitudes, other.amplitudes))
                    assert overlap <= 1e-10

    @pytest.mark.parametrize("n", range(2, 15))
    def test_window_counts_equal_the_sector_at_a_time_scan(self, n):
        for j in (-1.0, 1.0, 0.5):
            for b in (0.0, 0.3, -0.7):
                for tol in (0.0, 1e-9, 1e-3):
                    coupling, field = Coupling(j), FieldSetting(b)
                    manifold = ground_manifold(n, coupling, field, tol=tol)
                    counts = {}
                    for state in manifold.states:
                        key = state.k, state.momentum
                        counts[key] = counts.get(key, 0) + 1
                    assert counts == window_counts_by_cumsum(n, coupling, field, tol), (j, b, tol)

    def test_field_selects_single_sector(self):
        manifold = ground_manifold(3, FERRO, FieldSetting(b=0.1))
        assert manifold.degeneracy == 1
        assert manifold.states[0].k == 2
        np.testing.assert_allclose(manifold.energy, -2.05, atol=1e-12)

    @pytest.mark.parametrize("n, coupling, degeneracy, solves",
                             [(7, ANTIFERRO, 4, 2), (8, FERRO, 1, 1)])
    def test_eigenvectors_only_for_ground_blocks(self, monkeypatch, n, coupling, degeneracy,
                                                 solves):
        # one solve per spin-flip pair: block (n - k, m) is block (k, m) flipped
        calls = []

        def counted(matrix, *args):
            calls.append(matrix.shape)
            return eigh(matrix, *args)

        monkeypatch.setattr(xxring.spectra, "eigh", counted)
        xxring.spectra._ground_manifold.cache_clear()  # solve under the patch
        manifold = ground_manifold(n, coupling)
        assert manifold.degeneracy == degeneracy
        assert len(calls) == solves

    def test_scan_checks_hermiticity(self, monkeypatch):
        def skewed(basis):
            for pieces in real_block_pieces(basis):
                for piece in pieces:
                    if len(piece) > 1:
                        piece[0, 1] += 1e-6
                yield pieces

        monkeypatch.setattr(xxring.spectra, "real_block_pieces", skewed)
        xxring.spectra._unit_levels.cache_clear()  # solve under the patch
        with pytest.raises(ValueError, match="not Hermitian"):
            ring_levels(6, FERRO, sectors=[3])
        xxring.spectra._ground_manifold.cache_clear()  # solve under the patch
        with pytest.raises(ValueError, match="not Hermitian"):
            ground_manifold(6, FERRO)
        xxring.spectra._unit_levels.cache_clear()  # keep no level solved under the patch


def direct_ground_columns(block, count):
    """Lifts of the lowest ``count`` columns of a direct ``np.linalg.eigh`` of the block.

    Each column's largest entry is made real positive in a copy of the
    whole eigenvector matrix, as ``spectra.eigh`` does.
    """
    _, vectors = np.linalg.eigh(block.matrix)
    fixed = vectors.copy()
    for col in range(count):
        lead = fixed[np.argmax(np.abs(fixed[:, col])), col]
        fixed[:, col] *= np.conj(lead) / abs(lead)
    return [lift_block_vector(block, fixed[:, col]) for col in range(count)]


class TestGroundSolves:
    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("coupling", [FERRO, ANTIFERRO], ids=["ferro", "antiferro"])
    @pytest.mark.parametrize("b", [0.0, 0.3])
    def test_lowest_sector_is_the_direct_complex_solve(self, n, coupling, b):
        # orbit tables read the lowest ground sector, so its states must stay
        # bit for bit the lifted eigh of the complex block at J
        manifold = ground_manifold(n, coupling, FieldSetting(b))
        low = manifold.states[0].k
        by_momentum = {}
        for state in manifold.states:
            if state.k == low:
                by_momentum.setdefault(state.momentum, []).append(state.amplitudes)
        for m, states in by_momentum.items():
            block = build_momentum_block(enumerate_sector(n, low), m, coupling)
            for got, expected in zip(states, direct_ground_columns(block, len(states)),
                                     strict=True):
                assert np.array_equal(got, expected), (n, coupling.j, b, m)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    @pytest.mark.parametrize("coupling", [FERRO, ANTIFERRO], ids=["ferro", "antiferro"])
    def test_spin_flip_images_are_ground_states(self, n, coupling):
        manifold = ground_manifold(n, coupling)
        upper = [s for s in manifold.states if 2 * s.k > n]
        assert len(upper) == manifold.degeneracy // 2
        h = build_sector_hamiltonian(upper[0].basis, coupling)
        for state in upper:
            residual = h @ state.amplitudes - manifold.energy * state.amplitudes
            assert np.linalg.norm(residual) <= 1e-12
            assert not state.amplitudes.flags.writeable
        vectors = np.zeros((1 << n, manifold.degeneracy), dtype=complex)
        for col, state in enumerate(manifold.states):
            vectors[state.basis.bits, col] = state.amplitudes
        np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(manifold.degeneracy),
                                   rtol=0, atol=1e-12)
        mixture = [(1 / manifold.degeneracy, s) for s in manifold.states]
        concurrence = concurrence_wootters(pair_density(mixture, (0, 1)))
        assert abs(concurrence - full_diagonalize(n, coupling).ground_concurrence) <= 1e-12


@pytest.fixture
def solver_calls(monkeypatch):
    """Names of the numpy eigensolvers called while the test runs.

    A call on a stack of matrices (the concurrence profile's) reads "<name> stack".
    """
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append(_name + " stack" * (np.ndim(a) > 2))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestTolerance:
    @pytest.mark.parametrize("tol", [-1.0, -1e-12, np.nan, np.inf])
    def test_refuses_negative_or_non_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            ground_manifold(6, FERRO, tol=tol)

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_zero_keeps_the_odd_ring_degeneracies(self, n):
        assert ground_manifold(n, FERRO, tol=0.0).degeneracy == 2
        assert ground_manifold(n, ANTIFERRO, tol=0.0).degeneracy == 4


class TestGroundCache:
    def test_repeat_returns_same_object_without_solving(self, solver_calls):
        first = ground_manifold(7, ANTIFERRO)
        solver_calls.clear()
        assert ground_manifold(7, ANTIFERRO) is first
        assert solver_calls == []

    def test_call_forms_share_one_entry(self, solver_calls):
        xxring.spectra._ground_manifold.cache_clear()
        first = ground_manifold(5, FERRO)
        solver_calls.clear()
        assert ground_manifold(5, FERRO, FieldSetting()) is first
        assert ground_manifold(5, Coupling(-1.0), field=FieldSetting(b=0.0),
                               tol=DEGENERACY_RTOL) is first
        assert ground_manifold(n=5, coupling=FERRO, tol=DEGENERACY_RTOL) is first
        assert solver_calls == []
        info = xxring.spectra._ground_manifold.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 3)

    @pytest.mark.parametrize("options", [{"field": FieldSetting(b=0.1)}, {"tol": 1e-6}])
    def test_other_field_or_tol_is_a_fresh_solve(self, solver_calls, options):
        xxring.spectra._ground_manifold.cache_clear()
        base = ground_manifold(5, FERRO)
        solver_calls.clear()
        warm = ground_manifold(5, FERRO, **options)
        assert warm is not base and "eigh" in solver_calls
        xxring.spectra._ground_manifold.cache_clear()
        cold = ground_manifold(5, FERRO, **options)
        assert cold is not warm
        assert warm.energy == cold.energy
        assert ([(s.k, s.momentum) for s in warm.states]
                == [(s.k, s.momentum) for s in cold.states])
        for a, b in zip(warm.states, cold.states):
            np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("n", [8.0, np.float64(8.0)], ids=["float", "float64"])
    def test_refuses_a_ring_size_that_is_not_a_whole_number(self, n):
        # the cache takes 8.0 for 8, so the size is checked before it
        xxring.spectra._ground_manifold.cache_clear()
        for _ in range(2):  # with no solve cached, then after the n = 8 solve
            for solve in (ground_manifold, ground_concurrence):
                with pytest.raises(ValueError, match=r"ring size must be in 1\.\.20, got 8\.0"):
                    solve(n, ANTIFERRO)
            ground_manifold(8, ANTIFERRO)

    def test_amplitudes_are_read_only(self):
        for state in ground_manifold(5, ANTIFERRO).states:
            with pytest.raises(ValueError):
                state.amplitudes[0] = 0.0

    def test_cache_is_bounded(self):
        for i in range(40):
            ground_manifold(3, FERRO, FieldSetting(b=0.01 * i))
        assert xxring.spectra._ground_manifold.cache_info().currsize <= 32


class TestLevelTable:
    @pytest.mark.parametrize("j", [-1.0, 1.0, 0.5, -2.5])
    def test_levels_match_a_solve_at_the_coupling(self, j):
        coupling = Coupling(j)
        for n in range(1, 13):
            sector, momentum, energy = ring_levels(n, coupling)
            assert np.all(np.diff(sector * n + momentum) >= 0)  # in (k, m) order
            for k in range(n + 1):
                basis = enumerate_sector(n, k)
                for m in range(n):
                    direct = np.linalg.eigvalsh(build_momentum_block(basis, m, coupling).matrix)
                    block = np.sort(energy[(sector == k) & (momentum == m)])
                    np.testing.assert_allclose(block, direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("j", [-2.5, -1.0, 0.5])
    def test_listing_is_j_times_the_unit_listing(self, j):
        # H(J) = J H(1): the same rows for every J, each energy j times its J = 1 level
        for n in range(1, 13):
            unit_sector, unit_momentum, unit_energy = ring_levels(n, Coupling(1.0))
            sector, momentum, energy = ring_levels(n, Coupling(j))
            assert np.array_equal(sector, unit_sector) and np.array_equal(momentum, unit_momentum)
            assert np.array_equal(energy, j * unit_energy), n

    @pytest.mark.parametrize("j", [-1.0, 1.0])
    def test_ground_energy_is_the_listing_minimum(self, j):
        for n in range(1, 13):
            coupling = Coupling(j)
            assert ground_manifold(n, coupling).energy == ring_levels(n, coupling)[2].min(), n

    @pytest.mark.parametrize("n, pieces", [(6, 16), (9, 23), (12, 52)])
    def test_each_block_solved_once_for_both_signs_and_spectrum(self, solver_calls,
                                                                capsys, n, pieces):
        xxring.spectra._ground_manifold.cache_clear()
        xxring.spectra._unit_levels.cache_clear()
        ground_manifold(n, FERRO)
        # one eigvalsh per real piece of the canonical blocks (k, m <= n/2),
        # one eigh for the ground block and its spin flip, and one on the
        # concurrence profile's (n // 2, 4, 4) stack
        assert solver_calls.count("eigvalsh") == pieces
        assert solver_calls.count("eigh") == 1
        assert solver_calls.count("eigh stack") == 1
        solver_calls.clear()
        ground_manifold(n, ANTIFERRO)
        assert "eigvalsh" not in solver_calls
        solver_calls.clear()
        assert xxring.cli.run(["spectrum", "--n", str(n)]) == 0
        capsys.readouterr()
        assert solver_calls == []

    def test_returns_a_new_array(self):
        # spectrum snaps the listing's near-zero levels in place; at n = 8
        # some of them are solver noise, so the snap changes them
        for coupling in (FERRO, ANTIFERRO):
            energy = ring_levels(8, coupling)[2]
            expected = energy.copy()
            snapped = np.abs(energy) <= DEGENERACY_RTOL * 8
            assert energy[snapped].any()
            energy[snapped] = 0.0
            np.testing.assert_array_equal(ring_levels(8, coupling)[2], expected)

    @pytest.mark.parametrize("k", [7, -1])
    def test_refuses_sector_out_of_range(self, k):
        with pytest.raises(ValueError, match=f"up-spin count must be in 0..6, got {k}"):
            ring_levels(6, FERRO, sectors=[k])
