"""Configuration, sector, orbit and dihedral-class bookkeeping."""

import itertools
import math

import numpy as np
import pytest

import xxring.basis
from xxring.basis import RING_CAP, enumerate_sector, rotation_order

from reference import (dihedral_representative, index_of, orbit_representative, reflect,
                       rotate, sector_by_unique, set_walk_orbits)


def bits_of(sites):
    return sum(1 << s for s in sites)


class TestSectorEnumeration:
    def test_small_sector_is_ascending_and_complete(self):
        basis = enumerate_sector(4, 2)
        assert basis.bits.tolist() == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
        assert [index_of(basis, c) for c in basis.bits.tolist()] == list(range(6))

    def test_sector_sizes_are_binomial(self):
        assert enumerate_sector(15, 7).dim == 6435
        assert enumerate_sector(3, 0).bits.tolist() == [0]
        for n in range(1, 9):
            for k in range(n + 1):
                assert enumerate_sector(n, k).dim == math.comb(n, k)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            enumerate_sector(4, 5)
        with pytest.raises(ValueError):
            enumerate_sector(4, -1)
        with pytest.raises(ValueError):
            enumerate_sector(RING_CAP + 1, 1)
        with pytest.raises(ValueError):
            enumerate_sector(0, 0)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_configs_equal_the_combinations_listing(self, n):
        for k in range(n + 1):
            expected = sorted(sum(1 << i for i in sites)
                              for sites in itertools.combinations(range(n), k))
            basis = enumerate_sector(n, k)
            assert basis.bits.tolist() == expected
            assert basis.bits.dtype == np.int64 and basis.dim == len(expected)

    def test_one_sector_object_per_process(self):
        assert enumerate_sector(7, 3) is enumerate_sector(7, 3)
        assert enumerate_sector(7, 3) is not enumerate_sector(7, 4)
        assert enumerate_sector(6, 3) is enumerate_sector(6, 3)
        # a keyword call would key a second cache entry and build a second object
        with pytest.raises(TypeError):
            enumerate_sector(6, k=3)
        with pytest.raises(TypeError):
            enumerate_sector(n=6, k=3)

    def test_membership(self):
        basis = enumerate_sector(5, 2)
        assert index_of(basis, 0b00011) == 0
        for outside in (0b00111, 0, int(basis.bits[-1]) + 1):
            with pytest.raises(KeyError):
                index_of(basis, outside)

    def test_one_pass_over_the_configurations_per_ring_size(self):
        xxring.basis._ring_sectors.cache_clear()  # build every sector of n = 9 here
        sectors = [enumerate_sector(9, k) for k in range(10)]
        info = xxring.basis._ring_sectors.cache_info()
        assert (info.misses, info.hits) == (1, 9)
        assert [basis.k for basis in sectors] == list(range(10))
        assert all(basis is enumerate_sector(9, basis.k) for basis in sectors)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_arrays_equal_the_sector_at_a_time_build(self, n):
        for k in range(n + 1):
            basis, expected = enumerate_sector(n, k), sector_by_unique(n, k)
            for name in ("bits", "orbit", "shift", "reps", "period", "mirror",
                         "mirror_shift", "hop_index", "hop_weight"):
                array, reference = getattr(basis, name), getattr(expected, name)
                label = (n, k, name)
                assert array.dtype == reference.dtype and array.shape == reference.shape, label
                assert array.tobytes() == reference.tobytes(), label
                assert not array.flags.writeable, label


def first_minimal_rotation(c, n):
    """Smallest rotation of c, and the shift t with rotation-by-t(it) == c."""
    mask = (1 << n) - 1
    rotations = [((c << t) | (c >> (n - t))) & mask for t in range(n)]
    first = rotations.index(min(rotations))
    return rotations[first], (n - first) % n


def orbit_runs(basis):
    """Each orbit's members as a list, read through ``rotation_order``."""
    runs = np.split(basis.bits[rotation_order(basis)], np.cumsum(basis.period)[:-1])
    return [run.tolist() for run in runs]


class TestOrbitMap:
    def test_arrays_mirror_configs_and_are_read_only(self):
        basis = enumerate_sector(6, 3)
        assert basis.dim == len(basis.bits) == 20
        for array in (basis.bits, basis.orbit, basis.shift):
            assert array.dtype == np.int64 and array.shape == (basis.dim,)
            with pytest.raises(ValueError):
                array[0] = 1

    def test_every_sector_array_is_read_only(self):
        basis = enumerate_sector(6, 3)
        for name in ("bits", "orbit", "shift", "reps", "period", "mirror", "mirror_shift",
                     "hop_index", "hop_weight"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(basis, name)[0] = 1

    @pytest.mark.parametrize("n", range(1, 15))
    def test_reps_and_period_equal_the_set_walk(self, n):
        for k in range(n + 1):
            basis = enumerate_sector(n, k)
            orbits = set_walk_orbits(n, k)
            assert basis.reps.tolist() == [o.representative for o in orbits]
            assert basis.period.tolist() == [o.period for o in orbits]

    def test_orbit_and_shift_follow_the_first_minimal_rotation(self):
        for n in range(1, 13):
            for k in range(n + 1):
                basis = enumerate_sector(n, k)
                firsts = [first_minimal_rotation(c, n) for c in basis.bits.tolist()]
                reps = sorted({rep for rep, _ in firsts})
                assert basis.orbit.tolist() == [reps.index(rep) for rep, _ in firsts]
                assert basis.shift.tolist() == [shift for _, shift in firsts]
                for c, expected in zip(basis.bits.tolist(), firsts):
                    assert orbit_representative(c, n) == expected

    def test_rotation_order_equals_the_set_walk(self):
        for n in range(1, 15):
            for k in range(n + 1):
                basis = enumerate_sector(n, k)
                assert [(rep, len(run), tuple(run))
                        for rep, run in zip(basis.reps.tolist(), orbit_runs(basis))
                        ] == set_walk_orbits(n, k)


class TestRotate:
    def test_definition(self):
        assert rotate(0b0011, 1, 4) == 0b0110
        assert rotate(0b0101, 2, 4) == 0b0101
        assert rotate(0b1001, 1, 4) == 0b0011

    def test_identity_shifts(self):
        for c in range(16):
            assert rotate(c, 0, 4) == c
            assert rotate(c, 4, 4) == c

    def test_bijection_and_popcount_on_sectors(self):
        for n in range(1, 9):
            for k in range(n + 1):
                basis = enumerate_sector(n, k)
                for t in range(n):
                    image = {rotate(c, t, n) for c in basis.bits.tolist()}
                    assert image == set(basis.bits.tolist())
        assert all(rotate(c, 3, 8).bit_count() == c.bit_count() for c in range(256))


class TestReflect:
    def test_definition(self):
        assert reflect(bits_of({0, 1, 2, 4}), 8) == bits_of({0, 4, 6, 7})

    def test_palindrome_fixed(self):
        assert reflect(bits_of({1, 7}), 8) == bits_of({1, 7})
        assert reflect(0, 6) == 0

    def test_involution(self):
        for n in (3, 5, 6, 8):
            for c in range(1 << n):
                assert reflect(reflect(c, n), n) == c

    def test_reflection_lands_in_expected_orbit(self):
        # reflection of {0,1,3,5} is a rotation of {0,1,4,6}: check by brute
        # enumeration of all eight rotations
        n = 8
        reflected = reflect(bits_of({0, 1, 3, 5}), n)
        rotations = {rotate(bits_of({0, 1, 4, 6}), t, n) for t in range(n)}
        assert reflected in rotations


class TestTranslationOrbits:
    def test_four_site_half_filling(self):
        basis = enumerate_sector(4, 2)
        assert sorted(basis.period.tolist()) == [2, 4]
        assert set(basis.reps.tolist()) == {0b0011, 0b0101}

    def test_six_site_periods(self):
        assert sorted(enumerate_sector(6, 3).period.tolist()) == [2, 6, 6, 6]

    def test_fifteen_site_count(self):
        basis = enumerate_sector(15, 7)
        assert len(basis.reps) == 429
        assert (basis.period == 15).all()

    def test_orbits_partition_every_sector(self):
        for n in range(1, 13):
            for k in range(n + 1):
                basis = enumerate_sector(n, k)
                assert basis.period.sum() == basis.dim
                order = rotation_order(basis)
                assert sorted(order.tolist()) == list(range(basis.dim))
                assert np.all(np.diff(basis.reps) > 0)
                for rep, period, run in zip(basis.reps.tolist(), basis.period.tolist(),
                                            orbit_runs(basis)):
                    assert n % period == 0 and len(run) == period
                    assert rep == min(run)
                    assert run == [rotate(rep, t, n) for t in range(period)]

    @pytest.mark.parametrize("n", [3, 5, 7, 11, 13])
    def test_prime_rings_have_full_orbits(self, n):
        for k in range(1, n):
            assert (enumerate_sector(n, k).period == n).all()

    def test_representative_shift_inverts(self):
        for n in (4, 6, 7):
            for c in range(1 << n):
                rep, shift = orbit_representative(c, n)
                assert rotate(rep, shift, n) == c
                assert rep == min(rotate(c, t, n) for t in range(n))


def orbit_of(basis, sites):
    return basis.orbit[index_of(basis, bits_of(sites))]


class TestDihedralClasses:
    def test_eight_site_reflection_pair(self):
        basis = enumerate_sector(8, 4)
        a, b = orbit_of(basis, {0, 1, 2, 4}), orbit_of(basis, {0, 1, 2, 6})
        assert a != b
        assert basis.mirror[a] == b and basis.mirror[b] == a

    def test_self_reflective_orbits_stay_alone(self):
        basis = enumerate_sector(8, 4)
        lone = orbit_of(basis, {0, 1, 2, 5})
        assert basis.mirror[lone] == lone

        basis6 = enumerate_sector(6, 3)
        alternating = orbit_of(basis6, {0, 2, 4})
        assert basis6.mirror[alternating] == alternating

    def test_classes_partition_orbits(self):
        # an involution pairs each orbit with its mirror or leaves it alone
        for n in range(1, 15):
            for k in range(n + 1):
                basis = enumerate_sector(n, k)
                mirror = basis.mirror
                assert mirror.dtype == np.int64 and mirror.shape == basis.reps.shape
                np.testing.assert_array_equal(mirror[mirror], np.arange(len(mirror)))

    def test_reflection_closure_within_class(self):
        n = 8
        basis = enumerate_sector(n, 4)
        for a in range(len(basis.reps)):
            members = {c for c, o in zip(basis.bits.tolist(), basis.orbit)
                       if o in (a, basis.mirror[a])}
            assert {reflect(c, n) for c in members} == members

    def test_canonical_is_symmetry_invariant(self):
        n = 7
        basis = enumerate_sector(n, 3)
        key = np.minimum(basis.reps, basis.reps[basis.mirror])

        def key_of(c):
            return key[basis.orbit[index_of(basis, c)]]

        for c in basis.bits.tolist():
            for t in range(n):
                assert key_of(rotate(c, t, n)) == key_of(c)
                assert key_of(rotate(reflect(c, n), t, n)) == key_of(c)
            assert key_of(c) == dihedral_representative(c, n)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_mirror_holds_the_reflected_representative(self, n):
        for k in range(n + 1):
            basis = enumerate_sector(n, k)
            for rep, mirror in zip(basis.reps.tolist(), basis.mirror.tolist()):
                image, _ = orbit_representative(reflect(rep, n), n)
                assert image == basis.reps[mirror]

    @pytest.mark.parametrize("n", range(1, 15))
    def test_mirror_shift_places_the_reflection(self, n):
        for k in range(n + 1):
            basis = enumerate_sector(n, k)
            assert basis.mirror_shift.dtype == np.int64
            for rep, mirror, s in zip(basis.reps.tolist(), basis.mirror.tolist(),
                                      basis.mirror_shift.tolist()):
                assert rotate(int(basis.reps[mirror]), s, n) == reflect(rep, n)
                # the shift back from the first minimal rotation, as in ``shift``
                assert s == orbit_representative(reflect(rep, n), n)[1]
