"""Size sweeps and the 1/n limit fit."""

import numpy as np
import pytest

import xxring.sweeps
from xxring.hamiltonian import Coupling
from xxring.spectra import ground_concurrence
from xxring.sweeps import REGIME_COUPLING, LimitFit, SweepRow, extrapolate, sweep


def rows_from(pairs, regime="ferro", distance=1):
    return [SweepRow(n=n, regime=regime, distance=distance, concurrence=c,
                     degeneracy=1, energy=0.0, seconds=0.0)
            for n, c in pairs]


class TestSweep:
    def test_even_ferro_values(self):
        rows = sweep(2, 8, parity="even", regime="ferro")
        np.testing.assert_allclose(
            [r.concurrence for r in rows],
            [1.0, 0.457106781187, 0.388888888889, 0.366669830087], atol=1e-10)
        assert [r.degeneracy for r in rows] == [1, 1, 1, 1]

    def test_odd_ferro_values(self):
        rows = sweep(3, 7, parity="odd", regime="ferro")
        np.testing.assert_allclose(
            [r.concurrence for r in rows],
            [1 / 3, 0.336656314600, 0.337868349614], atol=1e-10)
        assert [r.degeneracy for r in rows] == [2, 2, 2]

    def test_odd_antiferro_values(self):
        # n=7 pinned against the 2^7 oracle (see test_oracle)
        rows = sweep(3, 7, parity="odd", regime="antiferro")
        np.testing.assert_allclose(
            [r.concurrence for r in rows],
            [0.0, 0.213049516850, 0.274290939912], atol=1e-10)
        assert [r.degeneracy for r in rows] == [4, 4, 4]

    def test_even_rows_match_across_regimes(self):
        ferro = sweep(4, 8, parity="even", regime="ferro")
        anti = sweep(4, 8, parity="even", regime="antiferro")
        np.testing.assert_allclose([r.concurrence for r in ferro],
                                   [r.concurrence for r in anti], atol=1e-10)

    def test_distance_filter_and_metadata(self):
        # n = 3 is left out: its site 3 is one step from site 1 the other way round
        rows = sweep(3, 6, regime="antiferro", distance=2)
        assert [r.n for r in rows] == [4, 5, 6]
        assert all(r.distance == 2 and r.regime == "antiferro" for r in rows)
        assert all(r.seconds >= 0.0 for r in rows)

    @pytest.mark.parametrize("regime", ["ferro", "antiferro"])
    @pytest.mark.parametrize("distance", [1, 2, 3])
    def test_rows_read_the_pair_at_their_distance(self, regime, distance):
        rows = sweep(2, 10, regime=regime, distance=distance)
        assert [r.n for r in rows] == list(range(max(2, 2 * distance), 11))
        coupling = Coupling(j=REGIME_COUPLING[regime])
        assert [r.concurrence for r in rows] == [
            ground_concurrence(r.n, coupling, pair=(0, distance)) for r in rows]

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep(4, 16)
        with pytest.raises(ValueError):
            sweep(4, 3)
        with pytest.raises(ValueError):
            sweep(1, 4)
        with pytest.raises(ValueError):
            sweep(4, 8, regime="no-such")
        with pytest.raises(ValueError):
            sweep(4, 8, parity="no-such")
        with pytest.raises(ValueError):
            sweep(4, 8, distance=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_min": 4.0, "n_max": 8}, "sweep range must be ints"),
        ({"n_min": 4, "n_max": 8.0}, "sweep range must be ints"),
        ({"n_min": 4, "n_max": 8, "distance": 1.5}, "pair distance must be an int"),
        ({"n_min": 4, "n_max": 8, "distance": 2.0}, "pair distance must be an int"),
    ])
    def test_refuses_values_that_are_not_ints_before_solving(self, kwargs, message,
                                                             monkeypatch):
        # ring sizes follow the same rule: a whole float is refused too
        def solve(*args):
            raise AssertionError("solved before the values were checked")
        monkeypatch.setattr(xxring.sweeps, "_one_row", solve)
        with pytest.raises(ValueError, match=message):
            sweep(**kwargs)

    def test_accepts_numpy_integers(self):
        rows = sweep(np.int64(4), np.int64(6), distance=np.int64(2))
        assert [(r.n, r.concurrence) for r in rows] == [
            (r.n, r.concurrence) for r in sweep(4, 6, distance=2)]

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_min": 4, "n_max": 6, "distance": 9}, "--distance 9"),
        ({"n_min": 4, "n_max": 4, "parity": "odd"}, "--parity odd"),
        ({"n_min": 5, "n_max": 5, "parity": "even"}, "--parity even"),
        ({"n_min": 3, "n_max": 5, "parity": "odd", "distance": 5}, "--distance 5"),
    ])
    def test_refuses_filters_that_leave_no_size(self, kwargs, message):
        with pytest.raises(ValueError, match=message) as info:
            sweep(**kwargs)
        assert f"{kwargs['n_min']}..{kwargs['n_max']}" in str(info.value)


class TestExtrapolate:
    def test_exact_three_point_fit(self):
        # with three points the least-squares fit must equal the exact solve
        pairs = [(4, 0.45711), (6, 0.38889), (8, 0.37048)]
        design = np.array([[1.0, 1 / n, 1 / n**2] for n, _ in pairs])
        target = np.array([c for _, c in pairs])
        exact = np.linalg.solve(design, target)
        fit = extrapolate(rows_from(pairs))
        np.testing.assert_allclose([fit.c_infinity, fit.a, fit.b], exact, atol=1e-10)
        assert fit.residual <= 1e-12
        assert fit.points == (4, 6, 8)

    def test_predicts_fitted_points(self):
        pairs = [(4, 0.45711), (6, 0.38889), (8, 0.37048)]
        fit = extrapolate(rows_from(pairs))
        for n, c in pairs:
            assert fit.c_infinity + fit.a / n + fit.b / n**2 == pytest.approx(c, abs=1e-10)

    def test_constant_rows(self):
        fit = extrapolate(rows_from([(4, 0.3), (6, 0.3), (8, 0.3), (10, 0.3)]))
        assert fit.c_infinity == pytest.approx(0.3, abs=1e-9)
        assert fit.a == pytest.approx(0.0, abs=1e-8)
        assert fit.b == pytest.approx(0.0, abs=1e-7)

    def test_distance_three_limit_is_zero(self):
        # every even ring of 6..14 sites has zero concurrence at distance 3;
        # n = 4, whose site 4 is the nearest neighbour of site 1, is left out
        fit = extrapolate(sweep(4, 14, parity="even", distance=3))
        assert fit.c_infinity == 0
        assert fit.points == (6, 8, 10, 12, 14)

    def test_computed_even_sequence(self):
        rows = sweep(4, 10, parity="even", regime="ferro")
        values = [r.concurrence for r in rows]
        assert all(a > b for a, b in zip(values, values[1:]))
        fit = extrapolate(rows)
        assert 0.32 <= fit.c_infinity <= 0.36

    def test_validation(self):
        with pytest.raises(ValueError):
            extrapolate(rows_from([(4, 0.4), (6, 0.39)]))
        with pytest.raises(ValueError):
            extrapolate(rows_from([(4, 0.4), (6, 0.39), (7, 0.38)]))
        mixed = rows_from([(4, 0.4), (6, 0.39)]) + rows_from([(8, 0.38)], regime="antiferro")
        with pytest.raises(ValueError):
            extrapolate(mixed)
        mixed = rows_from([(4, 0.4), (6, 0.39)]) + rows_from([(8, 0.38)], distance=2)
        with pytest.raises(ValueError, match="one distance"):
            extrapolate(mixed)
        with pytest.raises(np.linalg.LinAlgError):
            extrapolate(rows_from([(4, 0.4), (4, 0.4), (4, 0.4)]))

    def test_limit_fit_is_plain_data(self):
        fit = LimitFit(c_infinity=0.34, a=-0.1, b=2.0, residual=0.0, points=(4, 6, 8))
        assert fit == (0.34, -0.1, 2.0, 0.0, (4, 6, 8))
