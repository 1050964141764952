"""Concurrence versus ring size, and the large-ring limit.

The even and odd rings behave differently (unique versus degenerate ground
level, decreasing versus increasing concurrence), so sweeps filter by parity
and the 1/n extrapolation never mixes parities.  The fit model is fixed to
second order, C(n) = C_inf + a/n + b/n^2; with the five or six sizes a ring
of 15 sites allows, higher orders would only fit noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .concurrence import concurrence_wootters, manifold_pair_density
from .hamiltonian import Coupling, FieldSetting
from .spectra import DEGENERACY_RTOL, ground_manifold

SWEEP_CAP = 15

REGIME_COUPLING = {"ferro": -1.0, "antiferro": 1.0}


@dataclass(frozen=True)
class SweepRow:
    n: int
    regime: str
    distance: int
    concurrence: float
    degeneracy: int
    energy: float
    seconds: float


def _one_row(n: int, regime: str, distance: int, strength: float,
             field: FieldSetting, tol: float) -> SweepRow:
    started = time.perf_counter()
    coupling = Coupling(j=REGIME_COUPLING[regime] * strength)
    manifold = ground_manifold(n, coupling, field, tol=tol)
    pair = (0, distance % n)
    value = concurrence_wootters(manifold_pair_density(manifold, pair)).value
    return SweepRow(n=n, regime=regime, distance=distance, concurrence=value,
                    degeneracy=manifold.degeneracy, energy=manifold.energy,
                    seconds=time.perf_counter() - started)


def sweep(n_min: int, n_max: int, parity: str = "all", regime: str = "ferro",
          distance: int = 1, strength: float = 1.0,
          field: FieldSetting = FieldSetting(),
          tol: float = DEGENERACY_RTOL) -> list[SweepRow]:
    """One concurrence row per ring size in [n_min, n_max]."""
    if regime not in REGIME_COUPLING:
        raise ValueError(f"regime must be one of {sorted(REGIME_COUPLING)}")
    if parity not in ("all", "even", "odd"):
        raise ValueError("parity must be 'all', 'even' or 'odd'")
    if not 2 <= n_min <= n_max <= SWEEP_CAP:
        raise ValueError(f"sweep range must satisfy 2 <= n_min <= n_max <= {SWEEP_CAP}")
    if distance < 1:
        raise ValueError("pair distance must be at least 1")
    sizes = [n for n in range(n_min, n_max + 1)
             if parity == "all" or n % 2 == (0 if parity == "even" else 1)]
    sizes = [n for n in sizes if distance < n]
    return [_one_row(n, regime, distance, strength, field, tol) for n in sizes]


@dataclass(frozen=True)
class LimitFit:
    """Least-squares fit of C(n) = c_infinity + a/n + b/n^2."""

    c_infinity: float
    a: float
    b: float
    residual: float
    points: tuple[int, ...]

    def predict(self, n: int) -> float:
        return self.c_infinity + self.a / n + self.b / n**2


def extrapolate(rows: list[SweepRow]) -> LimitFit:
    """Fit the 1/n model to sweep rows of a single parity and regime."""
    if len(rows) < 3:
        raise ValueError("extrapolation needs at least three rows")
    if len({row.regime for row in rows}) != 1:
        raise ValueError("extrapolation rows must share one regime")
    if len({row.n % 2 for row in rows}) != 1:
        raise ValueError("extrapolation rows must share one parity")
    sizes = np.array([row.n for row in rows], dtype=float)
    design = np.column_stack([np.ones_like(sizes), 1 / sizes, 1 / sizes**2])
    if np.linalg.matrix_rank(design) < 3:
        raise np.linalg.LinAlgError("design matrix is rank deficient "
                                    "(need three distinct ring sizes)")
    values = np.array([row.concurrence for row in rows])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    residual = float(np.linalg.norm(design @ coef - values))
    return LimitFit(c_infinity=float(coef[0]), a=float(coef[1]), b=float(coef[2]),
                    residual=residual, points=tuple(row.n for row in rows))
