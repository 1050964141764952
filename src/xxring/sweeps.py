"""Concurrence versus ring size, and the large-ring limit.

The even and odd rings behave differently (unique versus degenerate ground
level, decreasing versus increasing concurrence), so sweeps filter by parity
and the 1/n extrapolation never mixes parities.  Each size is solved at
J = -1 (ferro) or J = +1 (antiferro) and zero field.  A row at distance d
reads the pair (0, d), so only rings of at least 2d sites are kept: on a
smaller ring site 1 + d is nearer to site 1 the other way round, and its
value belongs to a shorter distance.  The fit model is fixed
to second order, C(n) = C_inf + a/n + b/n^2; with the five or six sizes a
ring of 15 sites allows, higher orders would only fit noise.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from .hamiltonian import Coupling
from .spectra import DEGENERACY_RTOL, ground_manifold

SWEEP_CAP = 15

REGIME_COUPLING = {"ferro": -1.0, "antiferro": 1.0}


class SweepRow(NamedTuple):
    n: int
    regime: str
    distance: int
    concurrence: float
    degeneracy: int
    energy: float
    seconds: float


def _one_row(n: int, regime: str, distance: int, tol: float) -> SweepRow:
    started = time.perf_counter()
    manifold = ground_manifold(n, Coupling(j=REGIME_COUPLING[regime]), tol=tol)
    return SweepRow(n=n, regime=regime, distance=distance,
                    concurrence=float(manifold.concurrence[distance - 1]),
                    degeneracy=manifold.degeneracy, energy=manifold.energy,
                    seconds=time.perf_counter() - started)


def sweep(n_min: int, n_max: int, parity: str = "all", regime: str = "ferro",
          distance: int = 1, tol: float = DEGENERACY_RTOL) -> list[SweepRow]:
    """One concurrence row per ring size in [n_min, n_max].

    The sizes and the distance must be ints (numpy integers too), as ring
    sizes are.  Sizes of the other parity and sizes below ``2 * distance``
    are skipped, so every row's pair (0, distance) is at ring distance
    ``distance``; a range that keeps no size is refused.  The regime sets
    J = -1 or +1, at zero field.
    """
    if regime not in REGIME_COUPLING:
        raise ValueError(f"regime must be one of {sorted(REGIME_COUPLING)}")
    if parity not in ("all", "even", "odd"):
        raise ValueError("parity must be 'all', 'even' or 'odd'")
    if not (isinstance(n_min, (int, np.integer)) and isinstance(n_max, (int, np.integer))
            and 2 <= n_min <= n_max <= SWEEP_CAP):
        raise ValueError(f"sweep range must be ints with 2 <= n_min <= n_max <= {SWEEP_CAP}, "
                         f"got {n_min}..{n_max}")
    if not (isinstance(distance, (int, np.integer)) and distance >= 1):
        raise ValueError(f"pair distance must be an int of at least 1, got {distance}")
    sizes = [n for n in range(n_min, n_max + 1)
             if parity == "all" or n % 2 == (0 if parity == "even" else 1)]
    if not sizes:
        raise ValueError(f"no {parity} ring size in {n_min}..{n_max} (--parity {parity})")
    sizes = [n for n in sizes if 2 * distance <= n]
    if not sizes:
        raise ValueError(f"no ring size in {n_min}..{n_max} is at least twice "
                         f"--distance {distance}")
    return [_one_row(n, regime, distance, tol) for n in sizes]


class LimitFit(NamedTuple):
    """Least-squares fit of C(n) = c_infinity + a/n + b/n^2."""

    c_infinity: float
    a: float
    b: float
    residual: float
    points: tuple[int, ...]


def extrapolate(rows: list[SweepRow]) -> LimitFit:
    """Fit the 1/n model to sweep rows of a single parity, regime and distance."""
    if len(rows) < 3:
        raise ValueError("extrapolation needs at least three rows, got rings "
                         + (" ".join(str(row.n) for row in rows) or "none"))
    if len({row.regime for row in rows}) != 1:
        raise ValueError("extrapolation rows must share one regime")
    if len({row.n % 2 for row in rows}) != 1:
        raise ValueError("extrapolation rows must share one parity")
    if len({row.distance for row in rows}) != 1:
        raise ValueError("extrapolation rows must share one distance")
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
