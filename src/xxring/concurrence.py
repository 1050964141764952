"""Two-qubit reductions and Wootters concurrence for ring states.

``pair_density`` partial-traces a mixture of sector states down to one pair
of sites, in the basis (up-up, up-down, down-up, down-down).  States from a
fixed-magnetization sector reduce to an X-form matrix: a diagonal
(u+, w1, w2, u-) plus a single coherence z = matrix[1, 2] between up-down and
down-up, for which the concurrence has the closed form
2*max(0, |z| - sqrt(u+ * u-)).  ``PairDensity`` holds only the matrix and
the pair.  It is a named tuple that checks both in ``__new__`` (finite, unit
trace, Hermitian, no eigenvalue below -1e-10 by a Cholesky test; two ints
0 <= p < q) and stores nothing derived, on every path that builds one: the
constructor, ``_make``, ``_replace`` and unpickling.  ``concurrence_wootters``
returns the concurrence as a float, from the general Wootters route (square
roots of the eigenvalues of rho*rho~, spin-flipped rho~); the X-form closed
form is a test reference (``tests/reference.py``) that must agree with it.

One kernel, ``_add_reductions``, builds every pair-density matrix: it adds
the X-form entries of a stack of states from one sector for the pairs
(p, q), over a list of q, into a (pairs, 4, 4) stack.  ``pair_density``
calls it once per state of a weighted mixture, for one pair, and
``concurrence_profile`` calls it once per sector of an equal-weight mixture
for every distance d = 1..n//2; the ground solve (``spectra.ground_manifold``)
stores that profile as the manifold's ``concurrence``.  The checks and the
Wootters route take a (..., 4, 4) stack too, so a profile is checked and
solved at once.  One predicate, ``_ordered_sites``, decides what a pair of
sites is: two ints (numpy ints too) 0 <= p < q, and below n where the ring
is known.  One rule, ``ring_distance``, refuses any other pair of an n-site
ring and gives a pair's ring distance, whose concurrence the profile holds
at index distance - 1; ``pair_density`` and every reader of a profile go
through it.
This module reads sector states (``spectra.SectorState``) by their fields
and imports nothing from the rest of the package.

Degenerate ground manifolds are mixed with equal weights: that is the unique
translation- and flip-symmetric choice, and the mixing is what depresses the
pairwise entanglement of the odd rings relative to a single ground vector.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple, Sequence

import numpy as np

PSD_FLOOR = -1e-10
# trace and Hermiticity tolerance of a pair density
DENSITY_TOL = 1e-12

# antidiagonal of sigma_y (x) sigma_y in the (uu, ud, du, dd) basis
_SPIN_FLIP = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=float)


class _PairDensityFields(NamedTuple):
    matrix: np.ndarray
    pair: tuple[int, int]


class PairDensity(_PairDensityFields):
    """4x4 reduced density matrix of the sites ``pair`` (p < q)."""

    __slots__ = ()

    def __new__(cls, matrix: np.ndarray, pair: tuple[int, int]):
        if matrix.shape != (4, 4):
            raise ValueError("pair density must be 4x4")
        _check_densities(matrix)
        if not (isinstance(pair, tuple) and _ordered_sites(pair)):
            raise ValueError(f"pair {pair!r} is not two ordered sites 0 <= p < q")
        return super().__new__(cls, matrix, pair)

    @classmethod
    def _make(cls, iterable):  # so ``_replace`` checks its input too
        return cls(*iterable)


def _ordered_sites(pair, n: float = np.inf) -> bool:
    """Whether ``pair`` is two ints (numpy ints too) p, q with 0 <= p < q < n."""
    return (len(pair) == 2 and all(isinstance(s, (int, np.integer)) for s in pair)
            and 0 <= pair[0] < pair[1] < n)


def ring_distance(pair: tuple[int, int], n: int) -> int:
    """Ring distance min(q - p, n - q + p) of two int sites 0 <= p < q of an n-site ring.

    Any other pair is refused, so every pair of a one-site ring is.
    """
    if not _ordered_sites(pair, n):
        raise ValueError(f"pair {pair} is not ordered within 0..{n - 1}")
    return int(min(pair[1] - pair[0], n - pair[1] + pair[0]))


def _check_densities(matrices: np.ndarray) -> None:
    """Refuse a (..., 4, 4) stack unless each matrix is finite, unit-trace, Hermitian, PSD."""
    if not np.isfinite(matrices).all():
        raise ValueError("pair density has a non-finite entry")
    worst = max(matrices.trace(axis1=-2, axis2=-1).ravel(), key=lambda t: abs(t - 1.0))
    if abs(worst - 1.0) > DENSITY_TOL:
        raise ValueError(f"trace {worst} is not 1 within {DENSITY_TOL}")
    if np.abs(matrices - matrices.conj().swapaxes(-1, -2)).max() > DENSITY_TOL:
        raise ValueError(f"pair density is not Hermitian within {DENSITY_TOL}")
    try:  # positive definite once shifted by the floor
        np.linalg.cholesky(matrices - PSD_FLOOR * np.eye(4))
    except np.linalg.LinAlgError:
        raise ValueError("pair density has an eigenvalue below -1e-10") from None


def _add_reductions(matrices: np.ndarray, bits: np.ndarray, amplitudes: np.ndarray,
                    p: int, qs: int | np.ndarray) -> None:
    """Add the reductions of one sector's states onto the pairs (p, q), q in ``qs``, to a stack.

    ``amplitudes`` is (dim, states), one column per state, so the gathers copy whole rows
    (with a state per row every gather would be strided).  ``matrices[i]`` takes pair
    (p, qs[i]), q > p: the diagonal from one ``bincount`` of the states' summed |psi|^2 over
    (pair, cell), and the coherence [1, 2] from partners, one ``vdot`` per pair.  Every pair
    has the same number of up-down configurations, C(n - 2, k - 1).  Up-down configuration c
    pairs with down-up c - 2^p + 2^q, which is increasing in c, so the i-th of the one pairs
    with the i-th of the other; [2, 1] is kept its conjugate.
    """
    qs = np.reshape(qs, (-1, 1))
    cell = (1 - ((bits >> p) & 1)) * 2 + (1 - ((bits >> qs) & 1))  # uu, ud, du, dd
    diagonal = np.bincount((cell + 4 * np.arange(len(qs))[:, None]).ravel(),  # (pair, cell)
                           np.resize((np.abs(amplitudes) ** 2).sum(axis=1), cell.size),
                           4 * len(qs))
    matrices[:, range(4), range(4)] += diagonal.reshape(-1, 4)
    up_down, down_up = (np.nonzero(cell == c)[1].reshape(len(qs), -1) for c in (1, 2))
    matrices[:, 1, 2] += [np.vdot(amplitudes[d], amplitudes[u]) for u, d in zip(up_down, down_up)]
    matrices[:, 2, 1] = matrices[:, 1, 2].conj()


def pair_density(states: Sequence[tuple[float, tuple]], pair: tuple[int, int]) -> PairDensity:
    """Reduced density matrix of a weighted mixture of sector states."""
    if not states:
        raise ValueError("mixture needs at least one state")
    weights = np.array([w for w, _ in states], dtype=float)
    if not np.isfinite(weights).all():
        raise ValueError("mixture weights must be finite")
    if weights.min() < -1e-12:
        raise ValueError("mixture weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {weights.sum()}, not 1")
    n = states[0][1].basis.n
    ring_distance(pair, n)  # refuses a pair that is not on the ring
    p, q = pair
    rho = np.zeros((1, 4, 4), dtype=complex)
    for weight, state in states:
        if state.basis.n != n:
            raise ValueError("all mixture states must live on the same ring")
        if np.shape(state.amplitudes) != (state.basis.dim,):
            raise ValueError(f"state amplitudes have shape {np.shape(state.amplitudes)}, "
                             f"not {(state.basis.dim,)}")
        if not np.isfinite(state.amplitudes).all():
            raise ValueError("state amplitudes must be finite")
        norm = np.linalg.norm(state.amplitudes)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm {norm} is not 1")
        _add_reductions(rho, state.basis.bits,
                        np.sqrt(max(weight, 0.0)) * state.amplitudes[:, None], p, q)
    return PairDensity(matrix=rho[0], pair=(p, q))


def concurrence_wootters(rho: PairDensity) -> float:
    """max(0, l1 - l2 - l3 - l4) from the spin-flipped density matrix.

    The l_i are the square roots of the eigenvalues of rho * rho~ with
    rho~ = (sy x sy) rho* (sy x sy).  They are evaluated as the singular
    values of sqrt(rho) (sy x sy) sqrt(rho)*, an identical quantity that
    sidesteps the square-root amplification of eigenvalue noise near zero.
    A value at or below ``DENSITY_TOL``, the pair density's own tolerance,
    cannot be resolved (|z| = sqrt(u+ u-) exactly gives ~1e-16) and reads 0.
    """
    return float(_wootters(rho.matrix))


def _wootters(matrices: np.ndarray) -> np.ndarray:
    """``concurrence_wootters`` of each matrix of a checked (..., 4, 4) stack."""
    values, vectors = np.linalg.eigh(matrices)
    root = (vectors * np.sqrt(values.clip(0.0))[..., None, :]) @ vectors.conj().swapaxes(-1, -2)
    lam = np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)
    value = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return np.where(value > DENSITY_TOL, value, 0.0)


def state_concurrence(state: tuple, pair: tuple[int, int] = (0, 1)) -> float:
    """Concurrence of a single pure sector state's pair reduction."""
    return concurrence_wootters(pair_density([(1.0, state)], pair))


def concurrence_profile(states: Sequence[tuple]) -> np.ndarray:
    """Read-only concurrence of the states' equal-weight mixture on the pair (0, d) at
    index d - 1, d = 1..n//2; empty on a one-site ring.

    Momentum eigenstates mix to a translation-invariant rho(p, q) = rho(0, q - p); swapping
    the sites (d to n - d) keeps the concurrence.  Each run of states from one sector (the
    ground solve lists them by (k, m)), scaled by 1/sqrt(len(states)), adds its reductions
    onto pairs (0, 1..n//2) in one ``_add_reductions`` call.
    """
    distance = np.arange(1, states[0].basis.n // 2 + 1)
    profile = np.empty(0)
    if len(distance):  # a one-site ring has no pair, and the checks need a matrix
        matrices = np.zeros((len(distance), 4, 4), dtype=complex)
        for _, run in groupby(states, key=lambda state: state.k):
            run = list(run)
            _add_reductions(matrices, run[0].basis.bits, np.stack(
                [state.amplitudes for state in run], axis=1) / np.sqrt(len(states)), 0, distance)
        _check_densities(matrices)
        profile = _wootters(matrices)
    profile.flags.writeable = False
    return profile
