"""Two-qubit reductions and Wootters concurrence for ring states.

``pair_density`` partial-traces a mixture of sector states down to one pair
of sites, in the basis (up-up, up-down, down-up, down-down).  States from a
fixed-magnetization sector reduce to an X-form matrix: a diagonal
(u+, w1, w2, u-) plus a single coherence z between up-down and down-up, for
which the concurrence has the closed form 2*max(0, |z| - sqrt(u+ * u-)).
The general Wootters route (square roots of the eigenvalues of rho*rho~,
spin-flipped rho~) is kept alongside and the two must agree on X inputs.

Degenerate ground manifolds are mixed with equal weights: that is the unique
translation- and flip-symmetric choice, and the mixing is what depresses the
pairwise entanglement of the odd rings relative to a single ground vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hamiltonian import Coupling, FieldSetting
from .spectra import DEGENERACY_RTOL, GroundManifold, SectorState, ground_manifold

PSD_FLOOR = -1e-10
X_OFFDIAG_TOL = 1e-10

# antidiagonal of sigma_y (x) sigma_y in the (uu, ud, du, dd) basis
_SPIN_FLIP = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=float)


@dataclass(frozen=True)
class PairDensity:
    """4x4 reduced density matrix of the sites ``pair`` (p < q)."""

    matrix: np.ndarray
    pair: tuple[int, int]

    def __post_init__(self) -> None:
        m = self.matrix
        if m.shape != (4, 4):
            raise ValueError("pair density must be 4x4")
        if abs(np.trace(m) - 1.0) > 1e-12:
            raise ValueError(f"trace {np.trace(m)} is not 1 within 1e-12")
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise ValueError("pair density is not Hermitian within 1e-12")
        if np.linalg.eigvalsh(m).min() < PSD_FLOOR:
            raise ValueError("pair density has an eigenvalue below -1e-10")

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().real

    def coherence(self) -> complex:
        """The up-down / down-up off-diagonal element."""
        return complex(self.matrix[1, 2])


def _reduce_pure(state: SectorState, p: int, q: int) -> np.ndarray:
    """Partial trace of |state><state| onto sites (p, q).

    Groups configurations by their pattern away from (p, q); each group
    contributes an outer product of its 4-vector of amplitudes.
    """
    pair_mask = (1 << p) | (1 << q)
    groups: dict[int, np.ndarray] = {}
    for c, amp in zip(state.basis.configs, state.amplitudes):
        if amp == 0:
            continue
        i4 = (1 - ((c >> p) & 1)) * 2 + (1 - ((c >> q) & 1))
        vec = groups.get(c & ~pair_mask)
        if vec is None:
            vec = groups[c & ~pair_mask] = np.zeros(4, dtype=complex)
        vec[i4] += amp
    rho = np.zeros((4, 4), dtype=complex)
    for vec in groups.values():
        rho += np.outer(vec, vec.conj())
    return rho


def pair_density(states: Sequence[tuple[float, SectorState]],
                 pair: tuple[int, int]) -> PairDensity:
    """Reduced density matrix of a weighted mixture of sector states."""
    if not states:
        raise ValueError("mixture needs at least one state")
    weights = np.array([w for w, _ in states], dtype=float)
    if weights.min() < -1e-12:
        raise ValueError("mixture weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {weights.sum()}, not 1")
    n = states[0][1].basis.n
    p, q = pair
    if not 0 <= p < q < n:
        raise ValueError(f"pair {pair} is not ordered within 0..{n - 1}")
    rho = np.zeros((4, 4), dtype=complex)
    for weight, state in states:
        if state.basis.n != n:
            raise ValueError("all mixture states must live on the same ring")
        norm = np.linalg.norm(state.amplitudes)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm {norm} is not 1")
        rho += weight * _reduce_pure(state, p, q)
    return PairDensity(matrix=rho, pair=(p, q))


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence value with the four descending spin-flip roots."""

    value: float
    lambdas: tuple[float, float, float, float]


def concurrence_wootters(rho: PairDensity) -> ConcurrenceResult:
    """max(0, l1 - l2 - l3 - l4) from the spin-flipped density matrix.

    The l_i are the square roots of the eigenvalues of rho * rho~ with
    rho~ = (sy x sy) rho* (sy x sy).  They are evaluated as the singular
    values of sqrt(rho) (sy x sy) sqrt(rho)*, an identical quantity that
    sidesteps the square-root amplification of eigenvalue noise near zero.
    """
    m = rho.matrix
    values, vectors = np.linalg.eigh(m)
    if values.min() < PSD_FLOOR:
        raise ValueError("pair density has an eigenvalue below -1e-10")
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
    lam = np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)
    return ConcurrenceResult(value=max(0.0, lam[0] - lam[1] - lam[2] - lam[3]),
                             lambdas=tuple(lam))


def concurrence_xstate(rho: PairDensity) -> float:
    """Closed form 2*max(0, |z| - sqrt(u+ u-)) for X-form pair densities."""
    off = rho.matrix.copy()
    np.fill_diagonal(off, 0.0)
    off[1, 2] = off[2, 1] = 0.0
    if np.abs(off).max() > X_OFFDIAG_TOL:
        raise ValueError("pair density is not in X form (stray off-diagonals)")
    d = rho.diagonal()
    u_plus, u_minus = max(d[0], 0.0), max(d[3], 0.0)
    return 2.0 * max(0.0, abs(rho.coherence()) - np.sqrt(u_plus * u_minus))


def state_concurrence(state: SectorState, pair: tuple[int, int] = (0, 1)) -> float:
    """Concurrence of a single pure sector state's pair reduction."""
    return concurrence_wootters(pair_density([(1.0, state)], pair)).value


def manifold_pair_density(manifold: GroundManifold,
                          pair: tuple[int, int]) -> PairDensity:
    """Pair reduction of the equal-weight mixture over a ground manifold."""
    d = manifold.degeneracy
    return pair_density([(1.0 / d, s) for s in manifold.states], pair)


def ground_concurrence(n: int, coupling: Coupling, field: FieldSetting = FieldSetting(),
                       pair: tuple[int, int] = (0, 1),
                       tol: float = DEGENERACY_RTOL) -> float:
    """Nearest- or distant-pair concurrence of the ground-manifold mixture."""
    if n < 2:
        raise ValueError("pairwise concurrence needs at least two sites")
    manifold = ground_manifold(n, coupling, field, tol=tol)
    return concurrence_wootters(manifold_pair_density(manifold, pair)).value
