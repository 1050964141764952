"""Brute-force reference path over the full 2^n-dimensional space.

It deliberately avoids the translation-symmetry machinery and shares no
Hamiltonian code with the pipeline: popcount blocks are built from
``np.arange(2**n)`` and the oracle's own bond list with numpy bit
operations, eigenvectors stay in their blocks, and only the columns of the
level group a caller reads are gathered into full-space vectors for an
independent pair reduction.  It writes its own Zeeman offset and its own
Wootters concurrence, from the mixture's pair amplitudes where the pipeline
factors the pair density by its eigendecomposition, so a fault in either of
the pipeline's does not pass unseen.  It cross-checks the momentum-block
pipeline: ground energy, degeneracy, per-configuration probabilities and
mixture concurrence agree to 1e-10.  The pipeline's concurrence is the
ground solve's profile (``GroundManifold.concurrence``) at every distance
d = 1..n//2, as the pair (0, d), and at the pair (1, 2): the array that
``ground_concurrence`` and the ``concurrence``, ``sweep`` and
``extrapolate`` commands read.  The oracle reduces the ground mixture onto
each of those pairs itself and solves them as one stack.

H(J) = J * H(1), so each popcount block is decomposed once, at J = 1, and
both signs of J, any field and the level scan read that one decomposition.
Spin inversion C complements the bits and commutes with H, so it maps the
k-up configurations c onto the (n - k)-up ones 2^n - 1 - c with the same
matrix entries: block n - k is block k's complement.  Blocks k <= n/2 are
solved, and block n - k reads block k's levels and its eigenvectors, placed
at the complemented configurations.

No block is solved whole.  Each canonical block is listed as its
configurations and the (row, column) pairs of its unit hops, and split by
the ring's reflection R (site i -> n - 1 - i) into its even and odd pieces;
the half-filled block of an even ring, which C maps onto itself, splits by
R and C into four.  These are the one-dimensional irreducible blocks of
Sandvik, "Computational studies of quantum spin systems", AIP Conf. Proc.
1297 (2010), section 4, for reflection instead of translation.  For a
character chi of the group, the orbit of configuration i holds the unit
vector sum u(i)|i>, with u(i) = chi(g_i) / sqrt(|orbit|) and g_i taking the
orbit's least member to i, when chi is trivial on i's stabilizer (otherwise
u(i) = 0 and the orbit has no vector in that piece).  Piece entries sum
u(i) u(j) over the hops, a block's levels are its pieces' levels, piece
after piece, and a level's eigenvector is gathered from its piece as
v[i] = u(i) x[a(i)], a(i) being the orbit's column in the piece.

Eigenvectors are solved only for the blocks a caller reads.  At zero field
the ground level lies in block n // 2 (or its complement) for both signs
of J, so ``_unit_spectrum(n)`` takes every other block's levels from
``np.linalg.eigvalsh`` of its pieces and runs ``np.linalg.eigh`` on the
pieces of block n // 2 alone.  ``_unit_columns(n, k, columns)`` solves any
other block's pieces on first read (a field that moves the ground level, or
the level scan) and keeps their eigenvectors beside the levels.

The process keeps the decomposition for one ring size at a time, as
read-only arrays.  Code that monkeypatches the hop list (``_hops``), the
pieces (``_pieces``, ``_piece_matrix``) or a solver (``np.linalg.eigh``,
``np.linalg.eigvalsh``) must call ``_unit_spectrum.cache_clear()`` first,
which drops the levels, the pieces and their eigenvectors together, or it
may be handed a decomposition made before the patch.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .concurrence import ring_distance
from .hamiltonian import Coupling, FieldSetting
from .spectra import DEGENERACY_RTOL, ground_manifold

FULL_DIAGONALIZE_CAP = 14
SCAN_CAP = 10
AGREEMENT_ATOL = 1e-10

# Character tables, one row per character: <R> on (1, R), and <R, C> on
# (1, R, C, RC) for the half-filled block of an even ring.
_REFLECTION_CHARACTERS = np.array([[1, 1], [1, -1]])
_REFLECTION_FLIP_CHARACTERS = np.array([[1, 1, 1, 1], [1, -1, 1, -1],
                                        [1, 1, -1, -1], [1, -1, -1, 1]])


def _hops(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending k-up configurations and the (row, column) indices of their unit hops.

    One numpy step per bond (i, i + 1 mod n), a bond list the oracle writes
    itself: n = 2 lists its one bond twice, so each of its hops appears
    twice, as its literal matrix entry of 2 requires, and n = 1 lists a
    self-bond, which has no hop.
    """
    full = np.arange(1 << n)
    configs = full[((full[:, None] >> np.arange(n)) & 1).sum(axis=1) == k]
    rows, columns = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for i, j in ((i, (i + 1) % n) for i in range(n)):
        hop = np.flatnonzero(((configs >> i) ^ (configs >> j)) & 1)
        rows.append(np.searchsorted(configs, configs[hop] ^ ((1 << i) | (1 << j))))
        columns.append(hop)
    return configs, np.concatenate(rows), np.concatenate(columns)


def _pieces(n: int, k: int, configs: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Read-only piece column a(i) and coefficient u(i) of every configuration, per piece.

    One pair per character of <R> (or of <R, C> when 2k = n) whose piece is
    not empty, in character-table order.  Every group element is its own
    inverse, so the one taking i to its orbit's least member takes that
    member back to i.
    """
    index = np.arange(len(configs))
    mirrored = np.zeros_like(configs)
    for site in range(n):
        mirrored |= ((configs >> site) & 1) << (n - 1 - site)
    r = np.searchsorted(configs, mirrored)
    if 2 * k == n:  # C reverses the ascending index
        images = np.stack([index, r, index[::-1], r[::-1]])
        characters = _REFLECTION_FLIP_CHARACTERS
    else:
        images, characters = np.stack([index, r]), _REFLECTION_CHARACTERS
    fixed = images == index  # stabilizer membership, by element
    least = images.min(axis=0)
    to_least = images.argmin(axis=0)
    scale = np.sqrt(fixed.sum(axis=0) / len(images))  # 1 / sqrt(|orbit|)
    pieces = []
    for chi in characters:
        allowed = ~(fixed & (chi[:, None] < 0)).any(axis=0)
        leaders = allowed & (least == index)
        if leaders.any():
            a = np.where(allowed, np.cumsum(leaders)[least] - 1, 0)
            u = np.where(allowed, chi[to_least] * scale, 0.0)
            a.flags.writeable = u.flags.writeable = False
            pieces.append((a, u))
    return tuple(pieces)


def _piece_matrix(a: np.ndarray, u: np.ndarray, rows: np.ndarray,
                  columns: np.ndarray) -> np.ndarray:
    """One piece of a block: entry (a(i), a(j)) sums u(i) u(j) over the hops (i, j)."""
    dim = int(a.max()) + 1
    flat = np.bincount(a[rows] * dim + a[columns], weights=u[rows] * u[columns],
                       minlength=dim * dim)
    return flat.reshape(dim, dim)


def _eigh_pieces(pieces, rows: np.ndarray, columns: np.ndarray) -> tuple[tuple, tuple]:
    """Levels and read-only eigenvectors of each piece, each matrix dropped after its solve."""
    parts, vectors = zip(*(np.linalg.eigh(_piece_matrix(a, u, rows, columns))
                           for a, u in pieces))
    for x in vectors:
        x.flags.writeable = False
    return parts, vectors


@lru_cache(maxsize=1)
def _unit_spectrum(n: int, /) -> tuple[tuple[tuple, ...], dict[int, tuple[np.ndarray, ...]]]:
    """Read-only J = 1 decomposition of each canonical popcount block k <= n/2.

    Returns ``(blocks, vectors)``.  ``blocks[k]`` is ``(configs, w, pieces,
    piece, local)``: the ascending k-up configurations, the levels w of each
    piece in turn, the ``_pieces`` pairs, and for each level the piece it
    came from and its column there.  ``vectors`` maps each k solved so far
    to its pieces' eigenvectors; ``_unit_columns`` fills it on first read.
    Block n - k has no record: it is block k's complement.

    Block n // 2 is solved last, so its eigenvectors are not held while the
    other blocks' levels are solved.
    """
    blocks, vectors = [], {}
    for k in range(n // 2 + 1):
        configs, rows, columns = _hops(n, k)
        pieces = _pieces(n, k, configs)
        if k == n // 2:
            parts, vectors[k] = _eigh_pieces(pieces, rows, columns)
        else:
            parts = [np.linalg.eigvalsh(_piece_matrix(a, u, rows, columns))
                     for a, u in pieces]
        w = np.concatenate(parts)
        piece = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
        local = np.concatenate([np.arange(len(part)) for part in parts])
        for array in (configs, w, piece, local):
            array.flags.writeable = False
        blocks.append((configs, w, pieces, piece, local))
    return tuple(blocks), vectors


def _unit_columns(n: int, k: int, columns: np.ndarray) -> np.ndarray:
    """J = 1 eigenvectors of canonical block k <= n/2 at the given level columns.

    Each column is gathered from its piece, v[i] = u(i) x[a(i), c], so no
    d x d array is built.  A block's piece eigenvectors are solved on first
    read and kept.
    """
    blocks, vectors = _unit_spectrum(n)
    _, _, pieces, piece, local = blocks[k]
    if k not in vectors:
        vectors[k] = _eigh_pieces(pieces, *_hops(n, k)[1:])[1]
    out = np.zeros((len(piece), len(columns)))
    piece, local = piece[columns], local[columns]
    for p, ((a, u), x) in enumerate(zip(pieces, vectors[k])):
        picked = np.flatnonzero(piece == p)
        out[:, picked] = u[:, None] * x[np.ix_(a, local[picked])]
    return out


def _full_spectrum(n, coupling, field):
    """All 2^n levels ascending, each with its popcount k and its column in block k.

    Magnetization is conserved, so the full matrix is block diagonal by
    popcount; diagonalizing block-wise keeps every eigenvector exactly
    inside one sector and gives it an unambiguous k tag.  Block k reads
    block min(k, n - k)'s J = 1 levels, scaled by J, and one stable sort
    over all 2^n levels orders them.  Levels or a spectral range that
    overflow are refused: every level would fall inside an infinite
    tolerance window.
    """
    if n > FULL_DIAGONALIZE_CAP:
        raise ValueError(f"full diagonalization is capped at n={FULL_DIAGONALIZE_CAP}")
    if n < 2:
        raise ValueError("pairwise concurrence needs at least two sites")
    blocks = _unit_spectrum(n)[0]
    values, tags, columns = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for k in range(n + 1):
            w = blocks[min(k, n - k)][1]
            values.append(coupling.j * w - field.b * (k - n / 2))  # Zeeman offset
            tags.append(np.full(len(w), k))
            columns.append(np.arange(len(w)))
    values = np.concatenate(values)
    if not np.isfinite(float(values.max()) - float(values.min())):
        raise ValueError(f"energies overflow at J={coupling.j:g}, b={field.b:g}")
    order = np.argsort(values, kind="stable")
    return values[order], np.concatenate(tags)[order], np.concatenate(columns)[order]


def _columns(n: int, tags: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The given levels' eigenvectors as columns over all 2^n configurations."""
    blocks = _unit_spectrum(n)[0]
    out = np.zeros((1 << n, len(tags)))
    for k in sorted(set(tags.tolist())):  # np.unique would import numpy.ma
        picked = np.flatnonzero(tags == k)
        configs = blocks[min(k, n - k)][0]
        rows = configs if 2 * k <= n else (1 << n) - 1 - configs
        out[np.ix_(rows, picked)] = _unit_columns(n, min(k, n - k), columns[picked])
    return out


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that would group nothing (negative) or everything (inf, nan).

    The public entry points call it first, so a bad tol costs no decomposition.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def _degenerate_groups(values: np.ndarray, tol: float):
    """Half-open index ranges of levels within tol * spectral range of their group's first.

    Subtracting a constant keeps ascending floats ascending, so the levels of
    ``values[start:] - values[start]`` within the window are exactly the
    first ones: one count ends the group, and a caller that stops early
    compares no level above it.
    """
    window = tol * max(float(values[-1] - values[0]), np.finfo(float).tiny)
    start = 0
    while start < len(values):
        stop = start + int(np.count_nonzero(values[start:] - values[start] <= window))
        yield start, stop
        start = stop


def _pair_amplitudes(vectors: np.ndarray, n: int, pair: tuple[int, int]) -> np.ndarray:
    """Amplitudes A on a pair of the equal-weight mixture of full-space columns.

    A is 4 x (2^(n-2) * columns), one row per pair configuration, and the
    mixture's pair density is A A^dagger (independent path).  Each column
    becomes an n-index tensor whose first axis is bit n-1; the axes of sites
    p and q move to the front, reversed so that up (bit 1) comes first, which
    gives the (uu, ud, du, dd) order.
    """
    p, q = pair
    d = vectors.shape[1]
    amps = np.moveaxis(vectors.T.reshape((d,) + (2,) * n), (n - p, n - q), (0, 1))
    return amps[::-1, ::-1].reshape(4, -1) / np.sqrt(d)


def _concurrence(amplitudes: np.ndarray) -> np.ndarray:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of each pair density A A^dagger.

    ``amplitudes`` is a (..., 4, K) stack of factors A.  The l are the
    singular values of Wootters' matrix tau = A^T (sy x sy) A of the
    ensemble that A's columns make up (PRL 80, 2245 (1998)): tau tau^dagger
    has the eigenvalues of rho rho~.  With the QR decomposition A^T = Q R,
    tau = Q (R (sy x sy) R^T) Q^T and Q has orthonormal columns, so the l
    are the singular values of the 4 x 4 middle factor; A gets four zero
    columns first, so R is 4 x 4 for every K.  One ``qr`` and one ``svd``
    call solve the whole stack.  The pipeline factors rho by its
    eigendecomposition instead, so the two routes check each other, and a
    singular value resolves an l that is exactly 0 to about eps, where a
    square root of an eigenvalue of rho rho~ resolved it only to sqrt(eps).
    """
    flip = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])  # sy x sy
    padded = np.concatenate([amplitudes, np.zeros(amplitudes.shape[:-1] + (4,))], axis=-1)
    r = np.linalg.qr(padded.swapaxes(-1, -2), mode="r")
    lam = np.linalg.svd(r @ flip @ r.swapaxes(-1, -2), compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1:].sum(axis=-1))


class FullSpectrumReport(NamedTuple):
    n: int
    ground_energy: float
    ground_degeneracy: int
    ground_sectors: tuple[int, ...]
    ground_concurrence: float
    config_probabilities: np.ndarray  # ground mixture, indexed by configuration


def _ground_level(n: int, coupling: Coupling, field: FieldSetting, tol: float,
                  pairs) -> tuple[FullSpectrumReport, np.ndarray]:
    """The ``full_diagonalize`` report, and the ground mixture's concurrence at each pair.

    The report's ``ground_concurrence`` is that of the first pair.
    """
    _check_tol(tol)
    values, tags, columns = _full_spectrum(n, coupling, field)
    _, d = next(_degenerate_groups(values, tol))
    ground = _columns(n, tags[:d], columns[:d])
    concurrences = _concurrence(np.stack([_pair_amplitudes(ground, n, pair) for pair in pairs]))
    return FullSpectrumReport(
        n=n,
        ground_energy=float(values[0]),
        ground_degeneracy=d,
        ground_sectors=tuple(sorted(set(tags[:d].tolist()))),
        ground_concurrence=float(concurrences[0]),
        config_probabilities=(np.abs(ground) ** 2).sum(axis=1) / d,
    ), concurrences


def full_diagonalize(n: int, coupling: Coupling, field: FieldSetting = FieldSetting(),
                     tol: float = DEGENERACY_RTOL) -> FullSpectrumReport:
    """Ground-level structure from the popcount-blocked full spectrum."""
    return _ground_level(n, coupling, field, tol, [(0, 1)])[0]


class LevelRow(NamedTuple):
    energy: float
    degeneracy: int
    concurrence: float


class LevelScan(NamedTuple):
    """Nearest-pair concurrence of every level's equal-weight mixture."""

    n: int
    rows: tuple[LevelRow, ...]
    ground_is_max: bool  # ties allowed


def eigenvector_concurrence_scan(n: int, coupling: Coupling,
                                 field: FieldSetting = FieldSetting(),
                                 tol: float = DEGENERACY_RTOL) -> LevelScan:
    """Per-level mixture concurrence; flags whether the ground level leads.

    Degenerate levels are mixed with equal weights, the only
    basis-independent per-level choice.
    """
    if n > SCAN_CAP:
        raise ValueError(f"level scan is capped at n={SCAN_CAP}")
    _check_tol(tol)
    values, tags, columns = _full_spectrum(n, coupling, field)
    rows = []
    for start, stop in _degenerate_groups(values, tol):
        amplitudes = _pair_amplitudes(_columns(n, tags[start:stop], columns[start:stop]),
                                      n, (0, 1))
        rows.append(LevelRow(energy=float(values[start]), degeneracy=stop - start,
                             concurrence=float(_concurrence(amplitudes))))
    top = max(row.concurrence for row in rows)
    return LevelScan(n=n, rows=tuple(rows),
                     ground_is_max=rows[0].concurrence >= top - 1e-12)


class PipelineAgreement(NamedTuple):
    """Deltas between the full-space oracle and the momentum pipeline."""

    n: int
    j: float
    energy_delta: float
    oracle_degeneracy: int
    pipeline_degeneracy: int
    concurrence_delta: float
    probability_delta: float

    @property
    def ok(self) -> bool:
        return (self.energy_delta <= AGREEMENT_ATOL
                and self.oracle_degeneracy == self.pipeline_degeneracy
                and self.concurrence_delta <= AGREEMENT_ATOL
                and self.probability_delta <= AGREEMENT_ATOL)


def compare_with_pipeline(n: int, coupling: Coupling,
                          field: FieldSetting = FieldSetting(),
                          tol: float = DEGENERACY_RTOL) -> PipelineAgreement:
    """Cross-check ground energy, degeneracy, probabilities and the printed concurrences.

    The concurrence is compared at every distance d = 1..n//2, as the pair
    (0, d), and at the pair (1, 2) when n >= 3, each read from the ground
    solve's profile at the pair's ``ring_distance``: the array the
    ``concurrence``, ``sweep`` and ``extrapolate`` commands print from.
    ``concurrence_delta`` is the largest difference.
    """
    pairs = [(0, d) for d in range(1, n // 2 + 1)] + [(1, 2)] * (n >= 3)
    report, oracle_c = _ground_level(n, coupling, field, tol, pairs)
    manifold = ground_manifold(n, coupling, field, tol=tol)
    mixture_c = manifold.concurrence[[ring_distance(pair, n) - 1 for pair in pairs]]

    d = manifold.degeneracy
    pipeline_probs = np.zeros(1 << n)
    for state in manifold.states:
        pipeline_probs[state.basis.bits] += np.abs(state.amplitudes) ** 2 / d

    return PipelineAgreement(
        n=n,
        j=coupling.j,
        energy_delta=abs(report.ground_energy - manifold.energy),
        oracle_degeneracy=report.ground_degeneracy,
        pipeline_degeneracy=manifold.degeneracy,
        concurrence_delta=float(np.abs(oracle_c - mixture_c).max()),
        probability_delta=float(np.abs(report.config_probabilities - pipeline_probs).max()),
    )
