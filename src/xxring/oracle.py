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
v[i] = u(i) x[a(i)], a(i) being the orbit's column in the piece.  One
pass over the 2^n configurations per ring size (``_ring``) gives each
configuration's popcount, its index in its popcount block, its mirror
image and its sublattice parity P, the parity of the up spins on odd
sites; every block's hop list and pieces are lookups in it.

Half of an even ring's solves are saved by the sublattice sign S =
(-1)^P.  When every hop of a block flips P, S anticommutes with the block
(an even ring is bipartite: Lieb, Schultz & Mattis, Ann. Phys. 16, 407
(1961)).  The premise is checked exactly on each block's hop list: it
holds on every even ring and fails on every odd ring, whose bond (n - 1,
0) joins two even sites, and a block without hops (k = 0) is taken as
failing it.  Such blocks are solved piece by piece.  A group element g
commutes with S up to a sign s(g), -1 when g flips P (R when k is odd, C
when n/2 is odd), so S maps piece chi onto piece chi * s with its levels
negated, and the stabilizers, on which s is 1, leave both pieces the same
columns.  When s is not trivial the pieces pair up: the first of a pair is
solved, and the other reads its levels negated and reversed and its
eigenvectors, column j from column d - 1 - j times (-1)^P of the column's
least member.  When s is trivial, S maps each piece onto itself, which is
then [[0, B], [B^T, 0]] in its P = 0 and P = 1 columns: its levels are
-sigma, |d0 - d1| zeros and sigma, sigma the singular values of B, and its
eigenvectors (u, -v) / sqrt 2 and (u, v) / sqrt 2 from ``np.linalg.svd(B)``,
with the extra columns of U or V for the zeros.  Of the 15 pieces of
blocks 0..6 at n = 12, 4 are solved whole, 3 are read from a partner and 8
are solved by the SVD.

Eigenvectors are solved only for the blocks a caller reads.  At zero field
the ground level lies in block n // 2 (or its complement) for both signs
of J, so ``_unit_spectrum(n)`` takes every other block's levels alone
(``eigvalsh``, or ``svd`` without U and V) and solves eigenvectors for the
pieces of block n // 2 only.  ``_unit_columns(n, k, columns)`` solves any
other block's pieces on first read (a field that moves the ground level, or
the level scan) and keeps their eigenvectors beside the levels.

The process keeps the decomposition for one ring size at a time, as
read-only arrays, and the per-ring pass beside it.  Each cache empties
itself when it builds a ring size (``cache_clear``, which also resets its
``cache_info()``), so the previous ring is released before the next one is
built and two rings are never held together.  Code that monkeypatches
the hop list (``_hops``), the pieces (``_pieces``, ``_piece_matrix``,
``_bipartite``) or a solver (``np.linalg.eigh``, ``np.linalg.eigvalsh``,
``np.linalg.svd``) must call ``_unit_spectrum.cache_clear()`` first, which
drops the levels, the pieces and their eigenvectors together, or it may be
handed a decomposition made before the patch; code that patches the
per-ring pass must call ``_ring.cache_clear()`` as well.  The public entry
points refuse a ring size that is not an int or a numpy integer before any
work, and key a numpy integer as the int it equals.
"""

from __future__ import annotations

import operator
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


@lru_cache(maxsize=1)
def _ring(n: int, /) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only popcount, index in its popcount block, mirror image and P of each configuration.

    One pass over the 2^n configurations per ring size.  The index counts
    the configurations of the same popcount below it, the mirror image is
    the configuration under R (site i -> n - 1 - i), and P is the parity of
    the up spins on odd sites.  The previous ring's arrays are released first.
    """
    _ring.cache_clear()  # a one-slot lru_cache evicts only once the new entry is in
    full = np.arange(1 << n)
    bits = (full[:, None] >> np.arange(n)) & 1
    count = bits.sum(axis=1)
    index = np.cumsum(count[:, None] == np.arange(n + 1), axis=0)[full, count] - 1
    ring = (count, index, bits[:, ::-1] @ (1 << np.arange(n)), bits[:, 1::2].sum(axis=1) & 1)
    for array in ring:
        array.flags.writeable = False
    return ring


def _hops(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending k-up configurations and the (row, column) indices of their unit hops.

    One numpy step per bond (i, i + 1 mod n), a bond list the oracle writes
    itself: n = 2 lists its one bond twice, so each of its hops appears
    twice, as its literal matrix entry of 2 requires, and n = 1 lists a
    self-bond, which has no hop.
    """
    count, index, _, _ = _ring(n)
    configs = np.flatnonzero(count == k)
    rows, columns = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for i, j in ((i, (i + 1) % n) for i in range(n)):
        hop = np.flatnonzero(((configs >> i) ^ (configs >> j)) & 1)
        rows.append(index[configs[hop] ^ ((1 << i) | (1 << j))])
        columns.append(hop)
    return configs, np.concatenate(rows), np.concatenate(columns)


def _pieces(n: int, k: int, configs: np.ndarray, rows: np.ndarray, columns: np.ndarray):
    """The pieces of block k, the P of each piece's columns, and each piece's partner.

    ``pieces`` holds one read-only pair (a, u), the piece column a(i) and
    coefficient u(i) of every configuration, per character of <R> (or of
    <R, C> when 2k = n) whose piece is not empty, in character-table order.
    Every group element is its own inverse, so the one taking i to its
    orbit's least member takes that member back to i.  A column's P is that
    of its orbit's least member.  When every hop flips P, ``partners`` gives
    the position of the piece chi * s that S maps each piece onto, s being
    -1 on the elements that flip P; otherwise it holds None for every piece.
    """
    _, index, mirror, parity = _ring(n)
    p, i, r = parity[configs], np.arange(len(configs)), index[mirror[configs]]
    if 2 * k == n:  # C reverses the ascending index
        images, characters = np.stack([i, r, i[::-1], r[::-1]]), _REFLECTION_FLIP_CHARACTERS
    else:
        images, characters = np.stack([i, r]), _REFLECTION_CHARACTERS
    fixed = images == i  # stabilizer membership, by element
    least = images.min(axis=0)
    to_least = images.argmin(axis=0)
    scale = np.sqrt(fixed.sum(axis=0) / len(images))  # 1 / sqrt(|orbit|)
    pieces, parities, position = [], [], {}
    for chi in characters:
        allowed = ~(fixed & (chi[:, None] < 0)).any(axis=0)
        leaders = allowed & (least == i)
        if leaders.any():
            a = np.where(allowed, np.cumsum(leaders)[least] - 1, 0)
            u = np.where(allowed, chi[to_least] * scale, 0.0)
            a.flags.writeable = u.flags.writeable = False
            position[tuple(chi)] = len(pieces)
            pieces.append((a, u))
            parities.append(p[leaders])
    s = np.where((p[images] != p).all(axis=1), -1, 1)
    bipartite = rows.size > 0 and bool((p[rows] != p[columns]).all())
    partners = [position[tuple(chi * s)] if bipartite else None
                for chi in characters if tuple(chi) in position]
    return tuple(pieces), parities, partners


def _piece_matrix(a: np.ndarray, u: np.ndarray, rows: np.ndarray,
                  columns: np.ndarray) -> np.ndarray:
    """One piece of a block: entry (a(i), a(j)) sums u(i) u(j) over the hops (i, j)."""
    dim = int(a.max()) + 1
    flat = np.bincount(a[rows] * dim + a[columns], weights=u[rows] * u[columns],
                       minlength=dim * dim)
    return flat.reshape(dim, dim)


def _bipartite(piece: np.ndarray, parity: np.ndarray, vectors: bool):
    """Ascending levels, and eigenvectors if asked, of a piece [[0, B], [B^T, 0]].

    B couples the piece's P = 0 columns to its P = 1 columns.  With B =
    U sigma V^T, the levels are -sigma, |d0 - d1| zeros and sigma, with
    eigenvectors (u, -v) / sqrt 2, the extra columns of U or of V, and
    (u, v) / sqrt 2.
    """
    even, odd = parity == 0, parity == 1
    solved = np.linalg.svd(piece[np.ix_(even, odd)], compute_uv=vectors)
    sigma = solved[1] if vectors else solved
    m, d = len(sigma), len(piece)
    w = np.concatenate([-sigma, np.zeros(d - 2 * m), sigma[::-1]])
    if not vectors:
        return w, None
    top, bottom = np.zeros((d, len(solved[0]))), np.zeros((d, len(solved[2])))
    top[even], bottom[odd] = solved[0], solved[2].T
    h = np.sqrt(0.5)
    return w, np.hstack([(top[:, :m] - bottom[:, :m]) * h, top[:, m:], bottom[:, m:],
                         (top[:, :m] + bottom[:, :m])[:, ::-1] * h])


def _solve(n: int, k: int, vectors: bool):
    """Block k's configurations, pieces, and each piece's levels and eigenvectors (or None).

    A piece that S maps onto an earlier one reads that piece's levels,
    negated and reversed, and its eigenvectors, column j from column d - 1 - j
    times (-1)^P; a piece that S maps onto itself is solved by ``_bipartite``;
    any other by ``eigh`` or ``eigvalsh``.  Each matrix is dropped after its
    solve, and the eigenvectors are read-only.
    """
    configs, rows, columns = _hops(n, k)
    pieces, parities, partners = _pieces(n, k, configs, rows, columns)
    parts, xs = [], []
    for (a, u), parity, q in zip(pieces, parities, partners):
        if q is not None and q < len(parts):
            w, x = -parts[q][::-1], xs[q]
            x = None if x is None else (1 - 2 * parity)[:, None] * x[:, ::-1]
        elif q == len(parts):
            w, x = _bipartite(_piece_matrix(a, u, rows, columns), parity, vectors)
        else:
            matrix = _piece_matrix(a, u, rows, columns)
            w, x = np.linalg.eigh(matrix) if vectors else (np.linalg.eigvalsh(matrix), None)
        if x is not None:
            x.flags.writeable = False
        parts.append(w)
        xs.append(x)
    return configs, pieces, parts, tuple(xs)


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
    other blocks' levels are solved, and the previous ring's record is
    released before any block is.
    """
    _unit_spectrum.cache_clear()  # a one-slot lru_cache evicts only once the new entry is in
    blocks, vectors = [], {}
    for k in range(n // 2 + 1):
        configs, pieces, parts, xs = _solve(n, k, k == n // 2)
        if k == n // 2:
            vectors[k] = xs
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
        vectors[k] = _solve(n, k, True)[3]
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


def _ring_size(n) -> int:
    """n as an int; a ring size that is not an int or a numpy integer is refused.

    The public entry points call it before any work, so 6.0 is refused with
    the ValueError the pipeline gives it, and a numpy integer is keyed in the
    caches as the int it equals.
    """
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"ring size must be an int, got {n!r}")
    return operator.index(n)


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
    return _ground_level(_ring_size(n), coupling, field, tol, [(0, 1)])[0]


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
    n = _ring_size(n)
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
    n = _ring_size(n)
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
