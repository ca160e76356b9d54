"""Points, point sets, circles, and difference tables in the plane over F_q,
and the set specs that name point sets (parse_sets).

A point is a plain tuple ``(x1, x2)`` of canonical residues.  The distance
form is the quadratic form ``|p| = p1^2 + p2^2 mod q`` -- it takes values in
F_q and is not a metric.  The circle of radius j is the level set of that
form; for j != 0 it has ``q - eta(-1)`` points, so "radius" j and circle
size are unrelated to Euclidean intuition.

The tiled layout.  Every index-based route (gathers, probes, marks) works on
the 2q x 2q tiling of a q x q array, flattened row-major (flat_tiling), and
this module is the only one that knows its arithmetic.  A canonical point
(r, c), 0 <= r, c < q, is named by its tiled index r * 2q + c (tiled_index,
tiled_point; tiled_points lists a set's).  The tiling repeats the array in
its four q x q quadrants, so for canonical p and s the cell p + s is a copy
of (p + s) mod q.  The one negation is negated_points: -v is (q, q) - v,
a cell with row and column in [1, q] that is a copy of -v mod q, so for
canonical u and v the cell u + negated_points(v) is a copy of (u - v) mod
q.  Each is one add or subtract, with no reduction mod q.  A scratch
tiling probed that way is written at all four copies of a point
(tiled_copies).  The windows of the 2-D tiling are the translates of the
array as views, which shift_meets and shift_meet_sizes read; in the flat
tiling the translate by x is the contiguous run of 2q^2 cells from
tiled_index(x), a row in the first q cells of each 2q, which shift_sum
adds up.  For q < 64 a tiling can hold words instead of cells
(word_tiling): at the tiled index of (s, b), the row words from row s on
of the array translated by (0, -b), so a translate's words are gathers at
the same tiled indices.

Each per-field table (norm_classes, norm_class_order, tiled_norm_classes,
circle, its +-x pairing mirrored_directions, word_layout, word_offsets) is
one lru_cache function of the context, so contexts of one q share one
read-only copy.
"""

import functools
import json
import math
import operator
import os

import numpy as np

from .errors import ModulusMismatch, PointSetFormatError
from .field import PrimeFieldCtx
from .rng import splitmix64_blocks

# difference_table takes the exact route while |A||B| <= this many pairs per
# cell of the plane.  Measured at q in {61, 101, 211}, the exact route beats
# the FFT up to ~34-47 q^2 pairs, and at 16 q^2 it is still >= 1.8x faster.
_EXACT_PAIRS_PER_CELL = 16
# Indices any chunked route (here, in counting and in vc) computes at once,
# and an eighth of the cells of a block of shift_sum or shift_meet_sizes (one
# chunk's bytes); all read it from this module at call time.
INDEX_CHUNK = 1 << 16
# difference_table(..., on) counts D on the cells of ``on`` alone while that
# takes at most this many probes, |on| min(|A|, |B|), per cell of the plane.
# Measured at q in {61, 101, 211} on circles, probes and whole tables cross
# at ~60-65 probes per cell.
_PROBES_PER_CELL = 64
# A draw's top 53 bits are its next_float() mantissa.
_MANTISSA_SHIFT = np.uint64(11)


def _checked_points(q: int, points) -> tuple:
    """The points as int tuples; ValueError unless they are distinct and
    reduced mod q.  Builds nothing sized by q."""
    pts = tuple((int(p[0]), int(p[1])) for p in points)
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points in point set")
    for x1, x2 in pts:
        if not (0 <= x1 < q and 0 <= x2 < q):
            raise ValueError(f"point {(x1, x2)} not reduced mod {q}")
    return pts


class PointSet:
    """Immutable set of distinct points, stored as its q x q indicator.

    The read-only bool array ``indicator`` is the set: size, membership,
    equality, hashing and the order of its points read it.  Two cached
    properties are built from it on first read: ``elements``, the row-major
    point tuples that oracles, the VC layer, file output and iteration read,
    and ``points``, the read-only row-major tiled_points that gathers read.
    Equal sets read alike, whatever built them.
    """

    __slots__ = ("q", "indicator", "_size", "__dict__")

    def __init__(self, q: int, points):
        pts = _checked_points(q, points)
        arr = np.zeros((q, q), dtype=bool)
        if pts:
            arr[tuple(np.array(pts).T)] = True
        arr.flags.writeable = False
        self.q = q
        self.indicator = arr
        self._size = len(pts)

    @classmethod
    def _from_indicator(cls, q: int, indicator: np.ndarray) -> "PointSet":
        """Trusted constructor: the True cells of a q x q bool array.

        Skips validation and builds no point tuples; the array is made
        read-only and must not be written to through another reference.
        """
        self = cls.__new__(cls)
        indicator.flags.writeable = False
        self.q = q
        self.indicator = indicator
        self._size = int(np.count_nonzero(indicator))
        return self

    @functools.cached_property
    def elements(self) -> tuple:
        """The points as row-major (x1, x2) tuples."""
        rows, cols = np.nonzero(self.indicator)
        return tuple(zip(rows.tolist(), cols.tolist()))

    @functools.cached_property
    def points(self) -> np.ndarray:
        """The points as read-only tiled indices (tiled_points)."""
        points = tiled_points(self.indicator)
        points.flags.writeable = False
        return points

    @property
    def size(self) -> int:
        return self._size

    def __len__(self):
        return self._size

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p):
        """Only a pair of integers in [0, q) can be a member; no index wraps."""
        try:
            x1, x2 = map(operator.index, p)
        except (TypeError, ValueError):
            return False
        return 0 <= x1 < self.q and 0 <= x2 < self.q and bool(self.indicator[x1, x2])

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PointSet)
            and self.q == other.q
            and self._size == other._size
            and np.array_equal(self.indicator, other.indicator)
        )

    def __hash__(self):
        return hash((self.q, self.indicator.tobytes()))

    def __repr__(self):
        return f"PointSet(q={self.q}, size={self._size})"


class DifferenceTable:
    """D(v) = #{(a, b) in A x B : a - b = v}; total mass |A|*|B|.

    ``table`` is a read-only int64 array: q x q indexed by v, or, for a
    table asked for on a set of cells, 1-D over those cells in row-major
    order.  ``route`` names how it was computed ("fft", "exact", or
    "probes", which counts the cells asked for alone).  ``count(v)`` reads
    a q x q table.
    """

    __slots__ = ("q", "table", "total", "route")

    def __init__(self, q: int, table: np.ndarray, total: int, route: str):
        self.q = q
        self.table = table
        self.total = total
        self.route = route

    def count(self, v) -> int:
        return int(self.table[v[0], v[1]])


def norm(ctx: PrimeFieldCtx, p) -> int:
    """The distance form p1^2 + p2^2 mod q."""
    return (p[0] * p[0] + p[1] * p[1]) % ctx.q


@functools.lru_cache(maxsize=None)
def norm_classes(ctx: PrimeFieldCtx) -> np.ndarray:
    """Read-only q x q int64 array of |p| over the plane.  Cached per q."""
    q = ctx.q
    idx = np.arange(q, dtype=np.int64)
    arr = (idx[:, None] * idx[:, None] + idx[None, :] * idx[None, :]) % q
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=None)
def norm_class_order(ctx: PrimeFieldCtx) -> tuple:
    """(order, starts): the row-major cells of the plane sorted by |p|, and
    where each class t in F_q starts in that order.  No class is empty
    (S_0 holds 0, and |S_t| >= q - 1), so the starts strictly increase.
    Read-only and cached per q."""
    classes = norm_classes(ctx).ravel()
    order = np.argsort(classes, kind="stable")
    starts = np.searchsorted(classes[order], np.arange(ctx.q))
    order.flags.writeable = starts.flags.writeable = False
    return order, starts


# One table is 4 q^2 cells, 32 MB at q = 2003, so few fields are kept.
@functools.lru_cache(maxsize=4)
def tiled_norm_classes(ctx: PrimeFieldCtx) -> np.ndarray:
    """|p| at every tiled index (flat_tiling of norm_classes), in the least
    unsigned dtype that holds q - 1.  Read-only; the 4 most recently used q
    are cached."""
    tiled = flat_tiling(norm_classes(ctx).astype(np.min_scalar_type(ctx.q - 1)))
    tiled.flags.writeable = False
    return tiled


# An all-t sweep at large q would otherwise keep q circles of q x q cells.
@functools.lru_cache(maxsize=64)
def circle(ctx: PrimeFieldCtx, j: int) -> PointSet:
    """All points at form-value j from the origin.  The 64 most recently
    used (q, j) are cached."""
    return PointSet._from_indicator(ctx.q, norm_classes(ctx) == j % ctx.q)


@functools.lru_cache(maxsize=64)
def mirrored_directions(ctx: PrimeFieldCtx, j: int) -> tuple:
    """(kept, source): the points of circle(ctx, j) that stand for each
    pair +-x, and the source of every position.

    The circle is closed under negation and its points ascend.  The first
    position of each pair +-x (the origin is its own pair) is kept, as a
    read-only array of tiled indices; ``source[i]`` is the index among the
    kept ones whose term belongs at position i.  The 64 most recently used
    (q, j) are cached.
    """
    q, st = ctx.q, circle(ctx, j).points
    # st is searched for each -x, so here -x is canonical, not negated_points.
    rows, cols = tiled_point(st, q)
    neg = np.searchsorted(st, tiled_index((-rows % q, -cols % q), q))
    first = np.minimum(np.arange(len(st)), neg)
    keep = np.flatnonzero(first == np.arange(len(st)))
    kept = st[keep]
    kept.flags.writeable = False
    return kept, tuple(np.searchsorted(keep, first).tolist())


def full_plane(ctx: PrimeFieldCtx) -> PointSet:
    """The whole plane F_q^2 (q^2 points)."""
    return PointSet._from_indicator(ctx.q, np.ones((ctx.q, ctx.q), dtype=bool))


def require_same_q(ctx: PrimeFieldCtx, *sets: PointSet) -> None:
    """ValueError unless every set is a set of ctx's plane."""
    for s in sets:
        if s.q != ctx.q:
            raise ValueError("point sets and field context disagree on q")


def _certified(raw: np.ndarray, table: np.ndarray, total, overlap) -> np.ndarray:
    """Integer invariants and rounding margin of float-derived tables, one
    verdict per q x q table of the last two axes."""
    cells = (-2, -1)
    return (
        (np.abs(raw - table).max(axis=cells) < 0.25)
        & (table.sum(axis=cells) == total)
        & (table[..., 0, 0] == overlap)
        & (table.min(axis=cells) >= 0)
    )


def _stacked(arrays: list) -> np.ndarray:
    """The arrays stacked along a new first axis; one array as a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _exact_differences(q: int, A: PointSet, B: PointSet) -> np.ndarray:
    """D by counting a + (-b) pair by pair, in chunks of pairs.

    -b is negated_points(b), so each pair's difference is one add, with no
    reduction mod q.  Each chunk of sums is written into one reused buffer
    and counted in place into the 4q^2 cells of the tiling, which fold back
    to q x q as the sum of their four q x q quadrants.
    """
    pa, nb = A.points, negated_points(B.points, q)
    counts = np.zeros(4 * q * q, dtype=np.int64)
    step = max(1, INDEX_CHUNK // max(len(nb), 1))
    buf = np.empty((min(step, len(pa)), len(nb)), dtype=np.intp)
    for i in range(0, len(pa), step):
        rows = pa[i:i + step, None]
        sums = buf[:len(rows)]
        np.add(rows, nb, out=sums)
        np.add.at(counts, sums.ravel(), 1)
    return counts.reshape(2, q, 2, q).sum(axis=(0, 2))


def difference_table(ctx: PrimeFieldCtx, A: PointSet, B: PointSet,
                     on: PointSet | None = None) -> DifferenceTable:
    """Tabulate a - b over A x B, on the whole plane or at the cells of
    ``on``: the one-pair case of difference_tables."""
    return difference_tables(ctx, [(A, B)], on)[0]


def difference_tables(ctx: PrimeFieldCtx, pairs, on: PointSet | None = None) -> list:
    """The DifferenceTable of each pair (A, B) in ``pairs``, in order.

    With ``on`` given, a table is D at its cells in row-major order.  While
    that takes at most _PROBES_PER_CELL q^2 probes, |on| min(|A|, |B|),
    they are counted alone (differences_at, route "probes"); past that they
    are read from the whole table.  Up to _EXACT_PAIRS_PER_CELL * q^2 pairs
    the whole table is counted exactly (route "exact").  Past that it is
    computed by FFT, every such pair in one stacked transform, and rounded;
    then each table is certified on its own: rounding residual < 1/4, mass
    |A||B|, D(0) = |A n B| and D >= 0 (route "fft").  A table that fails
    any check is counted exactly instead.  Every set and ``on`` must be
    of ctx's q (require_same_q).
    """
    q = ctx.q
    if on is not None:
        require_same_q(ctx, on)
    tables, routes, fft = [], [], []
    for k, (A, B) in enumerate(pairs):
        require_same_q(ctx, A, B)
        if on is not None and len(on) * min(len(A), len(B)) <= _PROBES_PER_CELL * q * q:
            tables.append(differences_at(A, B, on.points))
            routes.append("probes")
        elif len(A) * len(B) <= _EXACT_PAIRS_PER_CELL * q * q:
            tables.append(_exact_differences(q, A, B))
            routes.append("exact")
        else:
            tables.append(None)
            routes.append("fft")
            fft.append(k)
    if fft:
        ia = _stacked([pairs[k][0].indicator for k in fft])
        ib = _stacked([pairs[k][1].indicator for k in fft])
        spectrum = np.fft.rfft2(ia) * np.conj(np.fft.rfft2(ib))
        raw = np.fft.irfft2(spectrum, s=(q, q))
        rounded = np.rint(raw).astype(np.int64)
        totals = [len(pairs[k][0]) * len(pairs[k][1]) for k in fft]
        good = _certified(raw, rounded, totals, (ia & ib).sum(axis=(1, 2)))
        for k, table, ok in zip(fft, rounded, good):
            if ok:
                tables[k] = table
            else:
                tables[k], routes[k] = _exact_differences(q, *pairs[k]), "exact"
    out = []
    for (A, B), table, route in zip(pairs, tables, routes):
        if on is not None and route != "probes":
            table = table[on.indicator]
        table.flags.writeable = False
        out.append(DifferenceTable(q, table, len(A) * len(B), route))
    return out


def differences_at(A: PointSet, B: PointSet, offsets: np.ndarray) -> np.ndarray:
    """D(v) = #{(a, b) in A x B : a - b = v} for each v in ``offsets``.

    The offsets are canonical or negated tiled indices (negated_points),
    and the counts come back as int64 in their order.  Each is counted by
    probes from the smaller set (probe_counts): D(v) = #{b in B : b + v in
    A} on the tiling of A, and D(v) = #{a in A : a - v in B} on the tiling
    of B.
    """
    if len(A) < len(B):
        return probe_counts(flat_tiling(B.indicator), A.points, negated_points(offsets, A.q))
    return probe_counts(flat_tiling(A.indicator), B.points, offsets)


def probe_counts(tiled: np.ndarray, points: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """#{p in points : tiled[s + p]} for each s in ``offsets``, as int64 in
    their order, for canonical tiled indices p and canonical or negated
    tiled indices s (negated_points): the one chunked probe count.  A chunk
    of offsets by points is gathered at once, up to INDEX_CHUNK probes, and
    its rows are counted as byte sums.
    """
    counts = np.zeros(len(offsets), dtype=np.int64)
    if len(points):
        step = max(1, INDEX_CHUNK // len(points))
        # A row's count is at most len(points), so this dtype holds it.
        dtype = np.min_scalar_type(len(points))
        for i in range(0, len(offsets), step):
            rows = tiled[offsets[i:i + step, None] + points]
            counts[i:i + step] = rows.view(np.uint8).sum(axis=1, dtype=dtype)
    return counts


# -- the tiled layout (module docstring) --------------------------------------

def periodic(arr: np.ndarray) -> np.ndarray:
    """The 2q x 2q tiling of a q x q array."""
    return np.tile(arr, (2, 2))


def flat_tiling(arr: np.ndarray) -> np.ndarray:
    """The 2q x 2q tiling of a q x q array, flattened: indexed by tiled
    indices."""
    return periodic(arr).ravel()


def tiled_index(p, q: int):
    """The tiled index r * 2q + c of a canonical point p = (r, c); r and c
    may be integer arrays."""
    return p[0] * (2 * q) + p[1]


def tiled_point(i, q: int):
    """The cell (r, c) of the tiling at tiled index i, a canonical point
    when i is a canonical tiled index; i may be an integer array."""
    return divmod(i, 2 * q)


def tiled_points(ind: np.ndarray) -> np.ndarray:
    """Tiled indices of the True cells of a q x q array, in row-major order.

    From the flat q x q index f = r * q + c of a cell, its tiled index is
    f + r * q.
    """
    f = np.flatnonzero(ind)
    return f + f // ind.shape[0] * ind.shape[0]


def negated_points(points: np.ndarray, q: int) -> np.ndarray:
    """-p as (q, q) - p, the layout's one negation: for canonical p, a copy
    of -p mod q with row and column in [1, q], and for that, p again."""
    return tiled_index((q, q), q) - points


@functools.lru_cache(maxsize=None)
def _copy_offsets(q: int) -> np.ndarray:
    offsets = np.array([tiled_index((r, c), q) for r in (0, q) for c in (0, q)])
    offsets.flags.writeable = False
    return offsets


def tiled_copies(points: np.ndarray, q: int) -> np.ndarray:
    """The tiled indices of all four copies of each canonical tiled index,
    point by point."""
    return (points[:, None] + _copy_offsets(q)).ravel()


def _word_rows(q: int) -> int:
    """Rows of a q x q array held in one uint64 word of word_tiling: as many
    as fit, at most q."""
    return min(64 // q, q)


@functools.lru_cache(maxsize=None)
def _word_rotations(q: int) -> tuple:
    k = _word_rows(q)
    rows = (np.arange(2 * q)[:, None] + np.arange(k)) % q
    b = np.arange(2 * q) % q
    low = np.array([sum(((1 << (q - j)) - 1) << f for f in range(0, k * q, q)) for j in b],
                   dtype=np.uint64)
    high = np.uint64((1 << k * q) - 1) ^ low
    return rows, b.astype(np.uint64), (q - b).astype(np.uint64), low, high


def word_tiling(arrs) -> np.ndarray:
    """The row words of each of a sequence of q x q bool arrays, q < 64, as
    flat tilings: a uint64 array of shape (len(arrs), 4 q^2).

    With k = _word_rows(q), the word at the tiled index of (s, b), s, b < 2q,
    holds arr[s + j, c + b] (mod q) at bit j q + c for j < k and c < q:
    rows s .. s + k - 1 of arr - (0, b).  So for r < q and a canonical or
    negated y, the word at tiled_index((r, 0)) + y holds rows r .. r + k - 1
    of arr - y, the rows past q - 1 read again from row 0 (word_layout).
    """
    m, q = len(arrs), arrs[0].shape[0]
    rows, b, back, low, high = _word_rotations(q)
    bits = np.zeros((m, 2 * q, 64), dtype=bool)
    bits[..., :rows.shape[1] * q] = np.asarray(arrs).take(rows, axis=1).reshape(m, 2 * q, -1)
    words = np.packbits(bits, axis=2, bitorder="little").view("<u8")
    # Each q-bit field rotated down by b: its bit c is its bit c + b (mod q).
    tiling = words >> b
    tiling &= low
    wrapped = words << back
    wrapped &= high
    tiling |= wrapped
    return tiling.reshape(m, -1)


@functools.lru_cache(maxsize=None)
def word_layout(ctx: PrimeFieldCtx) -> tuple:
    """(firsts, masks) for reading word_tiling at ctx's q: the words of
    arr - y, for a canonical or negated y, are at y + firsts, and ``masks``
    keeps in each the rows of the plane once (the last word's rows past
    q - 1 repeat its first).  Read-only and cached per q."""
    q, k = ctx.q, _word_rows(ctx.q)
    first = np.arange(0, q, k)
    masks = np.full(len(first), (1 << k * q) - 1, dtype=np.uint64)
    masks[-1] = (1 << (q - first[-1]) * q) - 1
    firsts = tiled_index((first, 0), q)
    firsts.flags.writeable = masks.flags.writeable = False
    return firsts, masks


@functools.lru_cache(maxsize=8)
def word_offsets(ctx: PrimeFieldCtx, radii: tuple) -> np.ndarray:
    """The (len(radii), 1, words * |S_t|) offsets of a tuple of radii whose
    circles have one size: for each word's first row r (major) and each w
    on S_t in circle order, the canonical tiled index of (r, 0) + w reduced
    mod q.  So the words of arr - w - x are at these offsets plus x
    (word_tiling).  Read-only; the 8 most recent (q, radii) are cached."""
    q = ctx.q
    first = np.arange(0, q, _word_rows(q))[:, None]
    r, c = tiled_point(np.array([circle(ctx, t).points for t in radii]), q)
    offsets = tiled_index(((r[:, None] + first) % q, c[:, None]), q)
    offsets = offsets.reshape(len(radii), 1, -1)
    offsets.flags.writeable = False
    return offsets


def shift_sum(ind: np.ndarray, shifts) -> np.ndarray:
    """#{x in shifts : ind[u + x]} at every u of the plane, for canonical
    points x, in the least unsigned dtype that holds len(shifts).

    Each x adds one contiguous run of the flat tiling of ind as uint8: the
    2q^2 cells from tiled_index(x) on, whose cell r * 2q + c holds
    ind[(r, c) + x] for c < q.  The runs are added unstrided and with no
    cast into a uint8 buffer, whose q valid columns are folded into the
    total after every 255 runs, uint8's capacity.  The runs go in blocks of
    rows of at most 8 INDEX_CHUNK cells (512 KiB, the bytes of one chunk of
    int64 indices), one block for q <= 512, so that at larger q the buffer
    and the runs' rows stay in cache: on a 2-vCPU Xeon VM (2 MiB L2) the
    q=1009 full plane takes 70 ms, and 153 ms in one block.
    """
    q = ind.shape[0]
    starts = [tiled_index(x, q) for x in shifts]
    total = np.zeros((q, q), dtype=np.min_scalar_type(len(starts)))
    if not starts:
        return total
    tiled = flat_tiling(ind.view(np.uint8))
    rows, width, cap = max(1, INDEX_CHUNK // q * 4), 2 * q, np.iinfo(np.uint8).max
    buf = np.empty(min(rows, q) * width, dtype=np.uint8)
    for r in range(0, q, rows):
        lo, hi = r * width, min(r + rows, q) * width
        block = buf[:hi - lo]
        for g in range(0, len(starts), cap):
            group = starts[g:g + cap]
            block[:] = tiled[group[0] + lo:group[0] + hi]
            for x in group[1:]:
                block += tiled[x + lo:x + hi]
            total[r:r + rows] += block.reshape(-1, width)[:, :q]
    return total


def shift_meets(ind_i: np.ndarray, ind_j: np.ndarray, shifts):
    """Indicator of {u : ind_i[u] and ind_j[u + x]}, i.e.
    ind_i & roll(ind_j, -x), for each canonical point x in shifts, in
    turn; ind_j is tiled once, and roll(ind_j, -x) is the window of the
    tiling at x, a view."""
    q = ind_j.shape[0]
    tiled = periodic(ind_j)
    for x1, x2 in shifts:
        yield ind_i & tiled[x1:x1 + q, x2:x2 + q]


def shift_meet_sizes(ind_i: np.ndarray, ind_j: np.ndarray, shifts) -> list:
    """The size of each of shift_meets' meets, in turn, as a list.

    Each meet is written into one reused buffer and counted there, in
    blocks of rows of at most 8 INDEX_CHUNK cells, as in shift_sum: one
    block for q <= 724, and past that the block of ind_i and the windows'
    rows stay in cache.
    """
    q, shifts = ind_i.shape[0], list(shifts)
    tiled = periodic(ind_j)
    rows = max(1, INDEX_CHUNK // q * 8)
    meet = np.empty((min(rows, q), q), dtype=bool)
    sizes = [0] * len(shifts)
    for r in range(0, q, rows):
        part = ind_i[r:r + rows]
        h = len(part)
        out, band = meet[:h], tiled[r:r + h + q]
        sizes = [n + np.count_nonzero(np.logical_and(part, band[x1:x1 + h, x2:x2 + q], out))
                 for n, (x1, x2) in zip(sizes, shifts)]
    return sizes


def intersect_shift(ctx: PrimeFieldCtx, Ei: PointSet, Ej: PointSet, x) -> PointSet:
    """The set Ei shifted against Ej: {u in Ei : u + x in Ej}."""
    q = ctx.q
    meet, = shift_meets(Ei.indicator, Ej.indicator, [(x[0] % q, x[1] % q)])
    return PointSet._from_indicator(q, meet)


def gen_example_line_ap(ctx: PrimeFieldCtx, X) -> PointSet:
    """Horizontal-strip construction: {(a, b) : a in F_q, b in X}.

    With X an arithmetic progression this is the standard example of a set
    whose parallelogram count is governed by the additive energy of X.  The
    set is built from its indicator, its columns X.
    """
    q = ctx.q
    xs = [int(x) % q for x in X]
    if len(set(xs)) != len(xs):
        raise ValueError("X must consist of distinct residues")
    arr = np.zeros((q, q), dtype=bool)
    arr[:, xs] = True
    return PointSet._from_indicator(q, arr)


def gen_random_set(ctx: PrimeFieldCtx, density, seed):
    """Bernoulli(density) sample of the plane, as an indicator; given
    equal-length sequences of densities and seeds, the list of their samples
    in order, from one stacked pass.

    Driven by splitmix64: the k-th draw of seed decides cell k - 1 in
    row-major order, so a set is a pure function of (q, density, seed).  A
    cell is in when ``next_float() < density``.  With m the top 53 bits of
    the draw, next_float() is m * 2^-53 and scaling density by 2^53 is
    exact, so that holds exactly when m < ceil(density * 2^53): one shift
    and one integer compare per cell, and no float conversion.  The draws
    come in fixed blocks (rng.splitmix64_blocks), and each block's compare
    is written straight into its cells of the indicators.
    """
    one = np.ndim(seed) == 0
    densities, seeds = ([density], [seed]) if one else (list(density), list(seed))
    if len(densities) != len(seeds):
        raise ValueError("one density per seed")
    if not all(0.0 <= d <= 1.0 for d in densities):
        raise ValueError("density must lie in [0, 1]")
    q = ctx.q
    thresholds = np.array([math.ceil(d * 2.0**53) for d in densities], dtype=np.uint64)
    indicators = np.empty((len(seeds), q, q), dtype=bool)
    cells = indicators.reshape(len(seeds), q * q)
    for i, lo, z in splitmix64_blocks(seeds, q * q):
        np.right_shift(z, _MANTISSA_SHIFT, out=z)
        np.less(z, thresholds[i:i + len(z), None], out=cells[i:i + len(z), lo:lo + z.shape[1]])
    sets = [PointSet._from_indicator(q, indicator) for indicator in indicators]
    return sets[0] if one else sets


# -- file formats -----------------------------------------------------------
#
# Text form:  first line "q <value>", then one "x1 x2" pair per line.
# JSON form:  {"q": int, "points": [[x1, x2], ...]}.
# Duplicates are rejected in both forms.


def point_set_to_json_obj(ps: PointSet) -> dict:
    return {"q": ps.q, "points": [[p[0], p[1]] for p in ps.elements]}


def _is_json_int(value) -> bool:
    """JSON integers only: floats, bools, strings and null are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def point_set_from_json_obj(obj, expected_q: int | None = None) -> PointSet:
    try:
        q = obj["q"]
        raw = obj["points"]
    except (KeyError, TypeError) as exc:
        raise PointSetFormatError(f"bad point-set JSON: {exc}") from exc
    if not _is_json_int(q):
        raise PointSetFormatError(f"'q' must be an integer, got {q!r}")
    if not isinstance(raw, list):
        raise PointSetFormatError("'points' must be a list")
    for entry in raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and all(map(_is_json_int, entry))):
            raise PointSetFormatError(f"bad point entry {entry!r}")
    return _file_point_set(q, raw, expected_q)


def point_set_to_text(ps: PointSet) -> str:
    lines = [f"q {ps.q}"]
    lines.extend(f"{p[0]} {p[1]}" for p in ps.elements)
    return "\n".join(lines) + "\n"


def point_set_from_text(text: str, expected_q: int | None = None) -> PointSet:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise PointSetFormatError("empty point-set file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "q":
        raise PointSetFormatError(f"expected header 'q <value>', got {lines[0]!r}")
    try:
        q = int(header[1])
    except ValueError as exc:
        raise PointSetFormatError(f"bad modulus {header[1]!r}") from exc
    pts = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise PointSetFormatError(f"expected 'x1 x2', got {ln!r}")
        try:
            pts.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise PointSetFormatError(f"bad coordinate in {ln!r}") from exc
    return _file_point_set(q, pts, expected_q)


def _file_point_set(q: int, points, expected_q: int | None) -> PointSet:
    """The PointSet of a parsed file.  Points that are not distinct and
    reduced mod q raise PointSetFormatError; then a q other than
    ``expected_q`` (when given) raises ModulusMismatch before any q x q
    array is built."""
    try:
        if expected_q is None or q == expected_q:
            return PointSet(q, points)
        _checked_points(q, points)
    except ValueError as exc:
        raise PointSetFormatError(str(exc)) from exc
    raise ModulusMismatch(q, expected_q)


def save_point_set(ps: PointSet, path: str) -> None:
    """Write a set file; JSON when the extension is .json, text otherwise."""
    if os.path.splitext(path)[1].lower() == ".json":
        payload = json.dumps(point_set_to_json_obj(ps), sort_keys=True)
        data = payload + "\n"
    else:
        data = point_set_to_text(ps)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)


def load_point_set(path: str, expected_q: int | None = None) -> PointSet:
    """Read a set file; JSON when the extension is .json, text otherwise.
    With ``expected_q`` given, a file for another q raises ModulusMismatch
    (see _file_point_set); a file that is not UTF-8 raises
    PointSetFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = fh.read()
    except UnicodeDecodeError as exc:
        raise PointSetFormatError(str(exc)) from exc
    if os.path.splitext(path)[1].lower() == ".json":
        try:
            obj = json.loads(data)
        except json.JSONDecodeError as exc:
            raise PointSetFormatError(f"invalid JSON: {exc}") from exc
        return point_set_from_json_obj(obj, expected_q)
    return point_set_from_text(data, expected_q)


# -- set specs (parse_sets) --------------------------------------------------


def _random_draw(token: str, default_seed: int, slot: int) -> tuple:
    """The (density, seed) a random:DENSITY[:SEED] token draws in ``slot``;
    an unseeded token draws default_seed + slot."""
    parts = token.split(":")
    if len(parts) not in (2, 3):
        raise PointSetFormatError(f"bad set spec {token!r}; use random:DENSITY[:SEED]")
    try:
        density = float(parts[1])
        seed = int(parts[2]) if len(parts) == 3 else default_seed + slot
    except ValueError as exc:
        raise PointSetFormatError(f"bad set spec {token!r}: {exc}") from exc
    if not 0.0 <= density <= 1.0:
        raise PointSetFormatError("density must lie in [0, 1]")
    # splitmix64 takes its seed mod 2^64, so a seed outside would alias one.
    if not 0 <= seed < 2**64:
        raise PointSetFormatError(
            f"the seed of set {token!r} in slot {slot} must lie in [0, 2^64), got {seed}")
    return density, seed


def _token_set(ctx: PrimeFieldCtx, token: str) -> PointSet:
    """The set of a full, line-ap or file token."""
    if token == "full":
        return full_plane(ctx)
    if token.startswith("line-ap:"):
        parts = token.split(":")
        if len(parts) != 4:
            raise PointSetFormatError(f"bad set spec {token!r}; use line-ap:START:STEP:LEN")
        try:
            start, step, length = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError as exc:
            raise PointSetFormatError(f"bad set spec {token!r}: {exc}") from exc
        if length < 0:
            raise PointSetFormatError("line-ap length must be nonnegative")
        # For prime q the residues are distinct iff length <= q and, past
        # one, step != 0 mod q; refused before any is built.
        if length > ctx.q or (length > 1 and step % ctx.q == 0):
            raise PointSetFormatError("X must consist of distinct residues")
        return gen_example_line_ap(ctx, [(start + i * step) % ctx.q for i in range(length)])
    if token.startswith("file:"):
        path = token[len("file:"):]
        try:
            return load_point_set(path, ctx.q)
        except ModulusMismatch as exc:
            raise PointSetFormatError(
                f"set file {path!r} has q={exc.q}, expected {ctx.q}") from exc
        except (OSError, PointSetFormatError) as exc:
            raise PointSetFormatError(f"cannot load {path!r}: {exc}") from exc
    raise PointSetFormatError(
        f"bad set spec {token!r}; expected full, random:..., line-ap:..., or file:...")


def parse_sets(ctx: PrimeFieldCtx, spec: str, nslots: int, default_seed: int) -> list:
    """The ``nslots`` sets a set spec names, in slot order: the one grammar
    of every command's --set.

    A spec is comma-separated tokens, one per slot, each full |
    random:DENSITY[:SEED] | line-ap:START:STEP:LEN | file:PATH.  Empty
    tokens are dropped, and a spec of one token gives it to every slot.
    Each distinct token is built once, so slots naming one set share one
    PointSet; an unseeded random:D draws default_seed + slot, so its slot
    is part of what it names.  The tokens are checked in slot order; then
    every distinct random set is drawn in one stacked gen_random_set pass.
    A fault in the spec or a set file raises PointSetFormatError.
    """
    tokens = [tok.strip() for tok in spec.split(",") if tok.strip()]
    if len(tokens) == 1:
        tokens *= nslots
    if len(tokens) != nslots:
        raise PointSetFormatError(f"expected {nslots} set slots, got {len(tokens)}")
    built, draws, keys = {}, {}, []
    for slot, token in enumerate(tokens):
        random = token.startswith("random:")
        key = (token, slot) if random and token.count(":") == 1 else token
        if random and key not in draws:
            draws[key] = _random_draw(token, default_seed, slot)
        elif not random and key not in built:
            built[key] = _token_set(ctx, token)
        keys.append(key)
    if draws:
        densities, seeds = zip(*draws.values())
        built.update(zip(draws, gen_random_set(ctx, densities, seeds)))
    return [built[key] for key in keys]
