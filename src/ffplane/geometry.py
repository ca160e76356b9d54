"""Points, point sets, circles, and difference tables in the plane over F_q.

A point is a plain tuple ``(x1, x2)`` of canonical residues.  The distance
form is the quadratic form ``|p| = p1^2 + p2^2 mod q`` -- it takes values in
F_q and is not a metric.  The circle of radius j is the level set of that
form; for j != 0 it has ``q - eta(-1)`` points, so "radius" j and circle
size are unrelated to Euclidean intuition.
"""

import functools
import json
import math
import operator
import os

import numpy as np

from .errors import PointSetFormatError
from .field import PrimeFieldCtx
from .rng import splitmix64_u64

Point = tuple

# difference_table takes the exact route while |A||B| <= this many pairs per
# cell of the plane.  Measured at q in {61, 101, 211}, the exact route beats
# the FFT up to ~34-47 q^2 pairs, and at 16 q^2 it is still >= 1.8x faster.
_EXACT_PAIRS_PER_CELL = 16
# Pairwise differences held in memory at once by the exact route.
_EXACT_CHUNK = 1 << 16


class PointSet:
    """Immutable set of distinct points, stored as its q x q indicator.

    The read-only bool array ``indicator`` is the set: size, membership,
    equality and hashing read it.  ``elements``, the ordered tuple of point
    tuples that the oracles, the VC layer, file output and iteration read,
    is derived on first read and cached.  It is row-major for a set built
    from an indicator and in the given order for ``PointSet(q, points)``.
    """

    __slots__ = ("q", "indicator", "_size", "_elements")

    def __init__(self, q: int, points):
        pts = tuple((int(p[0]), int(p[1])) for p in points)
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points in point set")
        for x1, x2 in pts:
            if not (0 <= x1 < q and 0 <= x2 < q):
                raise ValueError(f"point {(x1, x2)} not reduced mod {q}")
        arr = np.zeros((q, q), dtype=bool)
        if pts:
            arr[tuple(np.array(pts).T)] = True
        arr.flags.writeable = False
        self.q = q
        self.indicator = arr
        self._size = len(pts)
        self._elements = pts

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
        self._elements = None
        return self

    @property
    def elements(self) -> tuple:
        """The points as (x1, x2) tuples, built on first read."""
        if self._elements is None:
            rows, cols = np.nonzero(self.indicator)
            self._elements = tuple(zip(rows.tolist(), cols.tolist()))
        return self._elements

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
            and np.array_equal(self.indicator, other.indicator)
        )

    def __hash__(self):
        return hash((self.q, self.indicator.tobytes()))

    def __repr__(self):
        return f"PointSet(q={self.q}, size={self._size})"


class DifferenceTable:
    """D(v) = #{(a, b) in A x B : a - b = v}; total mass |A|*|B|.

    ``table`` is a read-only q x q int64 array indexed by v; ``route``
    names how it was computed ("fft" or "exact").
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
def _norm_classes_cached(q: int) -> np.ndarray:
    idx = np.arange(q, dtype=np.int64)
    arr = (idx[:, None] * idx[:, None] + idx[None, :] * idx[None, :]) % q
    arr.flags.writeable = False
    return arr


def norm_classes(ctx: PrimeFieldCtx) -> np.ndarray:
    """Read-only q x q int64 array of |p| over the plane.  Cached per q."""
    return _norm_classes_cached(ctx.q)


# An all-t sweep at large q would otherwise keep q circles of q x q cells.
@functools.lru_cache(maxsize=64)
def _circle_cached(q: int, j: int) -> PointSet:
    return PointSet._from_indicator(q, _norm_classes_cached(q) == j)


def circle(ctx: PrimeFieldCtx, j: int) -> PointSet:
    """All points at form-value j from the origin.  The 64 most recently
    used (q, j) are cached."""
    return _circle_cached(ctx.q, j % ctx.q)


def full_plane(ctx: PrimeFieldCtx) -> PointSet:
    """The whole plane F_q^2 (q^2 points, row-major order)."""
    return PointSet._from_indicator(ctx.q, np.ones((ctx.q, ctx.q), dtype=bool))


def _certified(raw: np.ndarray, table: np.ndarray, total: int, overlap: int) -> bool:
    """Integer invariants and rounding margin of a float-derived table."""
    return (
        float(np.abs(raw - table).max()) < 0.25
        and int(table.sum()) == total
        and int(table[0, 0]) == overlap
        and int(table.min()) >= 0
    )


def _exact_differences(q: int, A: PointSet, B: PointSet) -> np.ndarray:
    """D by counting a + (-b) pair by pair, in chunks of pairs.

    a and -b are canonical flat indices on the 2q x 2q tiling (tiled_points),
    so each pair's difference is one add, with no reduction mod q.  Each
    chunk of sums is written into one reused buffer and counted in place
    into 4q^2 cells, which fold back to q x q as the sum of their four
    q x q quadrants.
    """
    pa = tiled_points(A.indicator)
    nb = tiled_points(np.roll(B.indicator[::-1, ::-1], 1, axis=(0, 1)))  # -B
    counts = np.zeros(4 * q * q, dtype=np.int64)
    step = max(1, _EXACT_CHUNK // max(len(nb), 1))
    buf = np.empty((min(step, len(pa)), len(nb)), dtype=np.intp)
    for i in range(0, len(pa), step):
        rows = pa[i:i + step, None]
        sums = buf[:len(rows)]
        np.add(rows, nb, out=sums)
        np.add.at(counts, sums.ravel(), 1)
    return counts.reshape(2, q, 2, q).sum(axis=(0, 2))


def difference_table(ctx: PrimeFieldCtx, A: PointSet, B: PointSet) -> DifferenceTable:
    """Tabulate a - b over A x B, by pairs or as the correlation 1_A * 1_B.

    Up to _EXACT_PAIRS_PER_CELL * q^2 pairs the table is counted exactly
    (route "exact").  Past that it is computed by FFT and rounded, then
    certified: rounding residual < 1/4, mass |A||B|, D(0) = |A n B| and
    D >= 0 (route "fft"); if any check fails, it is counted exactly instead.
    """
    q = ctx.q
    total = len(A) * len(B)
    if total <= _EXACT_PAIRS_PER_CELL * q * q:
        table, route = _exact_differences(q, A, B), "exact"
    else:
        ia, ib = A.indicator, B.indicator
        spectrum = np.fft.rfft2(ia) * np.conj(np.fft.rfft2(ib))
        raw = np.fft.irfft2(spectrum, s=(q, q))
        table = np.rint(raw).astype(np.int64)
        route = "fft"
        if not _certified(raw, table, total, int(np.count_nonzero(ia & ib))):
            table, route = _exact_differences(q, A, B), "exact"
    table.flags.writeable = False
    return DifferenceTable(q, table, total, route)


def periodic(ind: np.ndarray) -> np.ndarray:
    """The 2q x 2q tiling of a q x q array.

    It serves shifted views (shift_meet) and flat probes: flattened, it is
    indexed by row * 2q + col, so canonical p and s meet at p + s with no
    reduction mod q.
    """
    return np.tile(ind, (2, 2))


def tiled_points(ind: np.ndarray) -> np.ndarray:
    """Flat indices row * 2q + col of the True cells of a q x q array.

    They index the flattened periodic() tiling, where a point p and an
    offset s, both canonical, meet at p + s without reduction mod q.
    """
    rows, cols = np.nonzero(ind)
    return rows * (2 * ind.shape[0]) + cols


def shift_meet(ind_i: np.ndarray, tiled_j: np.ndarray, x) -> np.ndarray:
    """Indicator of {u : ind_i[u] and ind_j[u + x]}, i.e. ind_i & roll(ind_j, -x).

    ``tiled_j`` is periodic(ind_j); its window at x is the rolled array as a
    view, so no copy of ind_j is made per shift.  x must be canonical.
    """
    q = ind_i.shape[0]
    return ind_i & tiled_j[x[0]:x[0] + q, x[1]:x[1] + q]


def intersect_shift(ctx: PrimeFieldCtx, Ei: PointSet, Ej: PointSet, x) -> PointSet:
    """The set Ei shifted against Ej: {u in Ei : u + x in Ej}, row-major."""
    q = ctx.q
    meet = shift_meet(Ei.indicator, periodic(Ej.indicator), (x[0] % q, x[1] % q))
    return PointSet._from_indicator(q, meet)


def gen_example_line_ap(ctx: PrimeFieldCtx, X) -> PointSet:
    """Horizontal-strip construction: {(a, b) : a in F_q, b in X}.

    With X an arithmetic progression this is the standard example of a set
    whose parallelogram count is governed by the additive energy of X.
    """
    q = ctx.q
    xs = [x % q for x in X]
    if len(set(xs)) != len(xs):
        raise ValueError("X must consist of distinct residues")
    return PointSet(q, [(a, b) for a in range(q) for b in xs])


def gen_random_set(ctx: PrimeFieldCtx, density: float, seed: int) -> PointSet:
    """Bernoulli(density) sample of the plane, as an indicator.

    Driven by splitmix64: the k-th draw decides cell k - 1 in row-major
    order, so the result is a pure function of (q, density, seed).  A cell
    is in when ``next_float() < density``.  With m the top 53 bits of the
    draw, next_float() is m * 2^-53 and scaling density by 2^53 is exact, so
    that holds exactly when m < ceil(density * 2^53): one shift and one
    integer compare per cell, and no float conversion.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    q = ctx.q
    top = splitmix64_u64(seed, q * q).reshape(q, q) >> np.uint64(11)
    return PointSet._from_indicator(q, top < np.uint64(math.ceil(density * 2.0**53)))


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


def point_set_from_json_obj(obj) -> PointSet:
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
    try:
        return PointSet(q, raw)
    except ValueError as exc:
        raise PointSetFormatError(str(exc)) from exc


def point_set_to_text(ps: PointSet) -> str:
    lines = [f"q {ps.q}"]
    lines.extend(f"{p[0]} {p[1]}" for p in ps.elements)
    return "\n".join(lines) + "\n"


def point_set_from_text(text: str) -> PointSet:
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
    try:
        return PointSet(q, pts)
    except ValueError as exc:
        raise PointSetFormatError(str(exc)) from exc


def save_point_set(ps: PointSet, path: str) -> None:
    """Write a set file; JSON when the extension is .json, text otherwise."""
    if os.path.splitext(path)[1].lower() == ".json":
        payload = json.dumps(point_set_to_json_obj(ps), sort_keys=True)
        data = payload + "\n"
    else:
        data = point_set_to_text(ps)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)


def load_point_set(path: str) -> PointSet:
    with open(path, "r", encoding="utf-8") as fh:
        data = fh.read()
    if os.path.splitext(path)[1].lower() == ".json":
        try:
            obj = json.loads(data)
        except json.JSONDecodeError as exc:
            raise PointSetFormatError(f"invalid JSON: {exc}") from exc
        return point_set_from_json_obj(obj)
    return point_set_from_text(data)
