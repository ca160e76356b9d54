"""The radius-t neighborhood set-system on a point set: shattering, VC
dimension, and a constructive shattering witness with an independent
verifier.

For a ground set E and nonzero t, each point x induces
N(x) = {y in E : |x - y| = t}; the family of all N(x) is the set system
under study.  A finite X inside E is shattered when every one of its 2^|X|
subsets occurs as N(x) intersected with X for some x in E.

The exhaustive VC search leans on one geometric fact: a shattered X (of any
positive size) must realize the full trace X itself, so X sits inside a
single neighborhood N(z).  Candidate subsets are therefore drawn from
neighborhoods only, which keeps the search exhaustive.  Three more facts
make it fast:

* Certificate.  For x in a shattered X, the trace X minus {x} is realized by
  some z' != z, so |X| - 1 <= |N(z) n N(z')| <= m, where
  m = max over d != 0 of |S_t n (S_t + d)|.  No set of size m + 2 is
  shattered, whatever E is, so the scan stops at size m + 1.  m is read
  from the exact self-difference table of the circle S_t (its ~q^2 pairs
  are counted one by one), never assumed; it is 2, as two distinct
  radius-t circles meet in at most 2 points, so sizes beyond 3 are never
  scanned.
* Fail fast.  A candidate's trace patterns are tested in order of falling
  popcount, and the full pattern is skipped because z realizes it.
* find_shattered keeps the canonical scan in sorted order, merged lazily
  from the sorted per-neighborhood streams, so it stops at the first hit.
"""

import functools
import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRadius, NotSubset
from .field import PrimeFieldCtx
from .geometry import (PointSet, circle, difference_table, norm_classes,
                       periodic, shift_meet, tiled_points)
from .rng import SplitMix64

# Adjacency cells (rows x |E|) unpacked at once while packing the bitmasks.
_MASK_CHUNK = 1 << 22


class DistanceSystem:
    """Neighborhood family over E at radius t, with bitmask indexes.

    The points of E are held in sorted order.  ``nbr`` is build_system's
    (|E|, |S_t|) array whose row i holds the index of point i + s for each
    circle offset s, or -1 where that point is not in E.  From it come the
    sorted neighbor indices of each point and one adjacency bitmask per
    point (bit j of mask i set iff point j lies in N(point i)), which the
    subset searches use.
    """

    __slots__ = ("ctx", "E", "t", "_points", "_masks", "_universe", "_nbr_indices")

    def __init__(self, ctx, E: PointSet, t: int, nbr: np.ndarray):
        self.ctx = ctx
        self.E = E
        self.t = t
        self._points = tuple(sorted(E.elements))
        n = len(self._points)
        # -1 sorts first, so each row's neighbors follow its absent slots.
        absent = np.count_nonzero(nbr < 0, axis=1).tolist()
        self._nbr_indices = [tuple(row[k:]) for row, k in
                             zip(np.sort(nbr, axis=1).tolist(), absent)]
        masks = []
        step = max(1, _MASK_CHUNK // (n + 1))
        for i in range(0, n, step):
            block = nbr[i:i + step]
            # Column n is a sink for the -1 (absent) entries and is dropped.
            adj = np.zeros((len(block), n + 1), dtype=bool)
            adj[np.arange(len(block))[:, None], block] = True
            packed = np.packbits(adj[:, :n], axis=1, bitorder="little")
            masks.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
        self._masks = masks
        self._universe = (1 << n) - 1

    @property
    def neighborhoods(self) -> dict:
        """Each point of E mapped to its frozen neighbor set (built on access)."""
        pts = self._points
        return {p: frozenset(pts[j] for j in nbrs)
                for p, nbrs in zip(pts, self._nbr_indices)}

    def __repr__(self):
        return f"DistanceSystem(q={self.E.q}, t={self.t}, size={len(self.E)})"


def build_system(ctx: PrimeFieldCtx, E: PointSet, t: int) -> DistanceSystem:
    """Neighborhoods via circle probing: N(x) = (x + S_t) intersect E.

    One gather on the 2q x 2q tiling of E's rank array (the sorted index of
    each member, -1 elsewhere) reads the neighbor index of every (x, s).
    """
    q = ctx.q
    t %= q
    if t == 0:
        raise InvalidRadius("neighborhood radius must be nonzero")
    ind = E.indicator
    rank = np.full((q, q), -1, dtype=np.int64)
    rank[ind] = np.arange(len(E))
    offsets = tiled_points(circle(ctx, t).indicator)
    nbr = periodic(rank).ravel()[tiled_points(ind)[:, None] + offsets]
    return DistanceSystem(ctx, E, t, nbr)


def shatters(sys: DistanceSystem, X) -> bool:
    """True iff every subset of X occurs as a neighborhood trace on X.

    Collects the trace patterns {N(z) cut down to X : z in E} and stops as
    soon as all 2^|X| of them have appeared.  X = empty set is shattered
    exactly when E is nonempty (a realizing neighborhood must exist).
    Adjacency is decided from the distance form itself, so this oracle
    shares no code with build_system.
    """
    pts = [tuple(p) for p in X]
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points in X")
    missing = [p for p in pts if p not in sys.E]
    if missing:
        raise NotSubset(f"points {missing} are not in the ground set")
    d = len(pts)
    if d == 0:
        return len(sys.E) > 0
    q, t = sys.E.q, sys.t
    target = 1 << d
    seen = set()
    for z1, z2 in sys.E.elements:
        pattern = 0
        for k, (x1, x2) in enumerate(pts):
            if ((x1 - z1) ** 2 + (x2 - z2) ** 2) % q == t:
                pattern |= 1 << k
        if pattern not in seen:
            seen.add(pattern)
            if len(seen) == target:
                return True
    return False


@functools.lru_cache(maxsize=None)
def _fail_fast_patterns(d: int) -> tuple:
    """Trace patterns of a d-set as (inside, outside) position tuples, in
    order of falling popcount, without the full pattern 2^d - 1."""
    order = sorted(range((1 << d) - 1), key=lambda p: -p.bit_count())
    return tuple((tuple(k for k in range(d) if p >> k & 1),
                  tuple(k for k in range(d) if not p >> k & 1)) for p in order)


def _shattered_by_masks(masks, universe, xs) -> bool:
    """Bitmask equivalent of shatters() for a candidate index tuple (internal).

    Precondition: xs lies inside some neighborhood N(z), so z realizes the
    full pattern and it is not tested.  The others go most-populated first:
    a pattern that asks for common neighbors of many points is the one a
    failing set misses, so a failing set is refuted after a few patterns.
    """
    for inside, outside in _fail_fast_patterns(len(xs)):
        m = universe
        for k in inside:
            m &= masks[xs[k]]
        for k in outside:
            m &= ~masks[xs[k]]
        if not m:
            return False
    return True


def _iter_candidates(sys: DistanceSystem, d: int):
    """All d-subsets of E that lie inside at least one neighborhood, as
    sorted index tuples in increasing order, each once.

    A shattered d-set (d >= 1) must itself be a realized trace, i.e. sit
    inside some N(z); no other subsets can qualify, so this enumeration is
    exhaustive.  The per-neighborhood combination streams are each sorted
    and are merged lazily, so a scan that stops early builds no global list.
    """
    streams = [itertools.combinations(nbrs, d)
               for nbrs in sys._nbr_indices if len(nbrs) >= d]
    last = None
    for xs in heapq.merge(*streams):
        if xs != last:
            last = xs
            yield xs


def _candidate_index_subsets(sys: DistanceSystem, d: int) -> list:
    """The candidates of _iter_candidates as one sorted list."""
    return list(_iter_candidates(sys, d))


def find_shattered(sys: DistanceSystem, d: int):
    """First shattered d-subset in canonical order, or None."""
    if d == 0:
        return () if len(sys.E) > 0 else None
    masks, universe = sys._masks, sys._universe
    for xs in _iter_candidates(sys, d):
        if _shattered_by_masks(masks, universe, xs):
            return tuple(sys._points[i] for i in xs)
    return None


def _max_circle_meet(ctx: PrimeFieldCtx, t: int) -> int:
    """m = max over d != 0 of |S_t n (S_t + d)|, the (0, 0)-zeroed maximum
    of S_t's exact self-difference table."""
    s_t = circle(ctx, t)
    table = difference_table(ctx, s_t, s_t).table.copy()
    table[0, 0] = 0
    return int(table.max())


def _exists_shattered(sys: DistanceSystem, d: int) -> bool:
    """Whether some d-subset (d >= 1) of a neighborhood is shattered.  Two
    distinct circles meet in at most 2 points, so a candidate of 3 or more
    points lies in one neighborhood and is met once."""
    masks, universe = sys._masks, sys._universe
    return any(_shattered_by_masks(masks, universe, xs)
               for nbrs in sys._nbr_indices
               for xs in itertools.combinations(nbrs, d))


def vc_dimension(sys: DistanceSystem, cap: int = 4) -> int:
    """Largest d <= cap with a shattered d-subset; -1 for an empty system.

    Searches sizes in increasing order and stops at the first size with no
    shattered set (shattering is monotone under subsets, so no larger set
    can be shattered either), or after size m + 1, past which the module's
    certificate rules shattering out.  The answer is exhaustive up to cap.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if len(sys.E) == 0:
        return -1
    limit = min(cap, _max_circle_meet(sys.ctx, sys.t) + 1)
    d = 0
    while d < limit and _exists_shattered(sys, d + 1):
        d += 1
    return d


# -- constructive witness -------------------------------------------------------

WITNESS_LABELS = ("x1", "x2", "x3", "y12", "y13", "y23", "y123",
                  "y1", "y2", "y3", "y0")

# Which of x1, x2, x3 each y-point must be adjacent to (radius-t), exactly.
TRACE_TABLE = {
    "y123": (1, 2, 3),
    "y12": (1, 2),
    "y13": (1, 3),
    "y23": (2, 3),
    "y1": (1,),
    "y2": (2,),
    "y3": (3,),
    "y0": (),
}


@dataclass(frozen=True)
class Witness:
    """Eleven labeled points certifying a shattered 3-set {x1, x2, x3}.

    The eight y-points realize all eight traces on the x's per TRACE_TABLE;
    u is the direction used by the construction (kept for reproducibility,
    not needed by the verifier).
    """

    x1: tuple
    x2: tuple
    x3: tuple
    y12: tuple
    y13: tuple
    y23: tuple
    y123: tuple
    y1: tuple
    y2: tuple
    y3: tuple
    y0: tuple
    u: tuple
    t: int

    def labeled_points(self) -> dict:
        return {label: getattr(self, label) for label in WITNESS_LABELS}


@dataclass(frozen=True)
class FailureReason:
    """Honest negative result from find_witness: which step ran dry."""

    step: str
    detail: str


def _add(p, s, q):
    return ((p[0] + s[0]) % q, (p[1] + s[1]) % q)


def _points(ind: np.ndarray) -> list:
    """The True cells of a q x q bool array as point tuples, row-major."""
    rows, cols = np.nonzero(ind)
    return list(zip(rows.tolist(), cols.tolist()))


def _first_point(ind: np.ndarray):
    """The first row-major True cell of a q x q bool array, or None."""
    flat = int(np.argmax(ind))
    return divmod(flat, ind.shape[1]) if ind.flat[flat] else None


def _mark(q: int, pts: np.ndarray) -> np.ndarray:
    """The q x q bool indicator of an (n, 2) array of points."""
    ind = np.zeros((q, q), dtype=bool)
    ind[pts[:, 0], pts[:, 1]] = True
    return ind


def _first_side_t_pair(ax, dx, forbidden, q: int, t: int):
    """The first (a, v) of ax x dx, a-major, with |a - v| = t and a - v not
    in forbidden; or None."""
    for a1, a2 in ax:
        for v1, v2 in dx:
            d1 = (a1 - v1) % q
            d2 = (a2 - v2) % q
            if (d1 * d1 + d2 * d2) % q == t and (d1, d2) not in forbidden:
                return (a1, a2), (v1, v2)
    return None


def find_witness(ctx: PrimeFieldCtx, E: PointSet, t: int, seed: int = 0):
    """Run the constructive witness search; Witness or FailureReason.

    Steps: (1) keep vertices whose degree lies in [|E|/2q, 2|E|/q];
    (2) pick the direction u with |u| = t maximizing |E' n (E' - u)|
    (first maximum in circle order); (3) split that intersection E_u into
    three round-robin parts A, B, C over a seeded shuffle, with D the rest
    of E' (falling back to a four-way split of E_u when nothing is left
    over, as happens for the full plane); (4) scan for a side-t rhombus
    (x1, y123, x3, y13) in A x B x C x D whose three constrained pair
    differences avoid {u, -u}; (5) derive y12 = x1 + u, x2 = y123 + u,
    y23 = x3 + u; (6) pick per-vertex private neighbors y1, y2, y3 and an
    isolated y0.  Deterministic given (E, t, seed).

    Every step runs on q x q indicators: degrees sum shifted views of 1_E,
    the meets of step (2) and the per-direction parts of step (4) are
    shift_meet windows, and step (6) takes the first row-major point of
    1_E cut by circles around the x's.  Row-major order is sorted order.
    """
    q = ctx.q
    t %= q
    if t == 0:
        raise InvalidRadius("witness search requires t != 0")
    if len(E) < 11:
        return FailureReason("Pruned-empty",
                             f"need at least 11 points, set has {len(E)}")
    ind = E.indicator
    st = circle(ctx, t).elements

    tiled = periodic(ind)
    degree = np.zeros((q, q), dtype=np.int64)
    for s1, s2 in st:
        degree += tiled[s1:s1 + q, s2:s2 + q]
    kept = ind & (degree >= len(E) / (2 * q)) & (degree <= 2 * len(E) / q)
    if not kept.any():
        return FailureReason("Pruned-empty", "degree window removed every vertex")

    tiled_kept = periodic(kept)
    best_u, best_size = None, -1
    for u in st:
        size = int(np.count_nonzero(shift_meet(kept, tiled_kept, u)))
        if size > best_size:
            best_u, best_size = u, size
    if best_size <= 0:
        return FailureReason("No-direction",
                             "no direction on the circle overlaps the pruned set")
    u = best_u
    e_u = shift_meet(kept, tiled_kept, u)

    order = np.array(SplitMix64(seed).shuffle(_points(e_u)), dtype=np.int64)
    ind_d = kept & ~e_u
    if ind_d.any():
        ind_a, ind_b, ind_c = (_mark(q, order[k::3]) for k in range(3))
    else:
        ind_a, ind_b, ind_c, ind_d = (_mark(q, order[k::4]) for k in range(4))

    excl = (u, (-u[0] % q, -u[1] % q))
    tiled_b, tiled_c = periodic(ind_b), periodic(ind_c)
    found = None
    for x in st:
        if x in excl:
            continue
        ax = np.argwhere(shift_meet(ind_a, tiled_b, x)).tolist()
        dx = np.argwhere(shift_meet(ind_d, tiled_c, x)).tolist()
        # y123 - v = (a - v) + x, so both exclusions are conditions on a - v.
        forbidden = excl + tuple(((e1 - x[0]) % q, (e2 - x[1]) % q) for e1, e2 in excl)
        pair = _first_side_t_pair(ax, dx, forbidden, q, t)
        if pair:
            a, v = pair
            found = (a, _add(a, x, q), _add(v, x, q), v)
            break
    if found is None:
        return FailureReason("No-rhombus",
                             "no side-t rhombus satisfies the direction exclusions")
    x1, y123, x3, y13 = found
    y12 = _add(x1, u, q)
    x2 = _add(y123, u, q)
    y23 = _add(x3, u, q)

    xs = (x1, x2, x3)
    on_circle = norm_classes(ctx) == t
    adj = [np.roll(on_circle, xi, axis=(0, 1)) for xi in xs]
    privates = []
    for i in range(3):
        j, k = (m for m in range(3) if m != i)
        pick = _first_point(ind & adj[i] & ~adj[j] & ~adj[k])
        if pick is None:
            return FailureReason(
                "No-private-neighbor",
                f"x{i + 1} has no neighbor avoiding the other two vertices")
        privates.append(pick)
    y1, y2, y3 = privates

    y0 = _first_point(ind & ~(adj[0] | adj[1] | adj[2]))
    if y0 is None:
        return FailureReason("No-isolated-point",
                             "every point is adjacent to one of x1, x2, x3")

    return Witness(x1=x1, x2=x2, x3=x3, y12=y12, y13=y13, y23=y23, y123=y123,
                   y1=y1, y2=y2, y3=y3, y0=y0, u=u, t=t)


def verify_witness(ctx: PrimeFieldCtx, E: PointSet, t: int, w: Witness):
    """Independent clause-by-clause audit of a witness.

    Checks membership of all eleven labeled points, pairwise distinctness
    of the x's and of the y's, and the full adjacency table; returns
    (ok, violations) where violations names every failed clause.
    """
    q = ctx.q
    t %= q
    violations = []
    pts = w.labeled_points()
    ind = E.indicator
    for label, p in pts.items():
        if not (0 <= p[0] < q and 0 <= p[1] < q and ind[p[0], p[1]]):
            violations.append(f"membership:{label}")

    xs = [("x1", w.x1), ("x2", w.x2), ("x3", w.x3)]
    for (la, pa), (lb, pb) in itertools.combinations(xs, 2):
        if pa == pb:
            violations.append(f"distinct:{la}={lb}")
    ys = [(label, pts[label]) for label in WITNESS_LABELS if label.startswith("y")]
    for (la, pa), (lb, pb) in itertools.combinations(ys, 2):
        if pa == pb:
            violations.append(f"distinct:{la}={lb}")

    x_by_index = {1: w.x1, 2: w.x2, 3: w.x3}
    for label, required in TRACE_TABLE.items():
        y = pts[label]
        for i, xi in x_by_index.items():
            d1 = (y[0] - xi[0]) % q
            d2 = (y[1] - xi[1]) % q
            adjacent = (d1 * d1 + d2 * d2) % q == t
            if adjacent != (i in required):
                want = "=" if i in required else "!="
                violations.append(f"adjacency:{label}~x{i} expected {want} t")
    return (not violations, violations)
