"""The radius-t neighborhood set-system on a point set: shattering, VC
dimension, and a constructive shattering witness with an independent
verifier.

For a ground set E and nonzero t, each point x induces
N(x) = {y in E : |x - y| = t}; the family of all N(x) is the set system
under study.  A finite X inside E is shattered when every one of its 2^|X|
subsets occurs as N(x) intersected with X for some x in E.  A shattered X
of positive size realizes the trace X, so it lies in some N(z), z in E;
candidates come from neighborhoods only.  deg(x) = |N(x)| also counts the
centers adjacent to x, as adjacency is symmetric.

Two-circle identity.  For a != b on z + S_t, the centers w of the plane
with |w - a| = |w - b| = t are exactly z and z_ab = a + b - z (one point
when a + b = 2z).  Both qualify, as |z_ab - a| = |b - z|.  Subtracting the
two conditions leaves the line 2 w.(b - a) = |b| - |a|; along it, w0 + s v,
the condition |v| s^2 + 2 s v.(w0 - a) + |w0 - a| - t = 0 has at most 2
roots, since all coefficients vanishing would put w0 - a on the isotropic
line through v, where the form is 0, not t.  By inclusion-exclusion over
the centers, with n = |E|:

* {a} is shattered iff deg(a) >= 1: a itself realizes the empty trace.
* {a, b} in N(z) is shattered iff deg(a) > c, deg(b) > c and
  deg(a) + deg(b) - c < n, where c = |{z, z_ab} n E|.
* {a, b, c} in N(z), whose only full-trace center is z, is shattered iff
  each pair's other center (z_ab, z_ac, z_bc) lies in E minus {z}, every
  degree is at least 4, and deg(a) + deg(b) + deg(c) - 5 < n.  (z_ab is
  never at distance t from c: its circle would share a, b, c with z's.)
* Nothing larger is: the trace X minus {x} needs a center z' != z, and
  N(z) n N(z') would hold 3 points, while two distinct radius-t circles
  z + S_t and z' + S_t meet in at most 2 (the line argument above, with z
  and z' for a and b).  So no scan goes past size 3.
"""

import itertools
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRadius, NotSubset
from .field import PrimeFieldCtx
from . import geometry
from .geometry import (
    PointSet,
    circle,
    flat_tiling,
    mirrored_directions,
    negated_points,
    shift_meet_sizes,
    shift_meets,
    shift_sum,
    tiled_copies,
    tiled_index,
    tiled_point,
    tiled_points,
)
from .rng import SplitMix64


class DistanceSystem:
    """Neighborhood family over E at radius t.

    Point i is E.elements[i], the i-th in sorted (row-major) order, with
    degree ``_degree[i]``.
    ``rank`` holds i at point i and -1 off E, in int32 below 2^31 points
    (its 4 q^2-cell tiling is 64 MB at q=2003).  A center's sorted neighbor
    row is one gather on the tiling of ``rank`` at the circle offsets, made
    and cached when a scan first reads it, as is each size's first
    shattered set.
    """

    __slots__ = ("ctx", "E", "t", "_points", "_degree", "_member",
                 "_tiled_rank", "_offsets", "_rows", "_found")

    def __init__(self, ctx, E: PointSet, t: int, rank: np.ndarray, degree: list):
        self.ctx = ctx
        self.E = E
        self.t = t
        self._points = E.elements
        self._degree = degree
        self._member = E.indicator.tobytes()
        self._tiled_rank = flat_tiling(rank)
        self._offsets = circle(ctx, t).points
        self._rows = {}
        self._found = {}

    def _gather(self, i: int) -> list:
        row = self._tiled_rank[self.E.points[i] + self._offsets]
        row = row[row >= 0]
        row.sort()
        return row.tolist()

    def _row(self, i: int) -> list:
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = self._gather(i)
        return row

    @property
    def neighborhoods(self) -> dict:
        """Each point of E mapped to its frozen neighbor set (built on access)."""
        pts = self._points
        return {p: frozenset(pts[j] for j in self._gather(i))
                for i, p in enumerate(pts)}

    def __repr__(self):
        return f"DistanceSystem(q={self.E.q}, t={self.t}, size={len(self.E)})"


def build_system(ctx: PrimeFieldCtx, E: PointSet, t: int) -> DistanceSystem:
    """The system of N(x) = (x + S_t) n E over x in E."""
    q = ctx.q
    t %= q
    if t == 0:
        raise InvalidRadius("neighborhood radius must be nonzero")
    ind = E.indicator
    rank = np.full((q, q), -1, dtype=np.int32 if len(E) < 2**31 else np.int64)
    rank[ind] = np.arange(len(E))
    # deg(x) = |(x + S_t) n E|, so no degree exceeds |S_t|.
    degree = shift_sum(ind, circle(ctx, t).elements)[ind].tolist()
    return DistanceSystem(ctx, E, t, rank, degree)


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


def _other_center(sys: DistanceSystem, a: int, b: int, z: int) -> bool:
    """Whether z_ab = a + b - z, for a, b in N(z), is a point of E but z."""
    q, pts = sys.ctx.q, sys._points
    (a1, a2), (b1, b2), (z1, z2) = pts[a], pts[b], pts[z]
    w1, w2 = (a1 + b1 - z1) % q, (a2 + b2 - z2) % q
    return (w1 != z1 or w2 != z2) and bool(sys._member[w1 * q + w2])


def _shattered(sys: DistanceSystem, xs: tuple, z: int) -> bool:
    """The module's closed form for 1 to 3 point indices xs inside N(z)."""
    if len(xs) == 1:
        return True
    n = len(sys._points)
    degs = [sys._degree[x] for x in xs]
    if len(xs) == 2:
        c = 1 + _other_center(sys, *xs, z)
        return min(degs) > c and sum(degs) - c < n
    if min(degs) < 4 or sum(degs) - 5 >= n:
        return False
    a, b, c = xs
    return all(_other_center(sys, x, y, z) for x, y in ((b, c), (a, b), (a, c)))


def _first_shattered(sys: DistanceSystem, d: int):
    """Sorted index tuple of the first shattered d-set, 1 <= d <= 3, or None.

    First points a go in ascending order.  The candidates starting at a are
    the d-sets of a and later points inside N(z) for a center z in N(a),
    cut for d = 3 to later points whose pair with a has another center in
    E; the least one that _shattered accepts, over all such z, is returned.
    """
    deg = sys._degree
    least = (0, 1, 2, 4)[d]  # the least degree of a point of a shattered d-set
    for a in range(len(sys._points)):
        if deg[a] < least:
            continue
        hits = []
        for z in sys._row(a):
            if deg[z] < d:
                continue
            nz = sys._row(z)
            later = [b for b in nz[bisect_right(nz, a):] if deg[b] >= least
                     and (d < 3 or _other_center(sys, a, b, z))]
            for rest in itertools.combinations(later, d - 1):
                if _shattered(sys, (a,) + rest, z):
                    hits.append((a,) + rest)
                    break
        if hits:
            return min(hits)
    return None


def find_shattered(sys: DistanceSystem, d: int):
    """First shattered d-subset in canonical (sorted) order, or None;
    cached, so vc_dimension's scan of a size is never repeated."""
    if d == 0:
        return () if len(sys.E) > 0 else None
    if d not in sys._found:
        first = _first_shattered(sys, d) if d <= 3 else None
        sys._found[d] = first and tuple(sys._points[i] for i in first)
    return sys._found[d]


def vc_dimension(sys: DistanceSystem, cap: int = 4) -> int:
    """Largest d <= cap with a shattered d-subset; -1 for an empty system.

    Scans sizes down from min(cap, 3): no 4-set is shattered, as two
    distinct radius-t circles meet in at most 2 points (module docstring).
    Shattering is monotone under subsets, so the first size with a
    shattered set is the answer.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if len(sys.E) == 0:
        return -1
    return next((d for d in range(min(cap, 3), 0, -1)
                 if find_shattered(sys, d) is not None), 0)


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


def _first_point(ind: np.ndarray):
    """The first row-major True cell of a q x q bool array, or None."""
    flat = int(np.argmax(ind))
    return divmod(flat, ind.shape[1]) if ind.flat[flat] else None


def _first_pair(on_circle: np.ndarray, ax: np.ndarray, dx: np.ndarray,
                forbidden, q: int):
    """The first (a, v) of ax x dx, a-major, with a - v on the circle and
    not in forbidden, as a pair of tiled indices; or None.

    ax and dx are canonical tiled indices, and on_circle is the flat tiling
    of |p| = t, so a pair's test is one gather at a + negated_points(v).
    The forbidden differences are cleared in all four tiled copies for the
    scan and restored after it.  Rows of ax go in chunks that start at one
    row and double up to geometry.INDEX_CHUNK pairs: an early hit costs one
    row, and a full plane's meets never build all their pairs at once.
    """
    if len(ax) == 0 or len(dx) == 0:
        return None
    cells = np.array([tiled_index(d, q) for d in forbidden], dtype=np.intp)
    cells = tiled_copies(cells, q)
    saved = on_circle[cells]
    on_circle[cells] = False
    minus = negated_points(dx, q)
    most = max(1, geometry.INDEX_CHUNK // len(dx))
    lo, rows, pair = 0, 1, None
    while lo < len(ax) and pair is None:
        hit = on_circle[ax[lo:lo + rows, None] + minus]
        k = int(np.argmax(hit))
        if hit.flat[k]:
            i, j = divmod(k, len(dx))
            pair = int(ax[lo + i]), int(dx[j])
        lo, rows = lo + rows, min(2 * rows, most)
    on_circle[cells] = saved
    return pair


def find_witness(ctx: PrimeFieldCtx, E: PointSet, t: int, seed: int = 0):
    """Run the constructive witness search; Witness or FailureReason.

    Steps: (1) keep vertices whose degree lies in [|E|/2q, 2|E|/q];
    (2) pick the direction u with |u| = t maximizing |E' n (E' - u)|
    (first maximum in circle order); (3) split that intersection E_u into
    three round-robin parts A, B, C over a seeded permutation, with D the
    rest of E' (falling back to a four-way split of E_u when nothing is left
    over, as happens for the full plane); (4) scan for a side-t rhombus
    (x1, y123, x3, y13) in A x B x C x D whose three constrained pair
    differences avoid {u, -u}; (5) derive y12 = x1 + u, x2 = y123 + u,
    y23 = x3 + u; (6) pick per-vertex private neighbors y1, y2, y3 and an
    isolated y0.  Deterministic given (E, t, seed).

    Steps (1), (2) and (6) run on q x q indicators: degrees sum translates
    of 1_E (shift_sum, contiguous runs of its flat tiling), step (2) counts
    one meet per pair +-x of directions (mirrored_directions) through one
    reused buffer (shift_meet_sizes) and takes the first maximum among the
    kept directions, and step (6) takes first row-major points of
    E n (x + S_t) for the x's, the shift_meets of 1_E and 1_S_t at -x.
    Steps (3) and (4) run on point lists: SplitMix64.permutation, array
    operations with no per-swap Python, permutes the indices of E_u's
    row-major points, one nonzero pass over E' lists every part, and each
    direction's meets are gathers of A's and D's points on the tiled parts,
    searched pairwise by _first_pair.  Row-major order is sorted order.
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

    # Degrees are integers: |E|/2q <= deg <= 2|E|/q is a window of two
    # integer bounds.
    degree = shift_sum(ind, st)
    kept = ind & (degree >= -(-len(E) // (2 * q))) & (degree <= 2 * len(E) // q)
    if not kept.any():
        return FailureReason("Pruned-empty", "degree window removed every vertex")

    # The meet of -x is that of x translated by x, so both have one size,
    # and the first maximum in circle order is at the kept one of its pair.
    dirs = mirrored_directions(ctx, t)[0]
    sizes = shift_meet_sizes(kept, kept, [tiled_point(d, q) for d in dirs.tolist()])
    best = int(np.argmax(sizes))
    if sizes[best] <= 0:
        return FailureReason("No-direction",
                             "no direction on the circle overlaps the pruned set")
    u = tiled_point(int(dirs[best]), q)
    e_u, = shift_meets(kept, kept, [u])

    # Each point of E' gets its part's label: A, B, C, D are 1 to 4.  E_u's
    # points are dealt round-robin over a seeded permutation of their
    # row-major indices; D keeps the rest of E' unless none is left.
    kept_at = np.flatnonzero(kept)
    eu_at = np.flatnonzero(e_u.ravel()[kept_at])
    order = eu_at[SplitMix64(seed).permutation(len(eu_at))]
    label = np.full(len(kept_at), 4, dtype=np.int8)
    parts = 3 if len(eu_at) < len(kept_at) else 4
    for k in range(parts):
        label[order[k::parts]] = k + 1
    labels = np.zeros((q, q), dtype=np.int8)
    labels.flat[kept_at] = label
    tiled = flat_tiling(labels)
    pts = tiled_points(kept)
    pa, pd = pts[label == 1], pts[label == 4]

    excl = (u, (-u[0] % q, -u[1] % q))
    tiled_circle = flat_tiling(circle(ctx, t).indicator)
    found = None
    for x in st:
        if x in excl:
            continue
        shift = tiled_index(x, q)
        ax = pa[tiled[pa + shift] == 2]
        dx = pd[tiled[pd + shift] == 3]
        # y123 - v = (a - v) + x, so both exclusions are conditions on a - v.
        forbidden = excl + tuple(((e1 - x[0]) % q, (e2 - x[1]) % q) for e1, e2 in excl)
        pair = _first_pair(tiled_circle, ax, dx, forbidden, q)
        if pair is not None:
            a, v = (tiled_point(p, q) for p in pair)
            found = (a, _add(a, x, q), _add(v, x, q), v)
            break
    if found is None:
        return FailureReason("No-rhombus",
                             "no side-t rhombus satisfies the direction exclusions")
    x1, y123, x3, y13 = found
    y12 = _add(x1, u, q)
    x2 = _add(y123, u, q)
    y23 = _add(x3, u, q)

    # E n (x + S_t) = {v in E : v - x on S_t}, the meet at -x.
    meets = list(shift_meets(ind, circle(ctx, t).indicator,
                             [(-x[0] % q, -x[1] % q) for x in (x1, x2, x3)]))
    privates = []
    for i in range(3):
        j, k = (m for m in range(3) if m != i)
        pick = _first_point(meets[i] & ~meets[j] & ~meets[k])
        if pick is None:
            return FailureReason(
                "No-private-neighbor",
                f"x{i + 1} has no neighbor avoiding the other two vertices")
        privates.append(pick)
    y1, y2, y3 = privates

    y0 = _first_point(ind & ~(meets[0] | meets[1] | meets[2]))
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
