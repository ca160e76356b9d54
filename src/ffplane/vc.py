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
neighborhoods only, which keeps the size-4 refutation tractable while
remaining exhaustive.
"""

import itertools
from dataclasses import dataclass

from .errors import InvalidRadius, NotSubset
from .field import PrimeFieldCtx
from .geometry import PointSet, circle
from .rng import SplitMix64


class DistanceSystem:
    """Neighborhood family over E at radius t, with bitmask indexes.

    ``neighborhoods`` maps each point of E to its frozen neighbor set.
    Internally the points are held in sorted order with one adjacency
    bitmask per point (bit j of mask i set iff point j lies in N(point i)),
    which the subset searches use.
    """

    __slots__ = ("ctx", "E", "t", "neighborhoods",
                 "_points", "_index", "_masks", "_universe", "_nbr_indices")

    def __init__(self, ctx, E: PointSet, t: int, neighborhoods: dict):
        self.ctx = ctx
        self.E = E
        self.t = t
        self.neighborhoods = neighborhoods
        self._points = tuple(sorted(E.elements))
        self._index = {p: i for i, p in enumerate(self._points)}
        masks = []
        nbr_indices = []
        for p in self._points:
            m = 0
            idxs = []
            for nb in neighborhoods[p]:
                j = self._index[nb]
                m |= 1 << j
                idxs.append(j)
            masks.append(m)
            nbr_indices.append(tuple(sorted(idxs)))
        self._masks = masks
        self._nbr_indices = nbr_indices
        self._universe = (1 << len(self._points)) - 1

    def degree(self, x) -> int:
        return len(self.neighborhoods[x])

    def __repr__(self):
        return f"DistanceSystem(q={self.E.q}, t={self.t}, size={len(self.E)})"


def build_system(ctx: PrimeFieldCtx, E: PointSet, t: int) -> DistanceSystem:
    """Neighborhoods via circle probing: N(x) = (x + S_t) intersect E."""
    q = ctx.q
    t %= q
    if t == 0:
        raise InvalidRadius("neighborhood radius must be nonzero")
    st = circle(ctx, t).elements
    members = E.member_set()
    nbh = {}
    for x1, x2 in E.elements:
        ns = [((x1 + s1) % q, (x2 + s2) % q) for s1, s2 in st]
        nbh[(x1, x2)] = frozenset(p for p in ns if p in members)
    return DistanceSystem(ctx, E, t, nbh)


def shatters(sys: DistanceSystem, X) -> bool:
    """True iff every subset of X occurs as a neighborhood trace on X.

    Collects the trace patterns {N(z) cut down to X : z in E} and stops as
    soon as all 2^|X| of them have appeared.  X = empty set is shattered
    exactly when E is nonempty (a realizing neighborhood must exist).
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
    target = 1 << d
    seen = set()
    nbh = sys.neighborhoods
    for z in sys.E.elements:
        nz = nbh[z]
        pattern = 0
        for k, x in enumerate(pts):
            if x in nz:
                pattern |= 1 << k
        if pattern not in seen:
            seen.add(pattern)
            if len(seen) == target:
                return True
    return False


def _shattered_by_masks(masks, universe, xs) -> bool:
    """Bitmask equivalent of shatters() for index tuples (internal)."""
    for pattern in range(1 << len(xs)):
        m = universe
        for k, xi in enumerate(xs):
            m &= masks[xi] if (pattern >> k) & 1 else universe ^ masks[xi]
            if not m:
                break
        if not m:
            return False
    return True


def _candidate_index_subsets(sys: DistanceSystem, d: int) -> list:
    """All d-subsets of E that lie inside at least one neighborhood.

    A shattered d-set (d >= 1) must itself be a realized trace, i.e. sit
    inside some N(z); no other subsets can qualify, so this enumeration is
    exhaustive.  Returned sorted for deterministic scan order.
    """
    seen = set()
    for nbrs in sys._nbr_indices:
        if len(nbrs) >= d:
            seen.update(itertools.combinations(nbrs, d))
    return sorted(seen)


def find_shattered(sys: DistanceSystem, d: int):
    """First shattered d-subset in canonical order, or None."""
    if d == 0:
        return () if len(sys.E) > 0 else None
    masks, universe = sys._masks, sys._universe
    for xs in _candidate_index_subsets(sys, d):
        if _shattered_by_masks(masks, universe, xs):
            return tuple(sys._points[i] for i in xs)
    return None


def _exists_shattered(sys: DistanceSystem, d: int) -> bool:
    if d == 0:
        return len(sys.E) > 0
    masks, universe = sys._masks, sys._universe
    return any(_shattered_by_masks(masks, universe, xs)
               for xs in _candidate_index_subsets(sys, d))


def vc_dimension(sys: DistanceSystem, cap: int = 4) -> int:
    """Largest d <= cap with a shattered d-subset; -1 for an empty system.

    Searches sizes in increasing order and stops at the first size with no
    shattered set (shattering is monotone under subsets, so no larger set
    can be shattered either).
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if len(sys.E) == 0:
        return -1
    d = 0
    while d < cap and _exists_shattered(sys, d + 1):
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


def _sub(p, s, q):
    return ((p[0] - s[0]) % q, (p[1] - s[1]) % q)


def find_witness(ctx: PrimeFieldCtx, E: PointSet, t: int, seed: int = 0):
    """Run the constructive witness search; Witness or FailureReason.

    Steps: (1) keep vertices whose degree lies in [|E|/2q, 2|E|/q];
    (2) pick the direction u with |u| = t maximizing |E' n (E' - u)|
    (lexicographic tie-break); (3) split that intersection E_u into three
    round-robin parts A, B, C over a seeded shuffle, with D the rest of E'
    (falling back to a four-way split of E_u when nothing is left over, as
    happens for the full plane); (4) scan for a side-t rhombus
    (x1, y123, x3, y13) in A x B x C x D whose three constrained pair
    differences avoid {u, -u}; (5) derive y12 = x1 + u, x2 = y123 + u,
    y23 = x3 + u; (6) pick per-vertex private neighbors y1, y2, y3 and an
    isolated y0.  Deterministic given (E, t, seed).
    """
    q = ctx.q
    t %= q
    if t == 0:
        raise InvalidRadius("witness search requires t != 0")
    if len(E) < 11:
        return FailureReason("Pruned-empty",
                             f"need at least 11 points, set has {len(E)}")
    sys = build_system(ctx, E, t)

    lo = len(E) / (2 * q)
    hi = 2 * len(E) / q
    kept = [x for x in sorted(E.elements)
            if lo <= len(sys.neighborhoods[x]) <= hi]
    if not kept:
        return FailureReason("Pruned-empty", "degree window removed every vertex")
    kset = frozenset(kept)

    best_u, best_size = None, -1
    for u in circle(ctx, t).elements:
        size = sum(1 for x in kept if _add(x, u, q) in kset)
        if size > best_size:
            best_u, best_size = u, size
    if best_size <= 0:
        return FailureReason("No-direction",
                             "no direction on the circle overlaps the pruned set")
    u = best_u
    e_u = [x for x in kept if _add(x, u, q) in kset]

    rng = SplitMix64(seed)
    order = rng.shuffle(list(e_u))
    eu_set = frozenset(e_u)
    part_d = [x for x in kept if x not in eu_set]
    if part_d:
        part_a, part_b, part_c = order[0::3], order[1::3], order[2::3]
    else:
        part_a, part_b, part_c, part_d = (order[0::4], order[1::4],
                                          order[2::4], order[3::4])

    excl = frozenset((u, (-u[0] % q, -u[1] % q)))
    bmem = frozenset(part_b)
    cmem = frozenset(part_c)
    found = None
    for x in circle(ctx, t).elements:
        if x in excl:
            continue
        ax = sorted(a for a in part_a if _add(a, x, q) in bmem)
        dx = sorted(v for v in part_d if _add(v, x, q) in cmem)
        if not ax or not dx:
            continue
        for a in ax:
            for v in dx:
                d1 = (a[0] - v[0]) % q
                d2 = (a[1] - v[1]) % q
                if (d1 * d1 + d2 * d2) % q != t:
                    continue
                y123 = _add(a, x, q)
                if _sub(y123, v, q) in excl:
                    continue
                if (d1, d2) in excl:
                    continue
                found = (a, y123, _add(v, x, q), v)
                break
            if found:
                break
        if found:
            break
    if found is None:
        return FailureReason("No-rhombus",
                             "no side-t rhombus satisfies the direction exclusions")
    x1, y123, x3, y13 = found
    y12 = _add(x1, u, q)
    x2 = _add(y123, u, q)
    y23 = _add(x3, u, q)

    xs = (x1, x2, x3)
    privates = []
    for i, xi in enumerate(xs):
        others = [xs[j] for j in range(3) if j != i]
        pick = None
        for cand in sorted(sys.neighborhoods[xi]):
            ok = True
            for o in others:
                d1 = (cand[0] - o[0]) % q
                d2 = (cand[1] - o[1]) % q
                if (d1 * d1 + d2 * d2) % q == t:
                    ok = False
                    break
            if ok:
                pick = cand
                break
        if pick is None:
            return FailureReason(
                "No-private-neighbor",
                f"x{i + 1} has no neighbor avoiding the other two vertices")
        privates.append(pick)
    y1, y2, y3 = privates

    n1, n2, n3 = (sys.neighborhoods[x] for x in xs)
    y0 = None
    for cand in sorted(E.elements):
        if cand not in n1 and cand not in n2 and cand not in n3:
            y0 = cand
            break
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
    for label, p in pts.items():
        if p not in E:
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
