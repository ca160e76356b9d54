"""Exact configuration counters over four point sets in the plane.

Every quantity has at least two independent routes:

* ``oracle`` -- literal nested-loop enumeration, the ground truth;
* ``fast``   -- sums of the difference function
  D(v) = #{(a, b) : a - b = v}: for ``n_t``, D_UV(v) over v on S_t; for
  ``par_t``, D12(v) D34(v) over v on S_t, and for ``par`` and the per-t
  profile over the whole plane.  D comes from one ``geometry`` request per
  call, one table per distinct pair (_products for the parallelograms): on
  S_t each pair's D is counted at the circle's cells alone by probes from
  its smaller set, up to 64 q^2 probes; whole tables pair by pair up to
  16 q^2 pairs and past that by certified FFT, all of a request's in one
  stacked transform.  For ``rhom_t`` and ``degenerate``, gathers of point
  lists on the tiled indicator arrays (the layout is stated in
  ``geometry``).  The rhombus
  terms of any list of radii come from one call (``rhombus_directions``):
  on small instances as float32 matrix products over E1 x E3, stacked
  over radii, and otherwise direction by direction by mark and probe, with
  small meets counted by pairs in one batch; when E2 = E1 and E4 = E3
  only one of each pair +-x of directions is computed;
* ``fourier`` (one-side-length parallelograms only) -- numerical evaluation
  of the character-sum expansion as one cyclic convolution of frequency
  tables, independent of the difference tables the fast route uses.  The
  tables are ``fourier.transform`` arrays, and as every set is real,
  fhat(-m) is read as conj(fhat(m)).

All counts are exact integers.  Two kinds of value are float-derived, and
neither is rounded silently: an FFT difference table is certified by
integer invariants and a rounding margin, or counted exactly instead
(``geometry.difference_tables``); the fourier total carries a derived
rounding-error bound, and the call raises unless that bound is below 1e-6
and the total lands within 1e-6 of an integer.

Conventions (ordered tuples throughout):

* one-side-length parallelograms: quadruples (x, y, z, w) in
  E1 x E2 x E3 x E4 with x - y = z - w and |x - y| = t;
* rhombi of side t: triples (u, v, x) with |x| = t, u in E1, u + x in E2,
  v in E3, v + x in E4 and |u - v| = t, i.e. the vertex path
  (u, u + x, v + x, v); tuples with v = u + x are the degenerate ones and
  are counted unless explicitly excluded.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ToleranceExceeded
from . import geometry
from .fourier import transform
from .geometry import (
    PointSet,
    circle,
    difference_minuends,
    difference_table,
    difference_tables,
    flat_tiling,
    mirrored_directions,
    negated_points,
    norm_classes,
    probe_counts,
    require_same_q,
    tiled_copies,
    tiled_points,
)

ROUND_TOL = 1e-6

# Sums of table products are at most max D12 |E3||E4| (table_products);
# from this size on they are accumulated in Python ints instead of int64.
INT64_LIMIT = 2**63
# Multiply-adds max |S_t| |E1| |E3| up to which rhombus_directions counts
# by matrix products.  Below 2^24, so every float32 partial sum, an integer
# at most |E1| |E3|, is exact.  Products against mark and probe (min ms per
# call, 2-vCPU VM): q=13 bounds draws over radii 1..12 (<= 0.4M) 0.49 vs
# 2.43; q=101 density 0.02 over radii 1..100 (4.0M) 38.7 vs 69.6; q=31
# density 0.5 (6.8M) 46.0 vs 44.0; q=61 density 0.1 (8.2M) 90 vs 71; q=211
# density 0.01 at t=1 (37M) 9.8 vs 1.45.
_PRODUCT_MACS = 1 << 22
# Multiply-adds k |E1| |E3| of one product of k directions, and cells of
# one stack of K_t: OpenBLAS's single-thread threshold (65536 x 4).  Past
# it a (24 x 281) @ (281 x 262) float32 product took 10-16 ms in 2 of 8
# fresh processes (0.04 ms in the others) on a 2-vCPU VM.
_PRODUCT_CHUNK = 1 << 18


@dataclass(frozen=True)
class CountResult:
    value: int
    method: str
    q: int
    t: int | None
    set_sizes: tuple

    def to_json_obj(self, quantity: str) -> dict:
        return {
            "quantity": quantity,
            "q": self.q,
            "t": self.t,
            "value": self.value,
            "method": self.method,
            "set_sizes": list(self.set_sizes),
        }


@dataclass(frozen=True)
class FourierSplit:
    """Character-sum evaluation of the one-side-length parallelogram count.

    ``total`` is the full double sum over frequency pairs and equals the
    count exactly in exact arithmetic.  ``term_i`` is the diagonal
    contribution normalized with the idealized circle mass 1/q, which makes
    it equal to (all-parallelograms count)/q and independent of t; the small
    correction from the true circle mass |S_t|/q^2 is carried by
    ``term_ii`` together with the off-diagonal terms.  ``error_bound`` is
    the bound on the float error of ``total`` that certifies its rounding to
    ``value`` (see ``par_t_fourier``).
    """

    term_i: complex
    term_ii: complex
    total: complex
    value: int
    q: int
    t: int
    set_sizes: tuple
    error_bound: float


# -- unit distances ----------------------------------------------------------

def count_unit_distances(ctx, U: PointSet, V: PointSet, t: int,
                         method: str = "fast") -> CountResult:
    """Pairs (u, v) in U x V with |u - v| = t."""
    require_same_q(ctx, U, V)
    q = ctx.q
    t %= q
    if method == "oracle":
        total = 0
        for u1, u2 in U.elements:
            for v1, v2 in V.elements:
                d1 = (u1 - v1) % q
                d2 = (u2 - v2) % q
                if (d1 * d1 + d2 * d2) % q == t:
                    total += 1
    elif method == "fast":
        # The sum of D_UV(v) over v on S_t.
        total = int(difference_table(ctx, U, V, circle(ctx, t)).table.sum())
    else:
        raise ValueError(f"unknown method {method!r}")
    return CountResult(total, method, q, t, (len(U), len(V)))


# -- parallelograms ----------------------------------------------------------

def count_par_t(ctx, E1, E2, E3, E4, t: int, method: str = "fast") -> CountResult:
    """Quadruples (x, y, z, w) with x - y = z - w and |x - y| = t."""
    require_same_q(ctx, E1, E2, E3, E4)
    q = ctx.q
    t %= q
    if method == "oracle":
        total = 0
        for x1, x2 in E1.elements:
            for y1, y2 in E2.elements:
                v1 = (x1 - y1) % q
                v2 = (x2 - y2) % q
                if (v1 * v1 + v2 * v2) % q != t:
                    continue
                for z1, z2 in E3.elements:
                    for w1, w2 in E4.elements:
                        if (z1 - w1) % q == v1 and (z2 - w2) % q == v2:
                            total += 1
    elif method == "fast":
        total = int(_products(ctx, [(E1, E2, E3, E4)], circle(ctx, t))[0].sum())
    elif method == "fourier":
        total = par_t_fourier(ctx, E1, E2, E3, E4, t).value
    else:
        raise ValueError(f"unknown method {method!r}")
    return CountResult(total, method, q, t, (len(E1), len(E2), len(E3), len(E4)))


def count_par_all(ctx, E1, E2, E3, E4, method: str = "fast") -> CountResult:
    """All quadruples with x - y = z - w (sum over every side-length t)."""
    require_same_q(ctx, E1, E2, E3, E4)
    q = ctx.q
    if method == "fast":
        total = int(_products(ctx, [(E1, E2, E3, E4)])[0].sum())
    elif method == "oracle":
        # Enumerate (x, y, z) and test the forced 4th vertex w = z - (x - y).
        members = set(E4.elements)
        total = 0
        for x1, x2 in E1.elements:
            for y1, y2 in E2.elements:
                v1 = (x1 - y1) % q
                v2 = (x2 - y2) % q
                for z1, z2 in E3.elements:
                    if ((z1 - v1) % q, (z2 - v2) % q) in members:
                        total += 1
    else:
        raise ValueError(f"unknown method {method!r}")
    return CountResult(total, method, q, None,
                       (len(E1), len(E2), len(E3), len(E4)))


def table_products(d12, d34) -> np.ndarray:
    """D12(v) * D34(v) for every v of two tables on the same cells, exactly.

    Every sum of these products is at most
    min(max D12 * |E3||E4|, max D34 * |E1||E2|), as D34 sums to
    d34.total = |E3||E4| and D12 to |E1||E2|.  While that stays below
    INT64_LIMIT the products are int64; beyond it they are Python ints
    (object dtype), so no sum over them can wrap.  The bound is at most the
    total mass |E1||E2||E3||E4|, so the maxima are read only past it.
    """
    a, b = d12.table, d34.table
    if (d12.total * d34.total >= INT64_LIMIT
            and min(int(a.max(initial=0)) * d34.total,
                    int(b.max(initial=0)) * d12.total) >= INT64_LIMIT):
        a, b = a.astype(object), b.astype(object)
    return a * b


def norm_class_sums(ctx, values: np.ndarray) -> list:
    """[sum of values[..., v] over |v| = t for t in F_q] for a q x q array of
    values, or the list of those for each q x q array of a stack, in the
    dtype of values: one reduction whatever the stack's length."""
    q = ctx.q
    flat = values.reshape(-1, q * q)
    acc = np.zeros((len(flat), q), dtype=values.dtype)
    np.add.at(acc, (np.arange(len(flat))[:, None], norm_classes(ctx).ravel()), flat)
    return acc.reshape(values.shape[:-2] + (q,)).tolist()


def _products(ctx, quads, on: PointSet | None = None) -> list:
    """table_products of each (E1, E2, E3, E4) in ``quads``, on the whole
    plane or at the cells of ``on`` in row-major order, from one request
    with one table per distinct pair; a single pair is requested through
    difference_table, the name perfbench's tracer wraps."""
    index, quad_pairs = {}, []
    for E1, E2, E3, E4 in quads:
        quad_pairs.append([index.setdefault(pair, len(index)) for pair in ((E1, E2), (E3, E4))])
    pairs = list(index)
    tables = (difference_tables(ctx, pairs, on) if len(pairs) > 1
              else [difference_table(ctx, *pairs[0], on)])
    return [table_products(tables[i], tables[j]) for i, j in quad_pairs]


def par_t_profile(ctx, E1, E2, E3, E4) -> dict:
    """One-side-length counts for every t at once, from one table pass.

    Returns {t: Par_t} covering all t in F_q; the values sum to the
    all-parallelograms count.
    """
    return par_t_profiles(ctx, [(E1, E2, E3, E4)])[0]


def par_t_profiles(ctx, quads) -> list:
    """par_t_profile of each (E1, E2, E3, E4) in ``quads``, in order, from
    one norm-class reduction over the stacked products (_products); where
    any quad's products need Python ints, the whole stack holds them."""
    products = np.stack(_products(ctx, quads))
    return [dict(enumerate(sums)) for sums in norm_class_sums(ctx, products)]


# -- rhombi -------------------------------------------------------------------

def count_rhom_t(ctx, E1, E2, E3, E4, t: int, method: str = "fast",
                 exclude_degenerate: bool = False) -> CountResult:
    """Rhombi of side t: triples (u, v, x) as in the module docstring."""
    require_same_q(ctx, E1, E2, E3, E4)
    q = ctx.q
    t %= q
    if method == "oracle":
        m2 = set(E2.elements)
        m4 = set(E4.elements)
        total = 0
        for s1, s2 in circle(ctx, t).elements:
            for u1, u2 in E1.elements:
                for v1, v2 in E3.elements:
                    ux = ((u1 + s1) % q, (u2 + s2) % q)
                    if ux not in m2:
                        continue
                    if ((v1 + s1) % q, (v2 + s2) % q) not in m4:
                        continue
                    if exclude_degenerate and (v1, v2) == ux:
                        continue
                    d1 = (u1 - v1) % q
                    d2 = (u2 - v2) % q
                    if (d1 * d1 + d2 * d2) % q == t:
                        total += 1
    elif method == "fast":
        terms = rhombus_directions(ctx, E1, E2, E3, E4, [t])[t]
        total = sum(r for _, _, r in terms)
        if exclude_degenerate:
            total -= count_degenerate_rhom(ctx, E1, E2, E3, E4, t).value
    else:
        raise ValueError(f"unknown method {method!r}")
    return CountResult(total, method, q, t, (len(E1), len(E2), len(E3), len(E4)))


def rhombus_directions(ctx, E1, E2, E3, E4, radii) -> dict:
    """Per-direction rhombus terms for every radius in ``radii`` at once.

    Returns {t: [(|E12^x|, |E34^x|, rhom_x) for x on S_t in circle order]}
    with E12^x = E1 n (E2 - x), E34^x = E3 n (E4 - x) and rhom_x the pairs
    (u, v) in E12^x x E34^x with |u - v| = t.

    The point lists and tilings of E1..E4 are built once per call, and the
    call takes one of two routes:

    * While max |S_t| |E1| |E3| <= _PRODUCT_MACS and one direction's product
      fits _PRODUCT_CHUNK, by matrix products (_product_terms): with E1 and
      E3 numbered, K_t[i, j] = [e1_i - e3_j on S_t], M12[x, i] =
      [e1_i + x in E2] and M34[x, j] = [e3_j + x in E4], and
      rhom_x = sum_j (M12 K_t)[x, j] M34[x, j].
    * Otherwise direction by direction (_probed_terms): each direction's
      meets are gathers over the point lists of E1 and E3; the larger is
      marked in a scratch tiling, and the smaller probed on p + S_t, which
      counts the same pairs because S_t = -S_t (geometry.probe_counts).
      Where 4 max(a, b) <= |S_t| for the meet sizes a and b, the fixed cost
      of marking and probing exceeds that of testing the a b pairs
      outright: such directions are deferred, and all of a radius's are
      counted in one batch of pairs (_small_pair_counts).

    When E2 = E1 and E4 = E3, E12^-x = E12^x + x and E34^-x = E34^x + x:
    the meets of -x are those of x translated by x, so the sizes and the
    differences u - v agree.  Only one direction of each pair +-x is
    computed (mirrored_directions), and its term fills both slots; K_t and
    the probes still use the whole circle.
    """
    require_same_q(ctx, E1, E2, E3, E4)
    q = ctx.q
    p1, p3 = E1.points, E3.points
    circles = {t: circle(ctx, t % q).points for t in radii}
    # Which circle positions are computed, and each position's source among
    # them; every position is computed unless the pairs repeat.
    paired = E2 == E1 and E4 == E3
    mirrors = {t: mirrored_directions(st, q) if paired else (st, None)
               for t, st in circles.items()}
    cells = len(p1) * len(p3)
    widest = max(map(len, circles.values()), default=0)
    if widest * cells <= _PRODUCT_MACS and cells <= _PRODUCT_CHUNK:
        computed = _product_terms(ctx, E2, E4, p1, p3, circles, mirrors)
    else:
        computed = _probed_terms(ctx, E2, E4, p1, p3, circles, mirrors)
    return {t: out if mirrors[t][1] is None else [out[i] for i in mirrors[t][1]]
            for t, out in computed.items()}


def _product_terms(ctx, E2, E4, p1, p3, circles, mirrors) -> dict:
    """The computed directions' terms of each radius, by matrix products.

    K_t is read from one gather of the tiled norm table at the differences
    e1_i - e3_j, and M12 and M34 are one 2-D gather each on float32 tilings
    of E2 and E4.  Radii whose circles have the same size go in stacks, and
    each stack's directions in chunks, of k = _PRODUCT_CHUNK // (|E1| |E3|)
    each, so no product exceeds _PRODUCT_CHUNK multiply-adds and no stack
    of K_t more cells; a chunk's terms are one batched float32 ``matmul``.
    """
    q = ctx.q
    n1, n3 = len(p1), len(p3)
    k = max(1, _PRODUCT_CHUNK // max(n1 * n3, 1))
    norms = flat_tiling(norm_classes(ctx))[difference_minuends(p1, q)[:, None] - p3]
    f2 = flat_tiling(E2.indicator).astype(np.float32)
    f4 = flat_tiling(E4.indicator).astype(np.float32)
    groups = {}
    for t, st in circles.items():
        groups.setdefault(len(st), []).append(t)
    terms = {t: [] for t in circles}
    for radii in groups.values():
        for lo in range(0, len(radii), k):
            stack = radii[lo:lo + k]
            ks = (norms == np.array(stack)[:, None, None] % q).astype(np.float32)
            xs = np.array([mirrors[t][0] for t in stack])[:, :, None]
            for d in range(0, xs.shape[1], k):
                x = xs[:, d:d + k]
                m12, m34 = f2[p1 + x], f4[p3 + x]
                rhom = (_stacked_products(m12, ks) * m34).sum(axis=2)
                counts = np.stack([m12.sum(axis=2), m34.sum(axis=2), rhom], axis=2)
                for t, rows in zip(stack, counts.astype(np.int64).tolist()):
                    terms[t] += map(tuple, rows)
    return terms


def _stacked_products(a, b):
    """a @ b over a stack, in float32 (its own name, so tests can see every
    product the route makes)."""
    return np.matmul(a, b)


def _probed_terms(ctx, E2, E4, p1, p3, circles, mirrors) -> dict:
    """The computed directions' terms of each radius, one direction at a
    time by mark and probe, with small meets counted by pairs in one batch
    per radius."""
    q = ctx.q
    t2, t4 = flat_tiling(E2.indicator), flat_tiling(E4.indicator)
    marks = np.zeros_like(t2)
    terms = {}
    for t, st in circles.items():
        out = []
        small = {}
        for i, x in enumerate(mirrors[t][0]):
            e12, e34 = p1[t2[p1 + x]], p3[t4[p3 + x]]
            a, b = len(e12), len(e34)
            if 4 * max(a, b) <= len(st):
                small[i] = e12, e34
                out.append((a, b, 0))
            else:
                out.append((a, b, _pair_count(marks, st, e12, e34, q)))
        if small:
            on_circle = flat_tiling(circle(ctx, t % q).indicator)
            counts = _small_pair_counts(on_circle, q, list(small.values()))
            for i, r in zip(small, counts):
                out[i] = out[i][0], out[i][1], r
        terms[t] = out
    return terms


def _small_pair_counts(on_circle, q: int, meets) -> list:
    """rhom_x for directions given by their meets (e12, e34), in one batch.

    The pairs (u, v) in e12 x e34 of all directions form one ragged range,
    direction after direction and u-major: row r is one point u, followed
    by the b points of its direction's e34.  Pair (u, v) is one gather of
    the tiled circle indicator at the difference u - v.  The range
    goes in chunks of at most geometry.INDEX_CHUNK pairs, which may cut a
    row; a running count of hits, read at each direction's last pair, gives
    the per-direction counts.
    """
    e12s, e34s = zip(*meets)
    a = np.array([len(e) for e in e12s])
    b = np.array([len(e) for e in e34s])
    width = np.repeat(b, a)
    ends = np.cumsum(width)
    starts = ends - width
    # Pair k of row r meets v[k + shift[r]].
    shift = np.repeat(np.cumsum(b) - b, a) - starts
    cells = difference_minuends(np.concatenate(e12s), q)
    v = np.concatenate(e34s)
    last = np.cumsum(a * b)
    running = np.zeros(len(meets), dtype=np.int64)
    total, seen = int(last[-1]), 0
    for lo in range(0, total, geometry.INDEX_CHUNK):
        hi = min(lo + geometry.INDEX_CHUNK, total)
        r0, r1 = np.searchsorted(ends, [lo, hi - 1], side="right")
        rows = slice(r0, r1 + 1)
        n = np.minimum(ends[rows], hi) - np.maximum(starts[rows], lo)
        k = np.arange(lo, hi) + np.repeat(shift[rows], n)
        hits = np.cumsum(on_circle[np.repeat(cells[rows], n) - v[k]])
        d0, d1 = np.searchsorted(last, [lo, hi], side="right")
        running[d0:d1] = seen + hits[last[d0:d1] - lo - 1]
        seen += int(hits[-1])
    return np.diff(running, prepend=0).tolist()


def _pair_count(marks, st, e12, e34, q: int) -> int:
    """rhom_x of one direction from its meets as tiled indices.

    The larger meet is marked in all four tiled copies of its points, the
    smaller one probed on p + S_t (probe_counts, summed), and the marks are
    cleared again.
    """
    probe, marked = (e12, e34) if len(e12) <= len(e34) else (e34, e12)
    cells = tiled_copies(marked, q)
    marks[cells] = True
    count = int(probe_counts(marks, probe, st).sum())
    marks[cells] = False
    return count


def count_degenerate_rhom(ctx, E1, E2, E3, E4, t: int,
                          method: str = "fast") -> CountResult:
    """Rhombus tuples with v = u + x (the collapsed-diagonal case): the
    pairs (u, x) with |x| = t, u in E1, u + x in E2 n E3 and u + 2x in E4.

    The oracle loops over every x with |x| = t and every u in E1.  The fast
    route takes y = u + x: the pairs (y, x) with y in E2 n E3, |x| = t,
    y - x in E1 and y + x in E4, by two tiled gathers per pair, taking -x
    from the negated circle offsets, in chunks of directions.
    """
    require_same_q(ctx, E1, E2, E3, E4)
    q = ctx.q
    t %= q
    if method == "oracle":
        m2, m3, m4 = set(E2.elements), set(E3.elements), set(E4.elements)
        total = 0
        for x1 in range(q):
            for x2 in range(q):
                if (x1 * x1 + x2 * x2) % q != t:
                    continue
                for u1, u2 in E1.elements:
                    y = ((u1 + x1) % q, (u2 + x2) % q)
                    if y in m2 and y in m3 and ((y[0] + x1) % q, (y[1] + x2) % q) in m4:
                        total += 1
    elif method == "fast":
        ys = tiled_points(E2.indicator & E3.indicator)
        plus = circle(ctx, t).points
        minus = negated_points(plus, q)
        t1, t4 = flat_tiling(E1.indicator), flat_tiling(E4.indicator)
        step = max(1, geometry.INDEX_CHUNK // max(len(ys), 1))
        total = 0
        for i in range(0, len(plus), step):
            hit = t1[ys[:, None] + minus[i:i + step]] & t4[ys[:, None] + plus[i:i + step]]
            total += int(np.count_nonzero(hit))
    else:
        raise ValueError(f"unknown method {method!r}")
    return CountResult(total, method, q, t, (len(E1), len(E2), len(E3), len(E4)))


# -- character-sum evaluation --------------------------------------------------

def _cyclic_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b)(k) = sum_m a(m) b(k - m) over Z_q^2."""
    return np.fft.ifft2(np.fft.fft2(a) * np.fft.fft2(b))


def par_t_fourier(ctx, E1, E2, E3, E4, t: int) -> FourierSplit:
    """Evaluate the frequency-side expansion of the one-side-length count.

    total  = q^6 * sum_{m,n} a(m) b(n) shat_t(-m-n)
           = q^6 * sum_k shat_t(-k) (a * b)(k),
    with a(m) = ehat1(-m) ehat2(m), b(n) = ehat3(-n) ehat4(n) and * the
    cyclic convolution on the frequency plane, taken by FFT in O(q^2) memory;
    term_i = q^5 * sum_m ehat1(-m) ehat2(m) ehat3(m) ehat4(-m).

    term_i is the diagonal n = -m normalized with circle mass 1/q, hence
    equals Par/q and carries no t dependence; term_ii = total - term_i.

    error_bound = 4 * eps * log2(q^2) * M, where M is the same sum over
    absolute values, q^6 * sum_k |shat_t(-k)| (|a| * |b|)(k).  FFT rounding
    error grows as eps * log2(n) times the magnitude of what is summed; over
    full, dense, sparse, strip, circle and mixed sets at q <= 307 the error
    reached at most 1.07 eps * log2(q^2) * M, and the factor 4 leaves room
    above that.  Raises ToleranceExceeded when the bound is not below 1e-6,
    so rounding cannot be certified, or when total is not within 1e-6 of an
    integer.
    """
    require_same_q(ctx, E1, E2, E3, E4)
    q = ctx.q
    t %= q

    # Each distinct set is transformed once; equal sets are one set.
    spectra = {}
    for s in (E1, E2, E3, E4):
        if s not in spectra:
            spectra[s] = transform(ctx, s)
    e1, e2, e3, e4 = map(spectra.get, (E1, E2, E3, E4))
    st = transform(ctx, circle(ctx, t))

    # Writing the count as sum_v S_t(v) * sum_{x,y} E1(x)E2(x-v)E3(y)E4(y-v)
    # and expanding E2, E4 by inversion pairs E1 with E2 on one frequency and
    # E3 with E4 on the other.  Every set is real, so f(-m) = conj(f(m)).
    a = np.conj(e1) * e2                            # a[m] = ehat1(-m) ehat2(m)
    b = np.conj(e3) * e4                            # b[n] = ehat3(-n) ehat4(n)
    st_neg = np.conj(st)                            # shat_t(-k)

    total = complex(q**6 * (st_neg * _cyclic_convolution(a, b)).sum())
    magnitude = q**6 * float(
        (np.abs(st_neg) * _cyclic_convolution(np.abs(a), np.abs(b)).real).sum())
    error_bound = 4 * np.finfo(float).eps * np.log2(q * q) * magnitude

    term_i = complex(q**5 * (a * np.conj(b)).sum())  # b[-m] = conj(b[m])
    term_ii = total - term_i

    if error_bound >= ROUND_TOL:
        raise ToleranceExceeded(
            f"fourier error bound {error_bound:.3g} at q={q} cannot certify "
            f"rounding to within {ROUND_TOL}")
    nearest = round(total.real)
    if abs(total - nearest) > ROUND_TOL:
        raise ToleranceExceeded(
            f"fourier total {total!r} is not within {ROUND_TOL} of an integer")
    return FourierSplit(term_i, term_ii, total, int(nearest), q, t,
                        (len(E1), len(E2), len(E3), len(E4)), error_bound)
