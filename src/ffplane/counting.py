"""Exact configuration counters over four point sets in the plane.

Every quantity has at least two independent routes:

* ``oracle`` -- literal nested-loop enumeration, the ground truth;
* ``fast``   -- sums of the difference function
  D(v) = #{(a, b) : a - b = v}: for ``n_t``, D_UV(v) over v on S_t, and
  for its per-t profile over the whole plane binned by norm class; for
  ``par_t``, D12(v) D34(v) over v on S_t, and for ``par`` and the per-t
  profile over the whole plane.  D comes from one ``geometry`` request per
  call, one table per distinct pair (_quad_tables for the parallelograms): on
  S_t each pair's D is counted at the circle's cells alone by probes from
  its smaller set, up to 64 q^2 probes; whole tables pair by pair up to
  16 q^2 pairs and past that by certified FFT, all of a request's in one
  stacked transform.  For ``rhom_t`` and ``degenerate``, gathers on the
  tiled indicator arrays (the layout is stated in ``geometry``).  The
  rhombus terms of any list of radii come from one call
  (``rhombus_directions``) by one of two exact routes, chosen by their
  measured costs: for q <= 61, popcounts of row words (the plane's rows
  packed into uint64 words), every radius of one circle size in one pass,
  for dense sets and every q = 13 call; otherwise by pairs, on the smaller
  of the pairs E1 x E3 and E2 x E4: the meets of every direction of every
  radius from chunked gathers, the pairs of the small meets counted in one
  batch on the tiled norm classes, and each large meet marked and probed.
  When E2 = E1 and E4 = E3 only one of each pair +-x of directions is
  computed;
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
    difference_table,
    difference_tables,
    flat_tiling,
    mirrored_directions,
    negated_points,
    norm_class_order,
    probe_counts,
    require_same_q,
    tiled_copies,
    tiled_norm_classes,
    tiled_points,
    word_layout,
    word_offsets,
    word_tiling,
)

ROUND_TOL = 1e-6

# Sums of table products are at most max D12 |E3||E4| (table_products);
# from this size on they are accumulated in Python ints instead of int64.
INT64_LIMIT = 2**63
# The bit route holds a row of q bits in one uint64 word: every prime q up
# to 61.  rhombus_directions takes it while a direction's |S_t| L row words,
# at _PAIRS_PER_WORD pairs each, cost at most its |E1| |E3| pairs plus
# _PAIRS_PER_DIRECTION, the pair route's fixed cost per direction.  Fitted
# to the crossovers of the rhombus_directions table, which fall between
# |E1| |E3| ~ 9k and 14k at q = 31 and ~ 112k and 138k at q = 61; and
# 32 * 25 * 4 <= 4096, so every q = 13 call takes the bits, S_0 included.
_BIT_MAX_Q = 61
_PAIRS_PER_WORD = 32
_PAIRS_PER_DIRECTION = 4096


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
    dtype of values: one reduction whatever the stack's length, over the
    cells sorted by norm class (norm_class_order)."""
    q = ctx.q
    order, starts = norm_class_order(ctx)
    sums = np.add.reduceat(values.reshape(-1, q * q)[:, order], starts, axis=1)
    return sums.reshape(values.shape[:-2] + (q,)).tolist()


def _quad_tables(ctx, quads, on: PointSet | None = None) -> tuple:
    """The tables of each (E1, E2, E3, E4) in ``quads``, on the whole plane
    or at the cells of ``on`` in row-major order, from one request with one
    table per distinct pair: the tables, and each quad's indices of its D12
    and D34 among them.  A single pair is requested through
    difference_table, the name perfbench's tracer wraps."""
    index, quad_pairs = {}, []
    for E1, E2, E3, E4 in quads:
        quad_pairs.append([index.setdefault(pair, len(index)) for pair in ((E1, E2), (E3, E4))])
    pairs = list(index)
    tables = (difference_tables(ctx, pairs, on) if len(pairs) > 1
              else [difference_table(ctx, *pairs[0], on)])
    return tables, quad_pairs


def _products(ctx, quads, on: PointSet | None = None) -> list:
    """table_products of each quad's D12 and D34 (_quad_tables)."""
    tables, quad_pairs = _quad_tables(ctx, quads, on)
    return [table_products(tables[i], tables[j]) for i, j in quad_pairs]


def n_t_profile(ctx, U: PointSet, V: PointSet) -> dict:
    """Unit distances for every t at once: {t: n_t(U, V)} covering all t in
    F_q, from one whole table D_UV binned by norm class; the values sum to
    |U||V|."""
    return dict(enumerate(norm_class_sums(ctx, difference_table(ctx, U, V).table)))


def par_t_profile(ctx, E1, E2, E3, E4) -> dict:
    """One-side-length counts for every t at once, from one table pass.

    Returns {t: Par_t} covering all t in F_q; the values sum to the
    all-parallelograms count.
    """
    return dict(enumerate(norm_class_sums(ctx, _products(ctx, [(E1, E2, E3, E4)])[0])))


def par_and_n_t_profiles(ctx, quads) -> list:
    """(par_t_profile, n_t_profile of (E1, E2)) of each (E1, E2, E3, E4) in
    ``quads``, in order: each n_t profile is read from the quad's own D12,
    and the tables and products are binned in one norm-class reduction;
    where any quad's products need Python ints, the whole stack holds
    them."""
    tables, quad_pairs = _quad_tables(ctx, quads)
    stack = np.stack([table_products(tables[i], tables[j]) for i, j in quad_pairs]
                     + [tables[i].table for i, _ in quad_pairs])
    profiles = [dict(enumerate(sums)) for sums in norm_class_sums(ctx, stack)]
    return list(zip(profiles[:len(quads)], profiles[len(quads):]))


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
    (u, v) in E12^x x E34^x with |u - v| = t.  Each radius is reduced mod
    q once, and the result keeps the caller's keys (radii equal mod q
    share one list).

    The call takes one of two exact routes, each building what it reads
    of E1..E4 once:

    * For q <= _BIT_MAX_Q, by popcounts of row words (_bit_terms): with
      w = u - v, rhom_x = sum over w on S_t of |E1 n (E2 - x) n (E3 + w) n
      (E4 + w - x)|, every translate a gather of q-bit row words
      (geometry.word_tiling), and |S_t|^2 L words a radius for L words a
      translate, whatever the density.
    * By pairs (_pair_terms): the meets of a chunk of directions are one
      gather over the point lists of E1 and E3 each.  For meet sizes a and
      b, testing the a b pairs (u, v) outright is cheaper than marking the
      larger meet in a scratch tiling and probing the smaller on p + S_t,
      which counts the same pairs because S_t = -S_t (_pair_count), while
      4 a b <= min(a, b) |S_t| + 3072; the pairs of every such direction
      of every radius are tested in one batch, each one gather of the
      tiled norm classes at u - v (_small_pair_counts).

    The rule, with |E1| |E3| the smaller of |E1| |E3| and |E2| |E4|, |S_t|
    the widest circle and L the words of a translate: the bits while q <=
    _BIT_MAX_Q and a direction's |S_t| L words, at _PAIRS_PER_WORD pairs
    each, cost at most its |E1| |E3| pairs plus _PAIRS_PER_DIRECTION; the
    pairs otherwise.  Median ms per call on four fresh random sets of one
    density (full planes at 1), the minimum of interleaved in-process
    blocks, as bits / pairs with the route taken starred, on a 2-vCPU VM
    ("all" is radii 1 .. q - 1):

    ======== ========== ========== ========== ========== ========== ========== ==========
    q, radii .01        .02        .05        .1         .25        .5         1
    ======== ========== ========== ========== ========== ========== ========== ==========
    13, t=1  .051*/.044 .051*/.043 .052*/.084 .051*/.087 .052*/.100 .053*/.197 .051*/.149
    13, all  .107*/.072 .108*/.092 .107*/.139 .108*/.158 .109*/.334 .110*/1.87 .094*/1.28
    31, t=1  .155/.056* .151/.095* .154/.106* .155/.145* .153*/.579 .149*/1.11 .126*/1.37
    31, all  2.52/.340* 2.45/.441* 2.45/.774* 2.05/2.40* 2.03*/16.4 2.07*/33.4 1.22*/39.0
    61, t=1  1.36/.114* .879/.138* .980/.231* .908*/1.07 .924*/2.99 .912*/8.73 .569*/9.68
    61, all  44.2/2.11* 44.9/3.60* 44.2/11.2* 44.5*/61.7 44.1*/181  43.8*/553  29.1*/685
    ======== ========== ========== ========== ========== ========== ========== ==========

    The rule's misses: at q = 13 the pairs beat the bits on sets of
    density .02 and below, but every q = 13 call keeps the bits, whatever
    the sets; and at q = 31, density .1, the bits win over every radius
    and lose at t = 1, as the rule weighs one direction's costs.
    (A third route, float32 matrix products over E1 x E3, was measured
    and dropped; see ROADMAP.)

    The pair route computes on whichever of (E1, E2, E3, E4) and
    (E2, E1, E4, E3) has the smaller |E1| |E3|, the first on a tie.
    Swapping is exact: E21^-x = E12^x + x and E43^-x = E34^x + x, so
    rhom_x(E1, E2, E3, E4) = rhom_-x(E2, E1, E4, E3) with the same meet
    sizes, and the swapped sets are computed at -x for each x of the circle
    in order.  The bit route's cost does not depend on the sets, so it
    never swaps.

    When E2 = E1 and E4 = E3, the same identity says the meets of -x are
    those of x translated by x.  Only one direction of each pair +-x is
    computed (mirrored_directions), and its term fills both slots; the
    pairs (x, w), the pair tests and the probes still use the whole
    circle.
    """
    require_same_q(ctx, E1, E2, E3, E4)
    q = ctx.q
    reduced = {t: t % q for t in radii}
    circles = {t: circle(ctx, t).points for t in reduced.values()}
    widest = max(map(len, circles.values()), default=0)
    cells = min(len(E1) * len(E3), len(E2) * len(E4))
    bits = q <= _BIT_MAX_Q and (
        _PAIRS_PER_WORD * widest * len(word_layout(ctx)[0]) <= cells + _PAIRS_PER_DIRECTION)
    swapped = not bits and len(E2) * len(E4) < len(E1) * len(E3)
    if swapped:
        E1, E2, E3, E4 = E2, E1, E4, E3
    # The directions computed, and each circle position's source among
    # them; every position is computed unless the pairs repeat.
    paired = E2 == E1 and E4 == E3
    mirrors = {t: mirrored_directions(ctx, t) if paired
               else (negated_points(st, q) if swapped else st, None)
               for t, st in circles.items()}
    if bits:
        computed = _bit_terms(ctx, E1, E2, E3, E4, circles, mirrors)
    else:
        computed = _pair_terms(ctx, E2, E4, E1.points, E3.points, circles, mirrors)
    placed = {t: out if mirrors[t][1] is None else [out[i] for i in mirrors[t][1]]
              for t, out in computed.items()}
    return {t: placed[r] for t, r in reduced.items()}


def _bit_terms(ctx, E1, E2, E3, E4, circles, mirrors) -> dict:
    """The computed directions' terms of each radius, by popcounts of row
    words.

    As S_t = -S_t, rhom_x = sum over w on S_t of |E12^x n (E3 - w) n
    (E4 - w - x)|, and E1..E4 are one word_tiling stack, so each translate
    is a gather of its words (word_layout).  The meets' words are masked to
    the plane once, and each radius's pairs (x, w) are read at its circle's
    offsets plus x.  Radii whose circles have the same size go in one pass,
    cut into chunks of at most geometry.INDEX_CHUNK words.
    """
    firsts, masks = word_layout(ctx)
    words = word_tiling([E.indicator for E in (E2, E4, E1, E3)])
    groups = {}
    for t, st in circles.items():
        groups.setdefault(len(st), []).append(t)
    terms = dict.fromkeys(circles)
    for n, radii in groups.items():
        xs = np.array([mirrors[t][0] for t in radii])
        sizes = np.empty((2,) + xs.shape, dtype=np.int64)
        rhom = np.empty(xs.shape, dtype=np.int64)
        per = max(1, geometry.INDEX_CHUNK // (n * len(firsts)))
        step = max(1, per // xs.shape[1])
        for lo in range(0, len(radii), step):
            x = xs[lo:lo + step]
            # E12^x and E34^x, as (2, radii, directions, words).
            meets = words[:2].take(x[..., None] + firsts, axis=1)
            meets &= (words[2:, firsts] & masks)[:, None, None]
            # A product sums the short last axis faster than sum() does.
            sizes[:, lo:lo + step] = np.bitwise_count(meets) @ np.ones(len(firsts), dtype=np.int64)
            e12 = meets[0, ..., None]
            w = word_offsets(ctx, tuple(radii[lo:lo + step]))
            e3 = words[3].take(w)
            for d in range(0, xs.shape[1], per):
                hits = words[1].take(w + x[:, d:d + per, None])
                hits &= e3
                hits = hits.reshape(*hits.shape[:2], len(firsts), n)
                hits &= e12[:, d:d + per]
                rhom[lo:lo + step, d:d + per] = np.bitwise_count(hits).sum(axis=(2, 3))
        for t, a, b, r in zip(radii, *sizes.tolist(), rhom.tolist()):
            terms[t] = list(zip(a, b, r))
    return terms


def _pair_terms(ctx, E2, E4, p1, p3, circles, mirrors) -> dict:
    """The computed directions' terms of each radius, by pairs.

    The meets of every computed direction of every radius are read in
    chunks of directions, each one 2-D gather on the tiling of E2 and one
    on that of E4, of at most geometry.INDEX_CHUNK cells.  A direction
    whose meet sizes a and b fail the small-meet rule (rhombus_directions)
    is marked and probed as its chunk is read (_pair_count); the pairs of
    every other direction go in one batch (_small_pair_counts).
    """
    if not circles:
        return {}
    q = ctx.q
    t2, t4 = flat_tiling(E2.indicator), flat_tiling(E4.indicator)
    marks = np.zeros_like(t2)
    sts, kept = list(circles.values()), [mirrors[t][0] for t in circles]
    # Each computed direction's circle among sts, and that circle's size.
    owner = np.repeat(np.arange(len(kept)), [len(x) for x in kept])
    size = np.array([len(st) for st in sts])[owner]
    xs = np.concatenate(kept)
    a, b = np.empty((2, len(xs)), dtype=np.int64)
    small = np.empty(len(xs), dtype=bool)
    rhom = np.zeros(len(xs), dtype=np.int64)
    e12, e34 = [], []
    step = max(1, geometry.INDEX_CHUNK // max(len(p1), len(p3), 1))
    for lo in range(0, len(xs), step):
        hi = lo + step
        m12, m34 = t2[p1 + xs[lo:hi, None]], t4[p3 + xs[lo:hi, None]]
        na, nb = m12.sum(axis=1), m34.sum(axis=1)
        a[lo:hi], b[lo:hi] = na, nb
        # A pair costs about four probes, and marking and probing has a
        # fixed cost a direction: fitted to the crossovers, at meets of
        # ~30, ~40 and ~65-95 points on circles of 32, 100 and 212.
        small[lo:hi] = 4 * na * nb <= np.minimum(na, nb) * size[lo:hi] + 3072
        for i in np.flatnonzero(~small[lo:hi]):
            rhom[lo + i] = _pair_count(marks, sts[owner[lo + i]], p1[m12[i]], p3[m34[i]], q)
        e12.append(p1[np.nonzero(m12[small[lo:hi]])[1]])
        e34.append(p3[np.nonzero(m34[small[lo:hi]])[1]])
    if a[small] @ b[small]:
        norms = tiled_norm_classes(ctx)
        rhom += _small_pair_counts(norms, np.concatenate(e12), a * small,
                                   negated_points(np.concatenate(e34), q), b * small,
                                   np.array(list(circles), dtype=norms.dtype)[owner])
    out, terms, lo = list(zip(a.tolist(), b.tolist(), rhom.tolist())), {}, 0
    for t, x in zip(circles, kept):
        terms[t], lo = out[lo:lo + len(x)], lo + len(x)
    return terms


def _small_pair_counts(norms, cells, a, v, b, radius) -> np.ndarray:
    """rhom_x for directions given by their meets, in one batch.

    Direction d's meets are the next a[d] points of ``cells`` and the next
    b[d] of ``v``, as canonical and as negated tiled indices, and its pair
    (u, v) counts where ``norms``, the tiled norm classes, reads radius[d]
    at u + v.  The pairs of all directions form one ragged range, direction
    after direction and u-major: row r is one point u, followed by the b
    points of its direction's v.  The range goes in chunks of at most
    geometry.INDEX_CHUNK pairs, which may cut a row, and each chunk's hits
    are counted by the direction of their row.
    """
    width = np.repeat(b, a)
    ends = np.cumsum(width)
    starts = ends - width
    # Pair k of row r meets v[k + shift[r]]; row r is of direction owner[r].
    shift = np.repeat(np.cumsum(b) - b, a) - starts
    owner = np.repeat(np.arange(len(a)), a)
    wanted = radius[owner]
    counts = np.zeros(len(a), dtype=np.int64)
    total = int(a @ b)
    for lo in range(0, total, geometry.INDEX_CHUNK):
        hi = min(lo + geometry.INDEX_CHUNK, total)
        r0, r1 = np.searchsorted(ends, [lo, hi - 1], side="right")
        rows = slice(r0, r1 + 1)
        n = np.minimum(ends[rows], hi) - np.maximum(starts[rows], lo)
        u, k = np.repeat(cells[rows], n), np.arange(lo, hi) + np.repeat(shift[rows], n)
        hit = norms[u + v[k]] == np.repeat(wanted[rows], n)
        counts += np.bincount(np.repeat(owner[rows], n)[hit], minlength=len(a))
    return counts


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
