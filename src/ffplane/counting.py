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
  rhombus terms of a stack of quads, each with its own radii, are the rows
  of one array that both routes write in place (``rhombus_directions`` for
  one quad, ``rhombus_sums`` for a bounds sweep block, which also reduces
  them to the relation's sums), each quad by one of two exact routes
  chosen by their measured costs: for q <= 61, popcounts of row words (the
  plane's rows packed into uint64 words), for dense sets and every q = 13
  quad, every such quad's rows of (quad, radius) in one stacked pass per
  circle size, cut into chunks of at most INDEX_CHUNK // 4 words, and one
  pass unless S_0 is asked for; otherwise by pairs, on the smaller of the
  pairs E1 x E3 and E2 x E4: the meets of every direction of every radius
  from chunked gathers, the pairs of the small meets counted in one batch
  on the tiled norm classes, and each large meet marked and probed.  When
  E2 = E1 and E4 = E3 only one of each pair +-x of directions is computed;
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
# to 61.  A quad takes it while a direction's |S_t| L row words,
# at _PAIRS_PER_WORD pairs each, cost at most its |E1| |E3| pairs plus
# _PAIRS_PER_DIRECTION, the pair route's fixed cost per direction.  Fitted
# to the crossovers of the rhombus_directions table, which fall between
# |E1| |E3| ~ 9k and 14k at q = 31 and ~ 112k and 138k at q = 61; and
# 32 * 25 * 4 <= 4096, so every q = 13 quad takes the bits, S_0 included.
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


def norm_class_sums(ctx, values: np.ndarray) -> np.ndarray:
    """The sums of values[..., v] over |v| = t for t in F_q, on the last
    axis, of a q x q array of values or of each q x q array of a stack, in
    the dtype of values: one reduction whatever the stack's length, over the
    cells sorted by norm class (norm_class_order)."""
    q = ctx.q
    order, starts = norm_class_order(ctx)
    sums = np.add.reduceat(values.reshape(-1, q * q)[:, order], starts, axis=1)
    return sums.reshape(values.shape[:-2] + (q,))


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
    return dict(enumerate(norm_class_sums(ctx, difference_table(ctx, U, V).table).tolist()))


def par_t_profile(ctx, E1, E2, E3, E4) -> dict:
    """One-side-length counts for every t at once, from one table pass.

    Returns {t: Par_t} covering all t in F_q; the values sum to the
    all-parallelograms count.
    """
    return dict(enumerate(norm_class_sums(ctx, _products(ctx, [(E1, E2, E3, E4)])[0]).tolist()))


def par_and_n_t_profiles(ctx, quads) -> tuple:
    """(par, n_t): arrays whose row i is the par_t_profile of quads[i] =
    (E1, E2, E3, E4) and the n_t_profile of its (E1, E2), read from its own
    D12; the tables and products are binned in one norm_class_sums call.
    Where any quad's products need Python ints, both arrays hold them."""
    tables, quad_pairs = _quad_tables(ctx, quads)
    sums = norm_class_sums(ctx, np.stack(
        [table_products(tables[i], tables[j]) for i, j in quad_pairs]
        + [tables[i].table for i, _ in quad_pairs]))
    return sums[:len(quads)], sums[len(quads):]


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
        total = int(_rhombus_terms(ctx, [(E1, E2, E3, E4)], [[t]])[0][2].sum())
        if exclude_degenerate:
            total -= count_degenerate_rhom(ctx, E1, E2, E3, E4, t).value
    else:
        raise ValueError(f"unknown method {method!r}")
    return CountResult(total, method, q, t, (len(E1), len(E2), len(E3), len(E4)))


def rhombus_directions(ctx, E1, E2, E3, E4, radii) -> dict:
    """Per-direction rhombus terms for every radius in ``radii`` at once.

    Returns {t: [(|E12^x|, |E34^x|, rhom_x) for x on S_t in circle order]}
    with E12^x = E1 n (E2 - x), E34^x = E3 n (E4 - x) and rhom_x the pairs
    (u, v) in E12^x x E34^x with |u - v| = t, keyed by the radii as given.
    The call is a stack of one quad (_rhombus_terms); rhombus_sums takes
    many quads.  Each quad takes one of two exact routes, each building
    what it reads once:

    * For q <= _BIT_MAX_Q, by popcounts of row words (_bit_terms): with
      w = u - v, rhom_x = sum over w on S_t of |E1 n (E2 - x) n (E3 + w) n
      (E4 + w - x)|, every translate a gather of q-bit row words
      (geometry.word_tiling), and |S_t|^2 L words a radius for L words a
      translate, whatever the density.  The stack's quads on the bits go
      in one pass over rows of (quad, radius) per circle size (one pass
      unless S_0 is asked for), in chunks of rows and directions of at
      most geometry.INDEX_CHUNK // 4 words a gather: 128 KiB, under
      glibc's default mmap threshold, so the chunks reuse heap memory
      instead of faulting in freshly mapped pages.
    * By pairs (_pair_terms), quad by quad: the meets of a chunk of
      directions are one gather over the point lists of E1 and E3 each.
      For meet sizes a and b, testing the a b pairs (u, v) outright is
      cheaper than marking the larger meet in a scratch tiling and probing
      the smaller on p + S_t, which counts the same pairs because
      S_t = -S_t (_pair_count), while 4 a b <= min(a, b) |S_t| + 3072; the
      pairs of every such direction of every radius are tested in one
      batch, each one gather of the tiled norm classes at u - v
      (_small_pair_counts).

    The rule, quad by quad, with |E1| |E3| the smaller of |E1| |E3| and
    |E2| |E4|, |S_t| the quad's widest circle and L the words of a
    translate: the bits while q <= _BIT_MAX_Q and a direction's |S_t| L
    words, at _PAIRS_PER_WORD pairs each, cost at most its |E1| |E3| pairs
    plus _PAIRS_PER_DIRECTION; the pairs otherwise.  Median ms per call on
    four fresh random sets of one density (full planes at 1), the minimum
    of interleaved in-process blocks, as bits / pairs with the route taken
    starred, on a 2-vCPU VM ("all" is radii 1 .. q - 1):

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

    The rule's misses, measured with the bits stacked (rhombus_sums, ms a
    quad, 2-CPU VM): on q = 13 sets of density .02 and below the pairs take
    0.74-0.98 of the bits' time in a stack of one quad, but 1.5-1.8 times
    it at t = 1 and 1.04-1.33 times over every radius in stacks of 7 and
    21, a bounds sweep block's; at q = 31, density .1, over every radius
    the routes are within 0.85-1.08 of each other.  (A third route, float32
    matrix products over E1 x E3, was measured and dropped; see ROADMAP.)

    The pair route computes on whichever of (E1, E2, E3, E4) and
    (E2, E1, E4, E3) has the smaller |E1| |E3|, the first on a tie.
    Swapping is exact: E21^-x = E12^x + x and E43^-x = E34^x + x, so
    rhom_x(E1, E2, E3, E4) = rhom_-x(E2, E1, E4, E3) with the same meet
    sizes, and the swapped sets are computed at -x for each x of the circle
    in order.  The bit route's cost does not depend on the sets, so it
    never swaps.

    When E2 = E1 and E4 = E3, the same identity says the meets of -x are
    those of x translated by x.  Only one direction of each pair +-x is
    computed (mirrored_directions), and its term fills both slots: for
    each such quad on the pair route, and on the bit route when every quad
    of the stack is paired.  The pairs (x, w), the pair tests and the
    probes still use the whole circle.
    """
    require_same_q(ctx, E1, E2, E3, E4)
    terms, sizes = _rhombus_terms(ctx, [(E1, E2, E3, E4)], [radii])
    return {t: list(zip(a[:n], b[:n], r[:n]))
            for t, n, a, b, r in zip(radii, sizes, *terms.tolist())}


def rhombus_sums(ctx, quads, radii) -> tuple:
    """The per-radius sums of the rhombus relation for a stack of quads,
    quads[i] at the radii radii[i]: (rhom, par, roots, prods, sizes) with
    the rows and sizes of _rhombus_terms, one row per radius asked for, and
    arrays whose row k, at radius t, is Rhom_t, sum_x p_x, sum_x sqrt(p_x)
    and the p_x (zero past |S_t|), where p_x = |E12^x| |E34^x| and x runs
    over S_t in circle order (rhombus_directions).  The roots are added one
    at a time, so their sum is the sequential Python float sum bit for bit.

    Every quad's terms come from one _rhombus_terms call, so the quads the
    route rule sends to the bits share its bit passes, and the sums of
    every (quad, radius) row are taken in one array pass.
    """
    require_same_q(ctx, *(E for quad in quads for E in quad))
    (a, b, rhom), sizes = _rhombus_terms(ctx, quads, radii)
    p = a * b
    # The last partial sum of an accumulation is the sequential sum, and the
    # zeros past a circle's end leave it as it is.
    roots = np.cumsum(np.sqrt(p), axis=1)[:, -1]
    return rhom.sum(axis=1), p.sum(axis=1), roots, p, sizes


def _rhombus_terms(ctx, quads, radii) -> tuple:
    """(terms, sizes) of a stack of quads, quads[i] at the radii radii[i]:
    a row per radius asked for, quad after quad, each quad's in the order
    given.  A radius is reduced mod q only to pick its circle, so an
    unreduced one adds no entry to geometry's circle and pairing caches.
    ``terms`` is an int64 array (3, rows, widest) holding |E12^x|, |E34^x|
    and rhom_x of each row at x on S_t in circle order, zero past |S_t|,
    which is sizes[row].

    ``terms`` is allocated once, and the routes write their rows into it.
    Each quad takes the route the rule of rhombus_directions gives it
    (_takes_bits): a quad on the pairs is one _pair_terms call, given its
    rows' view, and the rows of the quads on the bits one _bit_terms pass
    per circle size among them, on one word_tiling.  That is one pass
    unless S_0 is asked for, as every other circle has q - eta(-1) points.
    """
    radii = [[t % ctx.q for t in rs] for rs in radii]
    ts = [t for rs in radii for t in rs]
    circles = {t: circle(ctx, t).points for t in dict.fromkeys(ts)}
    sizes = [len(circles[t]) for t in ts]
    terms = np.zeros((3, len(sizes), max(sizes, default=1)), dtype=np.int64)
    # The bit rows (stack index, t, row) by circle size.
    stack, bits, lo = [], {}, 0
    for quad, rs in zip(quads, radii):
        if rs and _takes_bits(ctx, *quad, [circles[t] for t in rs]):
            for row, t in enumerate(rs, lo):
                bits.setdefault(sizes[row], []).append((len(stack), t, row))
            stack.append(quad)
        elif rs:
            _pair_terms(ctx, *quad, rs, terms[:, lo:lo + len(rs)])
        lo += len(rs)
    if bits:
        words = word_tiling([E.indicator for E1, E2, E3, E4 in stack for E in (E2, E4, E1, E3)])
    for rows in bits.values():
        _bit_terms(ctx, stack, rows, circles, terms, words)
    return terms, sizes


def _takes_bits(ctx, E1, E2, E3, E4, circles) -> bool:
    """The route rule of rhombus_directions for one quad on these circles."""
    widest = max(map(len, circles), default=0)
    cells = min(len(E1) * len(E3), len(E2) * len(E4))
    return ctx.q <= _BIT_MAX_Q and (
        _PAIRS_PER_WORD * widest * len(word_layout(ctx)[0]) <= cells + _PAIRS_PER_DIRECTION)


def _bit_terms(ctx, quads, rows, circles, terms, words) -> None:
    """Write into ``terms`` (_rhombus_terms) the terms of each (i, t, row)
    of ``rows``, quads[i] at radius t, by popcounts of row words; every
    row's circle, circles[t], has one size.

    As S_t = -S_t, rhom_x = sum over w on S_t of |E12^x n (E3 - w) n
    (E4 - w - x)|, and the sets of every quad are one word_tiling stack,
    ``words``, so each translate is a gather of its words (word_layout),
    quad i's at the offset (4 i + k) 4 q^2 of its k-th set.  The meets' words are
    masked to the plane, and each row's pairs (x, w) are read at its
    circle's offsets plus x, from one word_offsets table of the rows'
    sorted radii.  The pass goes in chunks of rows and directions: no
    gathered word array or index array passes geometry.INDEX_CHUNK // 4
    words, or one direction's words (its |S_t| L words of hits, 2 L of
    meets) where that is more.  When every quad has E2 = E1 and E4 = E3,
    one of each pair +-x is computed.
    """
    firsts, masks = word_layout(ctx)
    span, width = 4 * ctx.q * ctx.q, len(firsts)
    # Quad i's E2, E4, E1 and E3 words start at (4 i + 0, 1, 2, 3) span:
    # a direction's meets are its E2 and E4 words at ``pair`` and those of
    # E1 and E3 at the first rows, masked to the plane (``low``).
    low = words.reshape(len(quads), 4, span)[:, 2:, firsts] & masks
    low = low.reshape(len(quads), 1, 2 * width)
    pair = np.concatenate([firsts, firsts + span])
    words = words.ravel()
    paired = all(E2 == E1 and E4 == E3 for E1, E2, E3, E4 in quads)
    budget = geometry.INDEX_CHUNK // 4
    ones = np.ones(width, dtype=np.int64)
    radii = sorted({t for _, t, _ in rows})
    index = {t: k for k, t in enumerate(radii)}
    owner, which, at = np.array([(i, index[t], row) for i, t, row in rows]).T
    n = len(circles[radii[0]])
    pairings = [mirrored_directions(ctx, t) for t in radii] if paired else None
    # Each row's directions, as tiled indices into its quad's E2 words.
    base = (4 * span) * owner[:, None]
    xs = np.array([x for x, _ in pairings] if paired else
                  [circles[t] for t in radii])[which] + base
    lows, base3 = low[owner], base[..., None] + 3 * span
    offsets = word_offsets(ctx, tuple(radii))
    # A (row, direction) pair gathers n L words of hits and 2 L of meets.
    dirs = xs.shape[1]
    per = max(1, budget // (max(n, 2) * width))
    step = max(1, per // dirs)
    block = max(1, budget // (2 * width * step))
    computed = np.empty((3,) + xs.shape, dtype=np.int64)
    for lo in range(0, len(rows), step):
        hi = lo + step
        w = offsets[which[lo:hi]]
        e3 = words.take(w + base3[lo:hi])
        w += span
        for m in range(0, dirs, block):
            x = xs[lo:hi, m:m + block]
            # E12^x and E34^x, as (rows, directions, 2 L words).
            meets = words.take(x[..., None] + pair)
            meets &= lows[lo:hi]
            # A product sums the short last axis faster than sum() does.
            counts = np.bitwise_count(meets).reshape(*x.shape, 2, width) @ ones
            computed[:2, lo:hi, m:m + block] = counts.transpose(2, 0, 1)
            e12 = meets[..., :width, None]
            for d in range(0, x.shape[1], per):
                hits = words.take(w + x[:, d:d + per, None])
                hits &= e3
                hits = hits.reshape(*hits.shape[:2], width, n)
                hits &= e12[:, d:d + per]
                computed[2, lo:hi, m + d:m + d + per] = np.bitwise_count(hits).sum(axis=(2, 3))
                # Freed before the next gather and its index are made,
                # so at most two arrays of the budget's size are live.
                del hits
    if paired:
        source = np.array([source for _, source in pairings])[which]
        computed = np.take_along_axis(computed, source[None], axis=2)
    terms[:, at, :n] = computed


def _pair_terms(ctx, E1, E2, E3, E4, radii, out) -> None:
    """Write the terms of one quad at each of its rows' reduced radii,
    ``radii`` (a radius may repeat), by pairs into ``out``, the view of the
    quad's rows of _rhombus_terms' array: (3, len(radii), widest), row k
    that of radii[k].

    The quad is computed swapped as rhombus_directions says, and one of
    each pair +-x when E2 = E1 and E4 = E3.  The meets of every computed
    direction of every radius are read in chunks of directions, each one
    2-D gather on the tiling of E2 and one on that of E4, of at most
    geometry.INDEX_CHUNK cells.  A direction whose meet sizes a and b fail
    the small-meet rule (rhombus_directions) is marked and probed as its
    chunk is read (_pair_count); the pairs of every other direction go in
    one batch (_small_pair_counts).
    """
    q = ctx.q
    swapped = len(E2) * len(E4) < len(E1) * len(E3)
    if swapped:
        E1, E2, E3, E4 = E2, E1, E4, E3
    # The directions computed, and each circle position's source among
    # them; every position is computed unless the pairs repeat.
    paired = E2 == E1 and E4 == E3
    sts = [circle(ctx, t).points for t in radii]
    mirrors = [mirrored_directions(ctx, t) if paired
               else (negated_points(st, q) if swapped else st, None)
               for t, st in zip(radii, sts)]
    p1, p3 = E1.points, E3.points
    t2, t4 = flat_tiling(E2.indicator), flat_tiling(E4.indicator)
    marks = np.zeros_like(t2)
    kept = [x for x, _ in mirrors]
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
                                   np.array(radii, dtype=norms.dtype)[owner])
    computed = np.stack([a, b, rhom])
    lo = 0
    for k, (x, source) in enumerate(mirrors):
        part = computed[:, lo:lo + len(x)]
        out[:, k, :len(sts[k])] = part if source is None else part[:, source]
        lo += len(x)


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
