"""Exact configuration counters over four point sets in the plane.

Every quantity has at least two independent routes:

* ``oracle`` -- literal nested-loop enumeration, the ground truth;
* ``fast``   -- difference tables for ``par_t`` and ``par``, counted pair by
  pair up to 16 q^2 pairs and by certified FFT past that
  (``geometry.difference_table``); for ``n_t``, ``rhom_t`` and
  ``degenerate``, gathers of point lists on the 2q x 2q tiling of the
  indicator arrays (``periodic``).  On that tiling a point plus an offset
  is one flat index with no reduction mod q.  The rhombus terms of any list
  of radii come from one pass (``rhombus_directions``) that takes each
  circle's directions in blocks bounded by fixed budgets;
* ``fourier`` (one-side-length parallelograms only) -- numerical evaluation
  of the character-sum expansion as one cyclic convolution of frequency
  tables, independent of the difference tables the fast route uses.

All counts are exact integers.  The only float-derived value is the fourier
total; it carries a derived rounding-error bound, and the call raises unless
that bound is below 1e-6 and the total lands within 1e-6 of an integer.

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
from .field import PrimeFieldCtx
from .fourier import transform
from .geometry import (
    PointSet,
    circle,
    difference_table,
    norm_classes,
    periodic,
    tiled_points,
)

ROUND_TOL = 1e-6

# Sums of table products are at most |E1||E2||E3||E4|; from this size on
# they are accumulated in Python ints instead of int64.
INT64_LIMIT = 2**63
# Point-offset probes held in memory at once by the circle-probing routes.
_PROBE_CHUNK = 1 << 16
# Mark cells (4 q^2 per direction) of one block of rhombus directions.
_MARK_CELLS = 1 << 21


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


def _require_same_q(ctx: PrimeFieldCtx, *sets: PointSet) -> None:
    for s in sets:
        if s.q != ctx.q:
            raise ValueError("point sets and field context disagree on q")


def _probe_count(tiled: np.ndarray, points: np.ndarray, offsets: np.ndarray) -> int:
    """#{(p, s) : tiled[p + s]} over flat tiled indices, in bounded chunks."""
    if not len(points) or not len(offsets):
        return 0
    step = max(1, _PROBE_CHUNK // len(offsets))
    total = 0
    for i in range(0, len(points), step):
        total += int(np.count_nonzero(tiled[points[i:i + step, None] + offsets]))
    return total


# -- unit distances ----------------------------------------------------------

def count_unit_distances(ctx, U: PointSet, V: PointSet, t: int,
                         method: str = "fast") -> CountResult:
    """Pairs (u, v) in U x V with |u - v| = t."""
    _require_same_q(ctx, U, V)
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
        # v is at form-distance t from u iff v in u + S_t (S_t = -S_t).
        total = _probe_count(periodic(V.indicator).ravel(),
                             tiled_points(U.indicator),
                             tiled_points(circle(ctx, t).indicator))
    else:
        raise ValueError(f"unknown method {method!r}")
    return CountResult(total, method, q, t, (len(U), len(V)))


# -- parallelograms ----------------------------------------------------------

def count_par_t(ctx, E1, E2, E3, E4, t: int, method: str = "fast") -> CountResult:
    """Quadruples (x, y, z, w) with x - y = z - w and |x - y| = t."""
    _require_same_q(ctx, E1, E2, E3, E4)
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
        prod = _products(ctx, E1, E2, E3, E4)
        total = int(prod[circle(ctx, t).indicator].sum())
    elif method == "fourier":
        total = par_t_fourier(ctx, E1, E2, E3, E4, t).value
    else:
        raise ValueError(f"unknown method {method!r}")
    return CountResult(total, method, q, t, (len(E1), len(E2), len(E3), len(E4)))


def count_par_all(ctx, E1, E2, E3, E4, method: str = "fast") -> CountResult:
    """All quadruples with x - y = z - w (sum over every side-length t)."""
    _require_same_q(ctx, E1, E2, E3, E4)
    q = ctx.q
    if method == "fast":
        total = int(_products(ctx, E1, E2, E3, E4).sum())
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
    """D12(v) * D34(v) for every v, exactly.

    Every sum of these products is at most the total mass
    d12.total * d34.total = |E1||E2||E3||E4|.  While that stays below 2^63
    the products are int64; beyond it they are Python ints (object dtype),
    so no sum over them can wrap.
    """
    a, b = d12.table, d34.table
    if d12.total * d34.total >= INT64_LIMIT:
        a, b = a.astype(object), b.astype(object)
    return a * b


def norm_class_sums(ctx, values: np.ndarray) -> list:
    """[sum of values[v] over |v| = t for t in F_q], in the dtype of values."""
    acc = np.zeros(ctx.q, dtype=values.dtype)
    np.add.at(acc, norm_classes(ctx).ravel(), values.ravel())
    return [int(v) for v in acc]


def _products(ctx, E1, E2, E3, E4) -> np.ndarray:
    """D12 * D34, with D12 reused as D34 when (E3, E4) equals (E1, E2)."""
    d12 = difference_table(ctx, E1, E2)
    d34 = d12 if E3 == E1 and E4 == E2 else difference_table(ctx, E3, E4)
    return table_products(d12, d34)


def par_t_profile(ctx, E1, E2, E3, E4) -> dict:
    """One-side-length counts for every t at once, from one table pass.

    Returns {t: Par_t} covering all t in F_q; the values sum to the
    all-parallelograms count.
    """
    _require_same_q(ctx, E1, E2, E3, E4)
    return dict(enumerate(norm_class_sums(ctx, _products(ctx, E1, E2, E3, E4))))


# -- rhombi -------------------------------------------------------------------

def count_rhom_t(ctx, E1, E2, E3, E4, t: int, method: str = "fast",
                 exclude_degenerate: bool = False) -> CountResult:
    """Rhombi of side t: triples (u, v, x) as in the module docstring."""
    _require_same_q(ctx, E1, E2, E3, E4)
    q = ctx.q
    t %= q
    if method == "oracle":
        m2 = set(E2.elements)
        m4 = set(E4.elements)
        total = 0
        for s1, s2 in circle(ctx, t).elements:
            for u1, u2 in E1.elements:
                for v1, v2 in E3.elements:
                    if ((u1 + s1) % q, (u2 + s2) % q) not in m2:
                        continue
                    if ((v1 + s1) % q, (v2 + s2) % q) not in m4:
                        continue
                    d1 = (u1 - v1) % q
                    d2 = (u2 - v2) % q
                    if (d1 * d1 + d2 * d2) % q == t:
                        total += 1
    elif method == "fast":
        terms = rhombus_directions(ctx, E1, E2, E3, E4, [t])[t]
        total = sum(r for _, _, r in terms)
    else:
        raise ValueError(f"unknown method {method!r}")
    if exclude_degenerate:
        total -= count_degenerate_rhom(ctx, E1, E2, E3, E4, t).value
    return CountResult(total, method, q, t, (len(E1), len(E2), len(E3), len(E4)))


def rhombus_directions(ctx, E1, E2, E3, E4, radii) -> dict:
    """Per-direction rhombus terms for every radius in ``radii`` at once.

    Returns {t: [(|E12^x|, |E34^x|, rhom_x) for x on S_t in circle order]}
    with E12^x = E1 n (E2 - x), E34^x = E3 n (E4 - x) and rhom_x the pairs
    (u, v) in E12^x x E34^x with |u - v| = t.

    The point lists and tilings of E1..E4 are built once per call.  Each
    radius's directions go in blocks: the meets of a block are one 2-D
    gather over the point lists of E1 and E3, and direction i of the block
    owns plane i of a scratch mark array.  The larger family of meets is
    marked in all four tiled copies of each point, and the smaller one is
    probed on p + S_t, which counts the same pairs because S_t = -S_t.
    Several directions share a block only while their mark planes fit in
    _MARK_CELLS cells and their probes in one gather of _PROBE_CHUNK: at
    q = 13 a whole circle is one block, and on large dense or sparse inputs
    a block is one direction, whose probes are chunked as in _probe_count.
    """
    _require_same_q(ctx, E1, E2, E3, E4)
    q = ctx.q
    plane = 4 * q * q
    p1, p3 = tiled_points(E1.indicator), tiled_points(E3.indicator)
    t2, t4 = periodic(E2.indicator).ravel(), periodic(E4.indicator).ravel()
    circles = {t: tiled_points(circle(ctx, t % q).indicator) for t in radii}
    # A direction probes at most min(|E1|, |E3|) points.
    probed = max(1, min(len(p1), len(p3)))
    blocks = {t: max(1, min(len(st), _MARK_CELLS // plane,
                            _PROBE_CHUNK // (probed * len(st))))
              for t, st in circles.items()}
    most = max(blocks.values(), default=1)
    # Flat cells of every point of E1 (E3) in each plane of a block.
    planes = np.arange(most)[:, None] * plane
    cells1, cells3 = (planes + p1).ravel(), (planes + p3).ravel()
    marks = np.zeros(most * plane, dtype=bool)
    # p + s reaches every quadrant of the tiling, so a marked point is
    # marked in all four of its tiled copies.
    copies = np.array([0, q, 2 * q * q, 2 * q * q + q])
    terms = {}
    for t, st in circles.items():
        k = blocks[t]
        out = terms[t] = []
        for lo in range(0, len(st), k):
            if k == 1:
                # Scalar offsets: cheaper per direction than 1-row blocks.
                x = st[lo]
                e12, e34 = p1[t2[p1 + x]], p3[t4[p3 + x]]
                a, b = [len(e12)], [len(e34)]
            else:
                x = st[lo:lo + k, None]
                m12, m34 = t2[p1 + x], t4[p3 + x]
                e12 = cells1[:m12.size][m12.ravel()]
                e34 = cells3[:m34.size][m34.ravel()]
                a, b = m12.sum(axis=1).tolist(), m34.sum(axis=1).tolist()
            out += zip(a, b, _pair_counts(marks, copies, st, e12, e34, a, b))
    return terms


def _pair_counts(marks, copies, st, e12, e34, a, b) -> list:
    """rhom_x per direction of a block, from its meets as flat mark cells.

    a and b are the meet sizes per direction, and the cells of each
    direction are consecutive.  The larger family is marked at every offset
    in ``copies``, the smaller one probed, and the marks are cleared again.
    A lone direction is probed in chunks; a block of several fits one gather.
    """
    probe, marked, runs = (e12, e34, a) if len(e12) <= len(e34) else (e34, e12, b)
    cells = (marked[:, None] + copies).ravel()
    marks[cells] = True
    if len(runs) == 1:
        counts = [_probe_count(marks, probe, st)]
    else:
        # Each direction's probes are a run of rows of the gather, cut at
        # the cumulative row counts.
        hits = marks[probe[:, None] + st].ravel()
        ends = (np.cumsum(runs) * len(st)).tolist()
        counts = [int(np.count_nonzero(hits[lo:hi]))
                  for lo, hi in zip([0, *ends], ends)]
    marks[cells] = False
    return counts


def count_degenerate_rhom(ctx, E1, E2, E3, E4, t: int,
                          method: str = "fast") -> CountResult:
    """Rhombus tuples with v = u + x (the collapsed-diagonal case).

    With y = u + x these are the pairs (y, x) with y in E2 n E3, |x| = t,
    y - x in E1 and y + x in E4: two tiled gathers per pair, taking -x
    from the negated circle offsets, in chunks of directions.

    Only the fast route exists; ``method`` is accepted so that all five
    counters share one call signature.
    """
    if method != "fast":
        raise ValueError(f"unknown method {method!r}")
    _require_same_q(ctx, E1, E2, E3, E4)
    q = ctx.q
    t %= q
    ys = tiled_points(E2.indicator & E3.indicator)
    rows, cols = np.nonzero(circle(ctx, t).indicator)
    plus = rows * (2 * q) + cols
    minus = (-rows % q) * (2 * q) + (-cols % q)
    t1, t4 = periodic(E1.indicator).ravel(), periodic(E4.indicator).ravel()
    step = max(1, _PROBE_CHUNK // max(len(ys), 1))
    total = 0
    for i in range(0, len(plus), step):
        hit = t1[ys[:, None] + minus[i:i + step]] & t4[ys[:, None] + plus[i:i + step]]
        total += int(np.count_nonzero(hit))
    return CountResult(total, "fast", q, t, (len(E1), len(E2), len(E3), len(E4)))


# -- character-sum evaluation --------------------------------------------------

def _negated(coeffs: np.ndarray, q: int) -> np.ndarray:
    negi = np.mod(-np.arange(q), q)
    return coeffs[np.ix_(negi, negi)]


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
    _require_same_q(ctx, E1, E2, E3, E4)
    q = ctx.q
    t %= q

    # Slots naming one set share one PointSet, so each distinct set is
    # transformed once.
    spectra = {}
    for s in (E1, E2, E3, E4):
        if id(s) not in spectra:
            spectra[id(s)] = transform(ctx, s).coeffs
    e1, e2, e3, e4 = (spectra[id(s)] for s in (E1, E2, E3, E4))
    st = transform(ctx, circle(ctx, t)).coeffs

    # Writing the count as sum_v S_t(v) * sum_{x,y} E1(x)E2(x-v)E3(y)E4(y-v)
    # and expanding E2, E4 by inversion pairs E1 with E2 on one frequency and
    # E3 with E4 on the other.
    a = _negated(e1, q) * e2                        # a[m] = ehat1(-m) ehat2(m)
    b = _negated(e3, q) * e4                        # b[n] = ehat3(-n) ehat4(n)
    st_neg = _negated(st, q)                        # shat_t(-k)

    total = complex(q**6 * (st_neg * _cyclic_convolution(a, b)).sum())
    magnitude = q**6 * float(
        (np.abs(st_neg) * _cyclic_convolution(np.abs(a), np.abs(b)).real).sum())
    error_bound = 4 * np.finfo(float).eps * np.log2(q * q) * magnitude

    b_neg = _negated(e4, q) * e3                    # b[-m] = ehat3(m) ehat4(-m)
    term_i = complex(q**5 * (a * b_neg).sum())
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
