"""Concentration checks for the counting quantities.

Each checker returns a BoundReport with both sides of the inequality it
tested.  Unconditional inequalities (unit-distance concentration, the two
one-side-length parallelogram displays with their right sides
2 sqrt(q prod) + Par/q^2 and 4 sqrt(q prod), the per-direction rhombus
relation with its factor-2 constant, and circle decay) are asserted (a
violation is a failure); order-of-magnitude statements are recorded as
ratios with their hypothesis flags and never hard-asserted, because they
hide unspecified constants.  One table, CHECKS, holds what defines each
check: the sets a sweep trial reads, whether it is asserted, its row
builder and its line layout, in stream order.

Checkers and sweeps share one path: a block of instances gets its count
arrays from one call per counter (_counts), and each check's row builder
forms the columns of all its (instance, radius) rows from them in one
array pass, then a ReportBatch per instance; a check_* function is a block
of one.  A sweep draws each trial's sets once, U, V, E3, E4; a check on k
sets draws its radii from a copy of the trial stream after the k-th set,
so its reports do not depend on the checks run beside it.  It keeps each
block's count arrays alone and builds its batches as they are read.
BoundReports are built only for the check_* functions and a sweep read as
a sequence.
"""

import math
from collections import namedtuple

import numpy as np

from . import geometry
from .counting import count_unit_distances, par_and_n_t_profiles, rhombus_sums
from .errors import InvalidPair, InvalidRadius
from .field import PrimeFieldCtx
from .fourier import circle_decay_batch, circle_decay_lines
from .geometry import PointSet, gen_random_set
from .report import JSON_BOOL, BoundReport, ReportBatch, line_parts
from .rng import SplitMix64

def _radius(ctx, t: int, what: str) -> int:
    if t % ctx.q == 0:
        raise InvalidRadius(f"{what} requires t != 0")
    return t % ctx.q


def check_unit_distance(ctx, U: PointSet, V: PointSet, t: int) -> BoundReport:
    """|N_t(U,V) - |U||V|/q| <= 2 sqrt(q) sqrt(|U||V|), any nonzero t."""
    t = _radius(ctx, t, "unit-distance check")
    return _check(ctx, "unit-distance", (U, V), [t]).report(0)


# The verdicts below are exact: multiplied by a power of q and squared
# (par-vs-mean once its Par/q^2 term is moved left and its sign checked),
# each inequality reads d^2 <= N for integers d and N, that is
# |d| <= isqrt(N): one limit an instance (_*_limit), which a row builder
# sets against each row of a block and a *_holds call against one.  The
# rhombus relation, a sum of square roots, is decided by interval.

def _unit_limit(q, uv):
    return math.isqrt(4 * q**3 * uv)


def unit_distance_holds(q: int, n_t: int, size_u: int, size_v: int) -> bool:
    """|n_t - |U||V|/q| <= 2 sqrt(q) sqrt(|U||V|), as
    (q n_t - |U||V|)^2 <= 4 q^3 |U||V|."""
    uv = size_u * size_v
    return abs(q * n_t - uv) <= _unit_limit(q, uv)


def _mean_limit(q, par_all, prod):
    return par_all + math.isqrt(4 * q**5 * prod)


def par_mean_holds(q: int, par_t: int, par_all: int, prod: int) -> bool:
    """|Par_t - Par/q| <= 2 sqrt(q) sqrt(prod) + Par/q^2: times q^2, with
    g = |q^2 Par_t - q Par| - Par, as g <= 0 or g^2 <= 4 q^5 prod."""
    return abs(q * q * par_t - q * par_all) <= _mean_limit(q, par_all, prod)


def _pair_limit(q, prod):
    return math.isqrt(16 * q * prod)


def par_pair_holds(q: int, par_t: int, par_t2: int, prod: int) -> bool:
    """|Par_t - Par_t'| <= 4 sqrt(q) sqrt(prod), as (Par_t - Par_t')^2 <= 16 q prod."""
    return abs(par_t - par_t2) <= _pair_limit(q, prod)


def rhom_relation_holds(q: int, rhom: int, prods: list, rhs: float) -> bool:
    """|Rhom_t - sum_x p_x/q| <= 2 sqrt(q) sum_x sqrt(p_x), p_x = |E12^x||E34^x|,
    decided exactly as |q Rhom_t - sum p| <= 2q sum sqrt(q p).

    ``rhs`` is the right side as reported, 2.0 * sqrt(q) * sum sqrt(p) summed
    in order in floats.  q * rhs lies within (len(prods) + 5) 2^-53 of the
    exact 2q sum sqrt(q p), so it decides whenever the left side lies
    outside a band of (len(prods) + 8) 2^-50 q rhs around it.  Inside the
    band, sqrt(q p 4^k) lies in [isqrt(q p 4^k), isqrt(q p 4^k) + 1] (at
    isqrt exactly when q p is a square), and k doubles until these bounds
    decide.  That ends: a sum of square roots with a non-square term is
    irrational, and with square terms only the bounds are exact.
    """
    gap = abs(q * rhom - sum(prods))
    band = q * rhs * (len(prods) + 8) * 2.0**-50
    if gap < q * rhs - band:
        return True
    if gap > q * rhs + band:
        return False
    k = 1
    while True:
        lo = hi = 0
        for p in prods:
            scaled = q * p << 2 * k
            root = math.isqrt(scaled)
            lo += root
            hi += root + (root * root != scaled)
        if gap << k <= 2 * q * lo:
            return True
        if gap << k > 2 * q * hi:
            return False
        k *= 2


def _sharp_limit(q, p12, p34):
    return math.isqrt(q * p12 * p34)


def rhom_sharp_holds(q: int, rhom: int, sum_prod: int, p12: int, p34: int) -> bool:
    """|Rhom_t - sum_prod/q| <= sqrt(q) sqrt(p12/q) sqrt(p34/q), as
    (q Rhom_t - sum_prod)^2 <= q p12 p34."""
    return abs(q * rhom - sum_prod) <= _sharp_limit(q, p12, p34)


# Each row builder below takes a block's set sizes and its counts at the
# radii, arrays with a row per instance, and returns (extra an instance,
# row_extra, lhs, rhs, holds) as columns, rhs one column where an
# instance's rows share it.  Counts stay int64 while every integer a row
# formula forms is below 2^53 (_exact), so every float is the Python
# expression's on ints, bit for bit; past that they are Python ints.  A
# layout follows each builder: it writes a swept batch's lines, keys
# sorted, ints by str, floats by repr and flags by JSON_BOOL, after the head
# cli._report_writer gives.  Counts are ints and floats finite, and rhs is
# 0 only where lhs is, so no ratio is infinite.  A key added to a builder
# must go into its layout too: tests/test_cli.py checks the lines.

def _top(counts):
    return int(counts.max(initial=0))


def _exact(bound, *counts) -> list:
    """counts as int64 if bound < 2^53, else as Python ints; a list of
    one int an instance becomes a column."""
    dtype = np.int64 if bound < 2**53 else object
    return [np.asarray(c, dtype).reshape(len(c), -1) for c in counts]


def _column(values):
    return np.array(values)[:, None]


def _sized_parts(b, prng) -> tuple:
    """line_parts of a swept batch, whose inputs vary in t (and t2)."""
    i = b.inputs
    sizes = ", ".join(map(str, i["sizes"]))
    return line_parts(b, prng, f'"q": {i["q"]}, "seed": {i["seed"]}, "sizes": [{sizes}], "t": ',
                      f', "trial": {i["trial"]}')


def _unit_distance_rows(q, sizes, n) -> tuple:
    uv = [a * b for a, b in sizes]
    limits = [_unit_limit(q, x) for x in uv]
    n, uv_, limit = _exact(max(q * _top(n) + max(uv), max(limits)), n, uv, limits)
    means = [x / q for x in uv]
    return ([{"mean": m} for m in means], {"count": n}, abs(n - _column(means)),
            _column([2.0 * math.sqrt(q) * math.sqrt(x) for x in uv]),
            abs(q * n - uv_) <= limit)


def _unit_distance_lines(b, head, prng) -> str:
    holds, post, mid, rhs = _sized_parts(b, prng)
    mean = f', "mean": {b.extra["mean"]!r}'
    return "".join([
        f'{head}"count": {n}{mean}{holds[h]}{t}{post}{lhs!r}{mid}{r!r}{rhs}{s!r}}}\n'
        for t, n, lhs, r, s, h in zip(b.row_inputs["t"], b.row_extra["count"],
                                      b.lhs, b.ratio, b.slack, b.holds)])


def _par_mean_rows(q, sizes, par_t, par_all) -> tuple:
    prods = [math.prod(s) for s in sizes]
    limits = [_mean_limit(q, a, p) for a, p in zip(par_all, prods)]
    par_t, par, limit = _exact(max(q * q * _top(par_t) + q * max(par_all), max(limits)),
                               par_t, par_all, limits)
    return ([{"par_all": a} for a in par_all], {"par_t": par_t},
            abs(par_t - _column([a / q for a in par_all])),
            _column([2.0 * math.sqrt(q) * math.sqrt(p) + a / q**2
                     for a, p in zip(par_all, prods)]),
            abs(q * q * par_t - q * par) <= limit)


def _par_mean_lines(b, head, prng) -> str:
    holds, post, mid, rhs = _sized_parts(b, prng)
    par_all = f'{head}"par_all": {b.extra["par_all"]}, "par_t": '
    return "".join([
        f'{par_all}{p}{holds[h]}{t}{post}{lhs!r}{mid}{r!r}{rhs}{s!r}}}\n'
        for t, p, lhs, r, s, h in zip(b.row_inputs["t"], b.row_extra["par_t"],
                                      b.lhs, b.ratio, b.slack, b.holds)])


def check_par_mean(ctx, E1, E2, E3, E4, t: int) -> BoundReport:
    """|Par_t - Par/q| <= 2 sqrt(q) * sqrt(|E1||E2||E3||E4|) + Par/q^2,
    unconditional."""
    t = _radius(ctx, t, "one-side-length check")
    return _check(ctx, "par-vs-mean", (E1, E2, E3, E4), [t]).report(0)


def check_par_mean_all(ctx, E1, E2, E3, E4) -> list:
    """Mean-concentration reports for every nonzero t, one table pass."""
    return _check(ctx, "par-vs-mean", (E1, E2, E3, E4), range(1, ctx.q)).reports()


def _par_pair_rows(q, sizes, par_t, par_t2) -> tuple:
    """A row per radius pair (t, t') with t's and t''s counts."""
    prods = [math.prod(s) for s in sizes]
    limits = [_pair_limit(q, p) for p in prods]
    par_t, par_t2, limit = _exact(max(_top(par_t), _top(par_t2), max(limits)),
                                  par_t, par_t2, limits)
    gap = abs(par_t - par_t2)
    return ([{} for _ in sizes], {"par_t": par_t, "par_t2": par_t2}, gap,
            _column([4.0 * math.sqrt(q) * math.sqrt(p) for p in prods]), gap <= limit)


def _par_pair_lines(b, head, prng) -> str:
    holds, post, mid, rhs = _sized_parts(b, prng)
    par_t = f'{head}"par_t": '
    c = b.row_extra
    return "".join([
        f'{par_t}{a}, "par_t2": {a2}{holds[h]}{t}, "t2": {t2}{post}{lhs!r}{mid}{r!r}{rhs}{s!r}}}\n'
        for t, t2, a, a2, lhs, r, s, h in zip(
            b.row_inputs["t"], b.row_inputs["t2"], c["par_t"], c["par_t2"],
            b.lhs, b.ratio, b.slack, b.holds)])


def check_par_pair(ctx, E1, E2, E3, E4, t: int, t2: int) -> BoundReport:
    """|Par_t - Par_t'| <= 4 sqrt(q) * sqrt(|E1||E2||E3||E4|) for t != t'."""
    if (t - t2) % ctx.q == 0:
        raise InvalidPair("the two radii must differ")
    pair = (_radius(ctx, t, "pair check"), _radius(ctx, t2, "pair check"))
    return _check(ctx, "par-pairs", (E1, E2, E3, E4), [pair]).report(0)


def check_par_all_pairs(ctx, E1, E2, E3, E4) -> list:
    """Pair reports for every unordered {t, t'} in F_q*, one table pass."""
    return _check(ctx, "par-pairs", (E1, E2, E3, E4),
                  _radii(ctx, "par-pairs", all_t=True)).reports()


def _rhom_relation_rows(q, sizes, rhom, par, roots, prods, widths) -> tuple:
    """A row per radius t from rhombus_sums' arrays: Rhom_t by (instance,
    radius), and sum_x p_x, sum_x sqrt(p_x), [p_x] and |S_t| a row each,
    instance after instance, so a flat (instance, radius) index is its row.
    The verdicts come from rhom_relation_holds' float band, and the ones
    inside it from the call."""
    p12 = [s[0] * s[1] for s in sizes]
    p34 = [s[2] * s[3] for s in sizes]
    limits = [_sharp_limit(q, a, b) for a, b in zip(p12, p34)]
    m, s = rhom, par.reshape(rhom.shape)
    m, s, limit = _exact(max(q * _top(m) + _top(s), max(limits)), m, s, limits)
    gap = abs(q * m - s)
    rhs = 2.0 * math.sqrt(q) * roots.reshape(m.shape)
    qr = q * rhs
    band = qr * (np.reshape(widths, m.shape) + 8) * 2.0**-50
    holds = gap < qr - band
    holds |= gap == 0
    for row in np.flatnonzero((gap <= qr + band) > holds):
        row_prods = [int(p) for p in prods[row][:widths[row]]]
        holds.flat[row] = rhom_relation_holds(q, int(m.flat[row]), row_prods, float(rhs.flat[row]))
    extra = [{"sharp_rhs": math.sqrt(q) * math.sqrt(a / q) * math.sqrt(b / q),
              "sharp_hypothesis": a >= q**3 and b >= q**3} for a, b in zip(p12, p34)]
    return (extra, {"rhom_t": m, "par_t": s, "sharp_holds": gap <= limit},
            abs(m - s / q), rhs, holds)


def _rhom_relation_lines(b, head, prng) -> str:
    holds, post, mid, _ = _sized_parts(b, prng)
    e = b.extra
    par_t = f'{head}"par_t": '
    sharp = tuple(f', "sharp_holds": {flag}, '
                  f'"sharp_hypothesis": {JSON_BOOL[e["sharp_hypothesis"]]}, '
                  f'"sharp_rhs": {e["sharp_rhs"]!r}' for flag in JSON_BOOL)
    c = b.row_extra
    return "".join([
        f'{par_t}{p}, "rhom_t": {m}{sharp[sh]}{holds[h]}{t}{post}{lhs!r}{mid}{r!r}, '
        f'"rhs": {rhs!r}, "slack": {s!r}}}\n'
        for t, p, m, sh, lhs, rhs, r, s, h in zip(
            b.row_inputs["t"], c["par_t"], c["rhom_t"], c["sharp_holds"],
            b.lhs, b.rhs, b.ratio, b.slack, b.holds)])


def check_rhom_relation(ctx, E1, E2, E3, E4, t: int) -> BoundReport:
    """Two-tier rhombus-vs-parallelogram relation at side-length t.

    Tier A (asserted, decided exactly by rhom_relation_holds): the
    per-direction form with the factor-2 constant,
    |Rhom_t - sum_x |E12^x||E34^x| / q| <= 2 sqrt(q) sum_x sqrt(|E12^x||E34^x|)
    summing over |x| = t.  Tier B (recorded in ``extra``): the sharper
    display sqrt(q) sqrt(|E1||E2|/q) sqrt(|E3||E4|/q), meaningful under the
    density hypothesis |E1||E2|, |E3||E4| >= q^3.
    """
    t = _radius(ctx, t, "rhombus relation")
    return _check(ctx, "rhom-vs-par", (E1, E2, E3, E4), [t]).report(0)


def _rhom_lower_rows(q, sizes, rhom) -> tuple:
    prods = [math.prod(s) for s in sizes]
    hyp = [p >= q**7 for p in prods]
    m, = _exact(q**4 * _top(rhom), rhom)
    return ([{"hypothesis": h} for h in hyp], {"rhom_t": m}, (m * q**4).astype(float),
            _column([float(p) for p in prods]), (m > 0) | ~np.array(hyp)[:, None])


def _rhom_lower_lines(b, head, prng) -> str:
    holds, post, mid, rhs = _sized_parts(b, prng)
    hyp = f'{head}"hypothesis": {JSON_BOOL[b.extra["hypothesis"]]}, "rhom_t": '
    return "".join([
        f'{hyp}{m}{holds[h]}{t}{post}{lhs!r}{mid}{r!r}{rhs}{s!r}}}\n'
        for t, m, lhs, r, s, h in zip(b.row_inputs["t"], b.row_extra["rhom_t"],
                                      b.lhs, b.ratio, b.slack, b.holds)])


def check_rhom_lower(ctx, E1, E2, E3, E4, t: int) -> BoundReport:
    """Lower-bound scale for the rhombus count (recorded, never asserted).

    Reports ratio = Rhom_t * q^4 / (|E1||E2||E3||E4|) with the hypothesis
    flag prod >= q^7; the verdict is merely Rhom_t > 0 under the hypothesis
    since the statement hides a constant.
    """
    t = _radius(ctx, t, "rhombus lower check")
    return _check(ctx, "rhom-lower", (E1, E2, E3, E4), [t]).report(0)


# check name -> its sets a sweep trial reads, whether it is asserted, its
# row builder (circle-decay's batch comes from fourier) and its line layout,
# in stream order.  A violation of an asserted check is a failure (the CLI
# exits 1); rhom-lower is recorded only.
Check = namedtuple("Check", "sets asserted rows lines")
CHECKS = {
    "unit-distance": Check(2, True, _unit_distance_rows, _unit_distance_lines),
    "par-vs-mean": Check(4, True, _par_mean_rows, _par_mean_lines),
    "par-pairs": Check(4, True, _par_pair_rows, _par_pair_lines),
    "rhom-vs-par": Check(4, True, _rhom_relation_rows, _rhom_relation_lines),
    "rhom-lower": Check(4, False, _rhom_lower_rows, _rhom_lower_lines),
    "circle-decay": Check(0, True, None, circle_decay_lines),
}
CHECK_NAMES = tuple(CHECKS)


def _counts(ctx, names, block, radii) -> dict:
    """The count arrays of the checks ``names`` on a block of instances,
    block[i] at the radii radii[i][name], one counter call each: the Par_t
    profiles (par_and_n_t_profiles), n_t at each unit-distance radius (from
    that call's n_t profiles, else count_unit_distances per instance) and
    rhombus_sums at the rhombus checks' radii, a row per instance and radius."""
    counts = {}
    if "par-vs-mean" in names or "par-pairs" in names:
        counts["par"], n_t = par_and_n_t_profiles(ctx, block)
    if "unit-distance" in names:
        ts = [r["unit-distance"][0] for r in radii]
        counts["unit"] = (n_t[range(len(ts)), ts] if "par" in counts else
                          np.array([count_unit_distances(ctx, *sets[:2], t).value
                                    for sets, t in zip(block, ts)]))
    rhombic = [name for name in names if name in ("rhom-vs-par", "rhom-lower")]
    if rhombic:
        # Both rhombus checks draw their radii from the stream after E4.
        counts["rhombi"] = rhombus_sums(ctx, block, [r[rhombic[0]] for r in radii])
    return counts


def _block_batches(q, name, tags, sizes, radii, counts):
    """Check name's ReportBatch of each instance of a block from its
    _counts, tags[i] (a sweep's trial and seed) joining instance i's inputs."""
    sizes = [s[:CHECKS[name].sets] for s in sizes]
    at = np.array([r[name] for r in radii])
    if name in ("rhom-vs-par", "rhom-lower"):
        # Every instance of a block has as many radii, a row each.
        rhom, *rest = counts["rhombi"]
        rhom = rhom.reshape(at.shape)
        args = (rhom, *rest) if name == "rhom-vs-par" else (rhom,)
    elif name == "unit-distance":
        args = (counts["unit"],)
    else:
        par = counts["par"]
        par_t = par[np.arange(len(at)).reshape((-1,) + (1,) * (at.ndim - 1)), at]
        args = ((par_t[..., 0], par_t[..., 1]) if name == "par-pairs" else
                (par_t, par.sum(axis=1).tolist()))
    return _batches(name, q, at, sizes, tags, *CHECKS[name].rows(q, sizes, *args))


def _batches(name, q, at, sizes, tags, extra, row_extra, lhs, rhs, holds):
    """Each instance's ReportBatch of a block from its radii ``at`` (t, t'
    on the last axis for par-pairs) and its row builder's columns; ratio is
    lhs / rhs, 0 where both are 0."""
    lhs_f = lhs.astype(float, copy=False)
    if rhs.all():
        ratio = lhs_f / rhs
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = lhs_f / rhs
        ratio[lhs_f == 0] = 0.0
    slack = (rhs - lhs_f).tolist()
    width = holds.shape[1]
    rhs = rhs.tolist() if rhs.shape[1] > 1 else [[x] * width for x, in rhs.tolist()]
    inputs = ({"t": at[..., 0].tolist(), "t2": at[..., 1].tolist()} if at.ndim == 3
              else {"t": at.tolist()})
    varying = [c.tolist() for c in row_extra.values()]
    for tag, size, shared, ins, ext, lhs_k, rhs_k, ratio_k, slack_k, holds_k in zip(
            tags, sizes, extra, zip(*inputs.values()), zip(*varying),
            lhs.tolist(), rhs, ratio.tolist(), slack, holds.tolist()):
        yield ReportBatch(name, {"q": q, "sizes": size, **tag}, shared, dict(zip(inputs, ins)),
                          dict(zip(row_extra, ext)), lhs_k, rhs_k, ratio_k, slack_k, holds_k)


def _check(ctx, name: str, sets, radii) -> ReportBatch:
    """Check name's batch on one instance at ``radii``: a block of one."""
    radii = [{name: radii}]
    return next(_block_batches(ctx.q, name, [{}], [[len(s) for s in sets]], radii,
                               _counts(ctx, [name], [sets], radii)))


# -- seeded sweeps -------------------------------------------------------------

def _draw_t(ctx, rng: SplitMix64) -> int:
    return 1 + rng.next_below(ctx.q - 1)


def _radii(ctx, check: str, all_t: bool, rng=None, t=None):
    """Every radius under all_t (every pair t < t' for par-pairs, an array),
    else the pinned t or a draw from rng, paired with another draw for
    par-pairs."""
    if all_t and check == "par-pairs":
        return np.array(np.triu_indices(ctx.q - 1, 1)).T + 1
    if all_t and check != "unit-distance":
        return list(range(1, ctx.q))
    ta = _draw_t(ctx, rng) if t is None else t
    if check != "par-pairs":
        return [ta]
    tb = ta
    while tb == ta:
        tb = _draw_t(ctx, rng)
    return [(ta, tb)]


class Sweep:
    """A sweep's report batches as ``groups``, one (check, batches) pair per
    check in the order asked for, whose batches yield each trial's batch
    (circle-decay: one for every j), a block's built when it is reached and
    anew on each read of ``groups``.  The ``batches`` property lists them
    all, and as a sequence a sweep is their reports: len() counts them, and
    iterating (or list()) builds them."""

    __slots__ = ("q", "names", "decay", "blocks")

    def __init__(self, q: int, names: list, decay, blocks: list):
        self.q, self.names, self.decay, self.blocks = q, names, decay, blocks

    def _batches(self, name: str):
        if name == "circle-decay":
            return iter([self.decay])
        return (batch for block in self.blocks for batch in _block_batches(self.q, name, *block))

    @property
    def groups(self) -> list:
        return [(name, self._batches(name)) for name in self.names]

    @property
    def batches(self) -> list:
        return [batch for _, batches in self.groups for batch in batches]

    def __len__(self) -> int:
        return sum(len(self.decay) if name == "circle-decay" else
                   sum(len(r[name]) for block in self.blocks for r in block[2])
                   for name in self.names)

    def __iter__(self):
        for _, batches in self.groups:
            for batch in batches:
                yield from batch.reports()


def sweep(ctx: PrimeFieldCtx, check, trials: int, density,
          seed: int, all_t: bool = False, t: int | None = None) -> Sweep:
    """Run ``trials`` seeded random instances of one named check or of a
    sequence of them; the Sweep holds one group of batches per check, in
    that order, each with one batch per trial (circle-decay: one for every
    j), and each check reads the sets CHECKS gives it.

    density is a float in [0, 1], or None to draw one per set.  A trial's
    radius is drawn unless ``t`` pins it; all_t takes every radius (every
    pair for par-pairs) except in unit-distance, which reports one drawn (or
    pinned) radius per trial either way.  circle-decay reports each
    j, or the pinned t.  Each trial forks SplitMix64(seed) once and draws
    the density (when drawn) and seed of U, V, E3, E4 (U, V alone if no
    check needs more); unit-distance draws its radius from a copy of that
    stream after V, the rest after E4.  So a check's reports do not depend
    on which checks run with it.  Every trial's draws come first; then each
    block of trials whose sets fit INDEX_CHUNK cells gets its sets from one
    gen_random_set pass and its count arrays from _counts, and the sets are
    dropped.
    """
    names = [check] if isinstance(check, str) else list(check)
    if not names:
        raise ValueError(f"the check list is empty; pick one or more of {CHECK_NAMES}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; pick one of {CHECK_NAMES}")
    if t is not None:
        t = _radius(ctx, t, "pinned radius")
    set_counts = [CHECKS[name].sets for name in names]
    nsets = max(set_counts)
    decay = (circle_decay_batch(ctx, range(ctx.q) if t is None else [t])
             if "circle-decay" in names else None)
    master = SplitMix64(seed)
    draws, states = [], []
    for _ in range(trials if nsets else 0):
        rng = master.fork()
        states.append([])
        for _ in range(nsets):
            draws.append((rng.next_float() if density is None else density, rng.next_u64()))
            states[-1].append(rng.state)
    # Under all_t the trials of a check share one list of radii.
    every = {name: _radii(ctx, name, True) for name in names
             if all_t and name not in ("unit-distance", "circle-decay")}
    per_block = max(1, geometry.INDEX_CHUNK // (max(nsets, 1) * ctx.q * ctx.q))
    blocks = []
    for lo in range(0, len(states), per_block):
        sets = gen_random_set(ctx, *zip(*draws[lo * nsets:(lo + per_block) * nsets]))
        block = [sets[i:i + nsets] for i in range(0, len(sets), nsets)]
        trials = range(lo, lo + len(block))
        radii = [{name: every[name] if name in every else
                  _radii(ctx, name, all_t, SplitMix64(states[trial][k - 1]), t)
                  for name, k in zip(names, set_counts) if k} for trial in trials]
        blocks.append(([{"trial": trial, "seed": seed} for trial in trials],
                       [[len(s) for s in trial_sets] for trial_sets in block], radii,
                       _counts(ctx, names, block, radii)))
    return Sweep(ctx.q, names, decay, blocks)
