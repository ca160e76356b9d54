"""Concentration checks for the counting quantities.

Each checker returns a BoundReport with both sides of the inequality it
tested.  Unconditional inequalities (unit-distance concentration, the two
one-side-length parallelogram displays with their right sides
2 sqrt(q prod) + Par/q^2 and 4 sqrt(q prod), the per-direction rhombus
relation with its factor-2 constant, and circle decay) are asserted
(ASSERTED_CHECKS: a violation is a failure); order-of-magnitude statements
are recorded as ratios with their hypothesis flags and never
hard-asserted, because they hide unspecified constants.

Checkers and sweeps derive reports through one per-instance path,
_reports, which gives a ReportBatch: one check's reports on one instance as
columns, with what its radii share computed once.  A sweep keeps its
batches, and the CLI writes each batch's lines in one pass of the check's
layout (LINE_LAYOUTS), or its csv rows (report.csv_lines); BoundReports
are built only for the check_* functions and a sweep read as a sequence.
A sweep draws each trial's sets once, U, V, E3, E4; a check on k sets
draws its radii from a copy of the trial stream after the k-th set, so its
reports do not depend on the checks run beside it.
"""

import math

from . import geometry
from .counting import (count_unit_distances, par_t_profile, par_t_profiles,
                       rhombus_directions)
from .errors import InvalidPair, InvalidRadius
from .field import PrimeFieldCtx
from .fourier import circle_decay_batch, circle_decay_lines
from .geometry import PointSet, full_plane, gen_random_set
from .report import JSON_BOOL, BoundReport, ReportBatch, line_parts
from .rng import SplitMix64

CHECK_NAMES = (
    "unit-distance",
    "par-vs-mean",
    "par-pairs",
    "rhom-vs-par",
    "rhom-lower",
    "circle-decay",
)

# The checks whose inequalities are asserted: a violation of one is a
# failure (the CLI exits 1).  rhom-lower is recorded only.
ASSERTED_CHECKS = {"unit-distance", "par-vs-mean", "par-pairs",
                   "rhom-vs-par", "circle-decay"}

# Sets a check reads per sweep trial; every other check reads E1..E4.
_SET_COUNT = {"unit-distance": 2, "circle-decay": 0}


def _radius(ctx, t: int, what: str) -> int:
    if t % ctx.q == 0:
        raise InvalidRadius(f"{what} requires t != 0")
    return t % ctx.q


def check_unit_distance(ctx, U: PointSet, V: PointSet, t: int) -> BoundReport:
    """|N_t(U,V) - |U||V|/q| <= 2 sqrt(q) sqrt(|U||V|), any nonzero t."""
    t = _radius(ctx, t, "unit-distance check")
    return _reports(ctx, "unit-distance", (U, V), [t], {}).report(0)


# The verdicts below are exact: multiplied by a power of q and squared
# (par-vs-mean once its Par/q^2 term is moved left and its sign checked),
# each inequality compares integers; the rhombus relation, a sum of square
# roots, is decided by interval.  lhs, rhs, ratio and slack are reported as
# floats.

def unit_distance_holds(q: int, n_t: int, size_u: int, size_v: int) -> bool:
    """|n_t - |U||V|/q| <= 2 sqrt(q) sqrt(|U||V|), as
    (q n_t - |U||V|)^2 <= 4 q^3 |U||V|."""
    uv = size_u * size_v
    return (q * n_t - uv) ** 2 <= 4 * q**3 * uv


def par_mean_holds(q: int, par_t: int, par_all: int, prod: int) -> bool:
    """|Par_t - Par/q| <= 2 sqrt(q) sqrt(prod) + Par/q^2: times q^2, with
    g = |q^2 Par_t - q Par| - Par, as g <= 0 or g^2 <= 4 q^5 prod."""
    g = abs(q * q * par_t - q * par_all) - par_all
    return g <= 0 or g * g <= 4 * q**5 * prod


def par_pair_holds(q: int, par_t: int, par_t2: int, prod: int) -> bool:
    """|Par_t - Par_t'| <= 4 sqrt(q) sqrt(prod), as (Par_t - Par_t')^2 <= 16 q prod."""
    return (par_t - par_t2) ** 2 <= 16 * q * prod


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


def rhom_sharp_holds(q: int, rhom: int, sum_prod: int, p12: int, p34: int) -> bool:
    """|Rhom_t - sum_prod/q| <= sqrt(q) sqrt(p12/q) sqrt(p34/q), as
    (q Rhom_t - sum_prod)^2 <= q p12 p34."""
    return (q * rhom - sum_prod) ** 2 <= q * p12 * p34


# Each row builder below makes one check's ReportBatch on one instance from
# its counts, computing what every radius shares once; its line layout
# follows it.  A layout turns a swept batch (sweep adds trial and seed to
# the inputs) into the batch's report lines: each line's keys sorted, ints
# by str, floats by repr and flags by JSON_BOOL, its head (the config and
# the opening of extra) given by cli._report_writer.  A builder's counts
# are ints and its floats finite, and its rhs is 0 only where there is
# nothing to count, so lhs is 0 too and no ratio is infinite: every value
# has one of those forms.  A key added to a builder must go into its layout
# too: tests/test_cli.py compares every swept report's line with json.dumps.

def _sized_parts(b, prng) -> tuple:
    """line_parts of a swept batch, whose inputs vary in t (and t2)."""
    i = b.inputs
    sizes = ", ".join(map(str, i["sizes"]))
    return line_parts(b, prng, f'"q": {i["q"]}, "seed": {i["seed"]}, "sizes": [{sizes}], "t": ',
                      f', "trial": {i["trial"]}')


def _unit_distance_batch(q, radii, counts, sizes, **tag) -> ReportBatch:
    mean = sizes[0] * sizes[1] / q
    rhs = 2.0 * math.sqrt(q) * math.sqrt(sizes[0] * sizes[1])
    return ReportBatch(
        "unit-distance", {"q": q, "sizes": sizes, **tag}, {"mean": mean},
        {"t": list(radii)}, {"count": counts},
        [abs(n - mean) for n in counts], rhs,
        [unit_distance_holds(q, n, *sizes) for n in counts])


def _unit_distance_lines(b, head, prng) -> str:
    holds, post, mid, rhs = _sized_parts(b, prng)
    mean = f', "mean": {b.extra["mean"]!r}'
    return "".join([
        f'{head}"count": {n}{mean}{holds[h]}{t}{post}{lhs!r}{mid}{r!r}{rhs}{s!r}}}\n'
        for t, n, lhs, r, s, h in zip(b.row_inputs["t"], b.row_extra["count"],
                                      b.lhs, b.ratio, b.slack, b.holds)])


def _par_mean_batch(q, radii, par_t, par_all, sizes, **tag) -> ReportBatch:
    mean = par_all / q
    prod = math.prod(sizes)
    return ReportBatch(
        "par-vs-mean", {"q": q, "sizes": sizes, **tag}, {"par_all": par_all},
        {"t": list(radii)}, {"par_t": par_t},
        [abs(p - mean) for p in par_t],
        2.0 * math.sqrt(q) * math.sqrt(prod) + par_all / q**2,
        [par_mean_holds(q, p, par_all, prod) for p in par_t])


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
    return _reports(ctx, "par-vs-mean", (E1, E2, E3, E4), [t], {}).report(0)


def check_par_mean_all(ctx, E1, E2, E3, E4) -> list:
    """Mean-concentration reports for every nonzero t, one table pass."""
    return _reports(ctx, "par-vs-mean", (E1, E2, E3, E4), range(1, ctx.q), {}).reports()


def _par_pair_batch(q, pairs, par_t, par_t2, sizes, **tag) -> ReportBatch:
    """One row per radius pair (t, t') with t's and t''s counts; every pair
    shares prod = |E1||E2||E3||E4| and rhs = 4 sqrt(q) * sqrt(prod)."""
    prod = math.prod(sizes)
    return ReportBatch(
        "par-pairs", {"q": q, "sizes": sizes, **tag}, {},
        {"t": [t for t, _ in pairs], "t2": [t2 for _, t2 in pairs]},
        {"par_t": par_t, "par_t2": par_t2},
        [abs(a - c) for a, c in zip(par_t, par_t2)], 4.0 * math.sqrt(q) * math.sqrt(prod),
        [par_pair_holds(q, a, c, prod) for a, c in zip(par_t, par_t2)])


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
    return _reports(ctx, "par-pairs", (E1, E2, E3, E4), [pair], {}).report(0)


def check_par_all_pairs(ctx, E1, E2, E3, E4) -> list:
    """Pair reports for every unordered {t, t'} in F_q*, one table pass."""
    return _reports(ctx, "par-pairs", (E1, E2, E3, E4),
                    _radii(ctx, "par-pairs", all_t=True), {}).reports()


def _rhom_relation_batch(q, radii, terms, sizes, **tag) -> ReportBatch:
    """One row per radius t from its terms (|E12^x|, |E34^x|, Rhom_t^x),
    one per direction x; every row shares the sharp display's rhs and
    hypothesis."""
    p12 = sizes[0] * sizes[1]
    p34 = sizes[2] * sizes[3]
    rhoms, sums, lhs, rhs, holds, sharp = [], [], [], [], [], []
    for t_terms in terms:
        rhom = 0
        sum_sqrt = 0.0
        prods = []
        for a, c, rhom_x in t_terms:
            p = a * c
            rhom += rhom_x
            prods.append(p)
            sum_sqrt += math.sqrt(p)
        sum_prod = sum(prods)
        rhs_t = 2.0 * math.sqrt(q) * sum_sqrt
        rhoms.append(rhom)
        sums.append(sum_prod)
        lhs.append(abs(rhom - sum_prod / q))
        rhs.append(rhs_t)
        holds.append(rhom_relation_holds(q, rhom, prods, rhs_t))
        sharp.append(rhom_sharp_holds(q, rhom, sum_prod, p12, p34))
    return ReportBatch(
        "rhom-vs-par", {"q": q, "sizes": sizes, **tag},
        {"sharp_rhs": math.sqrt(q) * math.sqrt(p12 / q) * math.sqrt(p34 / q),
         "sharp_hypothesis": p12 >= q**3 and p34 >= q**3},
        {"t": list(radii)}, {"rhom_t": rhoms, "par_t": sums, "sharp_holds": sharp},
        lhs, rhs, holds)


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
    return _reports(ctx, "rhom-vs-par", (E1, E2, E3, E4), [t], {}).report(0)


def _rhom_lower_batch(q, radii, rhoms, sizes, **tag) -> ReportBatch:
    prod = math.prod(sizes)
    hyp = prod >= q**7
    scale = q**4
    return ReportBatch(
        "rhom-lower", {"q": q, "sizes": sizes, **tag}, {"hypothesis": hyp},
        {"t": list(radii)}, {"rhom_t": rhoms},
        [float(m * scale) for m in rhoms], float(prod),
        [m > 0 for m in rhoms] if hyp else [True] * len(rhoms))


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
    return _reports(ctx, "rhom-lower", (E1, E2, E3, E4), [t], {}).report(0)


# check name -> its line layout; the report writer reads it.
LINE_LAYOUTS = {
    "unit-distance": _unit_distance_lines,
    "par-vs-mean": _par_mean_lines,
    "par-pairs": _par_pair_lines,
    "rhom-vs-par": _rhom_relation_lines,
    "rhom-lower": _rhom_lower_lines,
    "circle-decay": circle_decay_lines,
}


def _reports(ctx, check: str, sets, radii, memo: dict, **tag) -> ReportBatch:
    """One check's report batch on one instance, a row per radius (radius
    pair for par-pairs); ``memo`` keeps the profile and per-t rhombus terms
    of E1..E4, and ``tag`` (a sweep's trial and seed) joins the inputs."""
    q = ctx.q
    sizes = [len(s) for s in sets]
    if check == "unit-distance":
        counts = [count_unit_distances(ctx, *sets, t).value for t in radii]
        return _unit_distance_batch(q, radii, counts, sizes, **tag)
    if check in ("par-vs-mean", "par-pairs"):
        if "profile" not in memo:
            memo["profile"] = par_t_profile(ctx, *sets)
        profile = memo["profile"]
        if check == "par-pairs":
            return _par_pair_batch(q, radii, [profile[t] for t, _ in radii],
                                   [profile[t2] for _, t2 in radii], sizes, **tag)
        return _par_mean_batch(q, radii, [profile[t] for t in radii],
                               sum(profile.values()), sizes, **tag)
    missing = [t for t in radii if t not in memo]
    if missing:
        memo.update(rhombus_directions(ctx, *sets, missing))
    if check == "rhom-vs-par":
        return _rhom_relation_batch(q, radii, [memo[t] for t in radii], sizes, **tag)
    return _rhom_lower_batch(q, radii, [sum(r for _, _, r in memo[t]) for t in radii],
                             sizes, **tag)


# -- seeded sweeps -------------------------------------------------------------

def _draw_t(ctx, rng: SplitMix64) -> int:
    return 1 + rng.next_below(ctx.q - 1)


def _radii(ctx, check: str, all_t: bool, rng=None, t=None) -> list:
    """Every radius under all_t (every pair t < t' for par-pairs), else the
    pinned t or a draw from rng, paired with another draw for par-pairs."""
    if all_t and check == "par-pairs":
        return [(a, b) for a in range(1, ctx.q) for b in range(a + 1, ctx.q)]
    if all_t and check != "unit-distance":
        return range(1, ctx.q)
    ta = _draw_t(ctx, rng) if t is None else t
    if check != "par-pairs":
        return [ta]
    tb = ta
    while tb == ta:
        tb = _draw_t(ctx, rng)
    return [(ta, tb)]


class Sweep:
    """A sweep's report batches, in order.  As a sequence it is their
    reports: len() counts them, and iterating (or list()) builds them."""

    __slots__ = ("batches",)

    def __init__(self, batches: list):
        self.batches = batches

    def __len__(self) -> int:
        return sum(map(len, self.batches))

    def __iter__(self):
        for batch in self.batches:
            yield from batch.reports()


def sweep(ctx: PrimeFieldCtx, check, trials: int, density,
          seed: int, all_t: bool = False, t: int | None = None) -> Sweep:
    """Run ``trials`` seeded random instances of one named check or of a
    sequence of them; the batches come check by check, in that order, one
    per trial (circle-decay: one for every j).

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
    gen_random_set pass and its Par_t profiles from one par_t_profiles call.
    """
    names = [check] if isinstance(check, str) else list(check)
    for name in names:
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}; pick one of {CHECK_NAMES}")
    if t is not None:
        t = _radius(ctx, t, "pinned radius")
    set_counts = [_SET_COUNT.get(name, 4) for name in names]
    nsets = max(set_counts)
    js = range(ctx.q) if t is None else [t]
    batches = [[circle_decay_batch(ctx, js)] if k == 0 else [] for k in set_counts]
    master = SplitMix64(seed)
    draws, states = [], []
    for _ in range(trials if nsets else 0):
        rng = master.fork()
        states.append([])
        for _ in range(nsets):
            draws.append((rng.next_float() if density is None else density, rng.next_u64()))
            states[-1].append(rng.state)
    profiled = "par-vs-mean" in names or "par-pairs" in names
    per_block = max(1, geometry.INDEX_CHUNK // (max(nsets, 1) * ctx.q * ctx.q))
    for lo in range(0, len(states), per_block):
        sets = gen_random_set(ctx, *zip(*draws[lo * nsets:(lo + per_block) * nsets]))
        block = [sets[i:i + nsets] for i in range(0, len(sets), nsets)]
        profiles = par_t_profiles(ctx, block) if profiled else [None] * len(block)
        for trial, trial_sets, profile in zip(range(lo, lo + per_block), block, profiles):
            memo = {} if profile is None else {"profile": profile}
            for name, k, batch in zip(names, set_counts, batches):
                if k:
                    radii = _radii(ctx, name, all_t, SplitMix64(states[trial][k - 1]), t)
                    batch.append(_reports(ctx, name, trial_sets[:k], radii, memo,
                                          trial=trial, seed=seed))
    return Sweep([b for batch in batches for b in batch])


def extreme_case_reports(ctx: PrimeFieldCtx, t: int) -> list:
    """The two boundary instances (empty sets, full plane) for each check."""
    empty = PointSet(ctx.q, [])
    plane = full_plane(ctx)
    reports = []
    for s in (empty, plane):
        reports.append(check_unit_distance(ctx, s, s, t))
        reports.append(check_par_mean(ctx, s, s, s, s, t))
        reports.append(check_rhom_relation(ctx, s, s, s, s, t))
        reports.append(check_rhom_lower(ctx, s, s, s, s, t))
    return reports
