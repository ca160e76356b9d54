"""Concentration checks for the counting quantities.

Each checker returns a BoundReport with both sides of the inequality it
tested.  Unconditional inequalities (unit-distance concentration, the two
one-side-length parallelogram displays, and the per-direction rhombus
relation with its factor-2 constant) are asserted by the test suite on
every instance; order-of-magnitude statements are recorded as ratios with
their hypothesis flags and never hard-asserted, because they hide
unspecified constants.

Checkers and sweeps derive reports through one per-instance path.  A sweep
draws each trial's sets once, U, V, E3, E4; a check on k sets draws its
radii from a copy of the trial stream after the k-th set, so its reports do
not depend on the checks run beside it.
"""

import math

from .counting import count_unit_distances, par_t_profile, rhombus_directions
from .errors import InvalidPair, InvalidRadius
from .field import PrimeFieldCtx
from .fourier import check_circle_decay, circle_decay_fields
from .geometry import PointSet, full_plane, gen_random_set
from .report import JSON_BOOL, BoundReport, make_report
from .rng import SplitMix64

CHECK_NAMES = (
    "unit-distance",
    "par-vs-mean",
    "par-pairs",
    "rhom-vs-par",
    "rhom-lower",
    "circle-decay",
)

# Sets a check reads per sweep trial; every other check reads E1..E4.
_SET_COUNT = {"unit-distance": 2, "circle-decay": 0}


def _radius(ctx, t: int, what: str) -> int:
    if t % ctx.q == 0:
        raise InvalidRadius(f"{what} requires t != 0")
    return t % ctx.q


def check_unit_distance(ctx, U: PointSet, V: PointSet, t: int) -> BoundReport:
    """|N_t(U,V) - |U||V|/q| <= 2 sqrt(q) sqrt(|U||V|), any nonzero t."""
    t = _radius(ctx, t, "unit-distance check")
    return _reports(ctx, "unit-distance", (U, V), [t], {})[0]


# The verdicts below are exact: multiplied by q and squared, each
# inequality compares integers; the rhombus relation, a sum of square roots,
# is decided by interval.  lhs, rhs, ratio and slack are reported as floats.

def unit_distance_holds(q: int, n_t: int, size_u: int, size_v: int) -> bool:
    """|n_t - |U||V|/q| <= 2 sqrt(q) sqrt(|U||V|), as
    (q n_t - |U||V|)^2 <= 4 q^3 |U||V|."""
    uv = size_u * size_v
    return (q * n_t - uv) ** 2 <= 4 * q**3 * uv


def par_mean_holds(q: int, par_t: int, par_all: int, prod: int) -> bool:
    """|Par_t - Par/q| <= sqrt(q) sqrt(prod), as (q Par_t - Par)^2 <= q^3 prod."""
    return (q * par_t - par_all) ** 2 <= q**3 * prod


def par_pair_holds(q: int, par_t: int, par_t2: int, prod: int) -> bool:
    """|Par_t - Par_t'| <= sqrt(q) sqrt(prod), as (Par_t - Par_t')^2 <= q prod."""
    return (par_t - par_t2) ** 2 <= q * prod


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


# Each builder below is followed by its line layout: a function of a swept
# report's inputs and extra (sweep adds trial and seed to the inputs) that
# writes both as JSON object bodies, keys sorted, ints by str, floats by
# repr and flags by JSON_BOOL (cli._report_writer writes the rest of the
# line).  A builder's counts are ints and its floats finite, and its rhs is
# 0 only where there is nothing to count, so lhs is 0 too and no ratio is
# infinite: every value has one of those forms.
# A key added to a builder must go into its layout too: tests/test_cli.py
# compares every swept report's line with json.dumps.

def _sized_inputs(i):
    """The inputs of a check on E1..E4 at one radius."""
    s1, s2, s3, s4 = i["sizes"]
    return (f'"q": {i["q"]}, "seed": {i["seed"]}, "sizes": [{s1}, {s2}, {s3}, {s4}], '
            f'"t": {i["t"]}, "trial": {i["trial"]}')


def _unit_distance_report(q, t, n_t, sizes, **tag) -> BoundReport:
    mean = sizes[0] * sizes[1] / q
    lhs = abs(n_t - mean)
    rhs = 2.0 * math.sqrt(q) * math.sqrt(sizes[0] * sizes[1])
    return make_report(
        "unit-distance", lhs, rhs,
        inputs={"q": q, "t": t, "sizes": sizes, **tag},
        extra={"count": n_t, "mean": mean},
        holds=unit_distance_holds(q, n_t, *sizes),
    )


def _unit_distance_fields(i, e):
    s1, s2 = i["sizes"]
    return (f'"count": {e["count"]}, "mean": {e["mean"]!r}',
            f'"q": {i["q"]}, "seed": {i["seed"]}, "sizes": [{s1}, {s2}], '
            f'"t": {i["t"]}, "trial": {i["trial"]}')


def _par_mean_report(q, t, par_t, par_all, sizes, **tag) -> BoundReport:
    lhs = abs(par_t - par_all / q)
    rhs = math.sqrt(q) * math.sqrt(math.prod(sizes))
    return make_report(
        "par-vs-mean", lhs, rhs,
        inputs={"q": q, "t": t, "sizes": sizes, **tag},
        extra={"par_t": par_t, "par_all": par_all},
        holds=par_mean_holds(q, par_t, par_all, math.prod(sizes)),
    )


def _par_mean_fields(i, e):
    return f'"par_all": {e["par_all"]}, "par_t": {e["par_t"]}', _sized_inputs(i)


def check_par_mean(ctx, E1, E2, E3, E4, t: int) -> BoundReport:
    """|Par_t - Par/q| <= sqrt(q) * sqrt(|E1||E2||E3||E4|), unconditional."""
    t = _radius(ctx, t, "one-side-length check")
    return _reports(ctx, "par-vs-mean", (E1, E2, E3, E4), [t], {})[0]


def check_par_mean_all(ctx, E1, E2, E3, E4) -> list:
    """Mean-concentration reports for every nonzero t, one table pass."""
    return _reports(ctx, "par-vs-mean", (E1, E2, E3, E4), range(1, ctx.q), {})


def _par_pair_report(q, t, t2, par_t, par_t2, sizes, prod, rhs, **tag) -> BoundReport:
    """prod = |E1||E2||E3||E4| and rhs = sqrt(q) * sqrt(prod), which every
    pair of an instance shares."""
    return make_report(
        "par-pairs", abs(par_t - par_t2), rhs,
        inputs={"q": q, "t": t, "t2": t2, "sizes": sizes, **tag},
        extra={"par_t": par_t, "par_t2": par_t2},
        holds=par_pair_holds(q, par_t, par_t2, prod),
    )


def _par_pair_fields(i, e):
    s1, s2, s3, s4 = i["sizes"]
    return (f'"par_t": {e["par_t"]}, "par_t2": {e["par_t2"]}',
            f'"q": {i["q"]}, "seed": {i["seed"]}, "sizes": [{s1}, {s2}, {s3}, {s4}], '
            f'"t": {i["t"]}, "t2": {i["t2"]}, "trial": {i["trial"]}')


def check_par_pair(ctx, E1, E2, E3, E4, t: int, t2: int) -> BoundReport:
    """|Par_t - Par_t'| <= sqrt(q) * sqrt(|E1||E2||E3||E4|) for t != t'."""
    if (t - t2) % ctx.q == 0:
        raise InvalidPair("the two radii must differ")
    pair = (_radius(ctx, t, "pair check"), _radius(ctx, t2, "pair check"))
    return _reports(ctx, "par-pairs", (E1, E2, E3, E4), [pair], {})[0]


def check_par_all_pairs(ctx, E1, E2, E3, E4) -> list:
    """Pair reports for every unordered {t, t'} in F_q*, one table pass."""
    return _reports(ctx, "par-pairs", (E1, E2, E3, E4),
                    _radii(ctx, "par-pairs", all_t=True), {})


def _rhom_relation_report(q, t, sizes, terms, **tag) -> BoundReport:
    rhom = 0
    sum_sqrt = 0.0
    prods = []
    for a, b, rhom_x in terms:
        p = a * b
        rhom += rhom_x
        prods.append(p)
        sum_sqrt += math.sqrt(p)
    sum_prod = sum(prods)
    lhs = abs(rhom - sum_prod / q)
    rhs = 2.0 * math.sqrt(q) * sum_sqrt
    p12 = sizes[0] * sizes[1]
    p34 = sizes[2] * sizes[3]
    rhs_sharp = math.sqrt(q) * math.sqrt(p12 / q) * math.sqrt(p34 / q)
    return make_report(
        "rhom-vs-par", lhs, rhs,
        inputs={"q": q, "t": t, "sizes": sizes, **tag},
        extra={
            "rhom_t": rhom,
            "par_t": sum_prod,
            "sharp_rhs": rhs_sharp,
            "sharp_holds": rhom_sharp_holds(q, rhom, sum_prod, p12, p34),
            "sharp_hypothesis": p12 >= q**3 and p34 >= q**3,
        },
        holds=rhom_relation_holds(q, rhom, prods, rhs),
    )


def _rhom_relation_fields(i, e):
    return (f'"par_t": {e["par_t"]}, "rhom_t": {e["rhom_t"]}, '
            f'"sharp_holds": {JSON_BOOL[e["sharp_holds"]]}, '
            f'"sharp_hypothesis": {JSON_BOOL[e["sharp_hypothesis"]]}, '
            f'"sharp_rhs": {e["sharp_rhs"]!r}', _sized_inputs(i))


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
    return _reports(ctx, "rhom-vs-par", (E1, E2, E3, E4), [t], {})[0]


def _rhom_lower_report(q, t, sizes, rhom, **tag) -> BoundReport:
    prod = math.prod(sizes)
    hyp = prod >= q**7
    return make_report(
        "rhom-lower", float(rhom * q**4), float(prod),
        inputs={"q": q, "t": t, "sizes": sizes, **tag},
        extra={"rhom_t": rhom, "hypothesis": hyp},
        holds=rhom > 0 if hyp else True,
    )


def _rhom_lower_fields(i, e):
    return (f'"hypothesis": {JSON_BOOL[e["hypothesis"]]}, "rhom_t": {e["rhom_t"]}',
            _sized_inputs(i))


def check_rhom_lower(ctx, E1, E2, E3, E4, t: int) -> BoundReport:
    """Lower-bound scale for the rhombus count (recorded, never asserted).

    Reports ratio = Rhom_t * q^4 / (|E1||E2||E3||E4|) with the hypothesis
    flag prod >= q^7; the verdict is merely Rhom_t > 0 under the hypothesis
    since the statement hides a constant.
    """
    t = _radius(ctx, t, "rhombus lower check")
    return _reports(ctx, "rhom-lower", (E1, E2, E3, E4), [t], {})[0]


# check name -> its line layout; the report writer reads it.
LINE_LAYOUTS = {
    "unit-distance": _unit_distance_fields,
    "par-vs-mean": _par_mean_fields,
    "par-pairs": _par_pair_fields,
    "rhom-vs-par": _rhom_relation_fields,
    "rhom-lower": _rhom_lower_fields,
    "circle-decay": circle_decay_fields,
}


def _reports(ctx, check: str, sets, radii, memo: dict, **tag) -> list:
    """One check's reports on one instance, one per radius (radius pair for
    par-pairs); ``memo`` keeps the profile and per-t rhombus terms of E1..E4,
    and ``tag`` (a sweep's trial and seed) joins every report's inputs."""
    q = ctx.q
    sizes = [len(s) for s in sets]
    if check == "unit-distance":
        counts = [count_unit_distances(ctx, *sets, t).value for t in radii]
        return [_unit_distance_report(q, t, n, sizes, **tag)
                for t, n in zip(radii, counts)]
    if check in ("par-vs-mean", "par-pairs"):
        if "profile" not in memo:
            memo["profile"] = par_t_profile(ctx, *sets)
        profile = memo["profile"]
        if check == "par-pairs":
            prod = math.prod(sizes)
            rhs = math.sqrt(q) * math.sqrt(prod)
            return [_par_pair_report(q, t, t2, profile[t], profile[t2], sizes,
                                     prod, rhs, **tag) for t, t2 in radii]
        par_all = sum(profile.values())
        return [_par_mean_report(q, t, profile[t], par_all, sizes, **tag)
                for t in radii]
    missing = [t for t in radii if t not in memo]
    if missing:
        memo.update(rhombus_directions(ctx, *sets, missing))
    if check == "rhom-vs-par":
        return [_rhom_relation_report(q, t, sizes, memo[t], **tag) for t in radii]
    return [_rhom_lower_report(q, t, sizes, sum(r for _, _, r in memo[t]), **tag)
            for t in radii]


# -- seeded sweeps -------------------------------------------------------------

def _draw_set(ctx, rng: SplitMix64, density) -> PointSet:
    d = rng.next_float() if density is None else density
    return gen_random_set(ctx, d, rng.next_u64())


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


def sweep(ctx: PrimeFieldCtx, check, trials: int, density,
          seed: int, all_t: bool = False, t: int | None = None) -> list:
    """Run ``trials`` seeded random instances of one named check or of a
    sequence of them; the reports come check by check, in that order.

    density is a float in [0, 1], or None to draw one per set.  A trial's
    radius is drawn unless ``t`` pins it; all_t takes every radius (every
    pair for par-pairs) except in unit-distance, which reports one drawn (or
    pinned) radius per trial either way.  circle-decay reports each
    j, or the pinned t.  Each trial forks SplitMix64(seed) once and draws U,
    V, E3, E4 once (U, V alone if no check needs more); unit-distance draws
    its radius from a copy of that stream after V, the rest after E4.  So a
    check's reports do not depend on which checks run with it.
    """
    names = [check] if isinstance(check, str) else list(check)
    for name in names:
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}; pick one of {CHECK_NAMES}")
    if t is not None:
        t = _radius(ctx, t, "pinned radius")
    set_counts = [_SET_COUNT.get(name, 4) for name in names]
    js = range(ctx.q) if t is None else [t]
    batches = [[check_circle_decay(ctx, j) for j in js] if k == 0 else []
               for k in set_counts]
    master = SplitMix64(seed)
    for trial in range(trials if any(set_counts) else 0):
        rng = master.fork()
        sets, states = [], []
        for _ in range(max(set_counts)):
            sets.append(_draw_set(ctx, rng, density))
            states.append(rng.state)
        memo = {}
        for name, k, batch in zip(names, set_counts, batches):
            if k:
                radii = _radii(ctx, name, all_t, SplitMix64(states[k - 1]), t)
                batch += _reports(ctx, name, sets[:k], radii, memo,
                                  trial=trial, seed=seed)
    return [rep for batch in batches for rep in batch]


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
