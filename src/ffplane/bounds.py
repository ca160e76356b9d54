"""Concentration checks for the counting quantities.

Each checker returns a BoundReport with both sides of the inequality it
tested.  Unconditional inequalities (unit-distance concentration, the two
one-side-length parallelogram displays, and the per-direction rhombus
relation with its factor-2 constant) are asserted by the test suite on
every instance; order-of-magnitude statements are recorded as ratios with
their hypothesis flags and never hard-asserted, because they hide
unspecified constants.
"""

import dataclasses
import math

from .counting import (
    count_rhom_t,
    count_unit_distances,
    par_t_profile,
    rhombus_directions,
)
from .errors import InvalidPair, InvalidRadius
from .field import PrimeFieldCtx
from .fourier import check_circle_decay
from .geometry import PointSet, full_plane, gen_random_set
from .report import BoundReport, make_report
from .rng import SplitMix64

CHECK_NAMES = (
    "unit-distance",
    "par-vs-mean",
    "par-pairs",
    "rhom-vs-par",
    "rhom-lower",
    "circle-decay",
)


def check_unit_distance(ctx, U: PointSet, V: PointSet, t: int) -> BoundReport:
    """|N_t(U,V) - |U||V|/q| <= 2 sqrt(q) sqrt(|U||V|), any nonzero t."""
    q = ctx.q
    if t % q == 0:
        raise InvalidRadius("unit-distance check requires t != 0")
    n_t = count_unit_distances(ctx, U, V, t, method="fast").value
    return _unit_distance_report(q, t % q, n_t, [len(U), len(V)])


# The verdicts of the three checks below are exact: multiplied by q and
# squared, each inequality compares integers.  lhs, rhs, ratio and slack are
# reported as floats.

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


def _unit_distance_report(q, t, n_t, sizes) -> BoundReport:
    mean = sizes[0] * sizes[1] / q
    lhs = abs(n_t - mean)
    rhs = 2.0 * math.sqrt(q) * math.sqrt(sizes[0] * sizes[1])
    return make_report(
        "unit-distance", lhs, rhs,
        inputs={"q": q, "t": t, "sizes": sizes},
        extra={"count": n_t, "mean": mean},
        holds=unit_distance_holds(q, n_t, *sizes),
    )


def _par_mean_report(q, t, par_t, par_all, sizes) -> BoundReport:
    lhs = abs(par_t - par_all / q)
    rhs = math.sqrt(q) * math.sqrt(math.prod(sizes))
    return make_report(
        "par-vs-mean", lhs, rhs,
        inputs={"q": q, "t": t, "sizes": sizes},
        extra={"par_t": par_t, "par_all": par_all},
        holds=par_mean_holds(q, par_t, par_all, math.prod(sizes)),
    )


def check_par_mean(ctx, E1, E2, E3, E4, t: int) -> BoundReport:
    """|Par_t - Par/q| <= sqrt(q) * sqrt(|E1||E2||E3||E4|), unconditional."""
    q = ctx.q
    if t % q == 0:
        raise InvalidRadius("one-side-length check requires t != 0")
    profile = par_t_profile(ctx, E1, E2, E3, E4)
    sizes = [len(E1), len(E2), len(E3), len(E4)]
    return _par_mean_report(q, t % q, profile[t % q], sum(profile.values()), sizes)


def check_par_mean_all(ctx, E1, E2, E3, E4) -> list:
    """Mean-concentration reports for every nonzero t, one table pass."""
    q = ctx.q
    profile = par_t_profile(ctx, E1, E2, E3, E4)
    par_all = sum(profile.values())
    sizes = [len(E1), len(E2), len(E3), len(E4)]
    return [_par_mean_report(q, t, profile[t], par_all, sizes)
            for t in range(1, q)]


def _par_pair_report(q, t, t2, par_t, par_t2, sizes) -> BoundReport:
    lhs = abs(par_t - par_t2)
    rhs = math.sqrt(q) * math.sqrt(math.prod(sizes))
    return make_report(
        "par-pairs", lhs, rhs,
        inputs={"q": q, "t": t, "t2": t2, "sizes": sizes},
        extra={"par_t": par_t, "par_t2": par_t2},
        holds=par_pair_holds(q, par_t, par_t2, math.prod(sizes)),
    )


def check_par_pair(ctx, E1, E2, E3, E4, t: int, t2: int) -> BoundReport:
    """|Par_t - Par_t'| <= sqrt(q) * sqrt(|E1||E2||E3||E4|) for t != t'."""
    q = ctx.q
    t %= q
    t2 %= q
    if t == t2:
        raise InvalidPair("the two radii must differ")
    if t == 0 or t2 == 0:
        raise InvalidRadius("pair check requires both radii nonzero")
    profile = par_t_profile(ctx, E1, E2, E3, E4)
    sizes = [len(E1), len(E2), len(E3), len(E4)]
    return _par_pair_report(q, t, t2, profile[t], profile[t2], sizes)


def check_par_all_pairs(ctx, E1, E2, E3, E4) -> list:
    """Pair reports for every unordered {t, t'} in F_q*, one table pass."""
    q = ctx.q
    profile = par_t_profile(ctx, E1, E2, E3, E4)
    sizes = [len(E1), len(E2), len(E3), len(E4)]
    return [
        _par_pair_report(q, t, t2, profile[t], profile[t2], sizes)
        for t in range(1, q)
        for t2 in range(t + 1, q)
    ]


def check_rhom_relation(ctx, E1, E2, E3, E4, t: int) -> BoundReport:
    """Two-tier rhombus-vs-parallelogram relation at side-length t.

    Tier A (asserted): the per-direction form with the factor-2 constant,
    |Rhom_t - sum_x |E12^x||E34^x| / q| <= 2 sqrt(q) sum_x sqrt(|E12^x||E34^x|)
    summing over |x| = t.  Tier B (recorded in ``extra``): the sharper
    display sqrt(q) sqrt(|E1||E2|/q) sqrt(|E3||E4|/q), meaningful under the
    density hypothesis |E1||E2|, |E3||E4| >= q^3.
    """
    q = ctx.q
    if t % q == 0:
        raise InvalidRadius("rhombus relation requires t != 0")
    t %= q
    rhom = 0
    sum_prod = 0
    sum_sqrt = 0.0
    for a, b, rhom_x in rhombus_directions(ctx, E1, E2, E3, E4, t):
        rhom += rhom_x
        sum_prod += a * b
        sum_sqrt += math.sqrt(a * b)
    lhs = abs(rhom - sum_prod / q)
    rhs = 2.0 * math.sqrt(q) * sum_sqrt
    sizes = [len(E1), len(E2), len(E3), len(E4)]
    p12 = len(E1) * len(E2)
    p34 = len(E3) * len(E4)
    rhs_sharp = math.sqrt(q) * math.sqrt(p12 / q) * math.sqrt(p34 / q)
    return make_report(
        "rhom-vs-par", lhs, rhs,
        inputs={"q": q, "t": t, "sizes": sizes},
        extra={
            "rhom_t": rhom,
            "par_t": sum_prod,
            "sharp_rhs": rhs_sharp,
            "sharp_holds": lhs <= rhs_sharp + 1e-9,
            "sharp_hypothesis": p12 >= q**3 and p34 >= q**3,
        },
    )


def check_rhom_lower(ctx, E1, E2, E3, E4, t: int) -> BoundReport:
    """Lower-bound scale for the rhombus count (recorded, never asserted).

    Reports ratio = Rhom_t * q^4 / (|E1||E2||E3||E4|) with the hypothesis
    flag prod >= q^7; the verdict is merely Rhom_t > 0 under the hypothesis
    since the statement hides a constant.
    """
    q = ctx.q
    if t % q == 0:
        raise InvalidRadius("rhombus lower check requires t != 0")
    t %= q
    rhom = count_rhom_t(ctx, E1, E2, E3, E4, t, method="fast").value
    sizes = [len(E1), len(E2), len(E3), len(E4)]
    prod = math.prod(sizes)
    hyp = prod >= q**7
    lhs = float(rhom * q**4)
    rhs = float(prod)
    ratio = lhs / rhs if rhs else 0.0
    return BoundReport(
        name="rhom-lower",
        lhs=lhs,
        rhs=rhs,
        holds=rhom > 0 if hyp else True,
        ratio=ratio,
        inputs={"q": q, "t": t, "sizes": sizes},
        extra={"rhom_t": rhom, "hypothesis": hyp},
    )


# -- seeded sweeps -------------------------------------------------------------

def _draw_set(ctx, rng: SplitMix64, density) -> PointSet:
    d = rng.next_float() if density is None else density
    return gen_random_set(ctx, d, rng.next_u64())


def _draw_t(ctx, rng: SplitMix64) -> int:
    return 1 + rng.next_below(ctx.q - 1)


def sweep(ctx: PrimeFieldCtx, check: str, trials: int, density,
          seed: int, all_t: bool = False, t: int | None = None) -> list:
    """Run ``trials`` seeded random instances of a named check.

    density may be a float in [0, 1] or None to draw a fresh density per
    trial.  The radius defaults to a fresh draw per trial; pass ``t`` to pin
    it, or all_t to cover every nonzero radius (and every pair for the pair
    check).  The report stream is a pure function of all the arguments.
    """
    if check not in CHECK_NAMES:
        raise ValueError(f"unknown check {check!r}; pick one of {CHECK_NAMES}")
    if t is not None and t % ctx.q == 0:
        raise InvalidRadius("pinned radius must be nonzero")
    master = SplitMix64(seed)
    reports = []

    if check == "circle-decay":
        js = range(ctx.q) if t is None else [t % ctx.q]
        for j in js:
            reports.append(check_circle_decay(ctx, j))
        return reports

    def pick_t(rng):
        return t % ctx.q if t is not None else _draw_t(ctx, rng)

    for trial in range(trials):
        rng = master.fork()
        if check == "unit-distance":
            U = _draw_set(ctx, rng, density)
            V = _draw_set(ctx, rng, density)
            batch = [check_unit_distance(ctx, U, V, pick_t(rng))]
        else:
            sets = [_draw_set(ctx, rng, density) for _ in range(4)]
            if check == "par-vs-mean":
                if all_t:
                    batch = check_par_mean_all(ctx, *sets)
                else:
                    batch = [check_par_mean(ctx, *sets, pick_t(rng))]
            elif check == "par-pairs":
                if all_t:
                    batch = check_par_all_pairs(ctx, *sets)
                else:
                    ta = pick_t(rng)
                    tb = ta
                    while tb == ta:
                        tb = _draw_t(ctx, rng)
                    batch = [check_par_pair(ctx, *sets, ta, tb)]
            elif check == "rhom-vs-par":
                ts = range(1, ctx.q) if all_t else [pick_t(rng)]
                batch = [check_rhom_relation(ctx, *sets, tv) for tv in ts]
            else:  # rhom-lower
                ts = range(1, ctx.q) if all_t else [pick_t(rng)]
                batch = [check_rhom_lower(ctx, *sets, tv) for tv in ts]
        for rep in batch:
            reports.append(dataclasses.replace(
                rep, inputs={**rep.inputs, "trial": trial, "seed": seed}))
    return reports


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
