import collections
import dataclasses
import decimal
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (RHOMBUS_ROUTES, direction_sums, extreme_case_reports, par_mean_batch,
                      par_pair_batch, random_quadruple, rhom_lower_batch, rhom_relation_batch,
                      unit_distance_batch)
from ffplane import bounds, counting, geometry
from ffplane.bounds import (
    CHECK_NAMES,
    check_par_mean,
    check_par_mean_all,
    check_par_pair,
    check_par_all_pairs,
    check_rhom_lower,
    check_rhom_relation,
    check_unit_distance,
    par_mean_holds,
    par_pair_holds,
    rhom_relation_holds,
    sweep,
    unit_distance_holds,
)
from ffplane.counting import count_par_t
from ffplane.errors import InvalidPair, InvalidRadius
from ffplane.field import PrimeFieldCtx
from ffplane.geometry import PointSet, full_plane, gen_example_line_ap, gen_random_set
from ffplane.report import VERDICT_EPS
from ffplane.rng import SplitMix64


def test_unit_distance_fixture(ctx3):
    plane = full_plane(ctx3)
    rep = check_unit_distance(ctx3, plane, plane, 1)
    assert rep.lhs == pytest.approx(9.0)          # |36 - 81/3|
    assert rep.rhs == pytest.approx(2 * math.sqrt(3) * 9)
    assert rep.holds


def test_unit_distance_empty(ctx5):
    empty = PointSet(5, [])
    rep = check_unit_distance(ctx5, empty, empty, 2)
    assert rep.lhs == 0 and rep.rhs == 0 and rep.holds and rep.ratio == 0


def test_unit_distance_rejects_zero_radius(ctx5):
    plane = full_plane(ctx5)
    with pytest.raises(InvalidRadius):
        check_unit_distance(ctx5, plane, plane, 0)


def test_par_mean_fixture(ctx3):
    plane = full_plane(ctx3)
    rep = check_par_mean(ctx3, plane, plane, plane, plane, 1)
    assert rep.lhs == pytest.approx(81.0)         # |324 - 729/3|
    assert rep.rhs == pytest.approx(2 * math.sqrt(3) * 81 + 81)   # + 729/3^2
    assert rep.holds
    empty = PointSet(3, [])
    rep = check_par_mean(ctx3, empty, plane, plane, plane, 1)
    assert rep.lhs == 0 and rep.rhs == 0 and rep.holds


def test_par_pairs_full_plane_is_flat(ctx5):
    plane = full_plane(ctx5)
    # all nonzero circles have the same size, so all Par_t agree
    for rep in check_par_all_pairs(ctx5, plane, plane, plane, plane):
        assert rep.lhs == 0 and rep.holds


def test_par_pairs_rejects_bad_radii(ctx5):
    plane = full_plane(ctx5)
    with pytest.raises(InvalidPair):
        check_par_pair(ctx5, plane, plane, plane, plane, 2, 2)
    with pytest.raises(InvalidRadius):
        check_par_pair(ctx5, plane, plane, plane, plane, 0, 2)


def _strip_q5(ctx5):
    """line-ap:0:1:2 at q = 5: the rows {(a, 0), (a, 1) : a in F_5}."""
    return gen_example_line_ap(ctx5, [0, 1])


def test_par_pairs_strip_instance_counts(ctx5):
    # The instance the test below decides: Par_1 = 250, Par_3 = 0.
    S = _strip_q5(ctx5)
    assert count_par_t(ctx5, S, S, S, S, 1, "oracle").value == 250
    assert count_par_t(ctx5, S, S, S, S, 3, "oracle").value == 0
    rep = check_par_pair(ctx5, S, S, S, S, 1, 3)
    assert (rep.extra["par_t"], rep.extra["par_t2"], rep.lhs) == (250, 0, 250)


def test_par_pairs_display_holds_on_a_strip_at_q5(ctx5):
    # sqrt(q) sqrt(prod) = 223.6 < 250 refuted the display; 4 sqrt(q prod)
    # does not.
    S = _strip_q5(ctx5)
    rep = check_par_pair(ctx5, S, S, S, S, 1, 3)
    assert rep.holds and rep.rhs == pytest.approx(4 * math.sqrt(5) * 100)


# Strips S = line-ap:0:1:LEN against the full plane F, with the worst radius
# (and pair) of each display: with the former right sides sqrt(q prod) both
# were refuted here.  D_FF = q^2 everywhere, so Par_t(S, S, F, F) =
# q^2 n_t(S, S) and Par = q^2 |S|^2, which the oracle's n_t gives.
@pytest.mark.parametrize("q,length,t,pair", [(29, 9, 19, (5, 19)), (61, 15, 50, None)])
def test_par_displays_hold_on_strips_against_the_plane(q, length, t, pair):
    ctx = PrimeFieldCtx(q)
    S, F = gen_example_line_ap(ctx, range(length)), full_plane(ctx)
    sets = (S, S, F, F)
    prod = (q * length) ** 2 * q**4

    def par_t(r):
        return q * q * counting.count_unit_distances(ctx, S, S, r, "oracle").value

    rep = check_par_mean(ctx, *sets, t)
    par_all = q * q * len(S) ** 2
    assert (rep.extra["par_t"], rep.extra["par_all"]) == (par_t(t), par_all)
    assert rep.lhs > math.sqrt(q * prod)
    assert rep.holds and rep.rhs == pytest.approx(2 * math.sqrt(q * prod) + par_all / q**2)
    if pair is not None:
        rep = check_par_pair(ctx, *sets, *pair)
        assert (rep.extra["par_t"], rep.extra["par_t2"]) == tuple(map(par_t, pair))
        assert rep.lhs > math.sqrt(q * prod)
        assert rep.holds and rep.rhs == pytest.approx(4 * math.sqrt(q * prod))


def test_rhom_relation_fixture(ctx3):
    plane = full_plane(ctx3)
    rep = check_rhom_relation(ctx3, plane, plane, plane, plane, 1)
    assert rep.lhs == pytest.approx(36.0)         # |144 - 324/3|
    # four directions, each intersection is the whole plane (9 points),
    # so the side is 2*sqrt(3) * 4 * sqrt(9*9)
    assert rep.rhs == pytest.approx(2 * math.sqrt(3) * 36)
    assert rep.holds
    assert rep.extra["rhom_t"] == 144 and rep.extra["par_t"] == 324
    assert rep.extra["sharp_hypothesis"]          # 81*81 >= 27


@pytest.mark.parametrize("q,k", [(7, 1), (7, 2**27), (13, 3**17)])
def test_rhom_relation_sharp_verdict_is_exact(q, k):
    # Sizes (q k, k, k, k) give q p12 p34 = (q k^2)^2, so the sharp tier
    # holds exactly when |q Rhom_t - sum ab| <= D = q k^2.  At k = 2^27 the
    # products pass 2^53 and the float form calls D + 1 a pass.
    sizes = (q * k, k, k, k)
    big_d = q * k * k
    rhom = 2 * k * k
    for d in (big_d - 1, big_d, big_d + 1, -big_d - 1, -big_d, -big_d + 1):
        sum_ab = q * rhom - d
        rep = rhom_relation_batch(q, [1], [direction_sums([(sum_ab, 1, rhom)])], sizes).report(0)
        assert rep.extra["rhom_t"] == rhom and rep.extra["par_t"] == sum_ab
        assert rep.extra["sharp_holds"] == (abs(d) <= big_d), d


# The three strip instances F_q x {0, .., L - 1} (line-ap:0:1:L in all four
# slots) on which the recorded sharp display was seen to fail, with their
# oracle-confirmed Rhom_t and sum over x of |E12^x||E34^x|, on each rhombus
# route in turn.
@pytest.mark.parametrize("route", list(RHOMBUS_ROUTES))
@pytest.mark.parametrize("q,length,t,rhom,sum_prod", [
    (11, 4, 5, 1760, 10164), (23, 6, 13, 11592, 143888), (29, 7, 5, 22156, 354902),
])
def test_sharp_rhombus_display_fails_on_strips(monkeypatch, route, q, length, t, rhom, sum_prod):
    ctx = PrimeFieldCtx(q)
    strip = gen_example_line_ap(ctx, range(length))
    for name, value in RHOMBUS_ROUTES[route].items():
        monkeypatch.setattr(counting, name, value)
    rep = check_rhom_relation(ctx, strip, strip, strip, strip, t)
    assert (rep.extra["rhom_t"], rep.extra["par_t"]) == (rhom, sum_prod)
    assert rep.extra["sharp_hypothesis"] and not rep.extra["sharp_holds"]
    p = len(strip) ** 2
    assert not bounds.rhom_sharp_holds(q, rhom, sum_prod, p, p)
    if q == 11:
        assert counting.count_rhom_t(ctx, *[strip] * 4, t, "oracle").value == rhom


# One direction with |E12^x||E34^x| = p and Rhom_t = 0: the asserted tier
# reads p <= 2q sqrt(q p), i.e. p <= 4q^3, with equality a perfect square
# (q 4q^3 = (2q^2)^2).  At q = 2^20 + 7 the sides pass 2^62, far inside the
# float band, so the isqrt bounds decide.
@pytest.mark.parametrize("q", [7, 13, 2**20 + 7])
@pytest.mark.parametrize("step", [-1, 0, 1])
def test_rhom_relation_verdict_is_exact(q, step):
    p = 4 * q**3 + step
    rep = rhom_relation_batch(q, [1], [direction_sums([(p, 1, 0)])], [p, 1, 1, 1]).report(0)
    assert rep.holds is (step <= 0)
    # q Rhom_t on the other side of sum p: gap = q rhom - p, one term, so the
    # tier is gap^2 <= 4 q^3 p.
    for rhom in ((p + 2 * q * math.isqrt(q * p)) // q + d for d in (-1, 0, 1, 2)):
        gap = q * rhom - p
        assert rhom_relation_holds(q, rhom, [p], rep.rhs) is (gap**2 <= 4 * q**3 * p)


@pytest.mark.parametrize("step", [-1, 0, 1])
def test_rhom_relation_from_arrays_reaches_the_isqrt_fallback(monkeypatch, ctx7, step):
    # The instance above, read through rhombus_sums' array pass: one
    # direction of S_1 (8 points at q = 7) with |E12^x| |E34^x| =
    # 4 q^3 + step and Rhom_t = 0, the other seven empty.  The float band
    # cannot decide the tie, step 0, so its verdict comes from the isqrt
    # bounds; one step off, the floats decide.  The one isqrt before them
    # is the sharp tier's limit, isqrt(q |E1||E2| |E3||E4|).
    p = 4 * 7**3 + step
    terms = np.zeros((3, 1, 8), dtype=np.int64)
    terms[:2, 0, 0] = p, 1
    monkeypatch.setattr(counting, "_rhombus_terms", lambda ctx, quads, radii: (terms, [8]))
    roots = []
    isqrt = math.isqrt
    monkeypatch.setattr(math, "isqrt", lambda n: roots.append(n) or isqrt(n))
    sets = [full_plane(ctx7)] * 4
    rep = check_rhom_relation(ctx7, *sets, 1)
    assert roots[0] == 7 * 49**4
    assert rep.holds is (step <= 0) and bool(roots[1:]) is (step == 0)
    want = rhom_relation_batch(7, [1], [direction_sums([(p, 1, 0)] + [(0, 0, 0)] * 7)],
                                [49] * 4).report(0)
    assert rep == want


def test_drawn_radius_sweep_stacks_its_radii(monkeypatch):
    # Without all_t each trial's drawn radius joins its block's one
    # rhombus_sums call, whose bit pass reads one word_offsets table of the
    # block's sorted distinct radii; a pinned radius is one radius for all.
    ctx = PrimeFieldCtx(13)
    offsets, calls = [], []
    word_offsets, rhombus_sums = counting.word_offsets, bounds.rhombus_sums
    monkeypatch.setattr(counting, "word_offsets",
                        lambda ctx, radii: offsets.append(radii) or word_offsets(ctx, radii))
    monkeypatch.setattr(bounds, "rhombus_sums",
                        lambda ctx, quads, radii: calls.append(radii) or rhombus_sums(ctx, quads, radii))
    for t in (None, 5):
        offsets.clear()
        calls.clear()
        batches = sweep(ctx, ["rhom-vs-par", "rhom-lower"], 12, None, 3, t=t).batches
        drawn = [batch.row_inputs["t"] for batch in batches[:12]]
        assert drawn == [batch.row_inputs["t"] for batch in batches[12:]]
        assert calls == [drawn] and all(len(r) == 1 for r in drawn)
        assert offsets == [tuple(sorted({r for r, in drawn}))]
        assert offsets == [(5,)] if t else len(offsets[0]) > 3


def _sum_of_roots(q, prods):
    """2q sum sqrt(q p) to 60 digits."""
    with decimal.localcontext(decimal.Context(prec=60)):
        return 2 * q * sum(decimal.Decimal(q * p).sqrt() for p in prods)


@pytest.mark.parametrize("seed", range(40))
def test_rhom_relation_verdict_agrees_with_decimal_roots(seed):
    # Several directions, products up to 2^80, and the left side within a
    # few units of the right, both above and below sum p.
    rng = random.Random(seed)
    q = rng.choice([5, 7, 13, 61])
    prods = [rng.randrange(2**rng.choice([10, 40, 80]))
             for _ in range(rng.randint(1, q + 1))]
    rhs = 2.0 * math.sqrt(q) * sum(math.sqrt(p) for p in prods)
    right = _sum_of_roots(q, prods)
    for sign in (1, -1):
        centre = sum(prods) + sign * int(right)
        for rhom in range(centre // q - 2, centre // q + 3):
            gap = abs(q * rhom - sum(prods))
            if rhom >= 0:
                assert rhom_relation_holds(q, rhom, prods, rhs) is (gap <= right), (q, rhom)


def test_rhom_relation_empty(ctx3):
    empty = PointSet(3, [])
    rep = check_rhom_relation(ctx3, empty, empty, empty, empty, 1)
    assert rep.lhs == 0 and rep.rhs == 0 and rep.holds


def test_rhom_lower_full_plane(ctx5):
    plane = full_plane(ctx5)
    rep = check_rhom_lower(ctx5, plane, plane, plane, plane, 1)
    # ratio = (|S_t|/q)^2 for the full plane
    st_over_q = (5 - ctx5.eta(-1)) / 5
    assert rep.ratio == pytest.approx(st_over_q**2)
    assert rep.extra["hypothesis"] and rep.holds


def test_rhom_lower_empty(ctx5):
    empty = PointSet(5, [])
    rep = check_rhom_lower(ctx5, empty, empty, empty, empty, 1)
    assert rep.ratio == 0 and not rep.extra["hypothesis"] and rep.holds


@pytest.mark.parametrize("e4_size,rhom,holds", [
    (5, 0, False),  # prod = 25^3 * 5 = q^7: the hypothesis holds
    (5, 1, True),
    (4, 0, True),   # prod < q^7: no hypothesis, so no verdict
])
def test_rhom_lower_verdict_is_exact(e4_size, rhom, holds):
    rep = rhom_lower_batch(5, [1], [rhom], [25, 25, 25, e4_size]).report(0)
    assert rep.extra["hypothesis"] is (e4_size == 5)
    assert rep.holds is holds


@pytest.mark.parametrize("q", [5, 7])
def test_unconditional_checks_hold_on_random_instances(q):
    ctx = PrimeFieldCtx(q)
    for seed in range(10):
        sets = random_quadruple(ctx, seed * 3 + 17)
        for rep in check_par_mean_all(ctx, *sets):
            assert rep.holds, rep
        for rep in check_par_all_pairs(ctx, *sets):
            assert rep.holds, rep
        for t in (1, q - 1):
            assert check_unit_distance(ctx, sets[0], sets[1], t).holds
            assert check_rhom_relation(ctx, *sets, t).holds


def test_sweep_is_reproducible_and_clean(ctx7):
    a = sweep(ctx7, "par-vs-mean", 10, 0.5, 42)
    b = sweep(ctx7, "par-vs-mean", 10, 0.5, 42)
    assert [r.to_json_obj() for r in a] == [r.to_json_obj() for r in b]
    assert all(r.holds for r in a)
    c = sweep(ctx7, "par-vs-mean", 10, 0.5, 43)
    assert [r.to_json_obj() for r in a] != [r.to_json_obj() for r in c]


def test_sweep_drawn_density_records_inputs(ctx5):
    reports = sweep(ctx5, "unit-distance", 5, None, 9)
    assert len(reports) == 5
    for rep in reports:
        assert rep.inputs["seed"] == 9
        assert "trial" in rep.inputs
        assert rep.holds


def test_sweep_rejects_unknown_check(ctx5):
    with pytest.raises(ValueError):
        sweep(ctx5, "nonsense", 1, 0.5, 0)


@pytest.mark.parametrize("check,trials,message", [
    ([], 2, "the check list is empty"),
    ("unit-distance", -1, "trials must be >= 0, got -1"),
    (["rhom-vs-par", "circle-decay"], -1, "trials must be >= 0, got -1"),
])
def test_sweep_rejects_an_empty_check_list_and_negative_trials(ctx5, check, trials, message):
    with pytest.raises(ValueError, match=message):
        sweep(ctx5, check, trials, 0.5, 0)


def test_sweep_of_no_trials_reports_circle_decay_alone(ctx5):
    # circle-decay reports each j with no trial; a check on sets has none.
    assert [rep.inputs["j"] for rep in sweep(ctx5, "circle-decay", 0, 0.5, 0)] == list(range(5))
    swept = sweep(ctx5, ["unit-distance", "circle-decay", "rhom-lower"], 0, 0.5, 0)
    assert [(name, len(list(batches))) for name, batches in swept.groups] == [
        ("unit-distance", 0), ("circle-decay", 1), ("rhom-lower", 0)]
    assert len(swept) == 5


def test_sweep_pinned_radius(ctx7):
    reports = sweep(ctx7, "rhom-vs-par", 6, 0.5, 4, t=3)
    assert len(reports) == 6
    assert all(r.inputs["t"] == 3 for r in reports)
    with pytest.raises(InvalidRadius):
        sweep(ctx7, "rhom-vs-par", 1, 0.5, 4, t=0)


def _check_orders():
    orders = [list(CHECK_NAMES), ["rhom-lower", "unit-distance"], ["unit-distance"]]
    shuffler = random.Random(7)
    for _ in range(3):
        orders.append(shuffler.sample(CHECK_NAMES, len(CHECK_NAMES)))
    return orders


# At q = 13 with drawn densities (seed 11), trial 0's D12 is past the exact
# route's 16 q^2 pairs, so a joined sweep reads its n_t from a certified FFT
# table.
@pytest.mark.parametrize("density,q", [(density, q) for q in (3, 5, 7)
                                       for density in (None, 0.3, 1.0)] + [(None, 13)])
@pytest.mark.parametrize("all_t,t", [(False, None), (True, None), (False, 2), (True, 2)])
def test_sweep_of_several_checks_is_their_sweeps_joined(q, density, all_t, t):
    ctx = PrimeFieldCtx(q)
    for names in _check_orders():
        joined = [rep for name in names
                  for rep in sweep(ctx, name, 2, density, 11, all_t=all_t, t=t)]
        assert list(sweep(ctx, names, 2, density, 11, all_t=all_t, t=t)) == joined


def test_sweep_of_all_checks_computes_each_primitive_once(ctx7):
    """Trials go in blocks of sets that fit INDEX_CHUNK cells (4 q^2 per
    trial): one generation pass, one table batch and one rhombus pass per
    block.  Unit distance reads its counts from the
    block's D12 tables, with no count of its own; alone, it counts once per
    trial."""
    want = list(sweep(ctx7, CHECK_NAMES, 3, None, 5, all_t=True))
    # At q = 7 all three trials fit one block; a chunk of two trials' sets
    # splits them 2 + 1.
    for chunk, blocks in ((None, [12]), (2 * 4 * 49, [8, 4])):
        calls = collections.Counter()
        generated = []
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(geometry, "INDEX_CHUNK", chunk)

            def counted(module, name):
                original = getattr(module, name)

                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return original(*args, **kwargs)
                mp.setattr(module, name, wrapper)

            for name in ("par_and_n_t_profiles", "rhombus_sums",
                         "count_unit_distances"):
                counted(bounds, name)
            counted(counting, "difference_tables")
            generate = bounds.gen_random_set

            def generation_pass(ctx, densities, seeds):
                generated.append(len(seeds))
                return generate(ctx, densities, seeds)
            mp.setattr(bounds, "gen_random_set", generation_pass)
            reports = sweep(ctx7, CHECK_NAMES, 3, None, 5, all_t=True)
            assert generated == blocks
            assert calls == {"par_and_n_t_profiles": len(blocks),
                             "difference_tables": len(blocks),
                             "rhombus_sums": len(blocks)}
            assert len(reports) == 3 * (1 + 6 + 15 + 6 + 6) + 7
            assert list(reports) == want
            calls.clear()
            alone = sweep(ctx7, "unit-distance", 3, None, 5, all_t=True)
            assert calls == {"count_unit_distances": 3}
            assert list(alone) == want[:3]


def test_extreme_cases_all_hold(ctx5):
    for rep in extreme_case_reports(ctx5, 1):
        assert rep.holds, rep


# Synthetic integers at q = 3 with the right-hand side a perfect square, so
# each inequality meets equality at an integer count: equality and one step
# toward the centre hold, one step past fails.  k = 2^30 puts the counts
# past 2^53, where float sides cannot tell the three apart.
@pytest.mark.parametrize("k", [1, 2, 7, 2**30])
def test_unit_distance_verdict_is_exact(k):
    q, sizes = 3, [3 * k, k]                # 4 q^3 |U||V| = (18k)^2
    edge = k * k + 6 * k                    # q n_t - |U||V| = 18k
    assert unit_distance_holds(q, edge, *sizes)
    assert unit_distance_holds(q, edge - 1, *sizes)
    assert not unit_distance_holds(q, edge + 1, *sizes)
    assert unit_distance_batch(q, [1], [edge], sizes).report(0).holds
    assert not unit_distance_batch(q, [1], [edge + 1], sizes).report(0).holds


@pytest.mark.parametrize("k", [1, 2, 7, 2**30])
def test_par_mean_verdict_is_exact(k):
    # Holds iff g = |q^2 Par_t - q Par| - Par <= 2 q^2 sqrt(q prod) = 54k.
    # With Par = 9m, g = 9 |Par_t - 3m| - 9m, so the edges are
    # Par_t = 3m +- (m + 6k).
    q, sizes = 3, [3 * k, k, 1, 1]          # 4 q^5 prod = (54k)^2
    m = 2**60
    par_all = 9 * m
    for edge, inward in ((4 * m + 6 * k, -1), (2 * m - 6 * k, 1)):
        assert par_mean_holds(q, edge, par_all, 3 * k * k)
        assert par_mean_holds(q, edge + inward, par_all, 3 * k * k)
        assert not par_mean_holds(q, edge - inward, par_all, 3 * k * k)
        assert par_mean_batch(q, [1], [edge], par_all, sizes).report(0).holds
        rep = par_mean_batch(q, [1], [edge - inward], par_all, sizes).report(0)
        assert not rep.holds
        if k == 2**30:
            # The float sides cannot tell the step past the edge from the
            # edge: the float rule passes it.
            assert rep.lhs <= rep.rhs + VERDICT_EPS
    # With prod = 0 the right side is Par/q^2 alone: g <= 0 decides, and at
    # the mean itself g = -Par.
    assert par_mean_holds(q, 3 * m, par_all, 0)
    assert par_mean_holds(q, 4 * m, par_all, 0)
    assert not par_mean_holds(q, 4 * m + 1, par_all, 0)


@pytest.mark.parametrize("k", [1, 2, 7, 2**30])
def test_par_pair_verdict_is_exact(k):
    q, sizes = 3, [3 * k, k, 1, 1]          # 16 q prod = (12k)^2
    base = 2**62
    assert par_pair_holds(q, base + 12 * k, base, 3 * k * k)
    assert par_pair_holds(q, base + 12 * k - 1, base, 3 * k * k)
    assert not par_pair_holds(q, base + 12 * k + 1, base, 3 * k * k)
    assert not par_pair_holds(q, base, base + 12 * k + 1, 3 * k * k)
    assert par_pair_batch(q, [(1, 2)], [base + 12 * k], [base], sizes).report(0).holds
    assert not par_pair_batch(q, [(1, 2)], [base + 12 * k + 1], [base], sizes).report(0).holds


# -- block verdicts against the scalar deciders -------------------------------
#
# Each instance of a block is built from k (scale times a drawn integer) so
# that its limit isqrt(N) is exact, N a square, and some count meets the
# tie d^2 = N; rows hold the tie, one count either side of it, and drawn
# counts.  At scale 1 every column is int64; at the larger scale some
# integer a row formula forms is past 2^53, so the columns are Python ints.  The block's verdicts must equal the scalar *_holds
# deciders' and the squared forms, row by row.

_SCALES = st.sampled_from([1, 2**30])
_SMALL_Q = st.sampled_from([3, 5, 7, 13])
_DRAWN = st.lists(st.integers(1, 12), min_size=1, max_size=4)


def _near(edge, extra):
    """The tie, one count either side, and drawn counts, all >= 0."""
    return [max(0, c) for c in [edge - 1, edge, edge + 1, *extra]]


def _block(rows):
    """A block's (T, R) counts as Python ints."""
    return np.array(rows, dtype=object)


@settings(max_examples=40, deadline=None)
@given(q=_SMALL_Q, ks=_DRAWN, scale=_SCALES, drawn=st.lists(st.integers(0, 10**6), max_size=3))
def test_unit_distance_block_verdicts_agree(q, ks, scale, drawn):
    # |U| = q k^2, |V| = 1: N = 4 q^3 |U||V| = (2 q^2 k)^2, tie at n = k^2 + 2 q k.
    sizes = [[q * (k * scale) ** 2, 1] for k in ks]
    counts = _block([_near(k * k * scale * scale + 2 * q * k * scale, drawn) for k in ks])
    _, columns, _, _, holds = bounds._unit_distance_rows(q, sizes, counts)
    assert (columns["count"].dtype == object) is (scale > 1)
    for (su, sv), row, verdicts in zip(sizes, counts.tolist(), holds.tolist()):
        for n, verdict in zip(row, verdicts):
            assert verdict is unit_distance_holds(q, n, su, sv)
            assert verdict is ((q * n - su * sv) ** 2 <= 4 * q**3 * su * sv)


@settings(max_examples=40, deadline=None)
@given(q=_SMALL_Q, ks=_DRAWN, scale=st.sampled_from([1, 2**50]), m=st.integers(1, 1000),
       drawn=st.lists(st.integers(0, 10**6), max_size=3))
def test_par_mean_block_verdicts_agree(q, ks, scale, m, drawn):
    # prod = q k^2 and Par = q^2 m: the tie g^2 = 4 q^5 prod is at
    # Par_t = m (1 + q) + 2 q k.
    sizes = [[q * (k * scale) ** 2, 1, 1, 1] for k in ks]
    par_all = [q * q * m * scale for _ in ks]
    counts = _block([_near(m * scale * (1 + q) + 2 * q * k * scale, drawn) for k in ks])
    _, columns, _, _, holds = bounds._par_mean_rows(q, sizes, counts, par_all)
    assert (columns["par_t"].dtype == object) is (scale > 1)
    for size, par, row, verdicts in zip(sizes, par_all, counts.tolist(), holds.tolist()):
        prod = math.prod(size)
        for p, verdict in zip(row, verdicts):
            g = abs(q * q * p - q * par) - par
            assert verdict is par_mean_holds(q, p, par, prod)
            assert verdict is (g <= 0 or g * g <= 4 * q**5 * prod)


@settings(max_examples=40, deadline=None)
@given(q=_SMALL_Q, ks=_DRAWN, scale=st.sampled_from([1, 2**50]), base=st.integers(0, 10**6),
       drawn=st.lists(st.integers(0, 10**6), max_size=3))
def test_par_pair_block_verdicts_agree(q, ks, scale, base, drawn):
    # prod = q k^2: 16 q prod = (4 q k)^2, tie at |Par_t - Par_t'| = 4 q k.
    # This display's integers are the counts themselves, so the Python-int
    # columns take a scale of 2^50.
    sizes = [[q * (k * scale) ** 2, 1, 1, 1] for k in ks]
    par_t = _block([_near(base * scale + 4 * q * k * scale, drawn) for k in ks])
    par_t2 = np.full(par_t.shape, base * scale, dtype=object)
    _, columns, gap, _, holds = bounds._par_pair_rows(q, sizes, par_t, par_t2)
    assert (columns["par_t"].dtype == object) is (scale > 1)
    for size, a_row, c_row, verdicts in zip(sizes, par_t.tolist(), par_t2.tolist(),
                                            holds.tolist()):
        prod = math.prod(size)
        for a, c, verdict in zip(a_row, c_row, verdicts):
            assert verdict is par_pair_holds(q, a, c, prod)
            assert verdict is ((a - c) ** 2 <= 16 * q * prod)


@settings(max_examples=40, deadline=None)
@given(q=_SMALL_Q, ks=_DRAWN, scale=_SCALES, m=st.integers(0, 1000),
       steps=st.lists(st.integers(-2, 2), min_size=1, max_size=3),
       far=st.integers(10, 1000))
def test_rhom_block_verdicts_agree(q, ks, scale, m, steps, far):
    # |E1||E2| = q k^2 and |E3||E4| = 1: q p12 p34 = (q k)^2, so the sharp
    # tier ties at |q Rhom_t - sum p| = q k.  Each row is one direction with
    # p = sum p = q Rhom_t + q k + step; rows with p = 4 q^3 + step meet the
    # relation's own tie p = 2 q sqrt(q p) at Rhom_t = 0; and with
    # n = 1 mod q^2 and q p = n^2 - 1, the gap 2 q n lies above
    # 2 q sqrt(q p) by about q / n, for the Python-int columns' n > 2^30
    # inside the float band of the right side, and one step of Rhom_t below
    # it the relation holds.
    sizes = [[q * (k * scale) ** 2, 1, 1, 1] for k in ks]
    n = q * q * far * (1 if scale == 1 else 2**24) + 1
    p_far = (n * n - 1) // q
    terms = []
    for k in ks:
        rhom = m * scale
        terms.append([(rhom, q * rhom + q * k * scale + s) for s in steps]
                     + [(0, 4 * q**3 + s) for s in steps]
                     + [((p_far + 2 * q * n) // q - d, p_far) for d in (0, 1)])
    width = len(terms[0])
    flat = [row for rows in terms for row in rows]
    rows = np.arange(len(flat)).reshape(len(ks), width)
    rhom = np.array([r for r, _ in flat], dtype=object)
    prods = [[p] for _, p in flat]
    par = np.array([p for _, p in flat], dtype=object)
    roots = np.array([math.sqrt(p) for _, p in flat])
    _, columns, _, rhs, holds = bounds._rhom_relation_rows(q, sizes, rhom.reshape(rows.shape),
                                                          par, roots, prods, [1] * len(flat))
    assert (columns["rhom_t"].dtype == object) is (scale > 1)
    for k, size in enumerate(sizes):
        p12, p34 = size[0] * size[1], size[2] * size[3]
        for r in range(width):
            m_t, p = flat[rows[k, r]]
            sharp = columns["sharp_holds"][k, r]
            assert sharp == bounds.rhom_sharp_holds(q, m_t, p, p12, p34)
            assert sharp == ((q * m_t - p) ** 2 <= q * p12 * p34)
            assert holds[k, r] == rhom_relation_holds(q, m_t, [p], float(rhs[k, r]))
            assert holds[k, r] == ((q * m_t - p) ** 2 <= 4 * q**3 * p)


# -- sweep rows against the check_* reports ------------------------------------

def _swept_sets(ctx, seed, trials, nsets, density):
    """The sets of each trial of sweep(ctx, ..., trials, density, seed)."""
    master = SplitMix64(seed)
    out = []
    for _ in range(trials):
        rng = master.fork()
        draws = [(rng.next_float() if density is None else density, rng.next_u64())
                 for _ in range(nsets)]
        out.append([gen_random_set(ctx, d, s) for d, s in draws])
    return out


def _check_reports(ctx, name, sets, radii) -> list:
    """The check_* reports of one instance at the radii of a batch."""
    return {
        "unit-distance": lambda: [check_unit_distance(ctx, *sets[:2], t) for t in radii["t"]],
        "par-vs-mean": lambda: [check_par_mean(ctx, *sets, t) for t in radii["t"]],
        "par-pairs": lambda: [check_par_pair(ctx, *sets, t, t2)
                              for t, t2 in zip(radii["t"], radii["t2"])],
        "rhom-vs-par": lambda: [check_rhom_relation(ctx, *sets, t) for t in radii["t"]],
        "rhom-lower": lambda: [check_rhom_lower(ctx, *sets, t) for t in radii["t"]],
    }[name]()


def _without_tags(rep):
    inputs = {k: v for k, v in rep.inputs.items() if k not in ("trial", "seed")}
    return dataclasses.replace(rep, inputs=inputs)


@pytest.mark.parametrize("q", [5, 13, 31])
@pytest.mark.parametrize("density,all_t", [(None, True), (None, False), (0.0, True),
                                           (1.0, False)])
def test_every_sweep_row_is_its_instances_check_report(q, density, all_t):
    ctx = PrimeFieldCtx(q)
    trials = 3 if q < 31 else 2
    swept = sweep(ctx, CHECK_NAMES[:-1], trials, density, 11, all_t=all_t)
    sets = _swept_sets(ctx, 11, trials, 4, density)
    for name, batches in swept.groups:
        batches = list(batches)
        assert [b.inputs["trial"] for b in batches] == list(range(trials))
        for batch, trial_sets in zip(batches, sets):
            got = [_without_tags(rep) for rep in batch.reports()]
            assert got == _check_reports(ctx, name, trial_sets, batch.row_inputs), name


@pytest.mark.parametrize("q", [5, 13])
def test_block_rows_on_boundary_sets_are_check_reports(q):
    # A block of the empty set, a singleton, the full plane and a circle,
    # each in all four slots and mixed, through the sweep's count arrays
    # and builders at every radius.
    ctx = PrimeFieldCtx(q)
    empty, point, plane, ring = (PointSet(q, []), PointSet(q, [(1, 2)]), full_plane(ctx),
                                 geometry.circle(ctx, 1))
    block = [[s] * 4 for s in (empty, point, plane, ring)] + [[plane, ring, point, empty],
                                                              [ring, plane, ring, plane]]
    pairs = bounds._radii(ctx, "par-pairs", True)
    for name in CHECK_NAMES[:-1]:
        radii = [{name: pairs if name == "par-pairs" else
                  [1 + i % (q - 1)] if name == "unit-distance" else list(range(1, q))}
                 for i in range(len(block))]
        counts = bounds._counts(ctx, [name], block, radii)
        sizes = [[len(s) for s in sets] for sets in block]
        batches = bounds._block_batches(q, name, [{}] * len(block), sizes, radii, counts)
        for batch, sets in zip(batches, block):
            assert batch.reports() == _check_reports(ctx, name, sets, batch.row_inputs), name


def test_sweep_builds_each_block_when_read_and_again_on_each_read(monkeypatch):
    """A sweep holds count arrays only: its builders run when a group's
    batches are read, block by block, and each read of the sweep builds
    them anew with equal reports; len() builds nothing."""
    ctx = PrimeFieldCtx(7)
    built = []
    real = bounds._block_batches
    monkeypatch.setattr(geometry, "INDEX_CHUNK", 4 * 49)     # one trial a block
    monkeypatch.setattr(bounds, "_block_batches",
                        lambda q, name, tags, *a: built.append((name, tags[0]["trial"]))
                        or real(q, name, tags, *a))
    swept = sweep(ctx, ["par-pairs", "rhom-vs-par"], 3, None, 2, all_t=True)
    assert built == [] and len(swept) == 3 * (15 + 6) and built == []
    groups = swept.groups
    batches = groups[0][1]
    next(batches)
    assert built == [("par-pairs", 0)]
    rest = list(batches)
    assert len(rest) == 2 and built == [("par-pairs", t) for t in range(3)]
    first = list(swept)
    assert list(swept) == first and len(first) == len(swept)
