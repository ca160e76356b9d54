import collections
import decimal
import math
import random

import pytest

from conftest import random_quadruple
from ffplane import bounds, counting, geometry
from ffplane.bounds import (
    CHECK_NAMES,
    _par_mean_batch,
    _par_pair_batch,
    _rhom_lower_batch,
    _rhom_relation_batch,
    _unit_distance_batch,
    check_par_mean,
    check_par_mean_all,
    check_par_pair,
    check_par_all_pairs,
    check_rhom_lower,
    check_rhom_relation,
    check_unit_distance,
    extreme_case_reports,
    par_mean_holds,
    par_pair_holds,
    rhom_relation_holds,
    sweep,
    unit_distance_holds,
)
from ffplane.counting import count_par_t
from ffplane.errors import InvalidPair, InvalidRadius
from ffplane.field import PrimeFieldCtx
from ffplane.geometry import PointSet, full_plane, gen_example_line_ap
from ffplane.report import VERDICT_EPS


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
        rep = _rhom_relation_batch(q, [1], [[(sum_ab, 1, rhom)]], sizes).report(0)
        assert rep.extra["rhom_t"] == rhom and rep.extra["par_t"] == sum_ab
        assert rep.extra["sharp_holds"] == (abs(d) <= big_d), d


# One direction with |E12^x||E34^x| = p and Rhom_t = 0: the asserted tier
# reads p <= 2q sqrt(q p), i.e. p <= 4q^3, with equality a perfect square
# (q 4q^3 = (2q^2)^2).  At q = 2^20 + 7 the sides pass 2^62, far inside the
# float band, so the isqrt bounds decide.
@pytest.mark.parametrize("q", [7, 13, 2**20 + 7])
@pytest.mark.parametrize("step", [-1, 0, 1])
def test_rhom_relation_verdict_is_exact(q, step):
    p = 4 * q**3 + step
    rep = _rhom_relation_batch(q, [1], [[(p, 1, 0)]], [p, 1, 1, 1]).report(0)
    assert rep.holds is (step <= 0)
    # q Rhom_t on the other side of sum p: gap = q rhom - p, one term, so the
    # tier is gap^2 <= 4 q^3 p.
    for rhom in ((p + 2 * q * math.isqrt(q * p)) // q + d for d in (-1, 0, 1, 2)):
        gap = q * rhom - p
        assert rhom_relation_holds(q, rhom, [p], rep.rhs) is (gap**2 <= 4 * q**3 * p)


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
    rep = _rhom_lower_batch(5, [1], [rhom], [25, 25, 25, e4_size]).report(0)
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


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("density", [None, 0.3, 1.0])
@pytest.mark.parametrize("all_t,t", [(False, None), (True, None), (False, 2), (True, 2)])
def test_sweep_of_several_checks_is_their_sweeps_joined(q, density, all_t, t):
    ctx = PrimeFieldCtx(q)
    for names in _check_orders():
        joined = [rep for name in names
                  for rep in sweep(ctx, name, 2, density, 11, all_t=all_t, t=t)]
        assert list(sweep(ctx, names, 2, density, 11, all_t=all_t, t=t)) == joined


def test_sweep_of_all_checks_computes_each_primitive_once(ctx7):
    """Trials go in blocks of sets that fit INDEX_CHUNK cells (4 q^2 per
    trial): one generation pass and one table batch per block, one rhombus
    pass and one unit-distance count per trial."""
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

            for name in ("par_t_profiles", "rhombus_directions", "count_unit_distances"):
                counted(bounds, name)
            counted(counting, "difference_tables")
            generate = bounds.gen_random_set

            def generation_pass(ctx, densities, seeds):
                generated.append(len(seeds))
                return generate(ctx, densities, seeds)
            mp.setattr(bounds, "gen_random_set", generation_pass)
            reports = sweep(ctx7, CHECK_NAMES, 3, None, 5, all_t=True)
            assert generated == blocks
            assert calls == {"par_t_profiles": len(blocks),
                             "difference_tables": len(blocks),
                             "rhombus_directions": 3, "count_unit_distances": 3}
            assert len(reports) == 3 * (1 + 6 + 15 + 6 + 6) + 7
            assert list(reports) == want


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
    assert _unit_distance_batch(q, [1], [edge], sizes).report(0).holds
    assert not _unit_distance_batch(q, [1], [edge + 1], sizes).report(0).holds


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
        assert _par_mean_batch(q, [1], [edge], par_all, sizes).report(0).holds
        rep = _par_mean_batch(q, [1], [edge - inward], par_all, sizes).report(0)
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
    assert _par_pair_batch(q, [(1, 2)], [base + 12 * k], [base], sizes).report(0).holds
    assert not _par_pair_batch(q, [(1, 2)], [base + 12 * k + 1], [base], sizes).report(0).holds
