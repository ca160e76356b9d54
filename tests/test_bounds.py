import collections
import math
import random

import pytest

from conftest import random_quadruple
from ffplane import bounds
from ffplane.bounds import (
    CHECK_NAMES,
    _par_mean_report,
    _par_pair_report,
    _rhom_lower_report,
    _rhom_relation_report,
    _unit_distance_report,
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
    sweep,
    unit_distance_holds,
)
from ffplane.errors import InvalidPair, InvalidRadius
from ffplane.field import PrimeFieldCtx
from ffplane.geometry import PointSet, full_plane
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
    assert rep.rhs == pytest.approx(math.sqrt(3) * 81)
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
        rep = _rhom_relation_report(q, 1, sizes, [(sum_ab, 1, rhom)])
        assert rep.extra["rhom_t"] == rhom and rep.extra["par_t"] == sum_ab
        assert rep.extra["sharp_holds"] == (abs(d) <= big_d), d


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
    rep = _rhom_lower_report(5, 1, [25, 25, 25, e4_size], rhom)
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
        assert sweep(ctx, names, 2, density, 11, all_t=all_t, t=t) == joined


def test_sweep_of_all_checks_computes_each_primitive_once(monkeypatch, ctx7):
    calls = collections.Counter()

    def counted(name):
        original = getattr(bounds, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(bounds, name, wrapper)

    for name in ("gen_random_set", "par_t_profile", "rhombus_directions",
                 "count_unit_distances"):
        counted(name)
    reports = sweep(ctx7, CHECK_NAMES, 3, None, 5, all_t=True)
    # Per trial: four sets, one profile, one rhombus pass for every radius.
    assert calls == {"gen_random_set": 12, "par_t_profile": 3,
                     "rhombus_directions": 3, "count_unit_distances": 3}
    assert len(reports) == 3 * (1 + 6 + 15 + 6 + 6) + 7


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
    assert _unit_distance_report(q, 1, edge, sizes).holds
    assert not _unit_distance_report(q, 1, edge + 1, sizes).holds


@pytest.mark.parametrize("k", [1, 2, 7, 2**30])
def test_par_mean_verdict_is_exact(k):
    q, sizes = 3, [3 * k, k, 1, 1]          # q^3 prod = (9k)^2
    par_all = 3 * 2**62
    for edge, inward in ((2**62 + 3 * k, -1), (2**62 - 3 * k, 1)):
        assert par_mean_holds(q, edge, par_all, 3 * k * k)
        assert par_mean_holds(q, edge + inward, par_all, 3 * k * k)
        assert not par_mean_holds(q, edge - inward, par_all, 3 * k * k)
        rep = _par_mean_report(q, 1, edge, par_all, sizes)
        assert rep.holds
        if k == 2**30:
            # sqrt(q) * sqrt(prod) rounds below 9k: the float rule fails here.
            assert rep.lhs > rep.rhs + VERDICT_EPS
        assert not _par_mean_report(q, 1, edge - inward, par_all, sizes).holds


@pytest.mark.parametrize("k", [1, 2, 7, 2**30])
def test_par_pair_verdict_is_exact(k):
    q, sizes = 3, [3 * k, k, 1, 1]          # q prod = (3k)^2
    base = 2**62
    assert par_pair_holds(q, base + 3 * k, base, 3 * k * k)
    assert par_pair_holds(q, base + 3 * k - 1, base, 3 * k * k)
    assert not par_pair_holds(q, base + 3 * k + 1, base, 3 * k * k)
    assert not par_pair_holds(q, base, base + 3 * k + 1, 3 * k * k)
    assert _par_pair_report(q, 1, 2, base + 3 * k, base, sizes).holds
    assert not _par_pair_report(q, 1, 2, base + 3 * k + 1, base, sizes).holds
