import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import RHOMBUS_ROUTES, direction_sums, random_quadruple, rhombus_sums_by_radius
from ffplane import counting, geometry
from ffplane.bounds import sweep
from ffplane.counting import (
    INT64_LIMIT,
    count_degenerate_rhom,
    count_par_all,
    count_par_t,
    count_rhom_t,
    count_unit_distances,
    n_t_profile,
    par_t_fourier,
    norm_class_sums,
    par_t_profile,
    rhombus_directions,
    rhombus_sums,
    table_products,
)
from ffplane.errors import ToleranceExceeded
from ffplane.field import PrimeFieldCtx
from ffplane.geometry import (
    DifferenceTable,
    PointSet,
    circle,
    difference_table,
    difference_tables,
    full_plane,
    gen_example_line_ap,
    gen_random_set,
    norm_classes,
)


def test_unit_distances_fixed_cases(ctx3):
    plane = full_plane(ctx3)
    assert count_unit_distances(ctx3, plane, plane, 1, "oracle").value == 36
    assert count_unit_distances(ctx3, plane, plane, 1, "fast").value == 36
    single = PointSet(3, [(1, 1)])
    assert count_unit_distances(ctx3, single, single, 1).value == 0
    origin = PointSet(3, [(0, 0)])
    assert count_unit_distances(ctx3, origin, plane, 1).value == 4


# route -> the geometry budgets that force fast n_t onto it; at q <= 13
# the defaults probe every pair.
_N_T_ROUTES = {
    "probes": {},
    "exact": {"_PROBES_PER_CELL": 0, "_EXACT_PAIRS_PER_CELL": 2**40},
    "fft": {"_PROBES_PER_CELL": 0, "_EXACT_PAIRS_PER_CELL": 0},
}


def _assert_n_t_routes_match_oracle(ctx, U, V, t):
    """Fast n_t with each route forced equals the oracle, from one request
    that takes the route; a pair with an empty set takes no probes, so it
    stays on the probe route whatever the budgets."""
    want = count_unit_distances(ctx, U, V, t, "oracle").value
    for route, budgets in _N_T_ROUTES.items():
        with pytest.MonkeyPatch.context() as mp:
            for name, value in budgets.items():
                mp.setattr(geometry, name, value)
            calls = _count_tables(mp)
            value = count_unit_distances(ctx, U, V, t, "fast").value
        taken = route if len(U) and len(V) else "probes"
        assert (route, value, calls) == (route, want, [[taken]])


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_unit_distances_methods_agree(q):
    ctx = PrimeFieldCtx(q)
    for seed in range(10):
        U = gen_random_set(ctx, 0.5, seed)
        V = gen_random_set(ctx, 0.5, seed + 100)
        for t in range(q):
            _assert_n_t_routes_match_oracle(ctx, U, V, t)


def test_unit_distances_routes_on_boundary_sets(ctx13):
    """Every ordered pair of empty, singleton, full plane, a circle, S_0
    (the isotropic lines {(a, 5a)} and {(a, -5a)}, as 5^2 = -1 mod 13) and
    one of those lines, at the radius 0, a square and a non-square."""
    line = PointSet(13, [(a, 5 * a % 13) for a in range(13)])
    sets = [PointSet(13, []), PointSet(13, [(1, 11)]), full_plane(ctx13),
            circle(ctx13, 1), circle(ctx13, 0), line]
    for t in (0, 1, 2):
        for U in sets:
            for V in sets:
                _assert_n_t_routes_match_oracle(ctx13, U, V, t)


def test_par_t_fixed_cases(ctx3):
    plane = full_plane(ctx3)
    assert count_par_t(ctx3, plane, plane, plane, plane, 1, "oracle").value == 324
    assert count_par_t(ctx3, plane, plane, plane, plane, 1, "fast").value == 324
    single = [PointSet(3, [(2, 1)])] * 4
    assert count_par_t(ctx3, *single, 1).value == 0
    assert count_par_all(ctx3, *single).value == 1
    assert count_par_all(ctx3, plane, plane, plane, plane, "oracle").value == 729
    assert count_par_all(ctx3, plane, plane, plane, plane, "fast").value == 729


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_par_methods_agree_on_random_instances(q):
    ctx = PrimeFieldCtx(q)
    for seed in range(8):
        sets = random_quadruple(ctx, seed * 977 + q, lo=0.1, hi=0.7)
        profile = par_t_profile(ctx, *sets)
        par_all_fast = count_par_all(ctx, *sets, "fast").value
        assert sum(profile.values()) == par_all_fast
        assert count_par_all(ctx, *sets, "oracle").value == par_all_fast
        for t in (1, q - 1):
            o = count_par_t(ctx, *sets, t, "oracle").value
            f = count_par_t(ctx, *sets, t, "fast").value
            assert o == f == profile[t]
            if q <= 7:
                assert count_par_t(ctx, *sets, t, "fourier").value == o


@pytest.mark.parametrize("q", [3, 5, 7])
def test_par_sum_over_t_equals_par_all(q):
    ctx = PrimeFieldCtx(q)
    for seed in range(6):
        sets = random_quadruple(ctx, seed + 31)
        total = sum(count_par_t(ctx, *sets, t, "fast").value for t in range(q))
        assert total == count_par_all(ctx, *sets, "fast").value


def test_rhom_fixed_cases(ctx3):
    plane = full_plane(ctx3)
    assert count_rhom_t(ctx3, plane, plane, plane, plane, 1, "oracle").value == 144
    assert count_rhom_t(ctx3, plane, plane, plane, plane, 1, "fast").value == 144
    assert count_degenerate_rhom(ctx3, plane, plane, plane, plane, 1).value == 36
    single = [PointSet(3, [(0, 2)])] * 4
    assert count_rhom_t(ctx3, *single, 1).value == 0
    assert count_degenerate_rhom(ctx3, *single, 1).value == 0


def test_rhom_degenerate_flag_noop_for_disjoint_middle_sets(ctx5):
    plane = full_plane(ctx5)
    e2 = PointSet(5, [(0, 0), (1, 2), (3, 3)])
    e3 = PointSet(5, [(2, 2), (4, 1)])
    with_deg = count_rhom_t(ctx5, plane, e2, e3, plane, 1).value
    without = count_rhom_t(ctx5, plane, e2, e3, plane, 1,
                           exclude_degenerate=True).value
    assert with_deg == without
    assert count_degenerate_rhom(ctx5, plane, e2, e3, plane, 1).value == 0


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_rhom_methods_and_degenerate_accounting(q):
    ctx = PrimeFieldCtx(q)
    for seed in range(6):
        sets = random_quadruple(ctx, seed * 13 + 5, lo=0.1, hi=0.6)
        for t in (1, q - 1):
            o = count_rhom_t(ctx, *sets, t, "oracle").value
            f = count_rhom_t(ctx, *sets, t, "fast").value
            assert o == f
            ex = count_rhom_t(ctx, *sets, t, "fast", exclude_degenerate=True).value
            deg = count_degenerate_rhom(ctx, *sets, t).value
            assert f - ex == deg
            assert 0 <= deg <= f


@pytest.mark.parametrize("q", [5, 7])
def test_rhom_at_most_par_for_identical_quadruples(q):
    ctx = PrimeFieldCtx(q)
    for seed in range(6):
        E = gen_random_set(ctx, 0.5, seed * 7 + 3)
        quad = [E, E, E, E]
        for t in range(1, q):
            rhom = count_rhom_t(ctx, *quad, t).value
            par = count_par_t(ctx, *quad, t).value
            assert rhom <= par


def test_fourier_split_fixed_cases(ctx3):
    plane = full_plane(ctx3)
    split = par_t_fourier(ctx3, plane, plane, plane, plane, 1)
    assert split.value == 324
    assert split.term_i == pytest.approx(243)
    assert split.term_ii == pytest.approx(81)
    empty = PointSet(3, [])
    z = par_t_fourier(ctx3, empty, empty, empty, empty, 1)
    assert z.value == 0 and abs(z.term_i) < 1e-9 and abs(z.term_ii) < 1e-9


@pytest.mark.parametrize("q", [3, 5, 7])
def test_fourier_split_invariants(q):
    ctx = PrimeFieldCtx(q)
    for seed in range(5):
        sets = random_quadruple(ctx, seed + 1)
        par_all = count_par_all(ctx, *sets, "fast").value
        term_is = []
        for t in range(1, q):
            split = par_t_fourier(ctx, *sets, t)
            assert abs(split.total - split.value) <= split.error_bound
            assert abs(split.total - (split.term_i + split.term_ii)) < 1e-6
            assert abs(split.total.imag) < 1e-6
            assert abs(split.term_i.imag) < 1e-6
            assert split.value == count_par_t(ctx, *sets, t, "fast").value
            assert split.term_i.real == pytest.approx(par_all / q, abs=1e-6)
            term_is.append(split.term_i)
        base = term_is[0]
        assert all(abs(x - base) < 1e-6 for x in term_is)


@pytest.mark.parametrize("distinct", [False, True])
def test_fourier_transforms_each_distinct_set_once(monkeypatch, capsys, distinct):
    from ffplane.cli import main
    calls = []
    original = counting.transform

    def traced(ctx, f, *args, **kwargs):
        calls.append(f)
        return original(ctx, f, *args, **kwargs)

    monkeypatch.setattr(counting, "transform", traced)
    spec = ("random:0.5:1,random:0.5:2,random:0.5:3,full" if distinct
            else "random:0.5:1")
    argv = ["count", "--q", "7", "--quantity", "par_t", "--t", "2", "--set", spec]
    values = []
    for method in ("fourier", "fast"):
        assert main(argv + ["--method", method]) == 0
        values.append(json.loads(capsys.readouterr().out)["value"])
    # The four slots plus the circle; a broadcast token is one set.
    assert len(calls) == (5 if distinct else 2)
    assert values[0] == values[1]


def test_fourier_transforms_equal_sets_once(monkeypatch, ctx7):
    """Equal sets in distinct PointSet objects are one set to the fourier
    route: two sets and the circle make three transforms."""
    calls = []
    original = counting.transform

    def traced(ctx, f, *args, **kwargs):
        calls.append(f)
        return original(ctx, f, *args, **kwargs)

    monkeypatch.setattr(counting, "transform", traced)
    a, b = gen_random_set(ctx7, 0.5, 1), gen_random_set(ctx7, 0.5, 2)
    sets = [a, b, PointSet._from_indicator(7, a.indicator.copy()),
            PointSet(7, reversed(b.elements))]
    for t in range(7):
        calls.clear()
        value = par_t_fourier(ctx7, *sets, t).value
        assert len(calls) == 3 and calls[:2] == [a, b]
        assert value == count_par_t(ctx7, *sets, t).value


def test_fourier_error_bound_refuses_full_planes_past_q37():
    # For four full planes M = Par_t = q^4 |S_t|, so the bound grows as q^5 log q.
    ctx = PrimeFieldCtx(37)
    plane = full_plane(ctx)
    split = par_t_fourier(ctx, plane, plane, plane, plane, 1)
    assert split.value == 37**4 * 36
    assert abs(split.total - split.value) <= split.error_bound < 1e-6
    ctx = PrimeFieldCtx(41)
    plane = full_plane(ctx)
    with pytest.raises(ToleranceExceeded):
        par_t_fourier(ctx, plane, plane, plane, plane, 1)


def test_mismatched_q_rejected(ctx5):
    E = PointSet(7, [(0, 0)])
    with pytest.raises(ValueError):
        count_unit_distances(ctx5, E, E, 1)


def _boundary_quadruples():
    ctx13 = PrimeFieldCtx(13)
    i = 5  # 5^2 = -1 mod 13
    line = PointSet(13, [(a, i * a % 13) for a in range(13)])
    circ = circle(ctx13, 1)
    yield ctx13, [PointSet(13, [])] * 4
    yield ctx13, [PointSet(13, [(3, 8)])] * 4
    yield ctx13, [circ] * 4
    yield ctx13, [line] * 4
    yield ctx13, [line, circ, line, circ]
    ctx7 = PrimeFieldCtx(7)
    yield ctx7, [full_plane(ctx7)] * 4


def test_fast_matches_oracle_on_boundary_sets():
    for ctx, sets in _boundary_quadruples():
        q = ctx.q
        profile = par_t_profile(ctx, *sets)
        assert count_par_all(ctx, *sets, "fast").value == \
            count_par_all(ctx, *sets, "oracle").value == sum(profile.values())
        for t in (0, 1, q - 1):
            assert count_unit_distances(ctx, *sets[:2], t, "fast").value == \
                count_unit_distances(ctx, *sets[:2], t, "oracle").value
            assert count_par_t(ctx, *sets, t, "fast").value == \
                count_par_t(ctx, *sets, t, "oracle").value == profile[t]
            assert count_rhom_t(ctx, *sets, t, "fast").value == \
                count_rhom_t(ctx, *sets, t, "oracle").value
            assert count_degenerate_rhom(ctx, *sets, t, "fast").value == \
                count_degenerate_rhom(ctx, *sets, t, "oracle").value


def test_isotropic_line_parallelograms_all_have_norm_zero():
    ctx = PrimeFieldCtx(13)
    line = PointSet(13, [(a, 5 * a % 13) for a in range(13)])
    profile = par_t_profile(ctx, *[line] * 4)
    assert profile[0] == 13**3
    assert all(profile[t] == 0 for t in range(1, 13))


def _n_t_reference(q, U, V):
    """Literal loop over U x V: {t: n_t(U, V)} for every t."""
    counts = Counter(((u1 - v1) ** 2 + (u2 - v2) ** 2) % q for u1, u2 in U for v1, v2 in V)
    return {t: counts[t] for t in range(q)}


def _isotropic_line(q):
    """{(a, i a)} with i^2 = -1, a line of norm-0 differences (q = 1 mod 4)."""
    i = next(a for a in range(q) if (a * a + 1) % q == 0)
    return PointSet(q, [(a, i * a % q) for a in range(q)])


def _assert_n_t_profile(ctx, U, V, route):
    """n_t_profile with its whole table forced onto ``route`` (_N_T_ROUTES)
    equals the literal loop, sums to |U||V| and gives fast n_t at every t."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in _N_T_ROUTES[route].items():
            mp.setattr(geometry, name, value)
        calls = _count_tables(mp)
        profile = n_t_profile(ctx, U, V)
    assert calls == [[route if len(U) and len(V) else "exact"]]
    assert profile == _n_t_reference(ctx.q, U, V)
    assert all(type(n) is int for n in profile.values())
    assert sum(profile.values()) == len(U) * len(V)
    assert profile == {t: count_unit_distances(ctx, U, V, t).value for t in range(ctx.q)}


@pytest.mark.parametrize("route", ["exact", "fft"])
@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_n_t_profile_on_boundary_sets(route, q):
    """Every pair of the empty set, a singleton, the full plane, the circles
    S_1 and S_0, and an isotropic line where q = 1 mod 4."""
    ctx = PrimeFieldCtx(q)
    sets = [PointSet(q, []), PointSet(q, [(1, q - 2)]), full_plane(ctx),
            circle(ctx, 1), circle(ctx, 0)]
    if q % 4 == 1:
        sets.append(_isotropic_line(q))
    for U in sets:
        for V in sets:
            _assert_n_t_profile(ctx, U, V, route)
    if q % 4 == 1:
        line = _isotropic_line(q)
        assert n_t_profile(ctx, line, line) == {t: q * q * (t == 0) for t in range(q)}


@pytest.mark.parametrize("route", ["exact", "fft"])
@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 5, 7, 13]).flatmap(
    lambda q: st.tuples(_boundary_or_random_set(q), _boundary_or_random_set(q))))
def test_n_t_profile_matches_literal_loop(route, pair):
    U, V = pair
    _assert_n_t_profile(PrimeFieldCtx(U.q), U, V, route)


def test_table_products_sum_in_python_ints_past_int64():
    ctx = PrimeFieldCtx(3)
    big = 3 * 2**31 + 7
    a = np.full((3, 3), big, dtype=np.int64)
    b = np.arange(1, 10, dtype=np.int64).reshape(3, 3) * big
    d12 = DifferenceTable(3, a, int(a.sum()), "fft")
    d34 = DifferenceTable(3, b, int(b.sum()), "fft")
    assert d12.total * d34.total >= INT64_LIMIT
    expected = [0] * 3
    norms = norm_classes(ctx)
    for v1 in range(3):
        for v2 in range(3):
            expected[int(norms[v1, v2])] += int(a[v1, v2]) * int(b[v1, v2])
    prod = table_products(d12, d34)
    assert int(prod.sum()) == sum(expected) >= INT64_LIMIT
    profile = norm_class_sums(ctx, prod).tolist()
    assert profile == expected
    assert all(type(v) is int for v in profile)


@pytest.mark.parametrize("q", [3, 5, 13, 29])
def test_norm_class_sums_match_literal_loop(q):
    # One table and a stack of three, as int64 and as Python ints past
    # 2^63; each sum is the literal loop over the plane's cells.
    ctx = PrimeFieldCtx(q)
    rng = np.random.default_rng(q)
    norms = norm_classes(ctx)
    stack = rng.integers(-10**6, 10**6, size=(3, q, q), dtype=np.int64)
    for values in (stack[0], stack, stack.astype(object) * 2**70, stack[1].astype(object)):
        tables = values.reshape(-1, q, q)
        want = []
        for table in tables:
            sums = [0] * q
            for v1 in range(q):
                for v2 in range(q):
                    sums[int(norms[v1, v2])] += int(table[v1, v2])
            want.append(sums)
        got = norm_class_sums(ctx, values).tolist()
        assert got == (want if values.ndim == 3 else want[0])
        flat = [v for row in got for v in row] if values.ndim == 3 else got
        assert all(type(v) is int for v in flat)
    order, starts = geometry.norm_class_order(ctx)
    assert sorted(order.tolist()) == list(range(q * q))
    assert starts[0] == 0 and all(np.diff(starts) > 0)
    assert norms.ravel()[order].tolist() == sorted(norms.ravel().tolist())


def _rhombus_direction_reference(ctx, E1, E2, E3, E4, t):
    """Literal per-direction loop: (|E12^x|, |E34^x|, rhom_x) over S_t."""
    q = ctx.q
    terms = []
    for x1, x2 in circle(ctx, t).elements:
        e12 = [u for u in E1 if ((u[0] + x1) % q, (u[1] + x2) % q) in E2]
        e34 = [v for v in E3 if ((v[0] + x1) % q, (v[1] + x2) % q) in E4]
        rhom_x = sum(1 for u in e12 for v in e34
                     if ((u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2) % q == t)
        terms.append((len(e12), len(e34), rhom_x))
    return terms


@pytest.mark.parametrize("q", [5, 7, 13])
def test_rhombus_directions_match_tables_and_literal_loop(q):
    ctx = PrimeFieldCtx(q)
    for seed in range(3):
        sets = random_quadruple(ctx, seed * 31 + q, lo=0.1, hi=0.8)
        d21 = difference_table(ctx, sets[1], sets[0])
        d43 = difference_table(ctx, sets[3], sets[2])
        by_radius = rhombus_directions(ctx, *sets, [0, 1, q - 1])
        assert list(by_radius) == [0, 1, q - 1]
        for t in (0, 1, q - 1):
            terms = by_radius[t]
            directions = circle(ctx, t).elements
            assert [a for a, _, _ in terms] == [d21.count(x) for x in directions]
            assert [b for _, b, _ in terms] == [d43.count(x) for x in directions]
            assert terms == _rhombus_direction_reference(ctx, *sets, t)


@st.composite
def _multi_radius_instances(draw):
    """q, four boundary or random sets, and unique radii that include 0.

    The sets are four draws; or paired as E2 = E1 and E4 = E3, the same
    PointSet objects or equal but distinct ones; or lopsided, four draws
    with |E2| |E4| < |E1| |E3|, which rhombus_directions computes swapped
    (on S_0 too, as the radii include 0)."""
    q = draw(st.sampled_from([5, 7, 13]))
    sets = [draw(_boundary_or_random_set(q)) for _ in range(4)]
    pairing = draw(st.sampled_from(["distinct", "shared", "copies", "lopsided"]))
    if pairing == "shared":
        sets[1], sets[3] = sets[0], sets[2]
    elif pairing == "copies":
        sets[1], sets[3] = (PointSet(q, s.elements) for s in sets[::2])
    elif pairing == "lopsided":
        if _pair_cells(sets[1::2]) > _pair_cells(sets[::2]):
            sets = [sets[1], sets[0], sets[3], sets[2]]
        assume(_pair_cells(sets[1::2]) < _pair_cells(sets[::2]))
    radii = draw(st.lists(st.integers(1, q - 1), max_size=2, unique=True))
    radii.insert(draw(st.integers(0, len(radii))), 0)
    return PrimeFieldCtx(q), sets, radii


def _pair_cells(pair) -> int:
    return len(pair[0]) * len(pair[1])


def _meet_width(sets) -> int:
    """The points one direction's meets are gathered over on the pair
    route: the larger of E1 and E3 of the pair it computes on, the smaller
    of (E1, E3) and (E2, E4) by |E1| |E3|, the first on a tie."""
    pair = sets[1::2] if _pair_cells(sets[1::2]) < _pair_cells(sets[::2]) else sets[::2]
    return max(len(pair[0]), len(pair[1]), 1)


# Budgets as {"module.name": value} overrides of ffplane's module constants,
# each as a function of the pair route's gather width (_meet_width): the
# defaults; the pair route forced, alone and with a chunk small enough to
# cut each direction's probes and the batch's rows; the pair route with
# one direction's meets per gather, three (partial last chunks), or every
# direction of every radius in one; and the bit route forced, with one
# direction's words per chunk, or with 100 words a chunk: several
# directions, or at q <= 7 several radii.
_BLOCK_BUDGETS = {
    "default": lambda width: {},
    "scalar": lambda width: {"counting._BIT_MAX_Q": 0},
    "chunked-probes": lambda width: {"counting._BIT_MAX_Q": 0, "geometry.INDEX_CHUNK": 7},
    "one-direction": lambda width: {"counting._BIT_MAX_Q": 0, "geometry.INDEX_CHUNK": width},
    "three-directions": lambda width: {"counting._BIT_MAX_Q": 0,
                                       "geometry.INDEX_CHUNK": 3 * width},
    "single-block": lambda width: {"counting._BIT_MAX_Q": 0, "geometry.INDEX_CHUNK": 2**40},
    "bits-one-direction": lambda width: {"counting._PAIRS_PER_WORD": 0,
                                         "geometry.INDEX_CHUNK": 7},
    "bits-chunked": lambda width: {"counting._PAIRS_PER_WORD": 0,
                                   "geometry.INDEX_CHUNK": 100},
}


@pytest.mark.parametrize("budget", list(_BLOCK_BUDGETS))
@settings(max_examples=20, deadline=None)
@given(_multi_radius_instances())
def test_rhombus_directions_over_radii_match_literal_loop(budget, instance):
    ctx, sets, radii = instance
    with pytest.MonkeyPatch.context() as mp:
        for name, value in _BLOCK_BUDGETS[budget](_meet_width(sets)).items():
            mp.setattr(f"ffplane.{name}", value)
        by_radius = rhombus_directions(ctx, *sets, radii)
    assert list(by_radius) == radii
    for t in radii:
        assert by_radius[t] == _rhombus_direction_reference(ctx, *sets, t)


def _spy(mp, name) -> list:
    """Record the arguments of every call of counting.name."""
    calls, real = [], getattr(counting, name)
    mp.setattr(counting, name, lambda *args: calls.append(args) or real(*args))
    return calls


def _route_spies(mp):
    """Record the pair-route and the bit-route calls."""
    return _spy(mp, "_pair_terms"), _spy(mp, "_bit_terms")


@pytest.mark.parametrize("budget", ["one-direction", "chunked-probes"])
@pytest.mark.parametrize("pairing", ["distinct", "shared", "copies"])
@pytest.mark.parametrize("q", [29, 31])
def test_small_meets_by_pairs_match_literal_loop(budget, pairing, q):
    """Sets whose meets, about 0.04 q^2 points, fall on both sides of the
    small-meet rule 4 a b <= min(a, b) |S_t| + 3072, so some directions
    are marked and probed and the rest counted in the batch of pairs."""
    ctx = PrimeFieldCtx(q)
    sets = [gen_random_set(ctx, 0.2, 5 * q + k) for k in range(4)]
    if pairing == "shared":
        sets[1], sets[3] = sets[0], sets[2]
    elif pairing == "copies":
        sets[1], sets[3] = (PointSet(q, s.elements) for s in sets[::2])
    radii = [0, 1, q - 1]
    with pytest.MonkeyPatch.context() as mp:
        for name, value in _BLOCK_BUDGETS[budget](_meet_width(sets)).items():
            mp.setattr(f"ffplane.{name}", value)
        probed, batches = _spy(mp, "_pair_count"), _spy(mp, "_small_pair_counts")
        by_radius = rhombus_directions(ctx, *sets, radii)
    computed = sum(len(circle(ctx, t)) for t in radii)
    if pairing != "distinct":
        computed = sum((len(circle(ctx, t)) + (t == 0)) // 2 for t in radii)
    assert 0 < len(probed) < computed and len(batches) == 1
    for t in radii:
        assert by_radius[t] == _rhombus_direction_reference(ctx, *sets, t)


@pytest.mark.parametrize("chunk", [1, 7, 100])
@pytest.mark.parametrize("pairing", ["distinct", "shared", "lopsided"])
def test_one_pair_batch_over_mixed_radii(chunk, pairing, ctx13):
    """One pair-route call over radii 0, 1, 2 and 12 at q = 13, whose
    circles have 25 and 12 points: the pairs of every small direction of
    every radius go in one batch, tested at two radii.  With geometry.INDEX_CHUNK
    at 1, 7 and 100 the meets' gathers cut the directions and the batch's
    chunks cut its rows.  Shared pairs compute one of each +-x, and
    lopsided sets, |E2| |E4| < |E1| |E3|, compute swapped at -x."""
    densities = (0.3, 0.2, 0.3, 0.2) if pairing == "lopsided" else (0.2, 0.3, 0.2, 0.3)
    sets = [gen_random_set(ctx13, d, 40 + k) for k, d in enumerate(densities)]
    if pairing == "shared":
        sets[1], sets[3] = sets[0], sets[2]
    assert (_pair_cells(sets[1::2]) < _pair_cells(sets[::2])) == (pairing == "lopsided")
    radii = [0, 1, 2, 12]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_BIT_MAX_Q", 0)
        mp.setattr(geometry, "INDEX_CHUNK", chunk)
        batches = _spy(mp, "_small_pair_counts")
        by_radius = rhombus_directions(ctx13, *sets, radii)
    assert len(batches) == 1
    norms, _, a, _, b, radius = batches[0]
    assert norms is geometry.tiled_norm_classes(ctx13)
    assert set(radius[a * b > 0].tolist()) == set(radii)
    assert int(a @ b) > chunk and len(a) > chunk // _meet_width(sets)
    for t in radii:
        assert by_radius[t] == _rhombus_direction_reference(ctx13, *sets, t)


def test_swapped_terms_land_at_their_own_directions(ctx13):
    """A q = 13 instance with |E2| |E4| < |E1| |E3| whose terms at x and -x
    differ: the pair route computes them on (E2, E1, E4, E3) at -x, so a
    term left at the direction it was computed at fails.  Both routes, S_0
    included; the bit route computes on (E1, E2, E3, E4)."""
    sets = [gen_random_set(ctx13, d, 130 + k) for k, d in enumerate((0.6, 0.3, 0.6, 0.3))]
    assert _pair_cells(sets[1::2]) < _pair_cells(sets[::2])
    radii = [0, 1, 2]
    for top in (0, 13):
        with pytest.MonkeyPatch.context() as mp:
            pairs, bits = _route_spies(mp)
            mp.setattr(counting, "_BIT_MAX_Q", top)
            by_radius = rhombus_directions(ctx13, *sets, radii)
        assert [bool(pairs), bool(bits)] == [top == 0, top == 13]
        for t in radii:
            directions = circle(ctx13, t).elements
            negated = [directions.index((-x1 % 13, -x2 % 13)) for x1, x2 in directions]
            terms = by_radius[t]
            assert terms == _rhombus_direction_reference(ctx13, *sets, t)
            assert terms != [terms[i] for i in negated]


@pytest.mark.parametrize("q,sets", [
    (61, lambda ctx: [gen_random_set(ctx, 0.5, k) for k in range(4)]),
    (211, lambda ctx: [gen_random_set(ctx, 0.01, 4 + k) for k in range(4)]),
    (211, lambda ctx: [gen_example_line_ap(ctx, range(3))] * 4),
], ids=["q61-random-0.5", "q211-random-0.01", "q211-line-ap-0-1-3"])
def test_count_rhom_t_inputs_stay_on_the_scalar_route(q, sets):
    """The rhom_t inputs of the count benchmark's commands take the pair
    route with the bit route off: at q = 211 that is the rule's route."""
    ctx = PrimeFieldCtx(q)
    sets = sets(ctx)
    with pytest.MonkeyPatch.context() as mp:
        pairs, bits = _route_spies(mp)
        if q <= counting._BIT_MAX_Q:
            mp.setattr(counting, "_BIT_MAX_Q", 0)
        rhombus_directions(ctx, *sets, [1])
    assert pairs and not bits


@pytest.mark.parametrize("q,density,route", [
    (13, 0.01, "bits"), (13, 1.0, "bits"), (31, 0.1, "probes"), (31, 0.2, "bits"),
    (61, 0.05, "probes"), (61, 0.5, "bits"), (61, 1.0, "bits"), (67, 0.5, "probes"),
])
def test_rule_takes_the_measured_route(q, density, route):
    """The route of one call at t = 1 on four distinct sets, at points of
    the crossover table: every q = 13 call and dense sets up to q = 61 take
    the bits, sparse sets the pair route ("probes"), and q > 61 never the
    bits."""
    ctx = PrimeFieldCtx(q)
    sets = [gen_random_set(ctx, density, 4 * q + k) for k in range(4)]
    with pytest.MonkeyPatch.context() as mp:
        pairs, bits = _route_spies(mp)
        by_radius = rhombus_directions(ctx, *sets, [1])
    assert [bool(bits), bool(pairs)] == [route == "bits", route == "probes"]
    if q < 64 and density < 1:
        with pytest.MonkeyPatch.context() as mp:
            if route == "bits":
                mp.setattr(counting, "_BIT_MAX_Q", 0)
            else:
                mp.setattr(counting, "_PAIRS_PER_WORD", 0)
            assert rhombus_directions(ctx, *sets, [1]) == by_radius


def test_benchmark_rhombus_calls_keep_the_bits():
    """Every q = 13 call takes the bits: the rule holds at |E1| |E3| = 0
    on the widest circle (S_0, 25 points; 4 words a translate), so it
    holds on any sets and radii.  The quads of 21 drawn bounds trials and
    three of empty sets are seen to take them, each sweep's in one stacked
    call, and so do count's dense q = 61 rhom_t commands."""
    ctx13, ctx61 = PrimeFieldCtx(13), PrimeFieldCtx(61)
    widest = max(len(circle(ctx13, t)) for t in range(13))
    words = len(geometry.word_layout(ctx13)[0])
    assert counting._PAIRS_PER_WORD * widest * words <= counting._PAIRS_PER_DIRECTION
    with pytest.MonkeyPatch.context() as mp:
        pairs, bits = _route_spies(mp)
        for density, trials in ((None, 21), (0.0, 3)):
            sweep(ctx13, ["rhom-vs-par", "rhom-lower"], trials, density, 3, all_t=True)
        for seed in range(3):
            count_rhom_t(ctx61, *[gen_random_set(ctx61, 0.5, 8 * seed + k) for k in range(4)], 1)
    assert not pairs and [len(quads) for _, quads, *_ in bits] == [21, 3, 1, 1, 1]


def _sums_blocks(ctx):
    """Two stacks of quads, each quad with its own radii, and whether each
    quad takes the bits with _PAIRS_PER_DIRECTION at 0, where a quad takes
    them once |E1| |E3| reaches 32 |S_t| L: dense distinct and paired
    quads, empty and full planes, sparse distinct and paired quads, an
    unreduced radius and an empty list of radii.  At q = 13 and 31 a dense
    quad at radii 0 and 1 sits between two quads on the pairs, so the
    first stack's bit rows have two circle sizes, interleaved with pair
    rows.  The second stack's quads on the bits are all paired, so they
    compute one of each +-x."""
    q = ctx.q
    dense = [gen_random_set(ctx, 0.6, 7 * q + k) for k in range(4)]
    sparse = [gen_random_set(ctx, 0.05 if q > 5 else 0.15, 9 * q + k) for k in range(4)]
    empty, plane = PointSet(q, []), full_plane(ctx)
    every = list(range(1, q)) if q < 61 else list(range(1, 9))
    mixed = [(dense, [1, 2, q - 1], True), (sparse, [0, 1], False),
             (dense[:1] * 2 + dense[1:2] * 2, every, True), ([plane] * 4, [1, q + 1], True),
             ([empty] * 4, [1], False), (sparse[:1] * 2 + sparse[1:2] * 2, [2, 1], False),
             (dense[::-1], [], True), (dense[1:] + sparse[:1], [q - 1, 0, 3 % q], None)]
    paired = [mixed[k] for k in (2, 3, 5, 4)]
    if q in (13, 31):
        mixed.insert(5, (dense[2:] + dense[:2], [0, 1], True))
    return mixed, paired


@pytest.mark.parametrize("chunk", [1, 7, 100, None])
@pytest.mark.parametrize("q", [5, 13, 31, 61])
def test_rhombus_sums_match_per_quad_directions(q, chunk):
    """Each quad's rhombus_sums, from one stacked call over quads on both
    routes, equal the sums of its own rhombus_directions terms at every
    radius, the roots added one at a time in circle order, bit for bit.
    The bits take one pass per circle size among the bit rows, each over
    the whole stack of quads the rule sends to them, and together the
    passes write every bit row once, each at its own quad and reduced
    radius.  geometry.INDEX_CHUNK at 1, 7, 100 and its default cuts the
    chunks across directions, radii and (at q = 13 and 5) quads."""
    ctx = PrimeFieldCtx(q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_PAIRS_PER_DIRECTION", 0)
        if chunk is not None:
            mp.setattr(geometry, "INDEX_CHUNK", chunk)
        for block in _sums_blocks(ctx):
            quads = [quad for quad, _, _ in block]
            radii = [r for _, r, _ in block]
            with pytest.MonkeyPatch.context() as spies:
                pairs, bits = _route_spies(spies)
                sums = rhombus_sums_by_radius(rhombus_sums(ctx, quads, radii), radii)
            on_bits = [quad for quad, rs, rule in block if rs and
                       counting._takes_bits(ctx, *quad, [circle(ctx, t).points for t in rs])]
            assert [rule for _, rs, rule in block if rs and rule is not None] == \
                [any(quad is b for b in on_bits) for quad, rs, rule in block
                 if rs and rule is not None]
            # Each row's quad and reduced radius, rows quad-major.
            rows = [(quad, t % q) for quad, rs, _ in block for t in rs]
            bit_rows = [row for row, (quad, _) in enumerate(rows) if quad in on_bits]
            assert len(bits) == len({len(circle(ctx, rows[row][1])) for row in bit_rows})
            for _, stack, triples, *_ in bits:
                assert stack == on_bits
                assert len({len(circle(ctx, t)) for _, t, _ in triples}) == 1
                assert all(rows[row] == (stack[i], t) for i, t, row in triples)
            assert sorted(row for args in bits for _, _, row in args[2]) == bit_rows
            assert len(pairs) == sum(1 for quad, rs, _ in block if rs and quad not in on_bits)
            for quad, rs, by_radius in zip(quads, radii, sums):
                assert list(by_radius) == rs
                terms = rhombus_directions(ctx, *quad, rs)
                for t in rs:
                    assert by_radius[t] == direction_sums(terms[t]), (t, len(rs))


def test_bit_stack_tiles_its_sets_once(monkeypatch):
    """A stack on the bits asked for S_0 beside the other radii takes one
    _bit_terms pass per circle size, all on one word_tiling of its sets,
    and its terms are those of one radius alone."""
    ctx = PrimeFieldCtx(13)
    quads = [[gen_random_set(ctx, 0.3, 4 * j + k) for k in range(4)] for j in range(3)]
    radii = list(range(13))
    calls, passes = [], _spy(monkeypatch, "_bit_terms")
    real = counting.word_tiling
    monkeypatch.setattr(counting, "word_tiling",
                        lambda arrs: calls.append(len(arrs)) or real(arrs))
    terms, sizes = counting._rhombus_terms(ctx, quads, [radii] * 3)
    assert calls == [12] and len(passes) == 2
    for j, quad in enumerate(quads):
        for t in radii:
            alone, (n,) = counting._rhombus_terms(ctx, [quad], [[t]])
            row = len(radii) * j + t
            assert sizes[row] == n
            assert np.array_equal(terms[:, row, :n], alone[:, 0, :n])
    assert len(calls) == 1 + 3 * 13


def test_rhombus_sums_add_roots_in_circle_order():
    """The roots of a row are added in circle order: at q = 61 over 60
    directions the sequential sum differs, on some radius, from NumPy's
    pairwise sum or from the exact sum rounded once, and rhombus_sums
    gives the sequential one."""
    ctx = PrimeFieldCtx(61)
    quad = [gen_random_set(ctx, 0.5, 61 + k) for k in range(4)]
    radii = list(range(1, 61))
    sums = rhombus_sums_by_radius(rhombus_sums(ctx, [quad], [radii]), [radii])[0]
    other = 0
    for t in radii:
        _, _, root, prods = sums[t]
        sequential = 0.0
        for p in prods:
            sequential += math.sqrt(p)
        assert root == sequential
        roots = np.sqrt(np.array(prods, dtype=float))
        other += root != float(roots.sum()) or root != math.fsum(roots)
    assert other


def _bit_gathers(mp) -> list:
    """Record the size of every gather from the bit route's word tiling."""
    sizes = []

    class Gathers(np.ndarray):
        def take(self, indices, *args, **kwargs):
            sizes.append(np.size(indices))
            return np.asarray(self).take(indices, *args, **kwargs)

    real = counting.word_tiling
    mp.setattr(counting, "word_tiling", lambda arrs: real(arrs).view(Gathers))
    return sizes


@pytest.mark.parametrize("chunk", [1, 100, 1000, None])
@pytest.mark.parametrize("q,trials,radii", [
    (13, 21, None), (7, 3, [0, 1, 3]), (31, 2, None), (61, 1, [1, 2, 3, 30])])
def test_bit_gathers_stay_within_the_chunk_budget(q, trials, radii, chunk):
    """No index array of a bit-route gather, and so no gathered word
    array, which takes its index's shape, passes geometry.INDEX_CHUNK // 4
    words, or one direction's words where that is more: its |S_t| L words
    of hits, or the 2 L of its meets (S_0 at q = 7 is one point).  The
    chunks leave the sums as they are at the default chunk."""
    ctx = PrimeFieldCtx(q)
    quads = [[gen_random_set(ctx, 0.5, 4 * j + k) for k in range(4)] for j in range(trials)]
    radii = radii or list(range(1, q))
    words = len(geometry.word_layout(ctx)[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_PAIRS_PER_WORD", 0)
        want = rhombus_sums_by_radius(rhombus_sums(ctx, quads, [radii] * trials),
                                      [radii] * trials)
        if chunk is not None:
            mp.setattr(geometry, "INDEX_CHUNK", chunk)
        sizes = _bit_gathers(mp)
        sums = rhombus_sums_by_radius(rhombus_sums(ctx, quads, [radii] * trials),
                                      [radii] * trials)
        bound = max(geometry.INDEX_CHUNK // 4,
                    max(max(len(circle(ctx, t)), 2) for t in radii) * words)
    assert sizes and max(sizes) <= bound
    assert sums == want


@pytest.mark.parametrize("sets,value", [
    (lambda ctx: [gen_random_set(ctx, 0.01, 28 + k) for k in range(4)], 14),
    (lambda ctx: [gen_example_line_ap(ctx, range(3))] * 4, 10128),
    (lambda ctx: [gen_example_line_ap(ctx, range(3)) for _ in range(4)], 10128),
], ids=["random-0.01-28-31", "line-ap-0-1-3", "line-ap-0-1-3-copies"])
def test_rhom_t_at_q211_keeps_its_values(sets, value):
    """Values of the benchmark's sparse q = 211 rhom_t commands, recorded
    before the pairs batch and the +-x reuse."""
    ctx = PrimeFieldCtx(211)
    assert count_rhom_t(ctx, *sets(ctx), 1).value == value


@pytest.mark.parametrize("chunk", [1, 7, 100])
@pytest.mark.parametrize("q", [3, 5, 13])
def test_probe_chunking_does_not_change_counts(monkeypatch, q, chunk):
    ctx = PrimeFieldCtx(q)
    sets = random_quadruple(ctx, 4 * q + 1, lo=0.3, hi=0.9)
    monkeypatch.setattr(geometry, "INDEX_CHUNK", chunk)
    for t in (0, 1, q - 1):
        assert count_unit_distances(ctx, *sets[:2], t, "fast").value == \
            count_unit_distances(ctx, *sets[:2], t, "oracle").value
        assert count_rhom_t(ctx, *sets, t, "fast").value == \
            count_rhom_t(ctx, *sets, t, "oracle").value
        assert count_degenerate_rhom(ctx, *sets, t, "fast").value == \
            count_degenerate_rhom(ctx, *sets, t, "oracle").value


def test_rhombus_directions_reuse_each_circles_points(monkeypatch, ctx13):
    # Once the circles of radii 1..12 are cached with their point lists, a
    # call on new sets builds no point list on the bit route (the default
    # at q = 13), and those of E1 and E3 only on the pair route.
    radii = list(range(1, 13))
    rhombus_directions(ctx13, *random_quadruple(ctx13, 1, lo=0.2, hi=0.5), radii)
    tiled_points = geometry.tiled_points
    for seed, top in ((2, counting._BIT_MAX_Q), (3, 0)):
        sets = random_quadruple(ctx13, seed, lo=0.2, hi=0.5)
        built = []

        def spy(ind):
            built.append(ind)
            return tiled_points(ind)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "_BIT_MAX_Q", top)
            mp.setattr(geometry, "tiled_points", spy)
            mp.setattr(counting, "tiled_points", spy)
            by_radius = rhombus_directions(ctx13, *sets, radii)
        assert [id(ind) for ind in built] == \
            ([] if top else [id(sets[0].indicator), id(sets[2].indicator)])
        for t in radii:
            assert by_radius[t] == _rhombus_direction_reference(ctx13, *sets, t)


@pytest.mark.parametrize("route", RHOMBUS_ROUTES)
def test_repeated_paired_call_reads_the_cached_pairing(route, ctx13):
    # A paired (A, A, B, B) call reads each radius's +-x pairing from
    # geometry's cache: repeated, every radius is a hit and none a miss.
    A, B = random_quadruple(ctx13, 4, lo=0.2, hi=0.5)[:2]
    radii = list(range(13))
    with pytest.MonkeyPatch.context() as mp:
        for name, value in RHOMBUS_ROUTES[route].items():
            mp.setattr(counting, name, value)
        first = rhombus_directions(ctx13, A, A, B, B, radii)
        before = geometry.mirrored_directions.cache_info()
        again = rhombus_directions(ctx13, A, A, B, B, radii)
        after = geometry.mirrored_directions.cache_info()
    assert again == first
    assert (after.hits - before.hits, after.misses) == (len(radii), before.misses)
    for t in radii:
        assert first[t] == _rhombus_direction_reference(ctx13, A, A, B, B, t)


@pytest.mark.parametrize("route", RHOMBUS_ROUTES)
def test_unreduced_radii_share_one_circle_and_pairing(route, ctx13):
    # Radii 1 and q + 1 name one circle: a paired call over both reduces
    # each once, gives equal terms under the caller's keys, and adds one
    # circle and one pairing to geometry's caches.
    A, B = random_quadruple(ctx13, 5, lo=0.2, hi=0.5)[:2]
    geometry.circle.cache_clear()
    geometry.mirrored_directions.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        for name, value in RHOMBUS_ROUTES[route].items():
            mp.setattr(counting, name, value)
        by_radius = rhombus_directions(ctx13, A, A, B, B, [1, 14])
    assert list(by_radius) == [1, 14]
    assert by_radius[1] == by_radius[14] == _rhombus_direction_reference(ctx13, A, A, B, B, 1)
    assert geometry.circle.cache_info().currsize == 1
    assert geometry.mirrored_directions.cache_info().currsize == 1


@pytest.mark.parametrize("route", RHOMBUS_ROUTES)
def test_one_row_per_radius_asked_for(route, ctx13):
    # _rhombus_terms and rhombus_sums give a row per radius asked for, in
    # the order given, quad after quad: a repeated and an unreduced radius
    # of one circle (1, 14 and 1 at q = 13) give equal rows, on a paired
    # and a distinct quad, and rhombus_directions keys its lists by the
    # radii as given.
    A, B, C, D = random_quadruple(ctx13, 6, lo=0.2, hi=0.5)
    quads = [(A, A, B, B), (A, B, C, D)]
    radii = [[1, 14, 1], [2, 1, 15, 14]]
    with pytest.MonkeyPatch.context() as mp:
        for name, value in RHOMBUS_ROUTES[route].items():
            mp.setattr(counting, name, value)
        terms, sizes = counting._rhombus_terms(ctx13, quads, radii)
        rhom, par, roots, prods, widths = rhombus_sums(ctx13, quads, radii)
        by_radius = [rhombus_directions(ctx13, *quad, rs) for quad, rs in zip(quads, radii)]
    rows = [(quad, t % 13) for quad, rs in zip(quads, radii) for t in rs]
    assert len(terms[0]) == len(rows) == 7
    assert sizes == widths == [len(circle(ctx13, t)) for _, t in rows]
    for row, (quad, t) in enumerate(rows):
        want = _rhombus_direction_reference(ctx13, *quad, t)
        n = sizes[row]
        assert list(map(tuple, terms[:, row, :n].T.tolist())) == want
        assert not terms[:, row, n:].any()
        assert (rhom[row], par[row], roots[row], prods[row, :n].tolist()) == direction_sums(want)
    assert [list(d) for d in by_radius] == [[1, 14], [2, 1, 15, 14]]
    for d, quad in zip(by_radius, quads):
        for t, terms_t in d.items():
            assert terms_t == _rhombus_direction_reference(ctx13, *quad, t % 13)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_oracle_excludes_degenerate_tuples_in_its_own_loop(monkeypatch, q):
    ctx = PrimeFieldCtx(q)
    calls = []
    fast = counting.count_degenerate_rhom
    monkeypatch.setattr(counting, "count_degenerate_rhom",
                        lambda *args: calls.append(args) or fast(*args))
    quadruples = [random_quadruple(ctx, 17 * seed + q, lo=0.2, hi=0.9)
                  for seed in range(3)] + [[full_plane(ctx)] * 4]
    for sets in quadruples:
        for t in range(q):
            rhom = count_rhom_t(ctx, *sets, t, "oracle").value
            assert count_rhom_t(ctx, *sets, t, "oracle",
                                exclude_degenerate=True).value == \
                rhom - count_degenerate_rhom(ctx, *sets, t, "oracle").value
    assert calls == []


def _boundary_or_random_set(q):
    ctx = PrimeFieldCtx(q)
    fixed = [PointSet(q, []), PointSet(q, [(1, q - 2)]), full_plane(ctx),
             circle(ctx, 1)]
    if q == 13:
        fixed.append(PointSet(13, [(a, 5 * a % 13) for a in range(13)]))
    random_sets = st.builds(lambda d, seed: gen_random_set(ctx, d, seed),
                            st.floats(0.0, 0.6), st.integers(0, 2**32))
    return st.one_of(st.sampled_from(fixed), random_sets)


@st.composite
def _rhombus_instances(draw):
    q = draw(st.sampled_from([5, 7, 13]))
    sets = [draw(_boundary_or_random_set(q)) for _ in range(4)]
    return PrimeFieldCtx(q), sets, draw(st.integers(0, q - 1))


@settings(max_examples=40, deadline=None)
@given(_rhombus_instances())
def test_rhombus_layer_fast_matches_oracle(instance):
    ctx, sets, t = instance
    assert count_unit_distances(ctx, *sets[:2], t, "fast").value == \
        count_unit_distances(ctx, *sets[:2], t, "oracle").value
    rhom = count_rhom_t(ctx, *sets, t, "oracle").value
    deg = count_degenerate_rhom(ctx, *sets, t, "oracle").value
    assert count_rhom_t(ctx, *sets, t, "fast").value == rhom
    assert count_rhom_t(ctx, *sets, t, "fast",
                        exclude_degenerate=True).value == rhom - deg
    assert count_degenerate_rhom(ctx, *sets, t).value == deg


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13]).flatmap(lambda q: st.tuples(
    st.just(PrimeFieldCtx(q)), st.lists(_boundary_or_random_set(q), min_size=4, max_size=4),
    st.integers(0, q - 1))))
def test_bit_route_matches_oracle(instance):
    """rhom_t on the bit route, forced, against the oracle at q <= 13, with
    and without the degenerate tuples, on boundary and random sets."""
    ctx, sets, t = instance
    rhom = count_rhom_t(ctx, *sets, t, "oracle").value
    deg = count_degenerate_rhom(ctx, *sets, t, "oracle").value
    with pytest.MonkeyPatch.context() as mp:
        pairs, bits = _route_spies(mp)
        mp.setattr(counting, "_PAIRS_PER_WORD", 0)
        assert count_rhom_t(ctx, *sets, t).value == rhom
        assert count_rhom_t(ctx, *sets, t, exclude_degenerate=True).value == rhom - deg
    assert len(bits) == 2 and not pairs


def _isotropic_line(q: int) -> PointSet:
    """{(a, i a)} with i^2 = -1 mod q, for q = 1 mod 4."""
    i = next(i for i in range(q) if (i * i + 1) % q == 0)
    return PointSet(q, [(a, i * a % q) for a in range(q)])


@pytest.mark.parametrize("q", [31, 61, 101])
def test_rhombus_routes_agree_on_boundary_sets(q):
    """The bits (q <= 61) and the pair route give equal terms at q in {31,
    61, 101} on the empty set, a singleton, the full plane, a circle and,
    at q = 1 mod 4, an isotropic line: each in all four slots, the four
    side by side, and two mixed quadruples, at radii 0, 1 and q - 1; each
    route is seen to run.  Full planes check against Rhom_t = q^2 |S_t|^2,
    and quadruples with no full plane as E1 or E3 against the literal
    loop."""
    ctx = PrimeFieldCtx(q)
    plane = full_plane(ctx)
    fixed = [PointSet(q, []), PointSet(q, [(1, q - 2)]), plane, circle(ctx, 1)]
    if q % 4 == 1:
        fixed.append(_isotropic_line(q))
    quads = [[s] * 4 for s in fixed] + [fixed[:4], fixed[1:5] if q % 4 == 1 else fixed[::-1],
                                        [fixed[3], plane, fixed[-1], plane]]
    radii = [0, 1, q - 1]
    routes = RHOMBUS_ROUTES if q <= counting._BIT_MAX_Q else {"probes": RHOMBUS_ROUTES["probes"]}
    for sets in quads:
        by_route = {}
        for route, constants in routes.items():
            with pytest.MonkeyPatch.context() as mp:
                for name, value in constants.items():
                    mp.setattr(counting, name, value)
                pairs, bits = _route_spies(mp)
                by_route[route] = rhombus_directions(ctx, *sets, radii)
            assert [bool(bits), bool(pairs)] == [route == "bits", route == "probes"]
        terms = by_route["probes"]
        assert all(other == terms for other in by_route.values()), sets
        if all(s is plane for s in sets):
            for t in radii:
                size = len(circle(ctx, t))
                assert sum(r for _, _, r in terms[t]) == q**2 * size**2
        elif plane not in sets[::2]:
            for t in radii:
                assert terms[t] == _rhombus_direction_reference(ctx, *sets, t)


def test_pair_batch_reads_uint16_norms_past_q_256():
    """At q = 257 the tiled norm classes need uint16.  On the strip of the
    first 40 points of the x-axis, radius 256 = -1 = 16^2 holds the
    directions (+-16, 0) and the pairs 16 apart, so the batch compares
    classes past 255.  Radii 1, 100 and 256 against the literal loop, on
    the strip in all four slots and beside its translate by (1, 0)."""
    ctx = PrimeFieldCtx(257)
    line = PointSet(257, [(a, 0) for a in range(40)])
    shifted = PointSet(257, [(a + 1, 0) for a in range(40)])
    radii = [1, 100, 256]
    for sets in ([line] * 4, [line, shifted, line, line]):
        by_radius = rhombus_directions(ctx, *sets, radii)
        assert any(r for _, _, r in by_radius[256])
        for t in radii:
            assert by_radius[t] == _rhombus_direction_reference(ctx, *sets, t)


def _small_set(q):
    """Boundary or random sets small enough for the par_t oracle at q = 13."""
    ctx = PrimeFieldCtx(q)
    fixed = [PointSet(q, []), PointSet(q, [(1, q - 2)]), circle(ctx, 1)]
    if q == 13:
        fixed.append(PointSet(13, [(a, 5 * a % 13) for a in range(13)]))
    else:
        fixed.append(full_plane(ctx))
    random_sets = st.builds(lambda d, seed: gen_random_set(ctx, d, seed),
                            st.floats(0.0, 0.25 if q == 13 else 0.6),
                            st.integers(0, 2**32))
    return st.one_of(st.sampled_from(fixed), random_sets)


@st.composite
def _equal_pair_instances(draw):
    """(E1, E2) and an equal (E3, E4): the same objects or equal copies."""
    q = draw(st.sampled_from([5, 7, 13]))
    e1, e2 = draw(_small_set(q)), draw(_small_set(q))
    if draw(st.booleans()):
        e3, e4 = e1, e2
    else:
        e3 = PointSet._from_indicator(q, e1.indicator.copy())
        e4 = PointSet(q, reversed(e2.elements))
    return PrimeFieldCtx(q), [e1, e2, e3, e4], draw(st.integers(0, q - 1))


def _count_tables(mp):
    """Record, per request that counting makes through difference_table or
    difference_tables, the routes of the tables it gets."""
    calls = []

    def counted(*args):
        tables = difference_tables(*args)
        calls.append([table.route for table in tables])
        return tables

    def counted_one(ctx, A, B, on=None):
        return counted(ctx, [(A, B)], on)[0]

    mp.setattr(counting, "difference_tables", counted)
    mp.setattr(counting, "difference_table", counted_one)
    return calls


# geometry._PROBES_PER_CELL values that force each route of par_t's tables:
# every pair is counted on the circle by probes, or every one in full.
_PAR_T_ROUTES = {"probes": 10**9, "tables": -1}


@settings(max_examples=30, deadline=None)
@given(_equal_pair_instances())
def test_equal_pairs_share_one_difference_table(instance):
    ctx, sets, t = instance
    par_t = count_par_t(ctx, *sets, t, "oracle").value
    par = count_par_all(ctx, *sets, "oracle").value
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_tables(mp)
        assert count_par_t(ctx, *sets, t, "fast").value == par_t
        assert count_par_all(ctx, *sets, "fast").value == par
        profile = par_t_profile(ctx, *sets)
    assert profile[t] == par_t and sum(profile.values()) == par
    # One request per counter, each for the one table of the equal pairs;
    # at q <= 13, par_t's is counted on the circle by probes.
    assert [len(routes) for routes in calls] == [1, 1, 1]
    assert calls[0] == ["probes"] and "probes" not in calls[1] + calls[2]


@st.composite
def _par_t_instances(draw):
    """Four sets drawn apart, or one set broadcast to the four slots."""
    q = draw(st.sampled_from([3, 5, 7, 13]))
    if draw(st.booleans()):
        sets = [draw(_small_set(q)) for _ in range(4)]
    else:
        sets = [draw(_small_set(q))] * 4
    return PrimeFieldCtx(q), sets, draw(st.integers(0, q - 1))


def _par_t_by_route(ctx, sets, t, route):
    """count_par_t's fast value with the route forced, and the route taken."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_PROBES_PER_CELL", _PAR_T_ROUTES[route])
        calls = _count_tables(mp)
        value = count_par_t(ctx, *sets, t, "fast").value
    assert len(calls) == 1
    taken = {"probes" if r == "probes" else "tables" for r in calls[0]}
    assert len(taken) == 1
    return value, taken.pop()


@settings(max_examples=40, deadline=None)
@given(_par_t_instances())
def test_par_t_routes_match_oracle(instance):
    ctx, sets, t = instance
    par_t = count_par_t(ctx, *sets, t, "oracle").value
    for route in _PAR_T_ROUTES:
        assert _par_t_by_route(ctx, sets, t, route) == (par_t, route)


def _literal_differences(q, A, B):
    """{v: D(v)} over A x B by a literal loop."""
    table = {}
    for a in A:
        for b in B:
            v = ((a[0] - b[0]) % q, (a[1] - b[1]) % q)
            table[v] = table.get(v, 0) + 1
    return table


def test_par_t_routes_on_boundary_sets(ctx13):
    """Every 4-tuple of empty, singleton, full plane, a circle and the
    isotropic line {(a, 5a)}, at the radius 0 (isotropic), a square and a
    non-square; the reference sums literal difference counts on S_t."""
    sets = [PointSet(13, []), PointSet(13, [(1, 11)]), full_plane(ctx13),
            circle(ctx13, 1), PointSet(13, [(a, 5 * a % 13) for a in range(13)])]
    diffs = {(i, j): _literal_differences(13, a, b)
             for i, a in enumerate(sets) for j, b in enumerate(sets)}
    for t in (0, 1, 2):
        on_circle = circle(ctx13, t).elements
        for i1, i2, i3, i4 in np.ndindex(5, 5, 5, 5):
            d12, d34 = diffs[i1, i2], diffs[i3, i4]
            expected = sum(d12.get(v, 0) * d34.get(v, 0) for v in on_circle)
            quad = [sets[i] for i in (i1, i2, i3, i4)]
            for route in _PAR_T_ROUTES:
                assert _par_t_by_route(ctx13, quad, t, route) == (expected, route)


@pytest.mark.parametrize("per_cell", [None, 0, 1, 3])
def test_probe_route_is_taken_per_pair_up_to_its_probe_count(monkeypatch, ctx7, per_cell):
    if per_cell is not None:
        monkeypatch.setattr(geometry, "_PROBES_PER_CELL", per_cell)
    limit = geometry._PROBES_PER_CELL * 7 * 7
    plane = full_plane(ctx7)
    on_circle = len(circle(ctx7, 1))
    for k in range(50):
        part = PointSet(7, plane.elements[:k])
        for sets in ([plane, part, plane, part], [part, plane, part, part],
                     [plane, plane, part, plane], [part] * 4):
            pairs = [sets[:2]] if sets[2:] == sets[:2] else [sets[:2], sets[2:]]
            with pytest.MonkeyPatch.context() as mp:
                calls = _count_tables(mp)
                value = count_par_t(ctx7, *sets, 1).value
            assert value == par_t_profile(ctx7, *sets)[1]
            assert len(calls) == 1
            assert [r == "probes" for r in calls[0]] == [
                on_circle * min(len(a), len(b)) <= limit for a, b in pairs]


def _product_bound(ctx, E1, E2, E3, E4) -> int:
    """table_products' bound on a sum of products, min(max D12 |E3||E4|,
    max D34 |E1||E2|), from the literal difference counts."""
    q = ctx.q

    def most(A, B):
        return max(Counter(((a1 - b1) % q, (a2 - b2) % q) for a1, a2 in A for b1, b2 in B)
                   .values(), default=0)

    return min(most(E1, E2) * len(E3) * len(E4), most(E3, E4) * len(E1) * len(E2))


def test_block_profiles_are_each_instances_profile(monkeypatch):
    """par_and_n_t_profiles gives each quad's par_t_profile and the n_t
    profile of its (E1, E2), also when a pair is shared within a quad or
    between quads and requested once, and where only one quad's products
    reach INT64_LIMIT: then the whole stack sums in Python ints."""
    ctx = PrimeFieldCtx(13)
    quads = [tuple(random_quadruple(ctx, seed, lo=0.05, hi=0.9)) for seed in range(6)]
    quads.append((quads[0][0],) * 4)
    want = [(par_t_profile(ctx, *quad), n_t_profile(ctx, *quad[:2])) for quad in quads]
    bounds = [_product_bound(ctx, *quad) for quad in quads]
    assert bounds.count(max(bounds)) == 1
    lower = bounds.index(min(bounds))
    quads.append(quads[lower][2:] + quads[lower][:2])
    want.append((par_t_profile(ctx, *quads[-1]), n_t_profile(ctx, *quads[-1][:2])))
    bounds.append(bounds[lower])
    assert _profile_dicts(*counting.par_and_n_t_profiles(ctx, quads)) == want
    monkeypatch.setattr(counting, "INT64_LIMIT", max(bounds))
    products = counting._products(ctx, quads)
    assert [p.dtype == object for p in products] == [b == max(bounds) for b in bounds]
    profiles = counting.par_and_n_t_profiles(ctx, quads)
    assert _profile_dicts(*profiles) == want
    assert all(type(v) is int for array in profiles for v in array.ravel())
    # A table alone bins to Python ints too.
    big = bounds.index(max(bounds))
    profile = par_t_profile(ctx, *quads[big])
    assert profile == want[big][0] and all(type(v) is int for v in profile.values())


def _profile_dicts(par, n_t) -> list:
    """par_and_n_t_profiles' arrays as (par_t_profile, n_t_profile) pairs."""
    return [(dict(enumerate(p)), dict(enumerate(n))) for p, n in zip(par.tolist(), n_t.tolist())]


@pytest.mark.parametrize("route", _PAR_T_ROUTES)
def test_par_t_sums_in_python_ints_past_int64_limit(monkeypatch, route):
    """With INT64_LIMIT lowered to 0 every par_t sum takes the Python-int
    path on either route, and still matches the oracle."""
    monkeypatch.setattr(counting, "INT64_LIMIT", 0)
    monkeypatch.setattr(geometry, "_PROBES_PER_CELL", _PAR_T_ROUTES[route])
    products = counting.table_products
    dtypes = []

    def spy(d12, d34):
        prod = products(d12, d34)
        dtypes.append(prod.dtype)
        return prod

    monkeypatch.setattr(counting, "table_products", spy)
    for q in (5, 7, 13):
        ctx = PrimeFieldCtx(q)
        quad = random_quadruple(ctx, q, lo=0.1, hi=0.3)
        for sets in (quad, [quad[0]] * 4):
            for t in (0, 1, q - 1):
                dtypes.clear()
                value = count_par_t(ctx, *sets, t, "fast").value
                assert value == count_par_t(ctx, *sets, t, "oracle").value
                assert dtypes == [np.dtype(object)]


def test_unequal_pairs_build_two_difference_tables(monkeypatch, ctx7):
    """Both tables come from one request, on the circle for par_t and whole
    for par, whichever slots the sets take."""
    a, b = gen_random_set(ctx7, 0.5, 1), gen_random_set(ctx7, 0.5, 2)
    calls = _count_tables(monkeypatch)
    for sets in ([a, b, b, a], [a, b, a, a], [a, a, a, b]):
        for count, radius in ((count_par_t, (3,)), (count_par_all, ())):
            calls.clear()
            value = count(ctx7, *sets, *radius).value
            assert value == count(ctx7, *sets, *radius, "oracle").value
            assert [len(routes) for routes in calls] == [2]


@pytest.mark.parametrize("q", [211, 401])
def test_plane_times_random_set_matches_product_identities(monkeypatch, q):
    """With F the full plane, D_FF = q^2 everywhere, so Par(F, F, R, R) =
    q^2 |R|^2 and Par_t(F, F, R, R) = q^2 n_t(R, R).  At these q both
    pairs are past the probe and exact budgets, so each count's one
    request takes both tables by FFT, stacked.  n_t(R, R) alone would read
    the same FFT table D_RR on S_t; it is probed instead, so the identity
    compares two routes."""
    ctx = PrimeFieldCtx(q)
    F, R = full_plane(ctx), gen_random_set(ctx, 0.5, 1)
    calls = _count_tables(monkeypatch)
    assert count_par_all(ctx, F, F, R, R).value == q**2 * len(R) ** 2
    par_t = count_par_t(ctx, F, F, R, R, 1).value
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_PROBES_PER_CELL", 10**9)
        n_t = count_unit_distances(ctx, R, R, 1).value
    assert par_t == q**2 * n_t
    assert calls == [["fft", "fft"]] * 2 + [["probes"]]


def test_full_plane_closed_forms_at_q211(monkeypatch):
    """n_t = q^2 |S_t|, Par_t = q^4 |S_t| and Par = q^6 on the full plane;
    the four slots share one table, and each count's one request probes
    it on S_0 = {0} and takes it by FFT otherwise."""
    q = 211
    ctx = PrimeFieldCtx(q)
    F = full_plane(ctx)
    calls = _count_tables(monkeypatch)
    assert count_par_all(ctx, F, F, F, F).value == q**6
    for t in (0, 1, 2):
        size = len(circle(ctx, t))
        assert count_unit_distances(ctx, F, F, t).value == q**2 * size
        assert count_par_t(ctx, F, F, F, F, t).value == q**4 * size
    assert calls == [["fft"]] + [["probes"]] * 2 + [["fft"]] * 4


def _circle_self_count(ctx, j, t):
    """n_t(S_j, S_j) = |S_t| (1 + eta(t (4j - t))) for t != 0: two radius-j
    circles whose centers differ by v on S_t meet where s^2 = (4j - t)/(4t),
    in one point when they are tangent (4j = t)."""
    return len(circle(ctx, t)) * (1 + ctx.eta(t * (4 * j - t)))


@pytest.mark.parametrize("q", [5, 13])
def test_circle_with_itself_matches_its_closed_form_on_both_routes(q):
    ctx = PrimeFieldCtx(q)
    for j in range(q):
        S = circle(ctx, j)
        for t in range(1, q):
            want = _circle_self_count(ctx, j, t)
            assert count_unit_distances(ctx, S, S, t, "oracle").value == want
            assert count_unit_distances(ctx, S, S, t, "fast").value == want


@pytest.mark.parametrize("q", [211, 401])
def test_circle_with_itself_matches_its_closed_form_at_large_q(q):
    """q = 211 (3 mod 4) at every radius j; q = 401 (1 mod 4, where S_0 is
    two isotropic lines) at j = 0, 1, the tangent radius t/4 and q - 1."""
    ctx = PrimeFieldCtx(q)
    for t in (1, 2, q - 1):
        radii = range(q) if q == 211 else (0, 1, t * ctx.inv(4) % q, q - 1)
        for j in radii:
            S = circle(ctx, j)
            assert count_unit_distances(ctx, S, S, t).value == _circle_self_count(ctx, j, t)


@pytest.mark.parametrize("q", [59, 61])
@pytest.mark.parametrize("t", [1, 2])
def test_full_plane_rhombus_closed_forms_on_the_probe_route(monkeypatch, q, t):
    """Rhom_t = q^2 |S_t|^2 and degenerate = q^2 |S_t| on the full plane:
    every u, direction x and v - u on S_t make a rhombus, and v = u + x is
    the degenerate one.  Every direction meets the whole plane, so with
    the bit route off each computed direction is marked and probed, one of
    each pair +-x."""
    ctx = PrimeFieldCtx(q)
    F = full_plane(ctx)
    size = len(circle(ctx, t))
    routes, bits = _route_spies(monkeypatch)
    probed = _spy(monkeypatch, "_pair_count")
    monkeypatch.setattr(counting, "_BIT_MAX_Q", 0)
    assert count_rhom_t(ctx, F, F, F, F, t).value == q**2 * size**2
    assert count_degenerate_rhom(ctx, F, F, F, F, t).value == q**2 * size
    assert bits == [] and len(routes) == 1 and len(probed) == size // 2
