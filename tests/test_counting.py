import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_quadruple
from ffplane import counting, geometry
from ffplane.counting import (
    INT64_LIMIT,
    count_degenerate_rhom,
    count_par_all,
    count_par_t,
    count_rhom_t,
    count_unit_distances,
    par_t_fourier,
    norm_class_sums,
    par_t_profile,
    rhombus_directions,
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


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_unit_distances_methods_agree(q):
    ctx = PrimeFieldCtx(q)
    for seed in range(10):
        U = gen_random_set(ctx, 0.5, seed)
        V = gen_random_set(ctx, 0.5, seed + 100)
        for t in range(q):
            o = count_unit_distances(ctx, U, V, t, "oracle").value
            f = count_unit_distances(ctx, U, V, t, "fast").value
            assert o == f


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
    profile = norm_class_sums(ctx, prod)
    assert profile == expected
    assert all(type(v) is int for v in profile)


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

    The sets are four draws, or paired as E2 = E1 and E4 = E3: the same
    PointSet objects, or equal but distinct ones."""
    q = draw(st.sampled_from([5, 7, 13]))
    sets = [draw(_boundary_or_random_set(q)) for _ in range(4)]
    pairing = draw(st.sampled_from(["distinct", "shared", "copies"]))
    if pairing == "shared":
        sets[1], sets[3] = sets[0], sets[2]
    elif pairing == "copies":
        sets[1], sets[3] = (PointSet(q, s.elements) for s in sets[::2])
    radii = draw(st.lists(st.integers(1, q - 1), max_size=2, unique=True))
    radii.insert(draw(st.integers(0, len(radii))), 0)
    return PrimeFieldCtx(q), sets, radii


# Budgets as {"module.name": value} overrides of ffplane's module constants,
# each as a function of |E1| |E3|: the defaults; the scalar route forced,
# alone and with a chunk small enough to split each direction's probes;
# and the product route forced with one direction per product and one
# radius per stack (the smallest chunk that keeps the route), three of
# each (partial last chunks), or every circle size in a single product.
_BLOCK_BUDGETS = {
    "default": lambda cells: {},
    "scalar": lambda cells: {"counting._PRODUCT_MACS": 0},
    "chunked-probes": lambda cells: {"counting._PRODUCT_MACS": 0,
                                     "geometry.INDEX_CHUNK": 7},
    "one-direction": lambda cells: {"counting._PRODUCT_MACS": 2**40,
                                    "counting._PRODUCT_CHUNK": max(cells, 1)},
    "three-directions": lambda cells: {"counting._PRODUCT_MACS": 2**40,
                                       "counting._PRODUCT_CHUNK": 3 * max(cells, 1)},
    "single-block": lambda cells: {"counting._PRODUCT_MACS": 2**40,
                                   "counting._PRODUCT_CHUNK": 2**40},
}


@pytest.mark.parametrize("budget", list(_BLOCK_BUDGETS))
@settings(max_examples=20, deadline=None)
@given(_multi_radius_instances())
def test_rhombus_directions_over_radii_match_literal_loop(budget, instance):
    ctx, sets, radii = instance
    with pytest.MonkeyPatch.context() as mp:
        for name, value in _BLOCK_BUDGETS[budget](len(sets[0]) * len(sets[2])).items():
            mp.setattr(f"ffplane.{name}", value)
        by_radius = rhombus_directions(ctx, *sets, radii)
    assert list(by_radius) == radii
    for t in radii:
        assert by_radius[t] == _rhombus_direction_reference(ctx, *sets, t)


@pytest.mark.parametrize("budget", ["one-direction", "chunked-probes"])
@pytest.mark.parametrize("pairing", ["distinct", "shared", "copies"])
@pytest.mark.parametrize("q", [29, 31])
def test_small_meets_by_pairs_match_literal_loop(budget, pairing, q):
    """Sparse sets whose meets fall on both sides of 4 max(a, b) <= |S_t|,
    so some directions are counted by pairs and some by mark and probe.
    The sets fall under the product budget, which is set to 0 here."""
    ctx = PrimeFieldCtx(q)
    sets = [gen_random_set(ctx, 0.1, 5 * q + k) for k in range(4)]
    if pairing == "shared":
        sets[1], sets[3] = sets[0], sets[2]
    elif pairing == "copies":
        sets[1], sets[3] = (PointSet(q, s.elements) for s in sets[::2])
    batched = []
    small_pair_counts = counting._small_pair_counts

    def spy(on_circle, q, meets):
        batched.append(len(meets))
        return small_pair_counts(on_circle, q, meets)

    radii = [0, 1, q - 1]
    with pytest.MonkeyPatch.context() as mp:
        for name, value in _BLOCK_BUDGETS[budget](len(sets[0]) * len(sets[2])).items():
            mp.setattr(f"ffplane.{name}", value)
        mp.setattr(counting, "_PRODUCT_MACS", 0)
        mp.setattr(counting, "_small_pair_counts", spy)
        by_radius = rhombus_directions(ctx, *sets, radii)
    computed = sum(len(circle(ctx, t)) for t in radii)
    if pairing != "distinct":
        computed = sum((len(circle(ctx, t)) + (t == 0)) // 2 for t in radii)
    assert 0 < sum(batched) < computed
    for t in radii:
        assert by_radius[t] == _rhombus_direction_reference(ctx, *sets, t)


def _route_spies(mp):
    """Record the shapes of every product and every scalar-route call."""
    products, probed = [], []
    stacked, scalar = counting._stacked_products, counting._probed_terms

    def stacked_spy(a, b):
        products.append((a.shape, b.shape))
        return stacked(a, b)

    def scalar_spy(*args):
        probed.append(args)
        return scalar(*args)

    mp.setattr(counting, "_stacked_products", stacked_spy)
    mp.setattr(counting, "_probed_terms", scalar_spy)
    return products, probed


def _first_points(q, n):
    return PointSet(q, [divmod(i, q) for i in range(n)])


# (q, radii, |E1|, |E3|): at q = 31, |S_1| = 32 and |S_0| = 1.  The first of
# each pair sits on the budget (32 * 256 * 512 = _PRODUCT_MACS, and
# 1 * 512 * 512 = _PRODUCT_CHUNK), the second one point past it.
@pytest.mark.parametrize("q,radii,n1,n3,product", [
    (31, [1], 256, 512, True),
    (31, [1], 256, 513, False),
    (31, [0], 512, 512, True),
    (31, [0], 512, 513, False),
    (13, list(range(13)), 169, 169, True),
    (13, [1, 0, 2], 100, 150, True),
], ids=["macs-at-budget", "macs-past-budget", "chunk-at-budget", "chunk-past-budget",
        "q13-full-every-radius", "q13-mixed-sizes"])
def test_products_stay_within_budget_and_one_blas_thread(q, radii, n1, n3, product):
    """No product exceeds k |E1| |E3| <= 2^18 multiply-adds (OpenBLAS's
    single-thread threshold) and no stack of K_t more cells; the route is
    taken while max |S_t| |E1| |E3| <= _PRODUCT_MACS < 2^24, which keeps
    its float32 sums exact.  Values match the scalar route."""
    ctx = PrimeFieldCtx(q)
    sets = [_first_points(q, n1), full_plane(ctx), _first_points(q, n3),
            gen_random_set(ctx, 0.5, q)]
    assert counting._PRODUCT_CHUNK == 2**18
    assert counting._PRODUCT_MACS < 2**24
    with pytest.MonkeyPatch.context() as mp:
        products, probed = _route_spies(mp)
        by_radius = rhombus_directions(ctx, *sets, radii)
    widest = max(len(circle(ctx, t)) for t in radii)
    assert (widest * n1 * n3 <= counting._PRODUCT_MACS and
            n1 * n3 <= counting._PRODUCT_CHUNK) == product
    assert bool(products) == product != bool(probed)
    for (r, k, m), (r2, m2, n) in products:
        assert r == r2 and m == m2 == n1 and n == n3
        assert k * n1 * n3 <= 2**18 and r * n1 * n3 <= 2**18
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_PRODUCT_MACS", 0)
        assert rhombus_directions(ctx, *sets, radii) == by_radius


@pytest.mark.parametrize("q,sets", [
    (61, lambda ctx: [gen_random_set(ctx, 0.5, k) for k in range(4)]),
    (211, lambda ctx: [gen_random_set(ctx, 0.01, 4 + k) for k in range(4)]),
    (211, lambda ctx: [gen_example_line_ap(ctx, range(3))] * 4),
], ids=["q61-random-0.5", "q211-random-0.01", "q211-line-ap-0-1-3"])
def test_count_rhom_t_inputs_stay_on_the_scalar_route(q, sets):
    """The rhom_t inputs of the count benchmark's commands (about 212M,
    46M and 85M multiply-adds) are over ten times the product budget."""
    ctx = PrimeFieldCtx(q)
    sets = sets(ctx)
    with pytest.MonkeyPatch.context() as mp:
        products, probed = _route_spies(mp)
        rhombus_directions(ctx, *sets, [1])
    macs = len(circle(ctx, 1)) * len(sets[0]) * len(sets[2])
    assert macs > 10 * counting._PRODUCT_MACS
    assert probed and not products


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
    # call on new sets builds the point lists of E1 and E3 only.
    radii = list(range(1, 13))
    rhombus_directions(ctx13, *random_quadruple(ctx13, 1, lo=0.2, hi=0.5), radii)
    sets = random_quadruple(ctx13, 2, lo=0.2, hi=0.5)
    built = []
    tiled_points = geometry.tiled_points

    def spy(ind):
        built.append(ind)
        return tiled_points(ind)

    monkeypatch.setattr(geometry, "tiled_points", spy)
    monkeypatch.setattr(counting, "tiled_points", spy)
    by_radius = rhombus_directions(ctx13, *sets, radii)
    monkeypatch.undo()
    assert [id(ind) for ind in built] == [id(sets[0].indicator), id(sets[2].indicator)]
    for t in radii:
        assert by_radius[t] == _rhombus_direction_reference(ctx13, *sets, t)


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


def test_block_profiles_are_each_instances_profile(monkeypatch):
    """A block's profiles equal the one-instance profiles, also where only
    one instance's products pass INT64_LIMIT: then the whole stack sums in
    Python ints."""
    ctx = PrimeFieldCtx(13)
    quads = [tuple(random_quadruple(ctx, seed, lo=0.05, hi=0.9)) for seed in range(6)]
    quads.append((quads[0][0],) * 4)
    want = [par_t_profile(ctx, *quad) for quad in quads]
    assert counting.par_t_profiles(ctx, quads) == want
    masses = [len(E1) * len(E2) * len(E3) * len(E4) for E1, E2, E3, E4 in quads]
    monkeypatch.setattr(counting, "INT64_LIMIT", max(masses))
    profiles = counting.par_t_profiles(ctx, quads)
    assert profiles == want
    assert all(type(v) is int for profile in profiles for v in profile.values())


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
    request takes both tables by FFT, stacked."""
    ctx = PrimeFieldCtx(q)
    F, R = full_plane(ctx), gen_random_set(ctx, 0.5, 1)
    calls = _count_tables(monkeypatch)
    assert count_par_all(ctx, F, F, R, R).value == q**2 * len(R) ** 2
    assert count_par_t(ctx, F, F, R, R, 1).value == (
        q**2 * count_unit_distances(ctx, R, R, 1).value)
    assert calls == [["fft", "fft"]] * 2


def test_full_plane_closed_forms_at_q211(monkeypatch):
    """n_t = q^2 |S_t|, Par_t = q^4 |S_t| and Par = q^6 on the full plane;
    the four slots share one table, probed on S_0 = {0} and taken by FFT
    otherwise."""
    q = 211
    ctx = PrimeFieldCtx(q)
    F = full_plane(ctx)
    calls = _count_tables(monkeypatch)
    assert count_par_all(ctx, F, F, F, F).value == q**6
    for t in (0, 1, 2):
        size = len(circle(ctx, t))
        assert count_unit_distances(ctx, F, F, t).value == q**2 * size
        assert count_par_t(ctx, F, F, F, F, t).value == q**4 * size
    assert calls == [["fft"], ["probes"], ["fft"], ["fft"]]


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
    the degenerate one.  |E1| |E3| = q^4 is past the product budget and
    every direction meets the whole plane, so each computed direction is
    marked and probed, one of each pair +-x."""
    ctx = PrimeFieldCtx(q)
    F = full_plane(ctx)
    size = len(circle(ctx, t))
    products, probed = _route_spies(monkeypatch)
    pair_count, pairs = counting._pair_count, []

    def pair_spy(*args):
        pairs.append(args)
        return pair_count(*args)

    monkeypatch.setattr(counting, "_pair_count", pair_spy)
    assert count_rhom_t(ctx, F, F, F, F, t).value == q**2 * size**2
    assert count_degenerate_rhom(ctx, F, F, F, F, t).value == q**2 * size
    assert products == [] and len(probed) == 1 and len(pairs) == size // 2
