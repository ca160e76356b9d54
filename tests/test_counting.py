import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_quadruple
from ffplane import counting
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
    full_plane,
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


def _degenerate_reference(ctx, E1, E2, E3, E4, t):
    """Literal count of (u, x) with |x| = t, u in E1, u + x in E2 n E3, u + 2x in E4."""
    q = ctx.q
    total = 0
    for x1 in range(q):
        for x2 in range(q):
            if (x1 * x1 + x2 * x2) % q != t:
                continue
            for u1, u2 in E1:
                v = ((u1 + x1) % q, (u2 + x2) % q)
                if v in E2 and v in E3 and ((v[0] + x1) % q, (v[1] + x2) % q) in E4:
                    total += 1
    return total


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
            assert count_degenerate_rhom(ctx, *sets, t).value == \
                _degenerate_reference(ctx, *sets, t)


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
    """q, four boundary or random sets, and unique radii that include 0."""
    q = draw(st.sampled_from([5, 7, 13]))
    sets = [draw(_boundary_or_random_set(q)) for _ in range(4)]
    radii = draw(st.lists(st.integers(1, q - 1), max_size=2, unique=True))
    radii.insert(draw(st.integers(0, len(radii))), 0)
    return PrimeFieldCtx(q), sets, radii


# Budgets as {name: value} overrides of counting's module constants, each
# as a function of q: the defaults, one direction per block (from the mark
# budget, and from a probe budget small enough to chunk each direction's
# probes), blocks of three directions with a partial last block, and every
# circle in a single block.
_BLOCK_BUDGETS = {
    "default": lambda q: {},
    "one-direction": lambda q: {"_MARK_CELLS": 1},
    "chunked-probes": lambda q: {"_PROBE_CHUNK": 7},
    "three-directions": lambda q: {"_MARK_CELLS": 3 * 4 * q * q,
                                   "_PROBE_CHUNK": 2**40},
    "single-block": lambda q: {"_MARK_CELLS": 2**40, "_PROBE_CHUNK": 2**40},
}


@pytest.mark.parametrize("budget", list(_BLOCK_BUDGETS))
@settings(max_examples=20, deadline=None)
@given(_multi_radius_instances())
def test_rhombus_directions_over_radii_match_literal_loop(budget, instance):
    ctx, sets, radii = instance
    with pytest.MonkeyPatch.context() as mp:
        for name, value in _BLOCK_BUDGETS[budget](ctx.q).items():
            mp.setattr(counting, name, value)
        by_radius = rhombus_directions(ctx, *sets, radii)
    assert list(by_radius) == radii
    for t in radii:
        assert by_radius[t] == _rhombus_direction_reference(ctx, *sets, t)


@pytest.mark.parametrize("chunk", [1, 7, 100])
@pytest.mark.parametrize("q", [3, 5, 13])
def test_probe_chunking_does_not_change_counts(monkeypatch, q, chunk):
    ctx = PrimeFieldCtx(q)
    sets = random_quadruple(ctx, 4 * q + 1, lo=0.3, hi=0.9)
    monkeypatch.setattr(counting, "_PROBE_CHUNK", chunk)
    for t in (0, 1, q - 1):
        assert count_unit_distances(ctx, *sets[:2], t, "fast").value == \
            count_unit_distances(ctx, *sets[:2], t, "oracle").value
        assert count_rhom_t(ctx, *sets, t, "fast").value == \
            count_rhom_t(ctx, *sets, t, "oracle").value
        assert count_degenerate_rhom(ctx, *sets, t).value == \
            _degenerate_reference(ctx, *sets, t)


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
    deg = _degenerate_reference(ctx, *sets, t)
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
    calls = []

    def counted(*args):
        calls.append(args)
        return difference_table(*args)

    mp.setattr(counting, "difference_table", counted)
    return calls


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
    assert len(calls) == 3


def test_unequal_pairs_build_two_difference_tables(monkeypatch, ctx7):
    a, b = gen_random_set(ctx7, 0.5, 1), gen_random_set(ctx7, 0.5, 2)
    calls = _count_tables(monkeypatch)
    for sets in ([a, b, b, a], [a, b, a, a], [a, a, a, b]):
        calls.clear()
        value = count_par_all(ctx7, *sets).value
        assert value == count_par_all(ctx7, *sets, "oracle").value
        assert len(calls) == 2
