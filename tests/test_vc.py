import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffplane import geometry, vc
from ffplane.errors import InvalidRadius, NotSubset
from ffplane.field import PrimeFieldCtx
from ffplane.geometry import (
    PointSet,
    circle,
    difference_table,
    flat_tiling,
    full_plane,
    gen_example_line_ap,
    gen_random_set,
    norm_classes,
    shift_meets,
    shift_sum,
    tiled_index,
    tiled_point,
)
from ffplane.vc import (
    WITNESS_LABELS,
    FailureReason,
    Witness,
    build_system,
    find_shattered,
    find_witness,
    shatters,
    vc_dimension,
    verify_witness,
)
from ffplane.vc import _first_pair, _shattered


def naive_vc_dimension(sys, cap):
    """Unpruned reference: try every subset of every size."""
    if len(sys.E) == 0:
        return -1
    best = 0
    for d in range(1, cap + 1):
        if not any(shatters(sys, xs)
                   for xs in itertools.combinations(sorted(sys.E.elements), d)):
            return best
        best = d
    return best


def naive_find_shattered(sys, d):
    """Unpruned reference: the first shattered d-subset of sorted E."""
    return next((xs for xs in itertools.combinations(sorted(sys.E.elements), d)
                 if shatters(sys, xs)), None)


def test_build_system_basics(ctx3):
    single = PointSet(3, [(1, 1)])
    sys_ = build_system(ctx3, single, 1)
    assert sys_.neighborhoods[(1, 1)] == frozenset()
    plane = full_plane(ctx3)
    sys_ = build_system(ctx3, plane, 1)
    assert all(len(nb) == 4 for nb in sys_.neighborhoods.values())
    with pytest.raises(InvalidRadius):
        build_system(ctx3, plane, 0)


@pytest.mark.parametrize("q,seed", [(5, 0), (7, 1), (11, 2)])
def test_neighborhood_symmetry_and_no_self_loops(q, seed):
    ctx = PrimeFieldCtx(q)
    E = gen_random_set(ctx, 0.5, seed)
    sys_ = build_system(ctx, E, 1)
    for x in E:
        assert x not in sys_.neighborhoods[x]
        for y in sys_.neighborhoods[x]:
            assert x in sys_.neighborhoods[y]


@pytest.mark.parametrize("seed", [1, 200, 1 << 22])
def test_build_system_matches_literal_neighborhoods(seed):
    ctx = PrimeFieldCtx(11)
    pts = list(gen_random_set(ctx, 0.5, seed).elements)
    E = PointSet(11, pts[::-1])  # elements out of sorted order
    order = sorted(pts)
    index = {p: i for i, p in enumerate(order)}
    for t in (1, 3):
        sys_ = build_system(ctx, E, t)
        ref = {x: frozenset(y for y in pts
                            if ((x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2) % 11 == t)
               for x in pts}
        assert sys_.neighborhoods == ref
        assert sys_._degree == [len(ref[x]) for x in order]
        assert [sys_._row(i) for i in range(len(order))] == [
            sorted(index[y] for y in ref[x]) for x in order]


@pytest.mark.parametrize("q", [131, 257])
def test_full_plane_degrees_fill_the_circle(q):
    # |S_1| is 132 and 256 here, past what int8 and uint8 hold.
    ctx = PrimeFieldCtx(q)
    assert build_system(ctx, full_plane(ctx), 1)._degree == [len(circle(ctx, 1))] * q * q


def test_rank_tiling_is_int32(ctx7):
    # Below 2^31 points the rank table and its 4 q^2-cell tiling are int32;
    # a gathered row still holds Python ints in ascending order.
    sys_ = build_system(ctx7, full_plane(ctx7), 1)
    assert sys_._tiled_rank.dtype == np.int32
    assert sys_._tiled_rank.shape == (4 * 7 * 7,)
    row = sys_._row(0)
    assert row == sorted(row) and all(type(j) is int for j in row)


def test_shatters_empty_set_rules(ctx5):
    nonempty = build_system(ctx5, PointSet(5, [(0, 0)]), 1)
    assert shatters(nonempty, [])
    empty = build_system(ctx5, PointSet(5, []), 1)
    assert not shatters(empty, [])


def test_shatters_singleton_in_full_plane(ctx7):
    sys_ = build_system(ctx7, full_plane(ctx7), 1)
    assert shatters(sys_, [(0, 0)])


def test_shatters_negative_two_point_case(ctx5):
    # two points whose joint trace {both} is realized by nothing
    E = PointSet(5, [(0, 0), (1, 1)])
    sys_ = build_system(ctx5, E, 1)
    assert not shatters(sys_, [(0, 0), (1, 1)])


def test_shatters_validates_input(ctx5):
    sys_ = build_system(ctx5, PointSet(5, [(0, 0)]), 1)
    with pytest.raises(NotSubset):
        shatters(sys_, [(1, 1)])
    with pytest.raises(ValueError):
        shatters(sys_, [(0, 0), (0, 0)])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), q=st.sampled_from([5, 7]))
def test_shatters_is_monotone(q, seed):
    ctx = PrimeFieldCtx(q)
    E = gen_random_set(ctx, 0.6, seed)
    if len(E) < 3:
        return
    sys_ = build_system(ctx, E, 1)
    found = find_shattered(sys_, 2)
    if found is None:
        return
    assert shatters(sys_, found)
    for sub in itertools.combinations(found, 1):
        assert shatters(sys_, sub)


@pytest.mark.parametrize("q,density,seed", [
    (3, 1.0, 0), (5, 1.0, 0), (5, 0.5, 1), (5, 0.8, 2), (7, 0.4, 3), (7, 0.6, 4),
])
def test_vc_dimension_matches_naive_oracle(q, density, seed):
    ctx = PrimeFieldCtx(q)
    E = full_plane(ctx) if density == 1.0 else gen_random_set(ctx, density, seed)
    sys_ = build_system(ctx, E, 1)
    assert vc_dimension(sys_, cap=3) == naive_vc_dimension(sys_, 3)


def test_vc_dimension_edge_cases(ctx5):
    assert vc_dimension(build_system(ctx5, PointSet(5, [(2, 2)]), 1)) == 0
    assert vc_dimension(build_system(ctx5, PointSet(5, []), 1)) == -1
    with pytest.raises(ValueError):
        vc_dimension(build_system(ctx5, PointSet(5, [(2, 2)]), 1), cap=-1)


@pytest.mark.parametrize("q", [7, 11])
def test_vc_dimension_of_full_plane_is_three(q):
    ctx = PrimeFieldCtx(q)
    sys_ = build_system(ctx, full_plane(ctx), 1)
    assert vc_dimension(sys_, cap=4) == 3


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([5, 7]),
       kind=st.sampled_from(["random", "full", "strip", "column", "empty",
                             "singleton", "circle", "isotropic"]),
       density=st.sampled_from([0.3, 0.6, 0.9]), seed=st.integers(0, 2**32),
       t=st.integers(1, 6))
def test_search_agrees_with_naive_oracle(q, kind, density, seed, t):
    if kind == "isotropic":
        q = 5  # isotropic lines need q = 1 mod 4
    ctx = PrimeFieldCtx(q)
    k = 1 + seed % (q - 1)
    if kind == "full":
        E = full_plane(ctx)
    elif kind == "strip":
        E = gen_example_line_ap(ctx, range(k))
    elif kind == "column":
        strip = gen_example_line_ap(ctx, range(k))
        E = PointSet(q, [(b, a) for a, b in strip])
    elif kind == "empty":
        E = PointSet(q, [])
    elif kind == "singleton":
        E = PointSet(q, [(seed % q, seed // q % q)])
    elif kind == "circle":
        E = PointSet(q, [((x + seed) % q, (y + 2 * seed) % q) for x, y in circle(ctx, k)])
    elif kind == "isotropic":
        # k parallel lines {(a, 2a + c)}, where 2^2 = -1 mod 5.
        E = PointSet(q, [(a, (2 * a + c) % q) for a in range(q) for c in range(k)])
    else:
        E = gen_random_set(ctx, density, seed)
    sys_ = build_system(ctx, E, t % q or 1)
    # The naive size-4 refutation enumerates every 4-subset; keep it to q = 5.
    cap = 4 if q == 5 else 3
    dim = vc_dimension(sys_, cap=cap)
    assert dim == naive_vc_dimension(sys_, cap)
    for d in range(1, min(dim + 1, cap) + 1):
        assert find_shattered(sys_, d) == naive_find_shattered(sys_, d)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_two_circle_identity(q):
    # For a != b on S_t, the points at distance t from both are exactly 0 and
    # a + b (one point when a + b = 0): the identity behind the closed forms.
    idx = np.arange(q)
    form = (idx[:, None] ** 2 + idx[None, :] ** 2) % q
    for t in range(1, q):
        on = form == t
        pts = list(zip(*np.nonzero(on)))
        assert pts
        for a, b in itertools.permutations(pts, 2):
            meet = np.roll(on, a, axis=(0, 1)) & np.roll(on, b, axis=(0, 1))
            got = {(int(w1), int(w2)) for w1, w2 in zip(*np.nonzero(meet))}
            assert got == {(0, 0), (int(a[0] + b[0]) % q, int(a[1] + b[1]) % q)}


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 29])
def test_circle_meet_certificate_is_two(q):
    # q = 1 and q = 3 mod 4 alike: two distinct radius-t circles meet in at
    # most 2 points, and some pair meets in exactly 2.  The most is
    # max over d != 0 of |S_t n (S_t + d)|, the (0, 0)-zeroed maximum of
    # S_t's self-difference table; vc_dimension's stop size 3 rests on it.
    ctx = PrimeFieldCtx(q)
    meets = []
    for t in range(1, q):
        table = difference_table(ctx, circle(ctx, t), circle(ctx, t)).table.copy()
        table[0, 0] = 0
        meets.append(int(table.max()))
    assert meets == [2] * (q - 1)


def test_vc_dimension_builds_no_difference_table(monkeypatch):
    # At vc's own binding too, should it import the name.
    calls = []
    for module in (geometry, vc):
        monkeypatch.setattr(module, "difference_table",
                            lambda *args: calls.append(args), raising=False)
    ctx13, ctx5 = PrimeFieldCtx(13), PrimeFieldCtx(5)
    assert vc_dimension(build_system(ctx13, full_plane(ctx13), 1), cap=4) == 3
    strip = gen_example_line_ap(ctx5, range(2))
    assert vc_dimension(build_system(ctx5, strip, 1), cap=4) == 2
    assert calls == []


def test_vc_dimension_two_agrees_with_naive_oracle_at_cap_4(ctx5):
    # A strip of two rows: the naive scan refutes every 3-subset, so the
    # answer 2 at cap 4 is not the stop size.
    sys_ = build_system(ctx5, gen_example_line_ap(ctx5, range(2)), 1)
    assert vc_dimension(sys_, cap=4) == naive_vc_dimension(sys_, 4) == 2


def _neighborhood_subsets(sys_, d, centers=None):
    """Every d-subset of the neighborhoods of centers (default: all of E),
    each once, as sorted point tuples."""
    nbhs = sys_.neighborhoods
    return sorted({xs for z in (nbhs if centers is None else centers)
                   for xs in itertools.combinations(sorted(nbhs[z]), d)})


@pytest.mark.parametrize("q,spec", [
    (11, "full"), (13, "full"), (19, "line-ap:0:1:6"), (7, "random:0.5"),
])
def test_no_four_set_is_shattered(q, spec):
    # Audits the bound that stops vc_dimension at size 3: the
    # trace-collecting oracle refutes every 4-subset of a neighborhood.  A
    # shift of the plane that maps E onto itself preserves shattering, so
    # one center per orbit suffices: the full plane is invariant under every
    # shift and the strip {(a, b) : b < 6} under shifts along a.
    ctx = PrimeFieldCtx(q)
    E, centers = {
        "full": (full_plane(ctx), [(0, 0)]),
        "line-ap:0:1:6": (gen_example_line_ap(ctx, range(6)), [(0, b) for b in range(6)]),
        "random:0.5": (gen_random_set(ctx, 0.5, 0), None),
    }[spec]
    sys_ = build_system(ctx, E, 1)
    candidates = _neighborhood_subsets(sys_, 4, centers)
    assert candidates
    assert not any(shatters(sys_, xs) for xs in candidates)
    assert find_shattered(sys_, 4) is None


def test_find_shattered_returns_canonical_witness(ctx7):
    sys_ = build_system(ctx7, full_plane(ctx7), 1)
    found = find_shattered(sys_, 3)
    assert found is not None and len(found) == 3
    assert shatters(sys_, found)
    assert find_shattered(sys_, 3) == found  # deterministic


def _check_closed_form(sys_) -> set:
    """_shattered against trace collection on every candidate of sizes 1-3,
    with every center whose neighborhood holds it; the (size, verdict)
    pairs seen."""
    index = {p: i for i, p in enumerate(sorted(sys_.E.elements))}
    nbhs = sys_.neighborhoods
    verdicts = set()
    for d in (1, 2, 3):
        for xs in _neighborhood_subsets(sys_, d):
            expected = shatters(sys_, xs)
            verdicts.add((d, expected))
            ids = tuple(index[p] for p in xs)
            for z, nb in nbhs.items():
                if set(xs) <= nb:
                    assert _shattered(sys_, ids, index[z]) == expected, (xs, z)
    return verdicts


@pytest.mark.parametrize("q,seed", [(5, 11), (7, 12)])
def test_mask_check_agrees_with_trace_collection(q, seed):
    # The closed-form check (_shattered) decides like trace collection.
    ctx = PrimeFieldCtx(q)
    verdicts = set()
    for E in (gen_random_set(ctx, 0.6, seed), full_plane(ctx)):
        verdicts |= _check_closed_form(build_system(ctx, E, 1))
    # No triple is shattered at q = 5, where the full plane has dimension 2.
    assert verdicts >= {(1, True), (2, False), (2, True), (3, False), (3, q > 5)}


@pytest.mark.parametrize("centers,seen", [
    ([(0, 0), (1, 0)], {(2, False), (2, True)}),
    ([(0, 1), (1, 0), (3, 6)], {(3, False), (3, True)}),
], ids=["two", "three"])
def test_closed_form_on_unions_of_circles(centers, seen):
    # Boundary sets for the degree bounds: E is the union of the radius-1
    # circles around centers at q = 11, with the centers, so nearly every
    # point of E is adjacent to a candidate and some candidates meet a bound
    # with equality.  The two centers are at distance 1; the three lie on S_1.
    ctx = PrimeFieldCtx(11)
    E = PointSet(11, sorted({((x + c1) % 11, (y + c2) % 11) for c1, c2 in centers
                             for x, y in circle(ctx, 1)} | set(centers)))
    assert _check_closed_form(build_system(ctx, E, 1)) >= seen


# -- witness ------------------------------------------------------------------


@pytest.mark.parametrize("q", [11, 13])
def test_witness_pipeline_on_full_plane(q):
    ctx = PrimeFieldCtx(q)
    E = full_plane(ctx)
    w = find_witness(ctx, E, 1, seed=0)
    assert isinstance(w, Witness)
    ok, violations = verify_witness(ctx, E, 1, w)
    assert ok, violations
    sys_ = build_system(ctx, E, 1)
    assert shatters(sys_, [w.x1, w.x2, w.x3])


def _golden_set(ctx, kind, seed):
    if kind == "full":
        return full_plane(ctx)
    if kind == "random":
        return gen_random_set(ctx, 0.5, seed)
    if kind == "strip":
        return gen_example_line_ap(ctx, range(6))
    shifted = [((p[0] + 1) % ctx.q, (p[1] + 2) % ctx.q) for p in circle(ctx, 1)]
    return PointSet(ctx.q, shifted)


# find_witness(ctx, set, 1, seed) as the set-based search (neighborhood
# frozensets, sorted scans) computed it: the eleven labeled points in
# WITNESS_LABELS order then u, or the failure's (step, detail).
WITNESS_GOLDEN = {
    (("full", 11), 0):
        ((1, 10), (2, 0), (7, 7), (1, 0), (6, 7), (7, 8),
         (2, 10), (0, 10), (2, 1), (1, 4), (0, 0), (0, 1)),
    (("full", 11), 1):
        ((1, 3), (2, 4), (8, 0), (1, 4), (7, 0), (8, 1),
         (2, 3), (0, 3), (2, 5), (0, 5), (0, 0), (0, 1)),
    (("full", 11), 7):
        ((3, 4), (4, 5), (1, 9), (3, 5), (0, 9), (1, 10),
         (4, 4), (0, 10), (1, 0), (1, 8), (0, 0), (0, 1)),
    (("full", 17), 0):
        ((1, 14), (2, 15), (15, 8), (1, 15), (14, 8), (15, 9),
         (2, 14), (0, 14), (2, 16), (1, 5), (0, 0), (0, 1)),
    (("full", 17), 1):
        ((2, 3), (3, 4), (7, 9), (2, 4), (6, 9), (7, 10),
         (3, 3), (1, 3), (0, 1), (1, 5), (0, 0), (0, 1)),
    (("full", 17), 7):
        ((2, 11), (3, 12), (6, 8), (2, 12), (5, 8), (6, 9),
         (3, 11), (1, 11), (0, 9), (0, 4), (0, 0), (0, 1)),
    (("full", 61), 0):
        ((0, 4), (1, 5), (16, 56), (0, 5), (15, 56), (16, 57),
         (1, 4), (0, 3), (1, 6), (1, 47), (0, 0), (0, 1)),
    (("full", 61), 1):
        ((0, 8), (1, 9), (16, 17), (0, 9), (15, 17), (16, 18),
         (1, 8), (0, 7), (1, 10), (1, 26), (0, 0), (0, 1)),
    (("full", 61), 7):
        ((0, 1), (1, 2), (53, 47), (0, 2), (52, 47), (53, 48),
         (1, 1), (0, 0), (1, 3), (1, 32), (0, 1), (0, 1)),
    (("random", 53), 0):
        ((6, 26), (25, 35), (14, 46), (25, 34), (14, 45), (33, 1),
         (6, 27), (1, 46), (4, 49), (1, 9), (0, 1), (19, 8)),
    (("random", 53), 1):
        ((2, 48), (3, 49), (16, 32), (2, 49), (15, 32), (16, 33),
         (3, 48), (6, 36), (3, 50), (2, 11), (0, 3), (0, 1)),
    (("random", 53), 7):
        ((4, 39), (5, 40), (20, 0), (5, 39), (20, 52), (21, 0),
         (4, 40), (0, 27), (0, 7), (0, 5), (0, 0), (1, 0)),
    (("random", 101), 0):
        ((1, 38), (25, 82), (0, 39), (25, 81), (0, 38), (24, 82),
         (1, 39), (6, 66), (2, 30), (5, 11), (0, 1), (24, 43)),
    (("random", 101), 1):
        ((1, 73), (29, 79), (33, 20), (29, 78), (33, 19), (61, 25),
         (1, 74), (2, 73), (1, 84), (1, 67), (0, 3), (28, 5)),
    (("random", 101), 7):
        ((0, 6), (39, 62), (28, 2), (39, 61), (28, 1), (67, 57),
         (0, 7), (0, 5), (7, 15), (1, 24), (0, 0), (39, 55)),
    (("strip", 29), 0):
        ("No-rhombus", "no side-t rhombus satisfies the direction exclusions"),
    (("strip", 29), 1):
        ("No-rhombus", "no side-t rhombus satisfies the direction exclusions"),
    (("strip", 29), 7):
        ("No-rhombus", "no side-t rhombus satisfies the direction exclusions"),
    (("rigid", 13), 0):
        ("Pruned-empty", "degree window removed every vertex"),
    (("rigid", 13), 1):
        ("Pruned-empty", "degree window removed every vertex"),
    (("rigid", 13), 7):
        ("Pruned-empty", "degree window removed every vertex"),
}


@pytest.mark.parametrize("case,seed", list(WITNESS_GOLDEN))
def test_witness_matches_golden(case, seed):
    kind, q = case
    ctx = PrimeFieldCtx(q)
    res = find_witness(ctx, _golden_set(ctx, kind, seed), 1, seed=seed)
    if isinstance(res, Witness):
        got = tuple(getattr(res, label) for label in WITNESS_LABELS) + (res.u,)
    else:
        got = (res.step, res.detail)
    assert got == WITNESS_GOLDEN[case, seed]


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([3, 5, 7, 11, 13]),
       kind=st.sampled_from(["empty", "singleton", "full", "circle", "isotropic"]),
       t=st.integers(1, 12), seed=st.integers(0, 2**32))
def test_witness_on_boundary_sets_fails_or_verifies(q, kind, t, seed):
    if kind == "isotropic" and q % 4 == 3:
        q = 5 if q < 11 else 13  # isotropic lines need q = 1 mod 4
    ctx = PrimeFieldCtx(q)
    t = t % q or 1
    k = 1 + seed % (q - 1)
    if kind == "empty":
        E = PointSet(q, [])
    elif kind == "singleton":
        E = PointSet(q, [(seed % q, seed // q % q)])
    elif kind == "full":
        E = full_plane(ctx)
    elif kind == "circle":
        # Radius 0 included: for q = 1 mod 4 that circle is two isotropic lines.
        E = PointSet(q, [((x + seed) % q, (y + 2 * seed) % q)
                         for x, y in circle(ctx, seed % q)])
    else:
        # k parallel lines {(a, i a + c)}, where i^2 = -1 mod q.
        i = next(i for i in range(q) if (i * i + 1) % q == 0)
        E = PointSet(q, [(a, (i * a + c) % q) for a in range(q) for c in range(k)])
    res = find_witness(ctx, E, t, seed=seed)
    if isinstance(res, Witness):
        ok, violations = verify_witness(ctx, E, t, res)
        assert ok, violations
    else:
        assert isinstance(res, FailureReason)


def _step2_boundary_set(ctx13, kind):
    if kind == "full":
        return full_plane(ctx13)
    if kind == "circle":
        return circle(ctx13, 1)
    if kind == "strip":
        return gen_example_line_ap(ctx13, [0, 1, 2])
    # The two isotropic lines through the origin, {(a, +-5a)}: 5^2 = -1.
    return PointSet(13, sorted({(a, s * 5 * a % 13) for a in range(13) for s in (1, -1)}))


@pytest.mark.parametrize("kind", ["full", "circle", "strip", "isotropic"])
def test_paired_direction_sizes_match_every_meet(ctx13, kind):
    """Step (2) counts one meet per pair +-x: the meet of -x has the size of
    x's, so the literal scan's first maximum in circle order is the kept
    direction of its pair, and it is the direction taken, ties included."""
    E = _step2_boundary_set(ctx13, kind)
    n, q = len(E), 13
    tied = False
    for t in range(1, q):
        st_ = circle(ctx13, t).elements
        # The literal step (2) on the pruned set: a strict > keeps the first
        # of tied maxima.
        degree = shift_sum(E.indicator, st_)
        kept = E.indicator & (degree >= n / (2 * q)) & (degree <= 2 * n / q)
        sizes = [int(np.count_nonzero(m)) for m in shift_meets(kept, kept, st_)]
        size_at = dict(zip(st_, sizes))
        assert all(size_at[(-a % q, -b % q)] == size for (a, b), size in size_at.items())
        u, best = None, -1
        for x, size in zip(st_, sizes):
            if size > best:
                u, best = x, size
        assert tiled_index(u, q) in geometry.mirrored_directions(ctx13, t)[0]
        tied |= sizes.count(best) > 1
        res = find_witness(ctx13, E, t, seed=t)
        if isinstance(res, Witness):
            assert res.u == u
        elif kept.any() and best == 0:
            assert res.step == "No-direction"
    if kind == "full":
        assert tied


# -- first-pair search of step (4) ----------------------------------------------


def literal_first_side_t_pair(ax, dx, forbidden, q, t):
    """The first (a, v) of ax x dx, a-major, with |a - v| = t and a - v not
    in forbidden; or None.  The literal double loop."""
    for a1, a2 in ax:
        for v1, v2 in dx:
            d1 = (a1 - v1) % q
            d2 = (a2 - v2) % q
            if (d1 * d1 + d2 * d2) % q == t and (d1, d2) not in forbidden:
                return (a1, a2), (v1, v2)
    return None


def vector_first_side_t_pair(ctx, ax, dx, forbidden, t):
    """_first_pair on point tuples; the circle tiling it clears forbidden
    differences in must come back unchanged."""
    q = ctx.q
    on_circle = flat_tiling(circle(ctx, t).indicator)
    before = on_circle.copy()
    flat = np.array([tiled_index(p, q) for p in list(ax) + list(dx)], dtype=np.int64)
    pair = _first_pair(on_circle, flat[:len(ax)], flat[len(ax):], forbidden, q)
    assert np.array_equal(on_circle, before)
    return pair and tuple(tiled_point(p, q) for p in pair)


@pytest.mark.parametrize("q", [11, 13])
def test_first_pair_with_an_empty_side_is_none(q):
    ctx = PrimeFieldCtx(q)
    pts = [(0, 0), (0, 1), (1, 0), (3, 4)]
    for ax, dx in (([], pts), (pts, []), ([], [])):
        assert vector_first_side_t_pair(ctx, ax, dx, (), 1) is None
        assert literal_first_side_t_pair(ax, dx, (), q, 1) is None


@pytest.mark.parametrize("q", [11, 13])
@pytest.mark.parametrize("a,v", [((0, 0), (1, 0)), ((0, 0), (-1, 0)), ((0, 5), (1, 5)),
                                 ((1, 5), (0, 5)), ((4, 0), (4, 1)), ((4, 1), (4, 0))])
def test_first_pair_forbidden_difference_removes_hit(q, a, v):
    # d = a - v is (+-1, 0) or (0, +-1), on S_1; the cases reach both tiled
    # copies of its row and of its column.  w, with a - w also on S_1, is
    # the hit left once d is forbidden.
    ctx = PrimeFieldCtx(q)
    v = (v[0] % q, v[1] % q)
    d = ((a[0] - v[0]) % q, (a[1] - v[1]) % q)
    w = ((a[0] - 1) % q, a[1]) if d == (0, 1) else (a[0], (a[1] - 1) % q)
    for forbidden, dx, want in (((), [v, w], (a, v)), ((d,), [v, w], (a, w)),
                                ((d,), [v], None), ((d, (5, 5)), [v, v, w], (a, w))):
        assert literal_first_side_t_pair([a], dx, forbidden, q, 1) == want
        assert vector_first_side_t_pair(ctx, [a], dx, forbidden, 1) == want


@pytest.mark.parametrize("q", [11, 13])
@pytest.mark.parametrize("budget", [1, 2, 4, 6])
@pytest.mark.parametrize("row", range(8))
def test_first_pair_hit_at_and_past_chunk_boundaries(monkeypatch, q, budget, row):
    # With two points in dx, a chunk of ax holds at most max(1, budget // 2)
    # rows: chunks start at rows 0, 1, 2, ... (budget 1, 2), 0, 1, 3, 5, 7
    # (budget 4) and 0, 1, 3, 6 (budget 6).  Row `row` is the first hit,
    # with dx's second point only; every later row hits dx's first point,
    # which a-major order must not prefer.
    monkeypatch.setattr(geometry, "INDEX_CHUNK", budget)
    ctx = PrimeFieldCtx(q)
    norm = norm_classes(ctx)
    v1, v2 = (0, 0), (0, 1)

    def dist(p, v):
        return norm[(p[0] - v[0]) % q, (p[1] - v[1]) % q]

    plane = [(x, y) for x in range(q) for y in range(q)]
    misses = [p for p in plane if dist(p, v1) != 1 and dist(p, v2) != 1]
    second_only = next(p for p in plane if dist(p, v1) != 1 and dist(p, v2) == 1)
    first = [p for p in plane if dist(p, v1) == 1]
    ax = misses[:row] + [second_only] + first[:7 - row]
    want = (ax[row], v2)
    assert literal_first_side_t_pair(ax, [v1, v2], (), q, 1) == want
    assert vector_first_side_t_pair(ctx, ax, [v1, v2], (), 1) == want


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from([7, 11, 13]), t=st.integers(1, 12),
       budget=st.sampled_from([1, 3, 64, 1 << 16]), data=st.data())
def test_first_pair_agrees_with_literal_loop(q, t, budget, data):
    ctx = PrimeFieldCtx(q)
    t = t % q or 1
    point = st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
    ax = data.draw(st.lists(point, max_size=12))
    dx = data.draw(st.lists(point, max_size=12))
    forbidden = tuple(data.draw(st.lists(point, max_size=4)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "INDEX_CHUNK", budget)
        got = vector_first_side_t_pair(ctx, ax, dx, forbidden, t)
    assert got == literal_first_side_t_pair(ax, dx, forbidden, q, t)


def test_witness_is_deterministic(ctx11):
    E = full_plane(ctx11)
    assert find_witness(ctx11, E, 1, seed=5) == find_witness(ctx11, E, 1, seed=5)


def test_witness_too_small_set(ctx11):
    E = PointSet(11, [(0, 0), (1, 1)])
    res = find_witness(ctx11, E, 1, seed=0)
    assert isinstance(res, FailureReason)
    assert res.step == "Pruned-empty"


def test_witness_requires_nonzero_radius(ctx11):
    with pytest.raises(InvalidRadius):
        find_witness(ctx11, full_plane(ctx11), 0)


def test_witness_fails_honestly_on_rigid_instance(ctx13):
    # a single translated circle: enough points, but far too rigid
    shifted = [((p[0] + 1) % 13, (p[1] + 2) % 13) for p in circle(ctx13, 1)]
    E = PointSet(13, shifted)
    res = find_witness(ctx13, E, 1, seed=0)
    assert isinstance(res, FailureReason)
    assert res.step in ("Pruned-empty", "No-direction", "No-rhombus",
                        "No-private-neighbor", "No-isolated-point")


def test_verify_witness_flags_violations(ctx11):
    E = full_plane(ctx11)
    w = find_witness(ctx11, E, 1, seed=0)
    assert isinstance(w, Witness)

    import dataclasses
    bad = dataclasses.replace(w, y12=w.y13)
    ok, violations = verify_witness(ctx11, E, 1, bad)
    assert not ok
    assert any(v.startswith("distinct:y12=y13") for v in violations)

    neighbor_of_x2 = sorted(build_system(ctx11, E, 1).neighborhoods[w.x2])[0]
    bad = dataclasses.replace(w, y0=neighbor_of_x2)
    ok, violations = verify_witness(ctx11, E, 1, bad)
    assert not ok
    assert any(v.startswith("adjacency:y0~x2") for v in violations)


def test_verify_witness_flags_membership(ctx11):
    E = full_plane(ctx11)
    w = find_witness(ctx11, E, 1, seed=0)
    small = PointSet(11, [p for p in E.elements if p != w.y0])
    ok, violations = verify_witness(ctx11, small, 1, w)
    assert not ok and "membership:y0" in violations


def test_verify_witness_flags_unreduced_points(ctx11):
    # On the full plane every reduced point is a member, so a negative
    # coordinate must not wrap round to one and an index past q must not raise.
    E = full_plane(ctx11)
    w = find_witness(ctx11, E, 1, seed=0)
    import dataclasses
    bad = dataclasses.replace(w, y0=(w.y0[0] - 11, w.y0[1]),
                              y1=(w.y1[0], w.y1[1] + 11))
    ok, violations = verify_witness(ctx11, E, 1, bad)
    assert not ok
    assert "membership:y0" in violations and "membership:y1" in violations
    assert not any(v.startswith("membership:") and v not in
                   ("membership:y0", "membership:y1") for v in violations)
