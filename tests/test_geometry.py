import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffplane import bounds, counting, fourier, geometry, rng, vc
from ffplane.errors import ModulusMismatch, PointSetFormatError
from ffplane.field import PrimeFieldCtx
from ffplane.geometry import (
    PointSet,
    circle,
    difference_table,
    differences_at,
    full_plane,
    gen_example_line_ap,
    gen_random_set,
    intersect_shift,
    load_point_set,
    norm,
    point_set_from_text,
    save_point_set,
)
from ffplane.rng import SplitMix64


def test_norm_examples(ctx3, ctx5, ctx7):
    assert norm(ctx5, (3, 4)) == 0
    assert norm(ctx3, (1, 0)) == 1
    assert norm(ctx7, (2, 3)) == 6


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_norm_is_even(q):
    ctx = PrimeFieldCtx(q)
    for p in full_plane(ctx):
        assert norm(ctx, p) == norm(ctx, ((-p[0]) % q, (-p[1]) % q))


def test_circle_examples(ctx3, ctx5):
    s1 = circle(ctx3, 1)
    assert set(s1.elements) == {(0, 1), (0, 2), (1, 0), (2, 0)}
    assert circle(ctx3, 0).elements == ((0, 0),)
    assert len(circle(ctx5, 0)) == 9
    assert circle(ctx3, 1) is s1  # cached per (q, j)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_circle_sizes_exhaustive(q):
    ctx = PrimeFieldCtx(q)
    for j in range(q):
        brute = sum(1 for p in full_plane(ctx) if norm(ctx, p) == j)
        assert len(circle(ctx, j)) == brute
        if j != 0:
            # closed form for nonzero radii: q - eta(-1)
            assert brute == q - ctx.eta(-1)


def test_point_set_validation():
    PointSet(5, [(0, 0), (4, 4)])
    with pytest.raises(ValueError):
        PointSet(5, [(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        PointSet(5, [(5, 0)])
    empty = PointSet(5, [])
    assert len(empty) == 0 and (0, 0) not in empty


def test_difference_table_fixed_cases(ctx3):
    p = PointSet(3, [(1, 2)])
    d = difference_table(ctx3, p, p)
    assert d.count((0, 0)) == 1 and d.total == 1
    plane = full_plane(ctx3)
    d = difference_table(ctx3, plane, plane)
    assert all(d.count(v) == 9 for v in plane)
    a = PointSet(3, [(0, 0), (1, 0)])
    b = PointSet(3, [(0, 0)])
    d = difference_table(ctx3, a, b)
    assert d.count((0, 0)) == 1 and d.count((1, 0)) == 1 and d.total == 2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), q=st.sampled_from([3, 5, 7]))
def test_difference_table_mass_and_reflection(q, seed):
    ctx = PrimeFieldCtx(q)
    A = gen_random_set(ctx, 0.4, seed)
    B = gen_random_set(ctx, 0.6, seed + 1)
    dab = difference_table(ctx, A, B)
    dba = difference_table(ctx, B, A)
    assert dab.table.sum() == len(A) * len(B)
    for v1 in range(q):
        for v2 in range(q):
            assert dab.count((v1, v2)) == dba.count(((-v1) % q, (-v2) % q))


def test_difference_table_exact_fallback(monkeypatch):
    ctx = PrimeFieldCtx(11)
    A = gen_random_set(ctx, 0.4, 5)
    B = gen_random_set(ctx, 0.7, 6)
    fft = difference_table(ctx, A, B)
    assert fft.route == "fft"
    # Shift every float entry by 0.6, so rounding lands one off everywhere
    # and the certificate has to reject the table.
    irfft2 = np.fft.irfft2
    monkeypatch.setattr(np.fft, "irfft2", lambda *a, **k: irfft2(*a, **k) + 0.6)
    exact = difference_table(ctx, A, B)
    assert exact.route == "exact"
    assert exact.table.dtype == np.int64
    assert np.array_equal(exact.table, fft.table)
    for v in full_plane(ctx):
        brute = sum(1 for a in A for b in B
                    if ((a[0] - b[0]) % 11, (a[1] - b[1]) % 11) == v)
        assert exact.count(v) == brute


@pytest.mark.parametrize("q_sets, q_on", [(7, None), (7, 11), (11, 7)])
@pytest.mark.parametrize("per_cell", [0, 10**9])
def test_difference_tables_refuse_sets_of_another_q(monkeypatch, q_sets, q_on, per_cell):
    """Every set of every pair, and ``on``, must be of the context's q = 11,
    on the probe and the table routes alike; a q = 7 set would otherwise
    give an 11 x 11 table, or counts at the cells of an 11 circle."""
    monkeypatch.setattr(geometry, "_PROBES_PER_CELL", per_cell)
    ctx, other = PrimeFieldCtx(11), PrimeFieldCtx(q_sets)
    A, B = full_plane(other), gen_random_set(other, 0.5, 1)
    on = None if q_on is None else circle(PrimeFieldCtx(q_on), 1)
    F = full_plane(ctx)
    for pairs in ([(A, B)], [(F, F), (A, B)], [(F, F), (A, F)], [(F, B)]):
        with pytest.raises(ValueError, match="point sets and field context disagree on q"):
            geometry.difference_tables(ctx, pairs, on)
    with pytest.raises(ValueError, match="point sets and field context disagree on q"):
        difference_table(ctx, A, B, on)


def test_difference_table_certificate_rejects_each_invariant():
    table = np.array([[2, 1, 0], [0, 1, 0], [0, 0, 0]], dtype=np.int64)
    raw = table + 0.1
    assert geometry._certified(raw, table, 4, 2)
    assert not geometry._certified(table + 0.3, table, 4, 2)   # residual
    assert not geometry._certified(raw, table, 5, 2)           # mass
    assert not geometry._certified(raw, table, 4, 1)           # D(0)
    negative = table.copy()
    negative[2, 2] = -1
    negative[0, 1] = 2
    assert not geometry._certified(negative + 0.1, negative, 4, 2)  # D >= 0


def _brute_differences(q, A, B):
    """D by a literal loop over the pairs."""
    table = np.zeros((q, q), dtype=np.int64)
    for a in A:
        for b in B:
            table[(a[0] - b[0]) % q, (a[1] - b[1]) % q] += 1
    return table


# Pairs per cell that force each route: at 0 every nonempty pair of sets
# takes the (certified) FFT, at 10**9 every pair is counted exactly.
_FORCED_ROUTES = ((0, "fft"), (10**9, "exact"))


def _assert_routes_match_brute_force(ctx, A, B):
    brute = _brute_differences(ctx.q, A, B)
    for per_cell, route in _FORCED_ROUTES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_EXACT_PAIRS_PER_CELL", per_cell)
            d = difference_table(ctx, A, B)
        assert d.route == (route if len(A) * len(B) else "exact")
        assert d.table.dtype == np.int64 and not d.table.flags.writeable
        assert np.array_equal(d.table, brute)
        assert d.total == len(A) * len(B)
    # At a set of cells: probed alone, or read from the whole table.
    for on in (circle(ctx, 1), A, PointSet(ctx.q, [])):
        for per_cell in (10**9, -1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(geometry, "_PROBES_PER_CELL", per_cell)
                d = difference_table(ctx, A, B, on)
            assert (d.route == "probes") == (per_cell > 0)
            assert d.table.dtype == np.int64 and not d.table.flags.writeable
            assert np.array_equal(d.table, brute[on.indicator])
            assert d.total == len(A) * len(B)


@st.composite
def _mixed_blocks(draw):
    """q in {7, 11, 13} and a block of pairs that holds at least one pair
    past the exact route's pair count (dense sets) and one under it
    (sparse sets), in drawn order, with a cell set or none."""
    q = draw(st.sampled_from([7, 11, 13]))
    ctx = PrimeFieldCtx(q)
    seeds = st.integers(0, 2**64 - 1)

    def sets(lo, hi):
        return st.builds(lambda d, seed: gen_random_set(ctx, d, seed),
                         st.floats(lo, hi), seeds)

    limit = geometry._EXACT_PAIRS_PER_CELL * q * q
    dense = st.tuples(sets(0.8, 1.0), sets(0.8, 1.0)).filter(
        lambda p: len(p[0]) * len(p[1]) > limit)
    # At q = 13 a tenth of the plane against a full one can pass the limit.
    sparse = st.tuples(sets(0.0, 0.1), sets(0.0, 1.0)).filter(
        lambda p: len(p[0]) * len(p[1]) <= limit)
    pairs = draw(st.lists(st.one_of(dense, sparse, st.tuples(sets(0, 1), sets(0, 1))),
                          max_size=4))
    pairs = draw(st.permutations(pairs + [draw(dense), draw(sparse)]))
    on = draw(st.one_of(st.none(), st.builds(lambda t: circle(ctx, t), st.integers(0, q - 1))))
    return ctx, pairs, on


@settings(max_examples=40, deadline=None)
@given(_mixed_blocks())
def test_batched_tables_are_the_one_pair_tables(block):
    ctx, pairs, on = block
    tables = geometry.difference_tables(ctx, pairs, on)
    assert len(tables) == len(pairs)
    for (A, B), d in zip(pairs, tables):
        one = difference_table(ctx, A, B, on)
        assert d.route == one.route and d.total == one.total == len(A) * len(B)
        assert d.table.dtype == np.int64 and not d.table.flags.writeable
        assert np.array_equal(d.table, one.table)
        exact = geometry._exact_differences(ctx.q, A, B)
        assert np.array_equal(d.table, exact if on is None else exact[on.indicator])
    if on is None:
        assert {"exact", "fft"} <= {d.route for d in tables}


@pytest.mark.parametrize("bad", [0, 2, 3])
def test_one_table_of_a_batch_falls_back_alone(monkeypatch, bad):
    ctx = PrimeFieldCtx(13)
    dense = [(gen_random_set(ctx, 0.6, 2 * k), gen_random_set(ctx, 0.7, 2 * k + 1))
             for k in range(4)]
    sparse = (gen_random_set(ctx, 0.1, 8), gen_random_set(ctx, 0.1, 9))
    pairs = dense[:2] + [sparse] + dense[2:]
    want = [geometry._exact_differences(13, A, B) for A, B in pairs]
    # Shift the bad table's floats by 0.6, so its rounding lands one off
    # everywhere; the stack holds the four dense pairs in order.
    irfft2 = np.fft.irfft2

    def one_off(*args, **kwargs):
        raw = irfft2(*args, **kwargs)
        raw[bad] += 0.6
        return raw

    monkeypatch.setattr(np.fft, "irfft2", one_off)
    tables = geometry.difference_tables(ctx, pairs)
    routes = ["fft"] * 4
    routes[bad] = "exact"
    assert [d.route for d in tables] == routes[:2] + ["exact"] + routes[2:]
    for d, table in zip(tables, want):
        assert np.array_equal(d.table, table) and not d.table.flags.writeable


def _boundary_sets(q):
    ctx = PrimeFieldCtx(q)
    sets = [PointSet(q, []), PointSet(q, [(1, q - 2)]), full_plane(ctx),
            circle(ctx, 1)]
    if q == 13:
        sets.append(PointSet(13, [(a, 5 * a % 13) for a in range(13)]))
    return sets


@st.composite
def _set_pairs(draw):
    q = draw(st.sampled_from([3, 5, 7, 13]))
    ctx = PrimeFieldCtx(q)
    sets = st.one_of(
        st.sampled_from(_boundary_sets(q)),
        st.builds(lambda d, seed: gen_random_set(ctx, d, seed),
                  st.floats(0.0, 1.0), st.integers(0, 2**64 - 1)))
    return ctx, draw(sets), draw(sets)


@settings(max_examples=60, deadline=None)
@given(_set_pairs())
def test_each_route_matches_brute_force(pair):
    _assert_routes_match_brute_force(*pair)


def test_each_route_matches_brute_force_on_boundary_sets(ctx13):
    # Empty, singleton, full plane, a circle and the isotropic line
    # {(a, 5a)} (5^2 = -1 mod 13), every ordered pair of them.
    sets = _boundary_sets(13)
    for A in sets:
        for B in sets:
            _assert_routes_match_brute_force(ctx13, A, B)


@pytest.mark.parametrize("chunk", [1, 7, 100])
@pytest.mark.parametrize("q", [3, 5, 13])
def test_exact_chunking_does_not_change_tables(monkeypatch, q, chunk):
    ctx = PrimeFieldCtx(q)
    monkeypatch.setattr(geometry, "INDEX_CHUNK", chunk)
    monkeypatch.setattr(geometry, "_EXACT_PAIRS_PER_CELL", 10**9)
    for seed in range(3):
        A = gen_random_set(ctx, 0.6, 2 * seed)
        B = gen_random_set(ctx, 0.3, 2 * seed + 1)
        d = difference_table(ctx, A, B)
        assert d.route == "exact"
        assert np.array_equal(d.table, _brute_differences(q, A, B))


class _ChunkReads(int):
    """geometry.INDEX_CHUNK's value, recording the function that divides
    by it or adds it to a position in ``readers``."""

    def __floordiv__(self, other):
        self.readers.add(sys._getframe(1).f_code.co_name)
        return int(self) // other

    def __radd__(self, other):
        self.readers.add(sys._getframe(1).f_code.co_name)
        return other + int(self)


def test_one_chunk_constant_reaches_every_route(monkeypatch):
    # The chunking tests patch geometry.INDEX_CHUNK alone, so every chunked
    # route must read it from geometry when it runs.
    chunk = _ChunkReads(geometry.INDEX_CHUNK)
    chunk.readers = set()
    monkeypatch.setattr(geometry, "INDEX_CHUNK", chunk)
    monkeypatch.setattr(counting, "_BIT_MAX_Q", 0)
    ctx = PrimeFieldCtx(29)
    sets = [gen_random_set(ctx, 0.1, 5 * 29 + k) for k in range(4)]
    counting.count_unit_distances(ctx, *sets[:2], 1)
    counting.rhombus_directions(ctx, *sets, [1])
    monkeypatch.setattr(counting, "_BIT_MAX_Q", 61)
    monkeypatch.setattr(counting, "_PAIRS_PER_WORD", 0)
    counting.rhombus_directions(ctx, *sets, [1])
    counting.count_degenerate_rhom(ctx, *sets, 1)
    difference_table(ctx, *sets[:2])
    difference_table(ctx, *sets[:2], circle(ctx, 1))
    bounds.sweep(ctx, "par-vs-mean", 2, 0.1, 1)
    fourier.circle_decay_batch(ctx, range(29))
    ctx11 = PrimeFieldCtx(11)
    assert isinstance(vc.find_witness(ctx11, full_plane(ctx11), 1), vc.Witness)
    assert chunk.readers == {
        "probe_counts", "_pair_terms", "_small_pair_counts", "_bit_terms",
        "count_degenerate_rhom", "_exact_differences", "_first_pair", "sweep",
        "circle_decay_batch", "shift_sum", "shift_meet_sizes"}


@pytest.mark.parametrize("per_cell", [None, 0, 1, 3])
def test_exact_route_is_taken_exactly_up_to_its_pair_count(monkeypatch, ctx7, per_cell):
    if per_cell is not None:
        monkeypatch.setattr(geometry, "_EXACT_PAIRS_PER_CELL", per_cell)
    limit = geometry._EXACT_PAIRS_PER_CELL * 7 * 7
    plane = full_plane(ctx7)
    for k in range(50):
        part = PointSet(7, plane.elements[:k])
        for A, B in ((plane, part), (part, plane)):
            route = difference_table(ctx7, A, B).route
            assert (route == "exact") == (len(A) * len(B) <= limit)


@pytest.mark.parametrize("per_cell", [None, 0, 1, 3])
def test_probe_route_is_taken_exactly_up_to_its_probe_count(monkeypatch, ctx7, per_cell):
    if per_cell is not None:
        monkeypatch.setattr(geometry, "_PROBES_PER_CELL", per_cell)
    limit = geometry._PROBES_PER_CELL * 7 * 7
    plane = full_plane(ctx7)
    for on in (circle(ctx7, 1), circle(ctx7, 0), plane):
        for k in range(50):
            part = PointSet(7, plane.elements[:k])
            for A, B in ((plane, part), (part, plane)):
                route = difference_table(ctx7, A, B, on).route
                assert (route == "probes") == (len(on) * k <= limit)


def _assert_differences_at_match_brute_force(q, A, B, order):
    """differences_at over every cell of the plane, in a shuffled order, at
    its canonical and at its negated tiled indices."""
    plane = geometry.tiled_points(np.ones((q, q), dtype=bool))
    offsets = plane[SplitMix64(order).permutation(q * q)]
    brute = _brute_differences(q, A, B)
    rows, cols = np.divmod(offsets, 2 * q)
    counts = differences_at(A, B, offsets)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, brute[rows, cols])
    negated = differences_at(A, B, geometry.negated_points(offsets, q))
    assert np.array_equal(negated, brute[-rows % q, -cols % q])


@settings(max_examples=60, deadline=None)
@given(_set_pairs(), st.integers(0, 2**64 - 1))
def test_differences_at_match_brute_force(pair, order):
    ctx, A, B = pair
    _assert_differences_at_match_brute_force(ctx.q, A, B, order)


@pytest.mark.parametrize("chunk", [1, 7, 10**9])
def test_differences_at_match_brute_force_on_boundary_sets(monkeypatch, chunk):
    # Every ordered pair, so both probe sides are taken; the chunk splits
    # the offsets one per gather, mid-plane, or not at all.
    monkeypatch.setattr(geometry, "INDEX_CHUNK", chunk)
    sets = _boundary_sets(13)
    for A in sets:
        for B in sets:
            _assert_differences_at_match_brute_force(13, A, B, len(A) + len(B))


def test_differences_at_take_any_offset_list(ctx7):
    A, B = gen_random_set(ctx7, 0.5, 1), gen_random_set(ctx7, 0.2, 2)
    offsets = geometry.tiled_points(circle(ctx7, 3).indicator)[::-1]
    brute = _brute_differences(7, A, B)
    rows, cols = np.divmod(offsets, 14)
    assert differences_at(A, B, offsets).tolist() == brute[rows, cols].tolist()
    assert differences_at(A, B, offsets[:0]).tolist() == []


def _assert_matches_scalar_stream(q, density):
    ctx = PrimeFieldCtx(q)
    for seed in (0, 99, 2**64 - 1):
        rng = SplitMix64(seed)
        ref = tuple((x1, x2) for x1 in range(q) for x2 in range(q)
                    if rng.next_float() < density)
        assert gen_random_set(ctx, density, seed).elements == ref


# 2^-53 and 1 - 2^-53 are the densities next to the ends of the draws'
# range, where the integer threshold ceil(d * 2^53) is 1 and 2^53 - 1.
@pytest.mark.parametrize("q", [3, 13, 31])
@pytest.mark.parametrize("density", [0.0, 2.0**-53, 0.25, 0.3, 0.5, 1 - 2.0**-53, 1.0])
def test_random_set_matches_scalar_stream(q, density):
    _assert_matches_scalar_stream(q, density)


def test_random_set_matches_scalar_stream_at_q211():
    _assert_matches_scalar_stream(211, 0.01)


@pytest.mark.parametrize("q", [3, 13, 31])
def test_random_set_matches_scalar_stream_in_blocks_of_7(monkeypatch, q):
    # q^2 is never a multiple of 7 here, so every stream ends in a partial
    # block.
    monkeypatch.setattr(rng, "_BLOCK", 7)
    for density in (0.0, 0.3, 0.5, 1.0):
        _assert_matches_scalar_stream(q, density)


# The five densities in turn; at q = 13, 100 sets pass the 96 whole rows
# of 169 draws that fit one block of 16384, and at q = 211 each set's
# 44521 draws span three blocks.
@pytest.mark.parametrize("q,count", [(3, 5), (13, 100), (211, 5)])
def test_stacked_sets_match_scalar_stream(q, count):
    ctx = PrimeFieldCtx(q)
    densities = [(0.0, 2.0**-53, 0.5, 1 - 2.0**-53, 1.0)[k % 5] for k in range(count)]
    seeds = [(0, 99, 2**64 - 1, 12345, 2**63)[k % 5] + 7919 * (k // 5) for k in range(count)]
    stacked = gen_random_set(ctx, densities, seeds)
    assert len(stacked) == count
    for density, seed, ps in zip(densities, seeds, stacked):
        # The k-th draw decides cell k - 1, row-major.
        draws = SplitMix64(seed)
        ref = np.array([draws.next_float() < density for _ in range(q * q)])
        assert np.array_equal(ps.indicator, ref.reshape(q, q))
        assert not ps.indicator.flags.writeable
        assert ps == gen_random_set(ctx, density, seed) and len(ps) == ref.sum()


@pytest.mark.parametrize("q", [3, 13])
def test_stacked_sets_match_scalar_stream_in_blocks_of_7(monkeypatch, q):
    monkeypatch.setattr(rng, "_BLOCK", 7)
    ctx = PrimeFieldCtx(q)
    sets = gen_random_set(ctx, [0.3, 0.5, 1.0], [4, 5, 6])
    assert [ps.elements for ps in sets] == [
        tuple((r, c) for r in range(q) for c in range(q) if draws.next_float() < d)
        for d, draws in zip([0.3, 0.5, 1.0], map(SplitMix64, [4, 5, 6]))]


def test_stacked_sets_refuse_bad_arguments(ctx7):
    assert gen_random_set(ctx7, [], []) == []
    with pytest.raises(ValueError):
        gen_random_set(ctx7, [0.5, 1.5], [1, 2])
    with pytest.raises(ValueError):
        gen_random_set(ctx7, [0.5], [1, 2])


def _assert_permutation_matches_scalar_stream(n, seed):
    """permutation(n) is the scalar Fisher-Yates loop over range(n), from
    the same draws, and leaves the stream where the loop does."""
    perm, ref = SplitMix64(seed), SplitMix64(seed)
    expected = list(range(n))
    for i in range(n - 1, 0, -1):
        j = ref.next_below(i + 1)
        expected[i], expected[j] = expected[j], expected[i]
    got = perm.permutation(n)
    assert got.dtype == np.int64
    assert got.tolist() == expected
    assert perm.next_u64() == ref.next_u64()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 1000])
def test_shuffle_matches_scalar_stream(n):
    for seed in (0, 99, 2**64 - 1):
        _assert_permutation_matches_scalar_stream(n, seed)


@pytest.mark.parametrize("n", [2, 8, 9, 50])
def test_shuffle_matches_scalar_stream_in_blocks_of_7(monkeypatch, n):
    monkeypatch.setattr(rng, "_BLOCK", 7)
    test_shuffle_matches_scalar_stream(n)


_SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5000), _SEEDS, st.booleans())
def test_permutation_matches_scalar_stream(n, seed, small_blocks):
    with pytest.MonkeyPatch.context() as mp:
        if small_blocks:
            mp.setattr(rng, "_BLOCK", 7)
        _assert_permutation_matches_scalar_stream(n, seed)


def test_permutation_past_16_bit_partners_matches_scalar_stream():
    # Partners of n > 2^16 swaps are sorted by two uint16 passes, the low
    # half and then the high half.  At the first n about 120 of them pass
    # 2^16 - 1; at the second, those past 2^17 - 1 have a high half of 2.
    for n in ((1 << 16) + (1 << 12), (1 << 17) + (1 << 12)):
        for seed in (0, 2**64 - 1):
            _assert_permutation_matches_scalar_stream(n, seed)


def test_indicator_matches_elements_and_is_read_only(ctx7):
    for ps in (PointSet(7, [(6, 0), (1, 2)]), gen_random_set(ctx7, 0.5, 3),
               circle(ctx7, 2), full_plane(ctx7), PointSet(7, [])):
        ind = ps.indicator
        assert ind.shape == (7, 7) and ind.dtype == bool
        assert set(zip(*map(np.ndarray.tolist, np.nonzero(ind)))) == set(ps)
        with pytest.raises(ValueError):
            ind[0, 0] = True


def _indicator_sets(q):
    """Fresh indicator-built sets: empty, singleton, full plane, a circle,
    and at q = 13 the isotropic line {(a, 5a)}."""
    idx = np.arange(q)
    empty = np.zeros((q, q), dtype=bool)
    single = empty.copy()
    single[1, q - 2] = True
    sets = [empty, single, np.ones((q, q), dtype=bool),
            (idx[:, None] ** 2 + idx[None, :] ** 2) % q == 1]
    if q == 13:
        line = empty.copy()
        line[idx, 5 * idx % 13] = True
        sets.append(line)
    return [PointSet._from_indicator(q, ind) for ind in sets]


@pytest.mark.parametrize("q", [3, 5, 13, 211])
def test_tiled_points_match_the_row_col_formula(q):
    # Empty, singleton, full plane, a circle, at q = 13 the isotropic line
    # {(a, 5a)}, and a sparse random set: values and row-major order.
    sets = _indicator_sets(q) + [gen_random_set(PrimeFieldCtx(q), 0.01, q)]
    for ps in sets:
        rows, cols = np.nonzero(ps.indicator)
        assert geometry.tiled_points(ps.indicator).tolist() == \
            (rows * (2 * q) + cols).tolist()


@pytest.mark.parametrize("q", [3, 5, 13])
def test_points_are_the_tiled_points_of_the_indicator(q):
    # Both constructors on empty, singleton, full plane, a circle and, at
    # q = 13, the isotropic line {(a, 5a)}: row-major values whatever the
    # given order, read-only, and one object on every read.
    for ps in _indicator_sets(q):
        want = geometry.tiled_points(ps.indicator).tolist()
        for form in (ps, PointSet(q, reversed(ps.elements))):
            assert "points" not in vars(form)
            points = form.points
            assert points.tolist() == want and form.points is points
            with pytest.raises(ValueError, match="read-only"):
                points[:1] = 0


@pytest.mark.parametrize("q", [5, 13])
def test_indicator_set_builds_its_points_only_when_read(q):
    ctx = PrimeFieldCtx(q)
    for ps, twin in zip(_indicator_sets(q), _indicator_sets(q)):
        ind = ps.indicator
        size = int(ind.sum())
        assert len(ps) == ps.size == size and repr(ps).endswith(f"size={size})")
        assert all(((a, b) in ps) == ind[a, b] for a in range(q) for b in range(q))
        assert ps == twin and hash(ps) == hash(twin)
        assert ps != PointSet(q, [(0, 1)])
        assert "elements" not in vars(ps) and "elements" not in vars(twin)
        row_major = tuple((a, b) for a in range(q) for b in range(q) if ind[a, b])
        assert ps.elements == row_major and ps.elements is ps.elements
        assert tuple(twin) == row_major
        assert ps == PointSet(q, reversed(row_major))
    assert "elements" not in vars(full_plane(ctx))


def test_point_list_set_reads_row_major(ctx7):
    pts = [(6, 0), (1, 2), (3, 3), (0, 5)]
    ps = PointSet(7, pts)
    assert ps.elements == tuple(sorted(pts)) and list(ps) == sorted(pts)
    assert ps == PointSet._from_indicator(7, np.array(ps.indicator))
    strip = gen_example_line_ap(ctx7, [0, -1, -2])
    assert strip.elements[:4] == ((0, 0), (0, 5), (0, 6), (1, 0))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), q=st.sampled_from([3, 5, 7, 13]))
def test_point_list_and_indicator_read_alike(q, data):
    # A shuffled point list and its indicator give one set, read the same
    # way: elements, points and file text.
    cells = data.draw(st.sets(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))))
    pts = data.draw(st.permutations(sorted(cells)))
    listed = PointSet(q, pts)
    ind = np.zeros((q, q), dtype=bool)
    for p in pts:
        ind[p] = True
    built = PointSet._from_indicator(q, ind)
    assert listed.elements == built.elements == tuple(sorted(cells))
    assert listed.points.tolist() == built.points.tolist()
    assert geometry.point_set_to_text(listed) == geometry.point_set_to_text(built)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), q=st.sampled_from([3, 5, 7]))
def test_intersect_shift_consistent_with_table(q, seed):
    ctx = PrimeFieldCtx(q)
    A = gen_random_set(ctx, 0.5, seed)
    B = gen_random_set(ctx, 0.5, seed + 7)
    dba = difference_table(ctx, B, A)
    for x in full_plane(ctx):
        assert len(intersect_shift(ctx, A, B, x)) == dba.count(x)


def test_intersect_shift_fixed_cases(ctx3):
    plane = full_plane(ctx3)
    E = PointSet(3, [(0, 0), (2, 1)])
    assert intersect_shift(ctx3, E, E, (0, 0)) == E
    assert intersect_shift(ctx3, plane, plane, (1, 2)) == plane
    ei = PointSet(3, [(0, 0)])
    ej = PointSet(3, [(1, 1)])
    assert intersect_shift(ctx3, ei, ej, (1, 1)).elements == ((0, 0),)


# -- the tiled layout, against brute-force arithmetic mod q ---------------------

_LAYOUT_QS = [3, 5, 7, 13]


def _plane_points(q):
    return [(r, c) for r in range(q) for c in range(q)]


def _labels(q):
    """A q x q array whose cells all differ: its tiling's cell at an index
    names the one point that index is a copy of."""
    return np.arange(q * q).reshape(q, q)


@pytest.mark.parametrize("q", _LAYOUT_QS)
def test_tiled_index_and_point_round_trip(q):
    labels = geometry.flat_tiling(_labels(q))
    assert labels.shape == (4 * q * q,)
    pts = _plane_points(q)
    for p in pts:
        i = geometry.tiled_index(p, q)
        assert geometry.tiled_point(i, q) == p
        assert labels[i] == p[0] * q + p[1]
    rows, cols = np.array(pts).T
    index = geometry.tiled_index((rows, cols), q)
    assert index.tolist() == [geometry.tiled_index(p, q) for p in pts]
    assert index.tolist() == geometry.tiled_points(np.ones((q, q), dtype=bool)).tolist()
    back_rows, back_cols = geometry.tiled_point(index, q)
    assert back_rows.tolist() == rows.tolist() and back_cols.tolist() == cols.tolist()
    # Every cell of the tiling, canonical or not, is named by its (row, col).
    for i in range(4 * q * q):
        r, c = geometry.tiled_point(i, q)
        assert geometry.tiled_index((r, c), q) == i
        assert labels[i] == (r % q) * q + c % q


@pytest.mark.parametrize("q", _LAYOUT_QS)
def test_sums_and_differences_land_on_a_copy_of_their_residue(q):
    labels = geometry.flat_tiling(_labels(q))
    pts = _plane_points(q)
    index = np.array([geometry.tiled_index(p, q) for p in pts])
    negated = geometry.negated_points(index, q)
    # -v is (q, q) - v: rows and columns in [1, q], and negating it gives v.
    rows, cols = geometry.tiled_point(negated, q)
    assert rows.min() == cols.min() == 1 and rows.max() == cols.max() == q
    assert geometry.negated_points(negated, q).tolist() == index.tolist()
    for k, (u1, u2) in enumerate(pts):
        assert labels[negated[k]] == (-u1 % q) * q + (-u2 % q)
        assert geometry.tiled_point(negated[k], q) == (q - u1, q - u2)
        sums = index[k] + index
        diffs = index[k] + negated
        assert 0 <= sums.min() and sums.max() < 4 * q * q
        assert 0 <= diffs.min() and diffs.max() < 4 * q * q
        assert labels[sums].tolist() == [
            (u1 + v1) % q * q + (u2 + v2) % q for v1, v2 in pts]
        assert labels[diffs].tolist() == [
            (u1 - v1) % q * q + (u2 - v2) % q for v1, v2 in pts]


@pytest.mark.parametrize("q", _LAYOUT_QS)
def test_the_four_copies_name_one_residue_and_cover_the_tiling(q):
    labels = geometry.flat_tiling(_labels(q))
    pts = _plane_points(q)
    index = np.array([geometry.tiled_index(p, q) for p in pts])
    copies = geometry.tiled_copies(index, q)
    assert copies.shape == (4 * q * q,)
    assert sorted(copies.tolist()) == list(range(4 * q * q))
    for (r, c), cells in zip(pts, copies.reshape(-1, 4)):
        assert len(set(cells.tolist())) == 4
        assert labels[cells].tolist() == [r * q + c] * 4
    assert geometry.tiled_copies(index[:0], q).tolist() == []


@pytest.mark.parametrize("q", [3, 5, 7, 13, 29])
def test_mirrored_directions_keep_the_first_of_each_pair(q):
    # Every circle, S_0 with the origin included: the first of each pair
    # +-x in circle order is kept, and every position reads x or -x, as a
    # brute-force negation map of the circle's points says.  The pairing is
    # read-only and cached with its circle.
    ctx = PrimeFieldCtx(q)
    for t in range(q):
        pts = list(circle(ctx, t).elements)
        pairing = kept, source = geometry.mirrored_directions(ctx, t)
        assert geometry.mirrored_directions(PrimeFieldCtx(q), t) is pairing
        assert isinstance(source, tuple) and not kept.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kept[:1] = 0
        first = [min(i, pts.index((-x1 % q, -x2 % q))) for i, (x1, x2) in enumerate(pts)]
        assert [geometry.tiled_point(int(k), q) for k in kept] == [
            pts[i] for i in sorted(set(first))]
        assert len(source) == len(pts)
        for i, s in enumerate(source):
            assert geometry.tiled_point(int(kept[s]), q) == pts[first[i]]
        if (0, 0) in pts:
            assert pts.index((0, 0)) == source[0] == kept[0] == 0


def _brute_shift_count(ind, shifts, u):
    q = ind.shape[0]
    return sum(bool(ind[(u[0] + s1) % q, (u[1] + s2) % q]) for s1, s2 in shifts)


@pytest.mark.parametrize("q", _LAYOUT_QS)
def test_window_sums_are_brute_force_degrees(q):
    # Degrees |(u + S_t) n E| on every circle, a random set, the full plane
    # and the empty set.
    ctx = PrimeFieldCtx(q)
    for ps in (gen_random_set(ctx, 0.4, q), full_plane(ctx), PointSet(q, [])):
        ind = ps.indicator
        for t in range(q):
            st = circle(ctx, t).elements
            degree = geometry.shift_sum(ind, st)
            assert degree.dtype == np.min_scalar_type(len(st))
            assert degree.tolist() == [[_brute_shift_count(ind, st, (r, c))
                                        for c in range(q)] for r in range(q)]


@pytest.mark.parametrize("q", _LAYOUT_QS)
def test_shift_meets_and_translations_match_brute_force(q):
    ctx = PrimeFieldCtx(q)
    A, B = gen_random_set(ctx, 0.5, 2 * q), gen_random_set(ctx, 0.3, 2 * q + 1)
    pts = _plane_points(q)
    meets = list(geometry.shift_meets(A.indicator, B.indicator, pts))
    assert len(meets) == len(pts)
    for x, meet in zip(pts, meets):
        want = [[bool(A.indicator[r, c]) and bool(B.indicator[(r + x[0]) % q, (c + x[1]) % q])
                 for c in range(q)] for r in range(q)]
        assert meet.tolist() == want
        assert np.array_equal(meet, A.indicator & np.roll(B.indicator, (-x[0], -x[1]),
                                                         axis=(0, 1)))
    # The meet at -x is A cut by B translated by x: B[(u - x) mod q] at u.
    minus = [(-x1 % q, -x2 % q) for x1, x2 in pts]
    full = np.ones((q, q), dtype=bool)
    for x, moved, meet in zip(pts, geometry.shift_meets(full, B.indicator, minus),
                              geometry.shift_meets(A.indicator, B.indicator, minus)):
        assert np.array_equal(moved, np.roll(B.indicator, x, axis=(0, 1)))
        assert moved.tolist() == [[bool(B.indicator[(r - x[0]) % q, (c - x[1]) % q])
                                   for c in range(q)] for r in range(q)]
        assert np.array_equal(meet, A.indicator & moved)


def _rolled_sum(ind, shifts):
    """shift_sum's reference: the translates roll(ind, -x) added up."""
    total = np.zeros(ind.shape, dtype=np.min_scalar_type(len(shifts)))
    for x1, x2 in shifts:
        total += np.roll(ind, (-x1, -x2), axis=(0, 1))
    return total


def _assert_shift_sum_is_rolled(ind, shifts):
    got, want = geometry.shift_sum(ind, shifts), _rolled_sum(ind, shifts)
    assert got.dtype == want.dtype == np.min_scalar_type(len(shifts))
    assert got.shape == ind.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("chunk", [None, 1, 7])
@pytest.mark.parametrize("n", [0, 1, 254, 255, 256, 510, 511, 600])
@pytest.mark.parametrize("q", [3, 5, 13])
def test_shift_sum_folds_uint8_groups_of_255_runs(monkeypatch, q, n, chunk):
    # Multisets of n shifts, repeats allowed, around the uint8 group size;
    # an INDEX_CHUNK of 1 or 7 cuts the runs into blocks of one row.
    if chunk is not None:
        monkeypatch.setattr(geometry, "INDEX_CHUNK", chunk)
    rs = np.random.default_rng(1000 * q + n)
    ind = rs.random((q, q)) < 0.5
    shifts = [tuple(p) for p in rs.integers(0, q, (n, 2)).tolist()]
    _assert_shift_sum_is_rolled(ind, shifts)
    full = np.ones((q, q), dtype=bool)
    assert np.array_equal(geometry.shift_sum(full, shifts), np.full((q, q), n))


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([3, 5, 7, 11, 13]), repeat=st.integers(1, 30),
       chunk=st.sampled_from([1, 7, 100, 1 << 16]), data=st.data())
def test_shift_sum_matches_rolled_translates(q, repeat, chunk, data):
    point = st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
    shifts = data.draw(st.lists(point, max_size=30)) * repeat
    cells = data.draw(st.lists(st.booleans(), min_size=q * q, max_size=q * q))
    ind = np.array(cells).reshape(q, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "INDEX_CHUNK", chunk)
        _assert_shift_sum_is_rolled(ind, shifts)


@pytest.mark.parametrize("chunk", [None, 7000])
def test_shift_sum_on_a_q257_circle(monkeypatch, chunk):
    # |S_1| = 256 at q = 257 (= 1 mod 4), one past uint8: a uint16 total
    # from a group of 255 runs and a group of one.  INDEX_CHUNK = 7000
    # cuts the runs into blocks of 108 rows.
    if chunk is not None:
        monkeypatch.setattr(geometry, "INDEX_CHUNK", chunk)
    ctx = PrimeFieldCtx(257)
    st_ = circle(ctx, 1).elements
    assert len(st_) == 256
    for ps in (gen_random_set(ctx, 0.3, 5), full_plane(ctx)):
        _assert_shift_sum_is_rolled(ps.indicator, st_)
    assert np.array_equal(geometry.shift_sum(full_plane(ctx).indicator, st_),
                          np.full((257, 257), 256))


@pytest.mark.parametrize("chunk", [None, 1, 100])
@pytest.mark.parametrize("q", [3, 5, 7, 13, 61, 101])
def test_shift_meet_sizes_count_the_meets(monkeypatch, q, chunk):
    # Random, empty, full-plane and circle sets, on every point of the plane
    # at q <= 13 and on the circle's kept directions beyond; INDEX_CHUNK of
    # 1 or 100 cuts the meets into blocks of rows.
    if chunk is not None:
        monkeypatch.setattr(geometry, "INDEX_CHUNK", chunk)
    ctx = PrimeFieldCtx(q)
    sets = [gen_random_set(ctx, 0.4, q), PointSet(q, []), full_plane(ctx), circle(ctx, 1)]
    if q <= 13:
        shifts = _plane_points(q)
    else:
        dirs = geometry.mirrored_directions(ctx, 1)[0].tolist()
        shifts = [geometry.tiled_point(d, q) for d in dirs]
    for A in sets:
        for B in sets:
            sizes = geometry.shift_meet_sizes(A.indicator, B.indicator, shifts)
            assert sizes == [np.count_nonzero(m) for m in
                             geometry.shift_meets(A.indicator, B.indicator, shifts)]
    assert geometry.shift_meet_sizes(sets[0].indicator, sets[0].indicator, []) == []


def test_line_ap_generator(ctx5):
    assert gen_example_line_ap(ctx5, range(5)) == full_plane(ctx5)
    axis = gen_example_line_ap(ctx5, [0])
    assert set(axis.elements) == {(a, 0) for a in range(5)}
    assert len(gen_example_line_ap(ctx5, [0, 1])) == 10
    with pytest.raises(ValueError):
        gen_example_line_ap(ctx5, [1, 6])  # 6 = 1 mod 5


def _strip_xs(q):
    """Ascending, descending, wrapping past q, one-row and empty X."""
    return [list(range(min(3, q))), [5 % q, 4 % q, 3 % q][:min(3, q)],
            [(q - 2 + i) % q for i in range(min(4, q))], [q - 1], [],
            list(range(q))[::-1]]


@pytest.mark.parametrize("q", [3, 5, 13, 211])
def test_strip_is_its_point_list_set(q):
    ctx = PrimeFieldCtx(q)
    for xs in _strip_xs(q):
        strip = gen_example_line_ap(ctx, xs)
        listed = PointSet(q, [(a, b) for a in range(q) for b in xs])
        assert np.array_equal(strip.indicator, listed.indicator)
        assert not strip.indicator.flags.writeable
        assert len(strip) == len(listed) == q * len(xs)
        assert strip == listed and hash(strip) == hash(listed)
        # gen prints elements, so equal sets print alike: row-major.
        assert strip.elements == listed.elements
        assert all(type(c) is int for p in strip.elements for c in p)
        assert np.array_equal(strip.points, listed.points)


def test_random_set_extremes_and_determinism(ctx7):
    assert len(gen_random_set(ctx7, 0.0, 1)) == 0
    assert gen_random_set(ctx7, 1.0, 1) == full_plane(ctx7)
    a = gen_random_set(ctx7, 0.37, 123456)
    b = gen_random_set(ctx7, 0.37, 123456)
    assert a == b and a.elements == b.elements
    c = gen_random_set(ctx7, 0.37, 123457)
    assert a != c
    with pytest.raises(ValueError):
        gen_random_set(ctx7, 1.5, 0)


def test_text_round_trip(tmp_path):
    ps = PointSet(7, [(0, 0), (3, 5), (6, 6)])
    path = tmp_path / "pts.txt"
    save_point_set(ps, str(path))
    assert load_point_set(str(path)) == ps


def test_json_round_trip(tmp_path):
    ps = PointSet(11, [(10, 0), (1, 2)])
    path = tmp_path / "pts.json"
    save_point_set(ps, str(path))
    obj = json.loads(path.read_text())
    assert obj["q"] == 11
    assert load_point_set(str(path)) == ps


def test_text_format_errors():
    with pytest.raises(PointSetFormatError):
        point_set_from_text("")
    with pytest.raises(PointSetFormatError):
        point_set_from_text("p 5\n0 0\n")
    with pytest.raises(PointSetFormatError):
        point_set_from_text("q 5\n0 0 0\n")
    with pytest.raises(PointSetFormatError):
        point_set_from_text("q 5\n1 1\n1 1\n")  # duplicate line
    with pytest.raises(PointSetFormatError):
        point_set_from_text("q 5\n5 0\n")  # not reduced


def test_json_format_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"q": 5, "points": [[0, 0], [0, 0]]}')
    with pytest.raises(PointSetFormatError):
        load_point_set(str(path))
    path.write_text('{"q": 5}')
    with pytest.raises(PointSetFormatError):
        load_point_set(str(path))


@pytest.mark.parametrize("name,data", [
    ("set.txt", b"q 1000000007\n0 0\n"),
    ("set.json", b'{"q": 1000000007, "points": [[0, 0]]}'),
])
def test_set_file_for_another_q_is_refused_before_it_is_built(tmp_path, monkeypatch,
                                                              name, data):
    """The file's own q would build a q x q array of ~888 PiB; with
    expected_q given, no PointSet of that q is constructed.  Without it the
    same file is a set of that q, so only the constructor is spied on."""
    path = tmp_path / name
    path.write_bytes(data)
    built = []
    init = PointSet.__init__
    monkeypatch.setattr(PointSet, "__init__",
                        lambda self, q, points: built.append(q) or init(self, q, points))
    with pytest.raises(ModulusMismatch) as exc:
        load_point_set(str(path), 13)
    assert exc.value.q == 1000000007 and built == []
    # A format fault is still reported as one, before the q is compared.
    path.write_bytes(data.replace(b"0, 0]", b"0, 0], [0, 0]").replace(b"0 0\n", b"0 0\n0 0\n"))
    with pytest.raises(PointSetFormatError) as exc:
        load_point_set(str(path), 13)
    assert type(exc.value) is PointSetFormatError and "duplicate" in str(exc.value)
    assert built == []


@pytest.mark.parametrize("name", ["set.txt", "set.json"])
def test_set_file_that_is_not_utf8_is_a_format_error(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\xffq 13\n0 0\n")
    with pytest.raises(PointSetFormatError, match="can't decode byte 0xff"):
        load_point_set(str(path))


@pytest.mark.parametrize("text", [
    '{"q": 5, "points": [["a", 1]]}',
    '{"q": 5, "points": [[null, 1]]}',
    '{"q": 5, "points": [[1.7, 2]]}',
    '{"q": 5, "points": [[true, 3]]}',
    '{"q": 5.9, "points": [[1, 2]]}',
    '{"q": "5", "points": [[1, 2]]}',
    '{"q": true, "points": []}',
])
def test_json_accepts_only_integers(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(PointSetFormatError):
        load_point_set(str(path))


def test_membership_reads_the_indicator_without_wrapping():
    ps = PointSet(5, [(0, 0), (4, 4), (2, 3)])
    for p in [(0, 0), (4, 4), (2, 3), [2, 3], (np.int64(2), np.int64(3))]:
        assert p in ps
    for p in [(-1, -1), (4, -1), (-3, 3), (5, 0), (0, 5), (9, 8), (3, 2),
              (2, 3, 0), (2,), (), None, 7, "ab", (2.5, 3), ("2", "3")]:
        assert p not in ps
    same = PointSet(5, [(2, 3), (4, 4), (0, 0)])
    assert ps == same and hash(ps) == hash(same)
    assert ps != PointSet(7, ps.elements) and ps != PointSet(5, [(0, 0)])


def test_circle_cache_is_bounded():
    limit = geometry.circle.cache_info().maxsize
    assert limit is not None
    ctx = PrimeFieldCtx(101)
    sizes = {len(geometry.circle(ctx, j)) for j in range(1, 101)}
    assert sizes == {101 - ctx.eta(-1)}
    assert 0 < geometry.circle.cache_info().currsize <= limit < 101


@pytest.mark.parametrize("q", [5, 13, 61])
def test_per_field_tables_are_shared_by_contexts_of_one_q(q):
    # Two contexts of one q read the very same cached objects; another q
    # reads its own.
    a, b = PrimeFieldCtx(q), PrimeFieldCtx(q)
    assert a is not b
    for table in (geometry.norm_classes, geometry.norm_class_order,
                  geometry.tiled_norm_classes, geometry.word_layout):
        assert table(a) is table(b)
    assert geometry.norm_classes(a) is not geometry.norm_classes(PrimeFieldCtx(7))
    for t in (0, 1, q - 1):
        assert geometry.circle(a, t) is geometry.circle(b, t)
        assert geometry.mirrored_directions(a, t) is geometry.mirrored_directions(b, t)
    radii = (1, 2)
    assert geometry.word_offsets(a, radii) is geometry.word_offsets(b, radii)


@pytest.mark.parametrize("q", [13, 257])
def test_tiled_norm_classes_are_one_small_read_only_table(q):
    # The least unsigned dtype that holds q - 1: uint8 at q = 13, uint16 at 257.
    ctx = PrimeFieldCtx(q)
    tiled = geometry.tiled_norm_classes(ctx)
    assert tiled.dtype == np.min_scalar_type(q - 1) == (np.uint8 if q < 256 else np.uint16)
    assert not tiled.flags.writeable
    assert np.array_equal(tiled, geometry.flat_tiling(geometry.norm_classes(ctx)))
    assert 0 < geometry.tiled_norm_classes.cache_info().maxsize <= 8


def test_circle_reduces_its_radius_mod_q(ctx13):
    # An unreduced radius names the same circle and the same pairing.
    for t in (-1, 14, 27):
        assert geometry.circle(ctx13, t) == geometry.circle(ctx13, t % 13)
        kept, source = geometry.mirrored_directions(ctx13, t)
        assert kept.tolist() == geometry.mirrored_directions(ctx13, t % 13)[0].tolist()
        assert source == geometry.mirrored_directions(ctx13, t % 13)[1]
