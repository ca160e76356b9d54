import numpy as np
import pytest

from ffplane import fourier
from ffplane.field import PrimeFieldCtx
from ffplane.fourier import (
    check_circle_decay,
    circle_decay_batch,
    circle_spectrum_closed,
    inverse,
    transform,
)
from ffplane.geometry import PointSet, circle, full_plane, gen_random_set, norm_classes

TOL = 1e-9


def test_transform_of_full_plane_is_delta(ctx5):
    spec = transform(ctx5, full_plane(ctx5))
    assert abs(spec[0, 0] - 1.0) < TOL
    off = spec.copy()
    off[0, 0] = 0
    assert np.abs(off).max() < TOL


def test_transform_of_single_point_is_flat(ctx5):
    spec = transform(ctx5, PointSet(5, [(0, 0)]))
    assert np.abs(spec - 1 / 25).max() < TOL


def test_transform_circle_fixed_value(ctx3):
    spec = transform(ctx3, circle(ctx3, 1))
    assert abs(spec[0, 0] - 4 / 9) < TOL
    assert abs(spec[1, 0] - 1 / 9) < TOL


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_fast_agrees_with_oracle(q):
    ctx = PrimeFieldCtx(q)
    for seed in range(3):
        E = gen_random_set(ctx, 0.5, seed)
        fast = transform(ctx, E, method="fast")
        oracle = transform(ctx, E, method="oracle")
        assert np.abs(fast - oracle).max() < TOL


def test_inverse_edge_cases(ctx5):
    q = ctx5.q
    zero = transform(ctx5, PointSet(q, []))
    assert np.abs(inverse(ctx5, zero)).max() < TOL
    delta = transform(ctx5, full_plane(ctx5))  # delta spectrum
    assert np.abs(inverse(ctx5, delta) - 1.0).max() < TOL


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_round_trip_on_random_indicators(q):
    ctx = PrimeFieldCtx(q)
    for seed in range(100):
        E = gen_random_set(ctx, 0.5, seed)
        arr = E.indicator.astype(float)
        back = inverse(ctx, transform(ctx, arr))
        assert np.abs(back - arr).max() < TOL


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_plancherel_and_conjugate_symmetry(q):
    ctx = PrimeFieldCtx(q)
    for seed in range(5):
        E = gen_random_set(ctx, 0.6, seed)
        spec = transform(ctx, E)
        # Plancherel for an indicator: sum |coeffs|^2 = |E| / q^2
        assert abs(np.sum(np.abs(spec) ** 2) - len(E) / q**2) < TOL
        for m1 in range(q):
            for m2 in range(q):
                conj = np.conj(spec[m1, m2])
                assert abs(spec[-m1, -m2] - conj) < TOL


@pytest.mark.parametrize("q", [3, 5, 7])
def test_closed_circle_spectrum_matches_transform(q):
    # the full {3,5,7,11,13} sweep lives in the acceptance suite
    ctx = PrimeFieldCtx(q)
    for j in range(q):
        spec = transform(ctx, circle(ctx, j))
        for m1 in range(q):
            for m2 in range(q):
                closed = circle_spectrum_closed(ctx, j, (m1, m2))
                assert abs(spec[m1, m2] - closed) < TOL


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_closed_form_zero_mode_relation(q):
    # at m = 0 the delta term isolates: value - 1/q = (G^2/q^3) sum_r chi(j*r)
    ctx = PrimeFieldCtx(q)
    g2 = ctx.gauss_sum() ** 2
    for j in range(q):
        tail = sum(ctx.chi(j * r) for r in range(1, q))
        expected = 1 / q + g2 * tail / q**3
        assert abs(circle_spectrum_closed(ctx, j, (0, 0)) - expected) < TOL


def test_decay_report_q3(ctx3):
    rep = check_circle_decay(ctx3, 1)
    assert rep.holds
    assert rep.lhs * 3**1.5 <= 2.0 + 1e-9
    assert rep.extra["strict_rhs"] == pytest.approx(3**-1.5)


def test_decay_q5_all_radii(ctx5):
    for j in range(1, 5):
        rep = check_circle_decay(ctx5, j)
        assert rep.holds, (j, rep)


def test_decay_isotropic_exception_is_logged_not_asserted():
    # q = 13 = 1 mod 4: the zero-radius circle has nonzero isotropic modes
    # whose coefficients exceed the generic threshold; they must be split out.
    ctx = PrimeFieldCtx(13)
    rep = check_circle_decay(ctx, 0)
    assert rep.holds
    assert "isotropic_max" in rep.extra
    assert rep.extra["isotropic_max"] > rep.rhs
    assert rep.extra["isotropic_max"] == pytest.approx(12 / 169)


# At q = 101 the circles go in stacks of 6 (INDEX_CHUNK // q^2), so the
# last stack is partial; below that every circle is in one stack.
@pytest.mark.parametrize("q", [3, 5, 7, 13, 31, 101])
def test_stacked_circle_spectra_are_each_circles_transform(q):
    ctx = PrimeFieldCtx(q)
    nonzero = np.ones((q, q), dtype=bool)
    nonzero[0, 0] = False
    isotropic = (norm_classes(ctx) == 0) & nonzero
    js = list(range(q)) + [q + 1, 0]
    batch = circle_decay_batch(ctx, js)
    lhs, max_all, iso_max = [], [], []
    for j in js:
        mags = np.abs(transform(ctx, circle(ctx, j)))
        regular = nonzero & ~isotropic if j % q == 0 else nonzero
        lhs.append(float(mags[regular].max()))
        max_all.append(float(mags[nonzero].max()))
        iso_max.append(float(mags[isotropic].max())
                       if j % q == 0 and isotropic.any() else None)
    # Equal as floats, bit for bit.
    assert batch.lhs == lhs
    assert batch.row_extra["max_all_nonzero_modes"] == max_all
    assert batch.row_extra["isotropic_max"] == iso_max


def test_strict_constant_fails_somewhere():
    # the constant-1 threshold is genuinely too small, e.g. q=7, j=1
    rep = check_circle_decay(PrimeFieldCtx(7), 1)
    assert rep.holds and not rep.extra["holds_strict"]


def test_transform_rejects_mismatched_set(ctx5):
    with pytest.raises(ValueError):
        transform(ctx5, PointSet(7, [(0, 0)]))
    with pytest.raises(ValueError):
        transform(ctx5, np.zeros((3, 3)))


# A complex table used to be cast to its real part: 1j at (1, 2) gave an
# all-zero spectrum and a ComplexWarning.  Tables that are not real q x q
# tables (or, for the FFT, stacks of them) are refused.
@pytest.mark.parametrize("table", [
    np.where(np.arange(25).reshape(5, 5) == 7, 1j, 0),
    np.full((5, 5), 1, dtype=object),
    np.full((5, 5), "1"),
    np.zeros((5, 4)),
    np.zeros((5,)),
    np.zeros(()),
    np.zeros((2, 5, 4)),
    [[0] * 5] * 4,
], ids=["complex", "object", "str", "5x4", "row", "scalar", "stack-of-5x4", "list-4x5"])
def test_transform_refuses_tables_that_are_not_real_qxq(ctx5, table):
    for method in ("fast", "oracle"):
        with pytest.raises(ValueError):
            transform(ctx5, table, method=method)


@pytest.mark.parametrize("q", [3, 5, 13])
def test_transform_of_stack_is_each_tables_transform(q):
    ctx = PrimeFieldCtx(q)
    circles = np.stack([circle(ctx, j).indicator for j in range(q)])
    spec = transform(ctx, circles)
    assert spec.shape == (q, q, q)
    for j in range(q):
        assert np.array_equal(spec[j], transform(ctx, circle(ctx, j)))
    # The oracle takes one table, never a stack read as one.
    with pytest.raises(ValueError):
        transform(ctx, circles, method="oracle")
    rng = np.random.default_rng(q)
    ints = rng.integers(-3, 4, size=(2, 3, q, q))
    for tables in (ints > 0, ints, ints.astype(np.uint8) % 4, ints * 0.25):
        spec = transform(ctx, tables)
        assert spec.shape == tables.shape and spec.dtype == np.complex128
        for k in np.ndindex(tables.shape[:2]):
            assert np.array_equal(spec[k], transform(ctx, tables[k]))
            oracle = transform(ctx, tables[k], method="oracle")
            assert np.abs(spec[k] - oracle).max() < TOL


def _columns(batch):
    return (batch.row_inputs, batch.row_extra, batch.lhs, batch.rhs, batch.ratio,
            batch.slack, batch.holds)


@pytest.mark.parametrize("js", [range(17), [3], [0, 5, 0, 22]])
def test_decay_maxima_are_cached_per_field(monkeypatch, js):
    """A second circle_decay_batch at one q, from a context of its own,
    runs no transform and gives equal columns; a caller that mutates a
    batch's lists leaves the next batch as it was."""
    q = 17
    fourier._decay_maxima.cache_clear()
    calls = []
    real = fourier.transform
    monkeypatch.setattr(fourier, "transform",
                        lambda *a, **k: calls.append(a[0].q) or real(*a, **k))
    first = circle_decay_batch(PrimeFieldCtx(q), js)
    assert calls == [q]
    want = _columns(first)
    want = [{k: list(v) for k, v in c.items()} if isinstance(c, dict) else list(c) for c in want]
    for column in (first.lhs, first.row_extra["max_all_nonzero_modes"],
                   first.row_extra["isotropic_max"]):
        column[:] = [-1.0] * len(column)
    second = circle_decay_batch(PrimeFieldCtx(q), js)
    assert calls == [q]
    assert list(_columns(second)) == want
