import numpy as np
import pytest

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
    assert abs(spec.at((0, 0)) - 1.0) < TOL
    off = spec.coeffs.copy()
    off[0, 0] = 0
    assert np.abs(off).max() < TOL


def test_transform_of_single_point_is_flat(ctx5):
    spec = transform(ctx5, PointSet(5, [(0, 0)]))
    assert np.abs(spec.coeffs - 1 / 25).max() < TOL


def test_transform_circle_fixed_value(ctx3):
    spec = transform(ctx3, circle(ctx3, 1))
    assert abs(spec.at((0, 0)) - 4 / 9) < TOL
    assert abs(spec.at((1, 0)) - 1 / 9) < TOL


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_fast_agrees_with_oracle(q):
    ctx = PrimeFieldCtx(q)
    for seed in range(3):
        E = gen_random_set(ctx, 0.5, seed)
        fast = transform(ctx, E, method="fast").coeffs
        oracle = transform(ctx, E, method="oracle").coeffs
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
        assert abs(np.sum(np.abs(spec.coeffs) ** 2) - len(E) / q**2) < TOL
        for m1 in range(q):
            for m2 in range(q):
                conj = np.conj(spec.at((m1, m2)))
                assert abs(spec.at((-m1, -m2)) - conj) < TOL


@pytest.mark.parametrize("q", [3, 5, 7])
def test_closed_circle_spectrum_matches_transform(q):
    # the full {3,5,7,11,13} sweep lives in the acceptance suite
    ctx = PrimeFieldCtx(q)
    for j in range(q):
        spec = transform(ctx, circle(ctx, j))
        for m1 in range(q):
            for m2 in range(q):
                closed = circle_spectrum_closed(ctx, j, (m1, m2))
                assert abs(spec.at((m1, m2)) - closed) < TOL


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
        mags = np.abs(transform(ctx, circle(ctx, j)).coeffs)
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
