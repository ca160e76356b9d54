import cmath
import math

import pytest

from ffplane.errors import ZeroInverse
from ffplane.field import PrimeFieldCtx, is_prime


@pytest.mark.parametrize("bad", [0, 1, 2, 4, 6, 9, 15, 21, 25])
def test_constructor_rejects_non_odd_primes(bad):
    with pytest.raises(ValueError):
        PrimeFieldCtx(bad)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 31, 101])
def test_constructor_accepts_odd_primes(q):
    assert PrimeFieldCtx(q).q == q


def test_is_prime_small():
    primes = [n for n in range(50) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_inverse_examples_and_scan_oracle():
    assert PrimeFieldCtx(3).inv(2) == 2
    assert PrimeFieldCtx(7).inv(3) == 5
    # q=13, a=4: find the inverse by scanning, then compare.
    expected = next(b for b in range(1, 13) if (4 * b) % 13 == 1)
    assert expected == 10
    assert PrimeFieldCtx(13).inv(4) == expected


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_inverse_everywhere(q):
    ctx = PrimeFieldCtx(q)
    for a in range(1, q):
        assert (a * ctx.inv(a)) % q == 1
    with pytest.raises(ZeroInverse):
        ctx.inv(0)


def test_quadratic_character_examples():
    assert PrimeFieldCtx(3).eta(2) == -1
    assert PrimeFieldCtx(5).eta(4) == 1
    assert PrimeFieldCtx(7).eta(0) == 0


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_quadratic_character_is_multiplicative_and_balanced(q):
    ctx = PrimeFieldCtx(q)
    assert sum(ctx.eta_table) == 0
    squares = {(a * a) % q for a in range(1, q)}
    for a in range(q):
        assert ctx.eta(a) == (0 if a == 0 else (1 if a in squares else -1))
    for a in range(1, q):
        for b in range(1, q):
            assert ctx.eta(a * b) == ctx.eta(a) * ctx.eta(b)


def test_additive_character_values():
    ctx = PrimeFieldCtx(3)
    assert ctx.chi(0) == 1.0  # exact
    expected = complex(-0.5, math.sqrt(3) / 2)
    assert abs(ctx.chi(1) - expected) < 1e-12
    for q in (5, 7, 11):
        c = PrimeFieldCtx(q)
        for a in range(q):
            assert abs(abs(c.chi(a)) - 1.0) < 1e-12
            for b in range(q):
                assert abs(c.chi(a + b) - c.chi(a) * c.chi(b)) < 1e-12


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_character_orthogonality(q):
    # sum_a chi(a*s) = q when s = 0 and 0 otherwise.
    ctx = PrimeFieldCtx(q)
    for s in range(q):
        total = sum(ctx.chi(a * s) for a in range(q))
        expected = q if s == 0 else 0
        assert abs(total - expected) < 1e-9


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_gauss_sum_square(q):
    ctx = PrimeFieldCtx(q)
    g = ctx.gauss_sum()
    assert abs(abs(g) ** 2 - q) < 1e-9
    assert abs(g * g - ctx.eta(-1) * q) < 1e-9


def test_gauss_sum_q3_direct():
    # direct summation over a in {0, 1, 2}
    expected = sum(
        e * cmath.exp(2j * cmath.pi * a / 3)
        for a, e in [(0, 0), (1, 1), (2, -1)]
    )
    assert abs(PrimeFieldCtx(3).gauss_sum() - expected) < 1e-12
    assert abs(expected - complex(0, math.sqrt(3))) < 1e-12


@pytest.mark.parametrize("q", [3, 5, 13, 101])
def test_character_tables_are_built_on_first_read(q):
    ctx = PrimeFieldCtx(q)
    for name in PrimeFieldCtx.__slots__[1:]:
        with pytest.raises(AttributeError):
            object.__getattribute__(ctx, name)
    chi = ctx.chi_table
    assert ctx.chi_table is chi
    assert chi == tuple(cmath.exp(2j * cmath.pi * a / q) for a in range(q))
    eta = ctx.eta_table
    assert ctx.eta_table is eta
    assert eta == tuple(0 if a == 0 else (1 if pow(a, (q - 1) // 2, q) == 1 else -1)
                        for a in range(q))
    with pytest.raises(AttributeError):
        ctx.chi_tables
