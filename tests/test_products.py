"""The fast counters on product sets, against a separable route.

For E_i = A_i x B_i the difference count factors, D12(v) =
r_{A1A2}(v1) r_{B1B2}(v2), where r_{AB}(s) = #{(a, b) in A x B : a - b = s}
is the 1-D difference count.  So, with f = r_{A1A2} r_{A3A4} and
g = r_{B1B2} r_{B3B4}, Par_t is the sum of f(v1) g(v2) over the circle
v1^2 + v2^2 = t, whose points are found from 1-D square roots, and
Par = (sum f)(sum g); n_t(A x B, C x D) is the same circle sum of r_{AC}
and r_{BD}.  The route is 1-D arrays and one q x q index of t - v1^2: it
shares no code with geometry's tiling, so it checks the fast counters at
q in the hundreds and past, where the oracles cannot go.
"""

import numpy as np
import pytest

from ffplane import counting
from ffplane.counting import count_par_all, count_par_t, count_unit_distances, par_t_profile
from ffplane.field import PrimeFieldCtx
from ffplane.geometry import PointSet, circle, full_plane
from ffplane.rng import SplitMix64


def product_set(q: int, A, B) -> PointSet:
    ind = np.zeros((q, q), dtype=bool)
    ind[np.ix_(A, B)] = True
    return PointSet._from_indicator(q, ind)


def differences(q: int, A, B) -> np.ndarray:
    """r_{AB}(s) for every s in F_q, as int64."""
    return np.bincount(np.subtract.outer(A, B).ravel() % q, minlength=q)


def circle_sums(q: int, f, g) -> list:
    """[sum of f(v1) g(v2) over v1^2 + v2^2 = t for t in F_q], as ints.

    For each v1, the v2 are the square roots of t - v1^2, so the inner sum
    is root_sums[t - v1^2], g summed over the roots of each residue.
    """
    y = np.arange(q, dtype=np.int64)
    root_sums = np.zeros(q, dtype=np.int64)
    np.add.at(root_sums, y * y % q, g)
    return (root_sums[(y[:, None] - y * y) % q] * f).sum(axis=1).tolist()


def separable_counts(q: int, factors, t: int) -> tuple:
    """(n_t of the first two sets, Par_t, Par, the profile) of the product
    sets A_i x B_i given as factors [(A_1, B_1), ..., (A_4, B_4)]."""
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = factors
    ra12, rb12 = differences(q, a1, a2), differences(q, b1, b2)
    n_t = circle_sums(q, ra12, rb12)[t]
    f, g = ra12 * differences(q, a3, a4), rb12 * differences(q, b3, b4)
    profile = circle_sums(q, f, g)
    return n_t, profile[t], int(f.sum()) * int(g.sum()), dict(enumerate(profile))


def _subset(prng: SplitMix64, q: int, density: float) -> list:
    return [x for x in range(q) if prng.next_float() < density]


def _ap(q: int, start: int, step: int, length: int) -> list:
    return [(start + k * step) % q for k in range(length)]


def _factors(kind: str, q: int, seed: int) -> list:
    """Four (A, B) pairs of one kind of product set."""
    prng = SplitMix64(seed)
    if kind == "strips":
        return [(list(range(q)), sorted(set(_ap(q, 5 * k, k + 1, 4)))) for k in range(4)]
    if kind == "grids":
        n = q // 8
        return [(_ap(q, k, 2 + k, n), _ap(q, 3 * k, q - 1 - k, n)) for k in range(4)]
    if kind == "qr":
        squares = sorted({x * x % q for x in range(1, q)})
        return [([(x + k) % q for x in squares], [(x + 7 * k) % q for x in squares])
                for k in range(4)]
    return [(_subset(prng, q, 0.1 + 0.1 * k), _subset(prng, q, 0.4 - 0.1 * k))
            for k in range(4)]


@pytest.mark.parametrize("q", [211, 401, 1009])
@pytest.mark.parametrize("kind", ["strips", "grids", "qr", "random"])
def test_fast_counters_match_the_separable_route(kind, q):
    ctx = PrimeFieldCtx(q)
    factors = _factors(kind, q, q)
    sets = [product_set(q, A, B) for A, B in factors]
    t = 1 + q % 7
    n_t, par_t, par, profile = separable_counts(q, factors, t)
    assert count_unit_distances(ctx, *sets[:2], t).value == n_t
    assert count_par_t(ctx, *sets, t).value == par_t
    assert count_par_all(ctx, *sets).value == par
    assert par_t_profile(ctx, *sets) == profile


def _product_dtypes(monkeypatch) -> list:
    """The dtype of each table_products result, in call order."""
    products = counting.table_products
    dtypes = []

    def spy(d12, d34):
        prod = products(d12, d34)
        dtypes.append(prod.dtype)
        return prod

    monkeypatch.setattr(counting, "table_products", spy)
    return dtypes


def test_full_plane_stays_int64_below_the_product_bound(monkeypatch):
    """At q = 401 the total mass q^8 passes 2^63, but no sum of products
    exceeds max D * q^4 = q^6: Par and Par_t are summed in int64."""
    q = 401
    ctx = PrimeFieldCtx(q)
    plane = full_plane(ctx)
    dtypes = _product_dtypes(monkeypatch)
    assert q**8 >= 2**63 > q**6
    assert count_par_all(ctx, *[plane] * 4).value == q**6
    assert count_par_t(ctx, *[plane] * 4, 1).value == q**4 * len(circle(ctx, 1))
    assert dtypes == [np.dtype(np.int64)] * 2


def test_full_plane_past_int64(monkeypatch):
    """At q = 1451, q^6 > 2^63: Par = q^6 and Par_t = q^4 |S_t| are summed in
    Python ints (table_products), and agree with the separable route."""
    q = 1451
    ctx = PrimeFieldCtx(q)
    plane = full_plane(ctx)
    dtypes = _product_dtypes(monkeypatch)
    line = list(range(q))
    _, par_t, par, _ = separable_counts(q, [(line, line)] * 4, 1)
    assert q**6 > 2**63
    assert count_par_all(ctx, *[plane] * 4).value == q**6 == par
    assert count_par_t(ctx, *[plane] * 4, 1).value == q**4 * len(circle(ctx, 1)) == par_t
    assert dtypes == [np.dtype(object)] * 2
