import math

import pytest

from ffplane.bounds import (check_par_mean, check_rhom_lower, check_rhom_relation,
                            check_unit_distance)
from ffplane.field import PrimeFieldCtx
from ffplane.geometry import PointSet, full_plane, gen_random_set
from ffplane.rng import SplitMix64


@pytest.fixture(scope="session")
def ctx3():
    return PrimeFieldCtx(3)


@pytest.fixture(scope="session")
def ctx5():
    return PrimeFieldCtx(5)


@pytest.fixture(scope="session")
def ctx7():
    return PrimeFieldCtx(7)


@pytest.fixture(scope="session")
def ctx11():
    return PrimeFieldCtx(11)


@pytest.fixture(scope="session")
def ctx13():
    return PrimeFieldCtx(13)


def random_quadruple(ctx, seed, lo=0.1, hi=0.9):
    """Four seeded random sets with densities drawn from [lo, hi)."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(4):
        density = lo + (hi - lo) * rng.next_float()
        out.append(gen_random_set(ctx, density, rng.next_u64()))
    return out


# rhombus route -> the counting constants that force it: the bits
# (_PAIRS_PER_WORD = 0) and the pair route (the bits off), which marks and
# probes its large meets.
RHOMBUS_ROUTES = {
    "bits": {"_PAIRS_PER_WORD": 0},
    "probes": {"_BIT_MAX_Q": 0},
}


def direction_sums(terms):
    """One radius's entry of counting.rhombus_sums from its per-direction
    terms (|E12^x|, |E34^x|, rhom_x): the plain Python sums, the roots
    added one at a time in the terms' order."""
    prods = [a * b for a, b, _ in terms]
    root = 0.0
    for p in prods:
        root += math.sqrt(p)
    return sum(r for _, _, r in terms), sum(prods), root, prods


def extreme_case_reports(ctx, t: int) -> list:
    """The two boundary instances (empty sets, full plane) for each check."""
    empty = PointSet(ctx.q, [])
    plane = full_plane(ctx)
    reports = []
    for s in (empty, plane):
        reports.append(check_unit_distance(ctx, s, s, t))
        reports.append(check_par_mean(ctx, s, s, s, s, t))
        reports.append(check_rhom_relation(ctx, s, s, s, s, t))
        reports.append(check_rhom_lower(ctx, s, s, s, s, t))
    return reports
