import math

import numpy as np
import pytest

from ffplane import bounds
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


def rhombus_sums_by_radius(sums, radii) -> list:
    """counting.rhombus_sums' arrays, taken at the radii ``radii`` (one
    list a quad, a row each), as a dict per quad: {t: (Rhom_t, sum_x p_x,
    sum_x sqrt(p_x), [p_x])} at each of the quad's radii, as Python ints
    and floats."""
    rhom, par, roots, prods, sizes = sums
    rows = iter(zip(rhom.tolist(), par.tolist(), roots.tolist(),
                    [p[:n] for p, n in zip(prods.tolist(), sizes)]))
    return [{t: next(rows) for t in rs} for rs in radii]


# One-instance batches of each check's row builder, from counts given as
# Python ints of any size: the instance is a block of one.

def _one_instance(name, q, radii, sizes, tag, *counts):
    columns = bounds.CHECKS[name].rows(q, [sizes], *counts)
    return next(bounds._batches(name, q, np.array([radii]), [sizes], [tag], *columns))


def _ints(values):
    return np.array(values, dtype=object)


def unit_distance_batch(q, radii, counts, sizes, **tag):
    return _one_instance("unit-distance", q, radii, sizes, tag, _ints([counts]))


def par_mean_batch(q, radii, par_t, par_all, sizes, **tag):
    return _one_instance("par-vs-mean", q, radii, sizes, tag, _ints([par_t]), [par_all])


def par_pair_batch(q, pairs, par_t, par_t2, sizes, **tag):
    return _one_instance("par-pairs", q, pairs, sizes, tag, _ints([par_t]), _ints([par_t2]))


def rhom_relation_batch(q, radii, sums, sizes, **tag):
    """sums: each radius's (Rhom_t, sum_x p_x, sum_x sqrt(p_x), [p_x])."""
    rhom, par, roots, prods = zip(*sums)
    return _one_instance("rhom-vs-par", q, radii, sizes, tag, _ints([rhom]), _ints(par),
                         np.array(roots), prods, list(map(len, prods)))


def rhom_lower_batch(q, radii, rhoms, sizes, **tag):
    return _one_instance("rhom-lower", q, radii, sizes, tag, _ints([rhoms]))
