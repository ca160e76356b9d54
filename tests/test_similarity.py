"""Oracle-free checks at q in the hundreds: the similarity group.

For z = (a, b) with N(z) = a^2 + b^2 != 0 mod q and any shift w, the map
x -> z.x + w, where z.x = (a x1 - b x2, b x1 + a x2), multiplies the
distance form by N(z): |z.x - z.y| = N(z) |x - y|.  So the radius-t counts
of E1..E4 are the radius-N(z) t counts of their images, Par is unchanged
and the profile permutes (P'[N(z) t] = P[t]); the VC dimension carries over
to the mapped radius, and so does a witness, point by point.  None of this
needs an oracle, so it checks every fast route on dense, non-product sets
at sizes the oracles cannot reach.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffplane import counting, geometry, vc
from ffplane.counting import (
    count_degenerate_rhom,
    count_par_all,
    count_par_t,
    count_rhom_t,
    count_unit_distances,
    par_t_profile,
)
from ffplane.field import PrimeFieldCtx
from ffplane.geometry import PointSet, gen_random_set


def similar_point(p, z, w, q: int) -> tuple:
    """The image of the point p under x -> z.x + w."""
    (a, b), (x1, x2) = z, p
    return ((a * x1 - b * x2 + w[0]) % q, (b * x1 + a * x2 + w[1]) % q)


def similar(E: PointSet, z, w) -> PointSet:
    """The image of E under x -> z.x + w."""
    return PointSet(E.q, [similar_point(p, z, w, E.q) for p in E])


def _norm(z, q: int) -> int:
    return (z[0] * z[0] + z[1] * z[1]) % q


def _check_counts(ctx, sets, z, w, t,
                  radius_counts=(count_par_t, count_rhom_t, count_degenerate_rhom)):
    """n_t, the radius_counts, Par and the profile of sets at t against
    their image's at N(z) t."""
    q = ctx.q
    images = [similar(E, z, w) for E in sets]
    s = _norm(z, q) * t % q
    assert count_unit_distances(ctx, *images[:2], s).value == \
        count_unit_distances(ctx, *sets[:2], t).value
    for count in radius_counts:
        assert count(ctx, *images, s).value == count(ctx, *sets, t).value
    assert count_par_all(ctx, *images).value == count_par_all(ctx, *sets).value
    profile = par_t_profile(ctx, *sets)
    image_profile = par_t_profile(ctx, *images)
    assert {_norm(z, q) * r % q: v for r, v in profile.items()} == image_profile


def _spy(mp, module, name) -> list:
    """Record what each call of module.name returns in the returned list."""
    results, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    mp.setattr(module, name, spy)
    return results


# route -> (the constants that force it, the highest density it is drawn
# at, the q it is drawn at, and the function whose returns show it was
# taken, with the test on them).  The probed (pair) route keeps off the bit
# route, which holds q bits a word (q <= 61).
_ROUTES = {
    "tables": ({(geometry, "_PROBES_PER_CELL"): 0}, 0.4, (61, 101),
               (geometry, "differences_at", lambda r: not r)),
    "fft": ({(geometry, "_EXACT_PAIRS_PER_CELL"): 0}, 0.4, (61, 101),
            (geometry, "_exact_differences", lambda r: not r)),
    "exact": ({(geometry, "_EXACT_PAIRS_PER_CELL"): 1 << 40}, 0.4, (61, 101),
              (np.fft, "rfft2", lambda r: not r)),
    "python-ints": ({(counting, "INT64_LIMIT"): 0}, 0.4, (61, 101),
                    (counting, "table_products",
                     lambda r: r and all(p.dtype == object for p in r))),
    "probed": ({(counting, "_BIT_MAX_Q"): 0}, 0.4, (61, 101), (counting, "_pair_terms", bool)),
    "bits": ({(counting, "_PAIRS_PER_WORD"): 0}, 0.4, (61,), (counting, "_bit_terms", bool)),
    "paired": ({}, 0.4, (61, 101), (counting, "mirrored_directions", bool)),
}

@st.composite
def _instances(draw, hi=0.4, qs=(61, 101)):
    """(q, z, w, t, densities, seeds) with N(z) != 0 mod q."""
    q = draw(st.sampled_from(qs))
    residue = st.integers(0, q - 1)
    z = draw(st.tuples(residue, residue).filter(lambda z: _norm(z, q)))
    w = draw(st.tuples(residue, residue))
    t = draw(st.integers(1, q - 1))
    densities = draw(st.lists(st.floats(0.05, hi), min_size=4, max_size=4))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=4, max_size=4))
    return q, z, w, t, densities, seeds


@pytest.mark.parametrize("route", _ROUTES)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_counts_follow_the_similarity_on_every_route(route, data):
    constants, hi, qs, (module, name, taken) = _ROUTES[route]
    q, z, w, t, densities, seeds = data.draw(_instances(hi, qs))
    ctx = PrimeFieldCtx(q)
    sets = gen_random_set(ctx, densities, seeds)
    if route == "paired":
        sets[1], sets[3] = sets[0], sets[2]
    with pytest.MonkeyPatch.context() as mp:
        for (owner, attr), value in constants.items():
            mp.setattr(owner, attr, value)
        results = _spy(mp, module, name)
        _check_counts(ctx, sets, z, w, t)
    assert taken(results)


@pytest.mark.parametrize("seed", [1, 2])
def test_counts_follow_the_similarity_at_q211(seed):
    """One seeded instance per counter at q = 211: dense sets for all but
    rhom_t, and sets of density <= 0.05 for all."""
    ctx = PrimeFieldCtx(211)
    seeds = [seed + k for k in range(4)]
    dense = gen_random_set(ctx, [0.3, 0.2, 0.4, 0.25], seeds)
    sparse = gen_random_set(ctx, [0.05, 0.03, 0.04, 0.05], seeds)
    _check_counts(ctx, dense, (2, 1), (5, 7), seed, (count_par_t, count_degenerate_rhom))
    _check_counts(ctx, sparse, (2, 1), (5, 7), seed)


@settings(max_examples=20, deadline=None)
@given(instance=_instances())
def test_vc_dimension_and_witness_follow_the_similarity(instance):
    q, z, w, t, densities, seeds = instance
    ctx = PrimeFieldCtx(q)
    E = gen_random_set(ctx, densities[0], seeds[0])
    image = similar(E, z, w)
    s = _norm(z, q) * t % q
    assert vc.vc_dimension(vc.build_system(ctx, image, s)) == \
        vc.vc_dimension(vc.build_system(ctx, E, t))
    found = vc.find_witness(ctx, E, t, seeds[1])
    if isinstance(found, vc.Witness):
        moved = {label: similar_point(p, z, w, q)
                 for label, p in found.labeled_points().items()}
        witness = dataclasses.replace(found, **moved, u=similar_point(found.u, z, (0, 0), q),
                                      t=s)
        assert vc.verify_witness(ctx, image, s, witness) == (True, [])
