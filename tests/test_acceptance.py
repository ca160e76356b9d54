"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line with its elapsed time; run with

    pytest tests/test_acceptance.py -v -s

Expected values tagged as fixtures were computed once with the brute-force
oracles and frozen here as golden numbers.
"""

import json
import time

from conftest import random_quadruple
from ffplane import cli
from ffplane.bounds import (
    check_par_mean_all,
    check_par_all_pairs,
    extreme_case_reports,
    sweep,
)
from ffplane.counting import (
    count_degenerate_rhom,
    count_par_all,
    count_par_t,
    count_rhom_t,
    count_unit_distances,
    par_t_fourier,
)
from ffplane.field import PrimeFieldCtx, is_prime
from ffplane.fourier import check_circle_decay, circle_spectrum_closed, transform
from ffplane.geometry import circle, full_plane, gen_example_line_ap
from ffplane.rng import SplitMix64
from ffplane.vc import Witness, build_system, find_witness, shatters, vc_dimension, verify_witness


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(num, label, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    extra = f" budget={budget}s" if budget else ""
    print(f"ACCEPTANCE {num:>2} {label}: {status} ({elapsed:.1f}s{extra})")


def test_c01_circle_spectrum_closed_form():
    tol = 1e-9
    ok = True
    with Timer() as tm:
        for q in (3, 5, 7, 11, 13):
            ctx = PrimeFieldCtx(q)
            for j in range(q):
                oracle = transform(ctx, circle(ctx, j), method="oracle")
                for m1 in range(q):
                    for m2 in range(q):
                        closed = circle_spectrum_closed(ctx, j, (m1, m2))
                        if abs(oracle[m1, m2] - closed) >= tol:
                            ok = False
    report(1, "circle spectrum closed form", ok and tm.elapsed < 30, tm.elapsed, 30)
    assert ok
    assert tm.elapsed < 30


def test_c02_circle_decay():
    qs = [q for q in range(3, 32) if is_prime(q)]
    ok = True
    logged = []
    with Timer() as tm:
        for q in qs:
            ctx = PrimeFieldCtx(q)
            for j in range(1, q):
                rep = check_circle_decay(ctx, j)
                if not (rep.holds and rep.lhs <= 2 * q**-1.5 + 1e-9):
                    ok = False
            rep0 = check_circle_decay(ctx, 0)
            if "isotropic_max" in rep0.extra:
                logged.append((q, rep0.extra["isotropic_max"]))
    for q, mx in logged:
        print(f"  logged zero-radius isotropic max: q={q} |coeff|={mx:.5f} "
              f"(2q^-1.5={2 * q**-1.5:.5f})")
    report(2, "circle decay (constant 2)", ok and tm.elapsed < 120, tm.elapsed, 120)
    assert ok
    assert tm.elapsed < 120


def test_c03_unit_distance_bound():
    violations = 0
    with Timer() as tm:
        for q in (5, 7, 11, 13):
            ctx = PrimeFieldCtx(q)
            reports = sweep(ctx, "unit-distance", 500, None, seed=1000 + q)
            violations += sum(1 for r in reports if not r.holds)
            for r in extreme_case_reports(ctx, 1):
                if r.name == "unit-distance" and not r.holds:
                    violations += 1
    ok = violations == 0
    report(3, "unit-distance concentration", ok and tm.elapsed < 60, tm.elapsed, 60)
    assert violations == 0
    assert tm.elapsed < 60


def test_c04_par_concentration_both_displays():
    violations = 0
    with Timer() as tm:
        for q in (5, 7, 11, 13):
            ctx = PrimeFieldCtx(q)
            for trial in range(200):
                sets = random_quadruple(ctx, 4000 + 31 * q + trial)
                for rep in check_par_mean_all(ctx, *sets):
                    if not rep.holds:
                        violations += 1
                for rep in check_par_all_pairs(ctx, *sets):
                    if not rep.holds:
                        violations += 1
    ok = violations == 0
    report(4, "par_t concentration (both displays)", ok and tm.elapsed < 300,
           tm.elapsed, 300)
    assert violations == 0
    assert tm.elapsed < 300


def test_c05_fourier_identity():
    # Small q against the oracle; past the old q <= 31 cap against fast.
    ok = True
    with Timer() as tm:
        for q, trials, reference in ((3, 50, "oracle"), (5, 50, "oracle"),
                                     (7, 50, "oracle"), (37, 5, "fast"),
                                     (41, 5, "fast"), (43, 5, "fast")):
            ctx = PrimeFieldCtx(q)
            for trial in range(trials):
                sets = random_quadruple(ctx, 5000 + 17 * q + trial, lo=0.1, hi=0.6)
                par_all = count_par_all(ctx, *sets, "fast").value
                term_is = []
                for t in range(1, q):
                    split = par_t_fourier(ctx, *sets, t)
                    expected = count_par_t(ctx, *sets, t, reference).value
                    if split.value != expected:
                        ok = False
                    if abs(split.total - split.value) > split.error_bound:
                        ok = False
                    if abs(split.term_i.real - par_all / q) > 1e-6:
                        ok = False
                    if abs(split.term_i.imag) > 1e-6:
                        ok = False
                    term_is.append(split.term_i)
                if max(abs(x - term_is[0]) for x in term_is) > 1e-6:
                    ok = False
    report(5, "fourier split identity", ok and tm.elapsed < 120, tm.elapsed, 120)
    assert ok
    assert tm.elapsed < 120


def test_c06_rhombus_identity_and_degenerates():
    ok = True
    with Timer() as tm:
        for q in (3, 5, 7, 11, 13):
            ctx = PrimeFieldCtx(q)
            master = SplitMix64(6000 + q)
            for trial in range(200):
                rng = master.fork()
                sets = random_quadruple(ctx, rng.next_u64(), lo=0.1, hi=0.55)
                t = 1 + rng.next_below(q - 1)
                fast = count_rhom_t(ctx, *sets, t, "fast").value
                oracle = count_rhom_t(ctx, *sets, t, "oracle").value
                if fast != oracle:
                    ok = False
                excl = count_rhom_t(ctx, *sets, t, "fast",
                                    exclude_degenerate=True).value
                deg = count_degenerate_rhom(ctx, *sets, t).value
                if fast - excl != deg:
                    ok = False
    report(6, "rhombus oracle/fast + degenerate accounting",
           ok and tm.elapsed < 120, tm.elapsed, 120)
    assert ok
    assert tm.elapsed < 120


# Golden fixtures for q=3, t=1, full plane, frozen from the oracle runs.
GOLDEN_Q3 = {"n_t": 36, "par_t": 324, "par": 729, "rhom_t": 144, "degenerate": 36}


def test_c07_fixed_fixtures():
    ctx = PrimeFieldCtx(3)
    plane = full_plane(ctx)
    with Timer() as tm:
        values = {
            "n_t": count_unit_distances(ctx, plane, plane, 1, "oracle").value,
            "par_t": count_par_t(ctx, plane, plane, plane, plane, 1, "oracle").value,
            "par": count_par_all(ctx, plane, plane, plane, plane, "oracle").value,
            "rhom_t": count_rhom_t(ctx, plane, plane, plane, plane, 1, "oracle").value,
            "degenerate": count_degenerate_rhom(ctx, plane, plane, plane, plane, 1).value,
        }
        fast = {
            "n_t": count_unit_distances(ctx, plane, plane, 1, "fast").value,
            "par_t": count_par_t(ctx, plane, plane, plane, plane, 1, "fast").value,
            "par": count_par_all(ctx, plane, plane, plane, plane, "fast").value,
            "rhom_t": count_rhom_t(ctx, plane, plane, plane, plane, 1, "fast").value,
            "degenerate": values["degenerate"],
        }
    ok = values == GOLDEN_Q3 == fast
    report(7, "fixed q=3 fixtures", ok, tm.elapsed)
    assert values == GOLDEN_Q3
    assert fast == GOLDEN_Q3


def additive_energy(xs, q):
    return sum(
        1
        for a in xs for b in xs for c in xs for d in xs
        if (a - b) % q == (c - d) % q
    )


def math_ceil_sqrt(n):
    r = int(n**0.5)
    return r if r * r >= n else r + 1


def test_c08_line_ap_scaling():
    ok = True
    with Timer() as tm:
        for q in (13, 17):
            ctx = PrimeFieldCtx(q)
            k = math_ceil_sqrt(q)
            xs = [(1 + 3 * i) % q for i in range(k)]  # AP with step 3
            E = gen_example_line_ap(ctx, xs)
            par = count_par_all(ctx, E, E, E, E, "fast").value
            energy = additive_energy(xs, q)
            if par != q**3 * energy:
                ok = False
            scale = par / (len(xs) ** 3 * q**3)
            if not (1 / 8 <= scale <= 8):
                ok = False
    report(8, "strip-set scaling via additive energy", ok and tm.elapsed < 60,
           tm.elapsed, 60)
    assert ok
    assert tm.elapsed < 60


def test_c09_vc_dimension_exhaustive():
    ok = True
    with Timer() as tm:
        for q in (7, 11, 13):
            ctx = PrimeFieldCtx(q)
            sys_ = build_system(ctx, full_plane(ctx), 1)
            if vc_dimension(sys_, cap=4) != 3:
                ok = False
    report(9, "VC dimension of the full plane", ok and tm.elapsed < 300,
           tm.elapsed, 300)
    assert ok
    assert tm.elapsed < 300


def test_c10_witness_pipeline():
    ok = True
    with Timer() as tm:
        for q in (11, 13):
            ctx = PrimeFieldCtx(q)
            E = full_plane(ctx)
            w = find_witness(ctx, E, 1, seed=0)
            if not isinstance(w, Witness):
                ok = False
                continue
            verified, violations = verify_witness(ctx, E, 1, w)
            if not verified:
                ok = False
            sys_ = build_system(ctx, E, 1)
            if not shatters(sys_, [w.x1, w.x2, w.x3]):
                ok = False
    report(10, "witness construction + verification", ok and tm.elapsed < 60,
           tm.elapsed, 60)
    assert ok
    assert tm.elapsed < 60


def test_c11_fast_counter_speedup(capsys):
    with Timer() as tm:
        rc = cli.main([
            "bench", "--q", "13", "--t", "1", "--quantity", "par_t",
            "--methods", "oracle,fast", "--set", "random:0.5",
            "--seed", "11", "--runs", "5"])
        out = capsys.readouterr().out
    obj = json.loads(out.strip().splitlines()[-1])
    results = {r["method"]: r for r in obj["results"]}
    speedup = results["oracle"]["median_ms"] / results["fast"]["median_ms"]
    same = results["oracle"]["value"] == results["fast"]["value"]
    ok = rc == 0 and same and speedup >= 10
    with capsys.disabled():
        report(11, f"fast par_t speedup ({speedup:.0f}x)", ok, tm.elapsed)
    assert rc == 0
    assert same
    assert speedup >= 10
