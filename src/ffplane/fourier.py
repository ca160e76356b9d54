"""Normalized Fourier analysis on the plane over F_q.

Convention: fhat(m) = q^-2 * sum_x f(x) * chi(-x.m) with the standard
bilinear form x.m = x1*m1 + x2*m2, so inversion reads
f(x) = sum_m chi(m.x) * fhat(m) and Plancherel reads
sum_m |fhat(m)|^2 = q^-2 * sum_x |f(x)|^2.

Under this convention q^2 * fhat is numpy's forward 2-D DFT,
sum_x f(x) * exp(-2*pi*i*x.m/q), so the workhorse transform is fft2 / q^2
and the inversion is q^2 * ifft2.  A literal O(q^4) double loop is kept as
the oracle; the two must agree to 1e-9 and the test suite holds them to that.

``transform`` is the one place the normalized DFT is computed.  It takes
plain arrays (or a point set's indicator) and returns the coefficient
array, indexed [m1, m2], so fhat(-m) is numpy's negative index; the fast
route also takes a stack of tables and transforms each alone.  For a real
f, fhat(-m) = conj(fhat(m)).
"""

import functools

import numpy as np

from . import geometry
from .field import PrimeFieldCtx
from .geometry import PointSet, norm, norm_classes
from .report import JSON_BOOL, VERDICT_EPS, BoundReport, ReportBatch, line_parts


def _as_array(ctx: PrimeFieldCtx, f) -> np.ndarray:
    if isinstance(f, PointSet):
        if f.q != ctx.q:
            raise ValueError("point set and field context disagree on q")
        return f.indicator
    arr = np.asarray(f)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"expected a real table, got dtype {arr.dtype}")
    if arr.shape[-2:] != (ctx.q, ctx.q):
        raise ValueError(f"expected a {ctx.q}x{ctx.q} table, got {arr.shape}")
    return arr


def transform(ctx: PrimeFieldCtx, f, method: str = "fast") -> np.ndarray:
    """Fourier coefficients fhat(m) of f as a complex array indexed [m1, m2];
    fhat(-m) is the same array at [-m1, -m2].

    f is a point set, a real q x q table (bool, integer or float), or for
    method="fast" a stack of such tables along leading axes, each
    transformed alone.  method="fast" is numpy's 2-D FFT scaled by q^-2, in
    numpy's precision for the table's dtype; method="oracle" evaluates every
    coefficient of one table by the direct double sum.
    """
    q = ctx.q
    arr = _as_array(ctx, f)
    if method == "fast":
        return np.fft.fft2(arr) / (q * q)
    if method == "oracle":
        if arr.ndim != 2:
            raise ValueError(f"the oracle takes one {q}x{q} table, got {arr.shape}")
        chi = ctx.chi_table
        coeffs = np.empty((q, q), dtype=np.complex128)
        for m1 in range(q):
            for m2 in range(q):
                acc = 0j
                for x1 in range(q):
                    row = arr[x1]
                    for x2 in range(q):
                        v = row[x2]
                        if v:
                            acc += v * chi[(-(x1 * m1 + x2 * m2)) % q]
                coeffs[m1, m2] = acc / (q * q)
        return coeffs
    raise ValueError(f"unknown method {method!r}")


def inverse(ctx: PrimeFieldCtx, coeffs: np.ndarray) -> np.ndarray:
    """Inversion: f(x) = sum_m chi(m.x) * coeffs[m].  Returns a complex table."""
    q = ctx.q
    return (q * q) * np.fft.ifft2(coeffs)


def circle_spectrum_closed(ctx: PrimeFieldCtx, j: int, m) -> complex:
    """Closed form for the circle coefficient.

    fhat_{S_j}(m) = q^-1 * [m = 0] + q^-3 * G^2 * sum_{r != 0} chi(j*r + |m| / (4*r))
    where G is the Gauss sum and |m| the distance form of m.  Division by 4r
    is a field inverse, so this needs odd q only.
    """
    q = ctx.q
    j %= q
    nm = norm(ctx, m)
    g = ctx.gauss_sum()
    acc = 0j
    chi = ctx.chi_table
    for r in range(1, q):
        inv4r = ctx.inv((4 * r) % q)
        acc += chi[(j * r + nm * inv4r) % q]
    value = (g * g) * acc / q**3
    if m[0] % q == 0 and m[1] % q == 0:
        value += 1.0 / q
    return value


def circle_decay_batch(ctx: PrimeFieldCtx, js) -> ReportBatch:
    """The largest nonzero-mode coefficient of each circle S_j, j in js,
    against the q^(-3/2) scale, a row per j.

    Asserted threshold is 2*q^(-3/2); the constant-1 threshold is recorded
    alongside.  For j = 0 the isotropic modes (m != 0 with |m| = 0, present
    when -1 is a square) carry coefficients of order 1/q, so they are
    excluded from the primary maximum and logged separately.
    """
    q = ctx.q
    js = [j % q for j in js]
    lhs, max_all, iso_max = map(list, _decay_maxima(
        ctx, tuple(js), max(1, geometry.INDEX_CHUNK // (q * q))))
    rhs = 2.0 * q**-1.5
    strict_rhs = q**-1.5
    # lhs is a float FFT modulus with no integer form, so verdicts keep the 1e-9 guard.
    return ReportBatch(
        "circle-decay", {"q": q}, {"strict_rhs": strict_rhs}, {"j": js},
        {"holds_strict": [x <= strict_rhs + VERDICT_EPS for x in lhs],
         "max_all_nonzero_modes": max_all,
         "ratio_to_strict": [x / strict_rhs for x in lhs],
         "isotropic_max": iso_max},
        lhs, [rhs] * len(js), [x / rhs for x in lhs], [rhs - x for x in lhs],
        [x <= rhs + VERDICT_EPS for x in lhs])


@functools.lru_cache(maxsize=16)
def _decay_maxima(ctx: PrimeFieldCtx, js: tuple, step: int) -> tuple:
    """(lhs, max_all_nonzero_modes, isotropic_max) of circle_decay_batch,
    cached per field and js: one transform per stack of ``step`` circles."""
    q = ctx.q
    nonzero_mode = np.ones((q, q), dtype=bool)
    nonzero_mode[0, 0] = False
    classes = norm_classes(ctx)
    isotropic = (classes == 0) & nonzero_mode
    anisotropic = nonzero_mode & ~isotropic
    maxima = [[], [], []]
    for i in range(0, len(js), step):
        stack = classes == np.array(js[i:i + step])[:, None, None]
        mags = np.abs(transform(ctx, stack))
        for out, modes in zip(maxima, (nonzero_mode, anisotropic, isotropic)):
            out += mags[:, modes].max(axis=1).tolist() if modes.any() else [None] * len(mags)
    max_all, regular, iso = maxima
    return (tuple(r if j == 0 else m for j, m, r in zip(js, max_all, regular)), tuple(max_all),
            tuple(v if j == 0 else None for j, v in zip(js, iso)))


def check_circle_decay(ctx: PrimeFieldCtx, j: int) -> BoundReport:
    """circle_decay_batch's report for one circle S_j."""
    return circle_decay_batch(ctx, [j]).report(0)


def circle_decay_lines(b: ReportBatch, head: str, prng: str) -> str:
    """The line layout of a circle-decay batch (see ffplane.bounds);
    isotropic_max is written where a row has it."""
    holds, post, mid, rhs = line_parts(b, prng, '"j": ', f', "q": {b.inputs["q"]}')
    strict = f', "strict_rhs": {b.extra["strict_rhs"]!r}'
    c = b.row_extra
    isos = ["" if v is None else f'"isotropic_max": {v!r}, ' for v in c["isotropic_max"]]
    return "".join([
        f'{head}"holds_strict": {JSON_BOOL[hs]}, {iso}"max_all_nonzero_modes": {m!r}, '
        f'"ratio_to_strict": {rs!r}{strict}{holds[h]}{j}{post}{lhs!r}{mid}{r!r}{rhs}{s!r}}}\n'
        for j, hs, iso, m, rs, lhs, r, s, h in zip(
            b.row_inputs["j"], c["holds_strict"], isos,
            c["max_all_nonzero_modes"], c["ratio_to_strict"],
            b.lhs, b.ratio, b.slack, b.holds)])
