"""Normalized Fourier analysis on the plane over F_q.

Convention: fhat(m) = q^-2 * sum_x f(x) * chi(-x.m) with the standard
bilinear form x.m = x1*m1 + x2*m2, so inversion reads
f(x) = sum_m chi(m.x) * fhat(m) and Plancherel reads
sum_m |fhat(m)|^2 = q^-2 * sum_x |f(x)|^2.

Under this convention q^2 * fhat is numpy's forward 2-D DFT,
sum_x f(x) * exp(-2*pi*i*x.m/q), so the workhorse transform is fft2 / q^2
and the inversion is q^2 * ifft2.  A literal O(q^4) double loop is kept as
the oracle; the two must agree to 1e-9 and the test suite holds them to that.
"""

import numpy as np

from .field import PrimeFieldCtx
from .geometry import PointSet, circle, norm, norm_classes
from .report import JSON_BOOL, BoundReport, make_report, safe_ratio


class Spectrum:
    """Table of Fourier coefficients over the dual copy of F_q^2."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q: int, coeffs: np.ndarray):
        self.q = q
        self.coeffs = coeffs

    def at(self, m) -> complex:
        return complex(self.coeffs[m[0] % self.q, m[1] % self.q])

    def __repr__(self):
        return f"Spectrum(q={self.q})"


def _as_array(ctx: PrimeFieldCtx, f) -> np.ndarray:
    if isinstance(f, PointSet):
        if f.q != ctx.q:
            raise ValueError("point set and field context disagree on q")
        return f.indicator
    arr = np.asarray(f, dtype=np.float64)
    if arr.shape != (ctx.q, ctx.q):
        raise ValueError(f"expected a {ctx.q}x{ctx.q} table, got {arr.shape}")
    return arr


def transform(ctx: PrimeFieldCtx, f, method: str = "fast") -> Spectrum:
    """Fourier transform of a real table or point-set indicator.

    method="fast" is numpy's 2-D FFT scaled by q^-2;
    method="oracle" evaluates every coefficient by the direct double sum.
    """
    q = ctx.q
    arr = _as_array(ctx, f)
    if method == "fast":
        return Spectrum(q, np.fft.fft2(arr) / (q * q))
    if method == "oracle":
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
        return Spectrum(q, coeffs)
    raise ValueError(f"unknown method {method!r}")


def inverse(ctx: PrimeFieldCtx, spec: Spectrum) -> np.ndarray:
    """Inversion: f(x) = sum_m chi(m.x) * coeffs(m).  Returns a complex table."""
    q = ctx.q
    return (q * q) * np.fft.ifft2(spec.coeffs)


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


def check_circle_decay(ctx: PrimeFieldCtx, j: int) -> BoundReport:
    """Largest nonzero-mode circle coefficient against the q^(-3/2) scale.

    Asserted threshold is 2*q^(-3/2); the constant-1 threshold is recorded
    alongside.  For j = 0 the isotropic modes (m != 0 with |m| = 0, present
    when -1 is a square) carry coefficients of order 1/q, so they are
    excluded from the primary maximum and logged separately.
    """
    q = ctx.q
    j %= q
    spec = transform(ctx, circle(ctx, j), method="fast")
    mags = np.abs(spec.coeffs)

    norms = norm_classes(ctx)
    nonzero_mode = np.ones((q, q), dtype=bool)
    nonzero_mode[0, 0] = False

    isotropic = (norms == 0) & nonzero_mode
    regular = (nonzero_mode & ~isotropic) if j == 0 else nonzero_mode

    max_regular = float(mags[regular].max()) if regular.any() else 0.0
    max_all = float(mags[nonzero_mode].max())
    iso_max = float(mags[isotropic].max()) if (j == 0 and isotropic.any()) else None

    rhs = 2.0 * q**-1.5
    strict_rhs = q**-1.5
    # lhs is a float FFT modulus with no integer form, so verdicts keep the 1e-9 guard.
    extra = {
        "strict_rhs": strict_rhs,
        "holds_strict": max_regular <= strict_rhs + 1e-9,
        "max_all_nonzero_modes": max_all,
        "ratio_to_strict": safe_ratio(max_regular, strict_rhs),
    }
    if iso_max is not None:
        extra["isotropic_max"] = iso_max
    return make_report(
        "circle-decay",
        lhs=max_regular,
        rhs=rhs,
        inputs={"q": q, "j": j},
        extra=extra,
    )


def circle_decay_fields(i, e):
    """The line layout of a circle-decay report (see ffplane.bounds): its
    inputs and extra as JSON object bodies, keys sorted; isotropic_max is
    written when present."""
    iso = f'"isotropic_max": {e["isotropic_max"]!r}, ' if "isotropic_max" in e else ""
    return (f'"holds_strict": {JSON_BOOL[e["holds_strict"]]}, {iso}'
            f'"max_all_nonzero_modes": {e["max_all_nonzero_modes"]!r}, '
            f'"ratio_to_strict": {e["ratio_to_strict"]!r}, "strict_rhs": {e["strict_rhs"]!r}',
            f'"j": {i["j"]}, "q": {i["q"]}')
