"""Prime-field context: the modular inverse, characters, and the Gauss sum.

Field elements are plain Python ints in canonical residue form 0..q-1.
A ``PrimeFieldCtx`` owns the modulus and two precomputed character tables:

* ``chi_table[a] = exp(2*pi*i*a/q)`` -- the additive character,
* ``eta_table[a]`` in ``{-1, 0, +1}`` -- the quadratic character
  (``+1`` for nonzero squares, ``-1`` for non-squares, ``0`` at zero).

Each table is a cached property, built on its first read: the
character-sum routines (the oracle transform, the closed-form circle
spectrum, the Gauss sum) evaluate a character up to q^4 times, while most
commands never read one.  Apart from that fill the context does not
change, and two first reads at once build equal tables, so it is safe to
share between threads.  Contexts of one q are equal and hash alike, so
geometry caches its per-field tables keyed by the context.
"""

import cmath
import functools

from .errors import ZeroInverse


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeFieldCtx:
    __slots__ = ("q", "__dict__")

    def __init__(self, q: int):
        if not isinstance(q, int) or not is_prime(q) or q < 3:
            raise ValueError(f"q must be an odd prime >= 3, got {q!r}")
        self.q = q

    def __eq__(self, other):
        return isinstance(other, PrimeFieldCtx) and self.q == other.q

    def __hash__(self):
        return hash(self.q)

    @functools.cached_property
    def chi_table(self) -> tuple:
        q = self.q
        # chi(0) must be exactly 1+0j; cmath.exp(0) already guarantees it.
        return tuple(cmath.exp(2j * cmath.pi * a / q) for a in range(q))

    @functools.cached_property
    def eta_table(self) -> tuple:
        q = self.q
        half = (q - 1) // 2
        return tuple(0 if a == 0 else (1 if pow(a, half, q) == 1 else -1) for a in range(q))

    # -- arithmetic ---------------------------------------------------------

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat: a^(q-2) mod q."""
        a %= self.q
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return pow(a, self.q - 2, self.q)

    # -- characters ---------------------------------------------------------

    def chi(self, a: int) -> complex:
        """Additive character exp(2*pi*i*a/q)."""
        return self.chi_table[a % self.q]

    def eta(self, a: int) -> int:
        """Quadratic character: +1 on nonzero squares, -1 otherwise, 0 at 0."""
        return self.eta_table[a % self.q]

    def gauss_sum(self) -> complex:
        """G = sum_a eta(a) * chi(a); satisfies G^2 = eta(-1) * q."""
        return sum(self.eta_table[a] * self.chi_table[a] for a in range(1, self.q))

    def __repr__(self):
        return f"PrimeFieldCtx(q={self.q})"
