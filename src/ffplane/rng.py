"""Deterministic 64-bit PRNG used for every seeded fixture in the package.

The generator is splitmix64: the state advances by a fixed odd constant and
the output is produced by two xor-shift-multiply mixing rounds.  It is tiny,
has no hidden global state, and makes instances reproducible from a single
64-bit seed across platforms.  The identifier below is embedded in JSON
reports so consumers can tell which algorithm produced a fixture.
"""

import numpy as np

ALGORITHM = "splitmix64"

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1) using the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, n: int) -> int:
        """Uniform-ish integer in [0, n); plain modulo, bias is irrelevant
        at desk scale and determinism is the contract."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def shuffle(self, items: list) -> list:
        """In-place Fisher-Yates shuffle; returns the list for chaining.

        Swap i (from the top down) uses ``next_below(i + 1)``; the draws are
        taken at once, so the stream advances exactly as the scalar loop.
        """
        n = len(items)
        if n > 1:
            draws = splitmix64_u64(self.state, n - 1)
            self.state = (self.state + (n - 1) * _GAMMA) & _MASK
            picks = draws % np.arange(n, 1, -1, dtype=np.uint64)
            for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
                items[i], items[j] = items[j], items[i]
        return items

    def fork(self) -> "SplitMix64":
        """Derive an independent child stream (one draw of this stream)."""
        return SplitMix64(self.next_u64())


def splitmix64_u64(seed: int, n: int) -> np.ndarray:
    """The first n ``next_u64()`` draws of ``SplitMix64(seed)`` as one array.

    The k-th state is seed + k * gamma mod 2^64, so every draw is computed
    at once; uint64 arithmetic wraps exactly as the scalar generator masks.
    """
    z = np.uint64(seed & _MASK) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))
