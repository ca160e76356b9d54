"""Deterministic 64-bit PRNG used for every seeded fixture in the package.

The generator is splitmix64: the state advances by a fixed odd constant and
the output is produced by two xor-shift-multiply mixing rounds.  It is tiny,
has no hidden global state, and makes instances reproducible from a single
64-bit seed across platforms.  The identifier below is embedded in JSON
reports so consumers can tell which algorithm produced a fixture.

The scalar methods define every stream.  The array forms give the same
values with no per-draw Python: splitmix64_blocks computes runs of draws
at once, and SplitMix64.permutation is the scalar Fisher-Yates loop over
range(n) as array operations, leaving the state where that loop does.
"""

import numpy as np

ALGORITHM = "splitmix64"

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Draws computed at once by splitmix64_blocks.
_BLOCK = 1 << 14
# The mixing rounds (shift, multiplier) and the final shift, as uint64.
_ROUNDS = ((np.uint64(30), np.uint64(_MIX1)), (np.uint64(27), np.uint64(_MIX2)))
_FINAL = np.uint64(31)


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

    def permutation(self, n: int) -> np.ndarray:
        """The Fisher-Yates shuffle of range(n), as an int64 array.

        Swap i, from i = n - 1 down to 1, exchanges positions i and
        j_i = ``next_below(i + 1)``; the draws are taken at once, so the
        stream advances exactly as the scalar loop, and no swap runs in
        Python.  Position i is final after swap i and gets what position j_i
        held just before it: j_i itself, unless an earlier swap with the
        same partner wrote there.  What swap i writes to j_i is what
        position i held before it, which the last earlier swap with partner
        i wrote, or i.  A stable sort of the partners lists these previous
        writers, and pointer jumping follows each chain of writers to its
        first value, in about log2 of the longest chain's rounds (5 at
        n = 44,521, 6 at n ~ 10^6).  numpy radix-sorts keys of 16 bits or
        fewer, so the sort is one stable argsort of uint16 keys up to
        n = 2^16, and past it two: of the partners' low halves, then of
        their high halves in that order, which is the stable order of the
        whole partners.
        """
        if n <= 1:
            return np.arange(n, dtype=np.int64)
        wide = n > 1 << 16
        # Partner j of swap i at index n - 1 - i, the order swaps run in;
        # the last entry is a no-op swap 0 with itself, whose previous
        # writer is the last swap with partner 0.
        j = np.zeros(n, dtype=np.uint32 if wide else np.uint16)
        np.remainder(splitmix64_u64(self.state, n - 1),
                     np.arange(n, 1, -1, dtype=np.uint64), out=j[:-1],
                     casting="unsafe")
        self.state = (self.state + (n - 1) * _GAMMA) & _MASK
        order = np.argsort(j.astype(np.uint16, copy=False), kind="stable")
        if wide:
            high = (j[order] >> 16).astype(np.uint16)
            order = order[np.argsort(high, kind="stable")]
        swap = n - 1 - order  # grouped by partner, in the order swaps run
        part = j[order]
        # prev[i]: the last swap with swap i's partner to run before it.
        prev = np.empty(n, dtype=np.int64)
        prev[swap[0]] = -1
        prev[swap[1:]] = np.where(part[1:] == part[:-1], swap[:-1], -1)
        # held[i] = what position i holds before swap i: the last swap with
        # partner i wrote it, or none did and it holds i.  Pointer jumping
        # follows the writers to the first value.  Where the last swap with
        # partner i is swap i itself, held[i] is wrong but never read: no
        # swap with partner i runs after it.
        counts = np.bincount(j, minlength=n)
        held = np.where(counts > 0, swap[np.cumsum(counts) - 1], np.arange(n))
        while True:
            nxt = held[held]
            if np.array_equal(nxt, held):
                break
            held = nxt
        return np.where(prev < 0, j[::-1], held[prev])

    def fork(self) -> "SplitMix64":
        """Derive an independent child stream (one draw of this stream)."""
        return SplitMix64(self.next_u64())


def splitmix64_blocks(seeds, n: int):
    """The first n ``next_u64()`` draws of ``SplitMix64(s)`` for each s in
    ``seeds``, block by block.

    Yields ``(i, lo, z)`` where row r of the 2-D z holds draws
    lo + 1 .. lo + z.shape[1] of seed i + r.  A block holds at most _BLOCK
    draws: whole rows of consecutive seeds while n <= _BLOCK, else a run of
    one seed's draws.  The k-th state is seed + k * gamma mod 2^64, so a
    block is computed at once with in-place ufuncs; uint64 arithmetic wraps
    exactly as the scalar generator masks.  z is one reused buffer, which
    the next block overwrites, so a caller may also write into it.
    """
    seeds = np.array([int(s) & _MASK for s in seeds], dtype=np.uint64)
    cols = min(n, _BLOCK)
    rows = max(1, _BLOCK // max(n, 1))
    steps = np.arange(1, cols + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    size = min(rows, len(seeds)) * cols
    buf, tmp = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    for i in range(0, len(seeds), rows):
        r = min(rows, len(seeds) - i)
        for lo in range(0, n, cols):
            m = min(cols, n - lo)
            z, t = buf[:r * m].reshape(r, m), tmp[:r * m].reshape(r, m)
            np.add(steps[:m], seeds[i:i + r, None], out=z)
            if lo:
                np.add(z, np.uint64(lo * _GAMMA & _MASK), out=z)
            for shift, mix in _ROUNDS:
                np.right_shift(z, shift, out=t)
                np.bitwise_xor(z, t, out=z)
                np.multiply(z, mix, out=z)
            np.right_shift(z, _FINAL, out=t)
            np.bitwise_xor(z, t, out=z)
            yield i, lo, z


def splitmix64_u64(seed: int, n: int) -> np.ndarray:
    """The first n ``next_u64()`` draws of ``SplitMix64(seed)`` as one array."""
    out = np.empty(n, dtype=np.uint64)
    for _, lo, z in splitmix64_blocks([seed], n):
        out[lo:lo + z.shape[1]] = z[0]
    return out
