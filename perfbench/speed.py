"""Reference kernel that tracks the machine's speed during a run.

On a shared host each vCPU flips between a fast and a slow state, about
1.8x apart, within fractions of a second, and the share of slow time drifts
over minutes, so the same pass can take twice as long in one minute as in
another.  The process's CPU time grows with its wall time, so neither clock
separates the program from the machine.  The benchmark therefore times
this fixed kernel between the commands it times and reports times scaled to
the kernel's reference duration ``REF_S``:

    scaled = measured * REF_S / kernel time measured around it

(run.py says which readings scale which time.)

The kernel is the interpreter work ffplane's routes are made of (tuple
arithmetic mod q into a dict, set membership), fixed here so that no change
to ffplane moves it.  ``REF_S`` is what it takes on a 2-vCPU Xeon VM in its
fast state, so scaled times read as seconds on that machine at rest.
"""

import time

REF_S = 0.0041
_Q = 61
_A = [((7 * i + 3) % _Q, (11 * i * i + 5) % _Q) for i in range(150)]
_B = [((13 * i + 1) % _Q, (5 * i * i + 2) % _Q) for i in range(150)]
_REPEATS = 3


def _kernel():
    counts = {}
    for a1, a2 in _A:
        for b1, b2 in _B:
            v = ((a1 - b1) % _Q, (a2 - b2) % _Q)
            counts[v] = counts.get(v, 0) + 1
    members = set(counts)
    return sum(1 for a1, a2 in _A if ((a1 + 1) % _Q, a2) in members)


def kernel_s():
    """Median of a few kernel runs, so one interrupt does not count."""
    runs = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - start)
    return sorted(runs)[_REPEATS // 2]
