"""Correctness checks for benchmark commands, by routes independent of ffplane.

Counts are recomputed from exact pairwise-difference tables built here with
integer numpy arithmetic.  Nothing below calls ``geometry.difference_table``
or ``counting``, so the checks stay valid when those fast routes are
replaced.  Point sets are regenerated with a local splitmix64, so a change
to set generation is caught too (through ``set_sizes`` and the counts).

Every check takes one command's stdout and returns a list of mismatch
descriptions; an empty list means the output is correct.
"""

import functools
import json
import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class _SplitMix64:
    def __init__(self, seed):
        self.state = seed & _MASK

    def next_u64(self):
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_float(self):
        return (self.next_u64() >> 11) * 2.0**-53


def random_set(q, density, seed):
    """Indicator of the Bernoulli(density) set ffplane draws for this seed.

    The k-th splitmix64 output (k = 1, 2, ...) decides cell k - 1 in
    row-major order; uint64 arithmetic wraps mod 2^64 as the generator does.
    """
    k = np.arange(1, q * q + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + k * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    draws = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return (draws < density).reshape(q, q)


def parse_set(q, token):
    """Indicator for a set token of the forms the benchmark uses."""
    kind, *rest = token.split(":")
    if kind == "full":
        return np.ones((q, q), dtype=bool)
    if kind == "random":
        return random_set(q, float(rest[0]), int(rest[1]))
    if kind == "line-ap":
        start, step, length = (int(v) for v in rest)
        ind = np.zeros((q, q), dtype=bool)
        ind[:, [(start + i * step) % q for i in range(length)]] = True
        return ind
    raise ValueError(f"unsupported set token {token!r}")


def norms(q):
    idx = np.arange(q)
    return (idx[:, None] ** 2 + idx[None, :] ** 2) % q


def difference_counts(A, B, chunk=256):
    """D[v] = #{(a, b) in A x B : a - b = v}, exact, as a q x q int64 table."""
    q = A.shape[0]
    a1, a2 = np.nonzero(A)
    b1, b2 = np.nonzero(B)
    counts = np.zeros(q * q, dtype=np.int64)
    for s in range(0, len(a1), chunk):
        flat = (((a1[s:s + chunk, None] - b1) % q) * q
                + (a2[s:s + chunk, None] - b2) % q)
        counts += np.bincount(flat.ravel(), minlength=q * q)
    return counts.reshape(q, q)


def shifted_meet(Ei, Ej, x):
    """{u in Ei : u + x in Ej} as an indicator."""
    return Ei & np.roll(Ej, (-x[0], -x[1]), axis=(0, 1))


def rhombus_counts(E1, E2, E3, E4, radii):
    """Per radius t in radii: the rhombus count, sum_x |E12^x||E34^x| and
    the degenerate count (v = u + x), over the directions |x| = t."""
    q = E1.shape[0]
    nrm = norms(q)
    rhom, prods, degenerate = ({t: 0 for t in radii} for _ in range(3))
    for t in radii:
        for x in zip(*np.nonzero(nrm == t)):
            A = shifted_meet(E1, E2, x)
            B = shifted_meet(E3, E4, x)
            prods[t] += int(A.sum()) * int(B.sum())
            if A.any() and B.any():
                D = difference_counts(A, B)
                rhom[t] += int(D[nrm == t].sum())
                degenerate[t] += int(D[(-x[0]) % q, (-x[1]) % q])
    return rhom, prods, degenerate


def _mismatch(label, got, want):
    return [] if got == want else [f"{label}: got {got}, expected {want}"]


# -- count ----------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _count_tables(q, tokens):
    """Sets, D_{E1,E2} and (for four slots) D_{E3,E4} for one count input."""
    sets = [parse_set(q, tok) for tok in tokens]
    return sets, [difference_counts(*sets[k:k + 2]) for k in range(0, len(sets), 2)]


@functools.lru_cache(maxsize=4)
def _rhombus_at(q, tokens, t):
    sets, _ = _count_tables(q, tokens)
    rhom, _, degenerate = rhombus_counts(*sets, [t])
    return rhom[t], degenerate[t]


def check_count(q, quantity, t, tokens):
    tokens = tuple(tokens)

    def check(stdout):
        obj = json.loads(stdout)
        sets, tables = _count_tables(q, tokens)
        errors = _mismatch("set_sizes", obj["set_sizes"], [int(s.sum()) for s in sets])
        nrm = norms(q)
        if quantity == "n_t":
            want = tables[0][nrm == t].sum()
        elif quantity in ("par_t", "par"):
            prod = tables[0] * tables[1]
            want = prod.sum() if quantity == "par" else prod[nrm == t].sum()
        else:
            want = _rhombus_at(q, tokens, t)[quantity == "degenerate"]
        return errors + _mismatch(f"{quantity} value", obj["value"], int(want))

    return check


def check_gen(q, token):
    """`gen --json` lists exactly the points of the set, in row-major order."""
    ind = parse_set(q, token)

    def check(stdout):
        obj = json.loads(stdout)
        want = [[int(a), int(b)] for a, b in zip(*np.nonzero(ind))]
        return _mismatch("q", obj["q"], q) + (
            [] if obj["points"] == want else [f"points differ from {token}"])

    return check


# -- bounds ---------------------------------------------------------------------

CHECKS = ("unit-distance", "par-vs-mean", "par-pairs", "rhom-vs-par",
          "rhom-lower", "circle-decay")


def _sweep_sets(q, seed, trials, nsets):
    """The sets ffplane's seeded sweep draws with density 'auto'."""
    master = _SplitMix64(seed)
    out = []
    for _ in range(trials):
        rng = _SplitMix64(master.next_u64())
        trial = []
        for _ in range(nsets):
            density = rng.next_float()
            trial.append(random_set(q, density, rng.next_u64()))
        out.append(trial)
    return out


def circle_decay_max(q, j):
    """Largest nonzero-mode |fhat| of the circle S_j (isotropic modes skipped at j = 0)."""
    nrm = norms(q)
    mags = np.abs(np.fft.fft2((nrm == j).astype(float))) / (q * q)
    modes = np.ones((q, q), dtype=bool)
    modes[0, 0] = False
    if j == 0:
        modes &= nrm != 0
    return float(mags[modes].max())


def check_bounds(q, seed, trials):
    """Check a `bounds --check all --all-t --density auto` stream."""

    def check(stdout):
        lines = [json.loads(ln) for ln in stdout.splitlines()]
        reports = {c: [ln for ln in lines if ln.get("name") == c] for c in CHECKS}
        errors = []
        for ln in lines:
            if ln.get("summary"):
                rows = reports[ln["check"]]
                errors += _mismatch(f"{ln['check']} instances", ln["instances"], len(rows))
                errors += _mismatch(f"{ln['check']} violations", ln["violations"],
                                    sum(1 for r in rows if not r["holds"]))
        want = {"unit-distance": trials, "par-vs-mean": trials * (q - 1),
                "par-pairs": trials * (q - 1) * (q - 2) // 2,
                "rhom-vs-par": trials * (q - 1), "rhom-lower": trials * (q - 1),
                "circle-decay": q}
        for c in CHECKS:
            errors += _mismatch(f"{c} report count", len(reports[c]), want[c])
            if c != "rhom-lower":
                errors += [f"{c}: asserted bound violated at {r['inputs']}"
                           for r in reports[c] if not r["holds"]]

        for r in reports["circle-decay"]:
            j = r["inputs"]["j"]
            if not math.isclose(r["lhs"], circle_decay_max(q, j), rel_tol=0, abs_tol=1e-9):
                errors.append(f"circle-decay j={j}: lhs {r['lhs']}")

        nrm = norms(q)
        unit = [difference_counts(U, V) for U, V in _sweep_sets(q, seed, trials, 2)]
        tables = []
        for sets in _sweep_sets(q, seed, trials, 4):
            prod = difference_counts(*sets[:2]) * difference_counts(*sets[2:])
            rhom, prods, _ = rhombus_counts(*sets, range(1, q))
            tables.append(([int(prod[nrm == t].sum()) for t in range(q)],
                           int(prod.sum()), rhom, prods))
        for r in lines:
            name = r.get("name")
            if name in (None, "circle-decay"):
                continue
            trial, t, extra = r["inputs"]["trial"], r["inputs"]["t"], r["extra"]
            par, par_all, rhom, prods = tables[trial]
            if name == "unit-distance":
                got, want = extra["count"], int(unit[trial][nrm == t].sum())
            elif name == "par-vs-mean":
                got, want = (extra["par_t"], extra["par_all"]), (par[t], par_all)
            elif name == "par-pairs":
                t2 = r["inputs"]["t2"]
                got, want = (extra["par_t"], extra["par_t2"]), (par[t], par[t2])
            elif name == "rhom-vs-par":
                got, want = (extra["rhom_t"], extra["par_t"]), (rhom[t], prods[t])
            else:
                got, want = extra["rhom_t"], rhom[t]
            errors += _mismatch(f"{name} {r['inputs']}", got, want)
        return errors

    return check


# -- vc / witness -------------------------------------------------------------------

def _neighborhoods(ind, t):
    q = ind.shape[0]
    pts = [tuple(int(c) for c in p) for p in zip(*np.nonzero(ind))]
    members = set(pts)
    circ = [tuple(int(c) for c in p) for p in zip(*np.nonzero(norms(q) == t))]
    return {p: {((p[0] + s[0]) % q, (p[1] + s[1]) % q) for s in circ} & members
            for p in pts}


def check_vc(q, t, token, expected_dim):
    """vc_dim equals the value the seed commit reports, and the example is
    shattered (every subset occurs as a neighborhood trace, as in
    ffplane.vc.shatters, on neighborhoods built here)."""
    ind = parse_set(q, token)

    def check(stdout):
        obj = json.loads(stdout)
        errors = _mismatch("size", obj["size"], int(ind.sum()))
        errors += _mismatch("vc_dim", obj["vc_dim"], expected_dim)
        example = [tuple(p) for p in obj["shattered_example"] or ()]
        errors += _mismatch("example size", len(example), expected_dim)
        nbh = _neighborhoods(ind, t)
        traces = {frozenset(p for p in example if p in n) for n in nbh.values()}
        if any(p not in nbh for p in example) or len(traces) != 2 ** len(example):
            errors.append(f"example {example} is not shattered")
        return errors

    return check


# Which of x1, x2, x3 each y-point is adjacent to, and to no other x.
_TRACES = {"y123": (1, 2, 3), "y12": (1, 2), "y13": (1, 3), "y23": (2, 3),
           "y1": (1,), "y2": (2,), "y3": (3,), "y0": ()}


def check_witness(q, t, token):
    """`valid: true`, and the eleven points realize all eight traces in E."""
    ind = parse_set(q, token)

    def check(stdout):
        obj = json.loads(stdout)
        if obj.get("valid") is not True:
            return [f"witness not valid: {obj.get('failure') or obj.get('violations')}"]
        pts = {label: tuple(p) for label, p in obj["witness"].items()}
        errors = [f"{label} not in the set" for label, p in pts.items()
                  if not ind[p]]
        xs = [pts["x1"], pts["x2"], pts["x3"]]
        ys = [pts[label] for label in _TRACES]
        if len(set(xs)) != 3 or len(set(ys)) != len(ys):
            errors.append("witness points are not distinct")
        for label, adjacent in _TRACES.items():
            y = pts[label]
            for i, x in enumerate(xs, 1):
                d = ((y[0] - x[0]) % q, (y[1] - x[1]) % q)
                if ((d[0] ** 2 + d[1] ** 2) % q == t) != (i in adjacent):
                    errors.append(f"adjacency {label}~x{i}")
        return errors

    return check
