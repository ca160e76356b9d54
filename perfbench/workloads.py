"""The three workloads: CLI command lists built from the benchmark seed.

Each workload maps a seed to a list of ``Command(argv, check)``.  Every
random set token carries a seed derived from the benchmark seed, so one seed
gives one fixed input.  ``check`` validates the command's stdout by an
independent route (see verify.py).  ``WORKLOADS`` also gives the seconds of
the run's length that each pass is given; the number of passes is the run
length divided by it, so every run of a workload has the same composition
and its percentiles fall on the same ranks.  At the benchmark's 20-second
runs that is 4, 15 and 8 passes, and the median and the tail rank of
``count`` fall inside one command's block of samples, not on the edge
between two commands of very different cost (README.md gives the ranks).
"""

from collections import namedtuple

import verify

Command = namedtuple("Command", "argv check")

QUANTITIES = ("n_t", "par_t", "par", "rhom_t", "degenerate")


def _count(q, quantity, t, tokens):
    nslots = 2 if quantity == "n_t" else 4
    tokens = tokens[:nslots] if len(tokens) > 1 else tokens * nslots
    argv = ["count", "--q", str(q), "--quantity", quantity, "--set", ",".join(tokens)]
    if quantity != "par":
        argv += ["--t", str(t)]
    return argv, verify.check_count(q, quantity, t, tokens)


def _random_slots(density, first):
    """Four distinct seeded slots with seeds first .. first + 3."""
    return [f"random:{density}:{first + k}" for k in range(4)]


def count(seed):
    """The five counters on dense and on sparse inputs, in one pass.

    Dense: density-0.5 sets at q = 61, where pairwise difference tables
    dominate, plus the fourier route of par_t at q = 31, which sets the
    pass's peak memory.  Sparse: ``gen`` and the five counters at q = 211
    on ~450-630-point random sets and on the ``line-ap:0:1:3`` strip, where
    q^2 costs (set generation, any q x q array or FFT) dominate.  Seed s
    owns slot seeds 8s .. 8s + 7: the dense slots first, then the sparse.

    The per-command latencies in the detail line show the dense and sparse
    commands apart, so a route that wins on one and loses on the other shows.
    """
    dense = _random_slots(0.5, 8 * seed)
    sparse = _random_slots(0.01, 8 * seed + 4)
    cmds = [Command(*_count(61, qty, 1, dense)) for qty in QUANTITIES]
    argv, check = _count(31, "par_t", 1, dense)
    cmds.append(Command(argv + ["--method", "fourier"], check))
    cmds.append(Command(["gen", "--q", "211", "--set", sparse[0], "--json"],
                        verify.check_gen(211, sparse[0])))
    for tokens in (sparse, ["line-ap:0:1:3"]):
        cmds += [Command(*_count(211, qty, 1, tokens)) for qty in QUANTITIES]
    return cmds


BOUNDS_Q = 13
BOUNDS_COMMANDS = 3
BOUNDS_TRIALS = 7


def bounds_smallq(seed):
    """Many small instances: rhombus relation, set construction, reports, JSON."""
    cmds = []
    for k in range(BOUNDS_COMMANDS):
        sweep_seed = BOUNDS_COMMANDS * seed + k
        argv = ["bounds", "--q", str(BOUNDS_Q), "--check", "all", "--all-t",
                "--density", "auto", "--trials", str(BOUNDS_TRIALS),
                "--seed", str(sweep_seed)]
        cmds.append(Command(argv, verify.check_bounds(BOUNDS_Q, sweep_seed,
                                                      BOUNDS_TRIALS)))
    return cmds


def vc_audit(seed):
    """Bitmask subset scans and witness steps; never calls a counter.

    The full plane and the line-ap strip are translation-invariant sets, the
    random ones are not.  Three q = 101 witness searches on distinct sets
    average out how much one input's search cost varies.  The VC dimensions
    are the values the seed commit reports (3 for every seed tried on these
    inputs).
    """
    rand = f"random:0.5:{3 * seed}"
    strip = "line-ap:0:1:6"
    cmds = [
        Command(["vc", "--q", "23", "--t", "1", "--set", rand],
                verify.check_vc(23, 1, rand, expected_dim=3)),
        Command(["vc", "--q", "13", "--t", "1", "--set", "full"],
                verify.check_vc(13, 1, "full", expected_dim=3)),
        Command(["vc", "--q", "19", "--t", "1", "--set", strip],
                verify.check_vc(19, 1, strip, expected_dim=3)),
        Command(["witness", "--q", "61", "--t", "1", "--set", "full",
                 "--seed", str(seed)],
                verify.check_witness(61, 1, "full")),
    ]
    for k in range(3):
        token = f"random:0.5:{3 * seed + k}"
        cmds.append(Command(["witness", "--q", "101", "--t", "1", "--set", token,
                             "--seed", str(seed)],
                            verify.check_witness(101, 1, token)))
    return cmds


# name -> (command builder, seconds of the run's length given to each pass)
WORKLOADS = {
    "count": (count, 5.0),
    "bounds-smallq": (bounds_smallq, 1.3),
    "vc-audit": (vc_audit, 2.5),
}
