"""Command-line front end.

Subcommands: count, bounds, fourier, vc, witness, bench, gen.  Reports are
JSON-lines on stdout (CSV available where tables make sense); diagnostics go
to stderr.  Exit codes: 0 success, 1 mathematical failure (a violated
asserted bound, a float count too far from an integer or past its error
bound, a cross-method value disagreement), 2 usage error.  Every report
echoes the run configuration and the PRNG algorithm identifier so streams
are reproducible bit-for-bit apart from elapsed_ms fields.
"""

import argparse
import json
import statistics
import sys
import time

from . import bounds as bounds_mod
from . import counting, fourier, vc
from .errors import (
    FFPlaneError,
    PointSetFormatError,
    ToleranceExceeded,
)
from .field import PrimeFieldCtx, is_prime
from .geometry import (
    PointSet,
    circle,
    full_plane,
    gen_example_line_ap,
    gen_random_set,
    load_point_set,
    point_set_to_json_obj,
    point_set_to_text,
    save_point_set,
)
from .rng import ALGORITHM as PRNG_ALGORITHM


class UsageError(Exception):
    pass


def _check_seed(seed: int, what: str) -> None:
    """splitmix64 takes its seed mod 2^64, so a seed outside [0, 2^64) would
    silently alias one inside it; such seeds are refused instead."""
    if not 0 <= seed < 2**64:
        raise UsageError(f"{what} must lie in [0, 2^64), got {seed}")


# One encoder for every report line; the same output as json.dumps(...,
# sort_keys=True) without building an encoder per line.
_ENCODER = json.JSONEncoder(sort_keys=True)


def _line_encoder(config):
    """obj -> its report line: obj plus config and the PRNG name, one line
    of sorted-key JSON.

    config is encoded once.  A line whose keys all sort after "config"
    starts with it, so the encoded config is spliced before the rest of
    the line; any other line is encoded whole.
    """
    head = '{"config": ' + _ENCODER.encode(config) + ", "

    def line(obj) -> str:
        if min(obj, default="prng") > "config":
            return head + _ENCODER.encode({**obj, "prng": PRNG_ALGORITHM})[1:] + "\n"
        return _ENCODER.encode({**obj, "config": config, "prng": PRNG_ALGORITHM}) + "\n"

    return line


def _emit(obj, config):
    sys.stdout.write(_line_encoder(config)(obj))


def _config_echo(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _make_ctx(q: int) -> PrimeFieldCtx:
    if not is_prime(q) or q < 3:
        raise UsageError(f"--q must be an odd prime >= 3, got {q}")
    return PrimeFieldCtx(q)


def _parse_one_set(ctx, token: str, default_seed: int, slot: int) -> PointSet:
    token = token.strip()
    if token == "full":
        return full_plane(ctx)
    if token.startswith("random:"):
        parts = token.split(":")
        if len(parts) not in (2, 3):
            raise UsageError(f"bad set spec {token!r}; use random:DENSITY[:SEED]")
        try:
            density = float(parts[1])
            seed = int(parts[2]) if len(parts) == 3 else default_seed + slot
        except ValueError as exc:
            raise UsageError(f"bad set spec {token!r}: {exc}") from exc
        if not 0.0 <= density <= 1.0:
            raise UsageError("density must lie in [0, 1]")
        _check_seed(seed, f"the seed of set {token!r} in slot {slot}")
        return gen_random_set(ctx, density, seed)
    if token.startswith("line-ap:"):
        parts = token.split(":")
        if len(parts) != 4:
            raise UsageError(f"bad set spec {token!r}; use line-ap:START:STEP:LEN")
        try:
            start, step, length = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError as exc:
            raise UsageError(f"bad set spec {token!r}: {exc}") from exc
        if length < 0:
            raise UsageError("line-ap length must be nonnegative")
        if length > ctx.q:
            # q residues at most are distinct; refuse before building any.
            raise UsageError("X must consist of distinct residues")
        xs = [(start + i * step) % ctx.q for i in range(length)]
        try:
            return gen_example_line_ap(ctx, xs)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if token.startswith("file:"):
        path = token[len("file:"):]
        try:
            ps = load_point_set(path)
        except (OSError, PointSetFormatError) as exc:
            raise UsageError(f"cannot load {path!r}: {exc}") from exc
        if ps.q != ctx.q:
            raise UsageError(f"set file {path!r} has q={ps.q}, expected {ctx.q}")
        return ps
    raise UsageError(
        f"bad set spec {token!r}; expected full, random:..., line-ap:..., or file:...")


def _parse_sets(ctx, spec: str, nslots: int, default_seed: int) -> list:
    tokens = [tok for tok in spec.split(",") if tok.strip()]
    if len(tokens) == 1:
        tokens = tokens * nslots
    if len(tokens) != nslots:
        raise UsageError(f"expected {nslots} set slots, got {len(tokens)}")
    # Each distinct token is built once, so slots naming one set share one
    # PointSet.  An unseeded random:D draws seed + slot, so its slot is part
    # of what it names.
    built = {}
    sets = []
    for slot, tok in enumerate(tokens):
        key = tok.strip()
        if key.startswith("random:") and key.count(":") == 1:
            key = (key, slot)
        if key not in built:
            built[key] = _parse_one_set(ctx, tok, default_seed, slot)
        sets.append(built[key])
    return sets


# -- count / bench -------------------------------------------------------------

# quantity -> (counter name in ffplane.counting, set slots, methods, t rule),
# where the t rule is None (no radius), "any" or "nonzero".  Counters are
# looked up by name at call time, so a rebinding of counting's attributes
# (as a tracer does) reaches every command.
QUANTITY_TABLE = {
    "n_t": ("count_unit_distances", 2, ("oracle", "fast"), "any"),
    "par_t": ("count_par_t", 4, ("oracle", "fast", "fourier"), "any"),
    "par": ("count_par_all", 4, ("oracle", "fast"), None),
    "rhom_t": ("count_rhom_t", 4, ("oracle", "fast"), "nonzero"),
    "degenerate": ("count_degenerate_rhom", 4, ("fast",), "nonzero"),
}
QUANTITIES = tuple(QUANTITY_TABLE)
METHODS = ("oracle", "fast", "fourier")


def _quantity_t(ctx, quantity: str, t):
    """The radius reduced mod q, or None for a quantity without one."""
    rule = QUANTITY_TABLE[quantity][3]
    if rule is None:
        return None
    if t is None:
        raise UsageError(f"--t is required for quantity {quantity}")
    t %= ctx.q
    if rule == "nonzero" and t == 0:
        raise UsageError(f"quantity {quantity} requires t != 0")
    return t


def _check_method(quantity: str, method: str) -> None:
    if method not in METHODS:
        raise UsageError(f"unknown method {method!r}")
    if method not in QUANTITY_TABLE[quantity][2]:
        having = [name for name, entry in QUANTITY_TABLE.items() if method in entry[2]]
        raise UsageError(f"{method} method applies to {', '.join(having)} only")


def _run_counter(ctx, quantity: str, sets, t, method: str, **extra):
    name, _, _, rule = QUANTITY_TABLE[quantity]
    radius = () if rule is None else (t,)
    return getattr(counting, name)(ctx, *sets, *radius, method=method, **extra)


def _cmd_count(args) -> int:
    ctx = _make_ctx(args.q)
    quantity = args.quantity
    sets = _parse_sets(ctx, args.set, QUANTITY_TABLE[quantity][1], args.seed)
    t = _quantity_t(ctx, quantity, args.t)
    _check_method(quantity, args.method)
    extra = ({"exclude_degenerate": args.exclude_degenerate}
             if quantity == "rhom_t" else {})

    start = time.perf_counter()
    result = _run_counter(ctx, quantity, sets, t, args.method, **extra)
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    obj = result.to_json_obj(quantity)
    obj["elapsed_ms"] = round(elapsed_ms, 3)
    config = _config_echo(args)
    if args.format == "human":
        print(f"{quantity} q={ctx.q} t={result.t} value={result.value} "
              f"method={result.method} elapsed_ms={elapsed_ms:.3f}")
    else:
        _emit(obj, config)
    return 0


# -- bounds ---------------------------------------------------------------------

ASSERTED_CHECKS = {"unit-distance", "par-vs-mean", "par-pairs",
                   "rhom-vs-par", "circle-decay"}


def _cmd_bounds(args) -> int:
    ctx = _make_ctx(args.q)
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if args.density == "auto":
        density = None
    else:
        try:
            density = float(args.density)
        except ValueError as exc:
            raise UsageError(f"bad density {args.density!r}") from exc
        if not 0.0 <= density <= 1.0:
            raise UsageError("density must lie in [0, 1] (or 'auto')")
    if args.check != "all" and args.check not in bounds_mod.CHECK_NAMES:
        raise UsageError(f"unknown check {args.check!r}; "
                         f"pick from {bounds_mod.CHECK_NAMES} or all")
    checks = list(bounds_mod.CHECK_NAMES) if args.check == "all" else [args.check]

    t = None
    if args.t is not None:
        t = args.t % ctx.q
        if t == 0:
            raise UsageError("--t must be nonzero")
    json_line = _line_encoder(_config_echo(args))
    by_check = {check: [] for check in checks}
    for rep in bounds_mod.sweep(ctx, checks, args.trials, density,
                                args.seed, all_t=args.all_t, t=t):
        by_check[rep.name].append(rep)
    exit_code = 0
    rows = []
    lines = []
    for check, reports in by_check.items():
        for rep in reports:
            rows.append(rep.to_json_obj())
            if args.format == "json":
                lines.append(json_line(rows[-1]))
        violations = sum(1 for rep in reports if not rep.holds)
        if violations and check in ASSERTED_CHECKS:
            exit_code = 1
        min_slack = min((rep.slack for rep in reports), default=None)
        summary = {
            "summary": True,
            "check": check,
            "instances": len(reports),
            "violations": violations,
            "min_slack": min_slack,
        }
        if args.format == "json":
            lines.append(json_line(summary))
        elif args.format == "human":
            lines.append(f"{check}: {len(reports)} instances, {violations} "
                         f"violations, min slack {min_slack}\n")
    if args.format == "csv":
        lines = _csv_lines(rows, ("name", "lhs", "rhs", "holds", "ratio", "slack"))
    sys.stdout.write("".join(lines))
    return exit_code


def _csv_lines(rows, columns) -> list:
    return [",".join(columns) + "\n"] + [
        ",".join(str(row.get(col, "")) for col in columns) + "\n" for row in rows]


# -- fourier ----------------------------------------------------------------------

def _cmd_fourier(args) -> int:
    ctx = _make_ctx(args.q)
    config = _config_echo(args)
    if args.decay:
        if args.circle is None:
            raise UsageError("--decay requires --circle J")
        rep = fourier.check_circle_decay(ctx, args.circle % ctx.q)
        _emit(rep.to_json_obj(), config)
        return 0 if rep.holds else 1
    if (args.circle is None) == (args.set is None):
        raise UsageError("provide exactly one of --set or --circle")
    if args.circle is not None:
        ps = circle(ctx, args.circle % ctx.q)
    else:
        ps = _parse_one_set(ctx, args.set, args.seed, 0)
    spec = fourier.transform(ctx, ps, method=args.method)
    coeffs = [
        [m1, m2,
         float(spec.coeffs[m1, m2].real),
         float(spec.coeffs[m1, m2].imag)]
        for m1 in range(ctx.q) for m2 in range(ctx.q)
    ]
    _emit({"q": ctx.q, "coeffs": coeffs}, config)
    return 0


# -- vc / witness ------------------------------------------------------------------

def _cmd_vc(args) -> int:
    ctx = _make_ctx(args.q)
    t = args.t % ctx.q
    if t == 0:
        raise UsageError("--t must be nonzero")
    if args.cap < 0:
        raise UsageError("--cap must be nonnegative")
    E = _parse_one_set(ctx, args.set, args.seed, 0)
    config = _config_echo(args)
    sys_ = vc.build_system(ctx, E, t)
    dim = vc.vc_dimension(sys_, cap=args.cap)
    example = None
    if dim >= 0:
        found = vc.find_shattered(sys_, dim)
        if found is not None:
            example = [[p[0], p[1]] for p in found]
    _emit({"vc_dim": dim, "shattered_example": example, "size": len(E)}, config)
    return 0


def _cmd_witness(args) -> int:
    ctx = _make_ctx(args.q)
    t = args.t % ctx.q
    if t == 0:
        raise UsageError("--t must be nonzero")
    E = _parse_one_set(ctx, args.set, args.seed, 0)
    config = _config_echo(args)
    outcome = vc.find_witness(ctx, E, t, seed=args.seed)
    if isinstance(outcome, vc.FailureReason):
        _emit({"failure": {"step": outcome.step, "detail": outcome.detail}}, config)
        return 0
    ok, violations = vc.verify_witness(ctx, E, t, outcome)
    obj = {
        "witness": {label: list(p) for label, p in outcome.labeled_points().items()},
        "u": list(outcome.u),
        "t": outcome.t,
        "valid": ok,
        "violations": violations,
    }
    _emit(obj, config)
    return 0 if ok else 1


# -- bench -------------------------------------------------------------------------

def _cmd_bench(args) -> int:
    ctx = _make_ctx(args.q)
    if args.runs < 1:
        raise UsageError("--runs must be at least 1")
    quantity = args.quantity
    t = _quantity_t(ctx, quantity, args.t)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods must name at least one method")
    for m in methods:
        _check_method(quantity, m)
    spec = args.set if args.set else f"random:{args.density}"
    sets = _parse_sets(ctx, spec, QUANTITY_TABLE[quantity][1], args.seed)

    results = []
    for method in methods:
        times = []
        value = None
        for _ in range(args.runs):
            start = time.perf_counter()
            value = _run_counter(ctx, quantity, sets, t, method).value
            times.append((time.perf_counter() - start) * 1000.0)
        results.append({
            "method": method,
            "value": value,
            "median_ms": round(statistics.median(times), 3),
            "times_ms": [round(x, 3) for x in times],
        })

    values = {r["method"]: r["value"] for r in results}
    if len(set(values.values())) > 1:
        print(f"method disagreement: {values}", file=sys.stderr)
        return 1

    config = _config_echo(args)
    obj = {
        "quantity": quantity,
        "q": ctx.q,
        "t": t,
        "set_sizes": [len(s) for s in sets],
        "runs": args.runs,
        "results": results,
    }
    if args.format == "csv":
        rows = [{"method": r["method"], "value": r["value"],
                 "median_ms": r["median_ms"]} for r in results]
        sys.stdout.write("".join(_csv_lines(rows, ("method", "value", "median_ms"))))
    elif args.format == "human":
        for r in results:
            print(f"{quantity} {r['method']}: value={r['value']} "
                  f"median={r['median_ms']} ms")
    else:
        _emit(obj, config)
    return 0


# -- gen ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    ctx = _make_ctx(args.q)
    ps = _parse_one_set(ctx, args.set, args.seed, 0)
    if args.out:
        save_point_set(ps, args.out)
        print(f"wrote {len(ps)} points to {args.out}", file=sys.stderr)
    elif args.json:
        print(_ENCODER.encode(point_set_to_json_obj(ps)))
    else:
        sys.stdout.write(point_set_to_text(ps))
    return 0


# -- parser ------------------------------------------------------------------------

# The subcommands, in the order the full parser lists them.
COMMANDS = ("count", "bounds", "fourier", "vc", "witness", "bench", "gen")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The ffplane parser with the subparser of ``command`` only, or with
    all of them when ``command`` is None.

    ``main`` builds one subparser when the first argument names a
    subcommand, and the full parser for no arguments, top-level help and
    errors.  The one-subcommand parser lists every name in its usage line,
    so its top-level error messages read as the full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="ffplane",
        description="Configuration counts, spectral checks, and VC audits "
                    "for point sets in the plane over a prime field.")
    # Only a partial parser needs the names spelled out; the full one
    # derives the same text from its subparsers.
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def wanted(name):
        return command is None or command == name

    def add_common(p):
        p.add_argument("--q", type=int, required=True, help="odd prime modulus")
        p.add_argument("--seed", type=int, default=0, help="PRNG seed in [0, 2^64)")
        p.add_argument("--format", choices=("json", "csv", "human"),
                       default="json")

    if wanted("count"):
        p = sub.add_parser("count", help="run one exact counter")
        add_common(p)
        p.add_argument("--quantity", choices=QUANTITIES, required=True)
        p.add_argument("--t", type=int, default=None)
        p.add_argument("--set", required=True,
                       help="comma-separated slots: full | random:D[:SEED] | "
                            "line-ap:S:STEP:LEN | file:PATH (single token broadcasts)")
        p.add_argument("--method", choices=METHODS, default="fast")
        p.add_argument("--exclude-degenerate", action="store_true")
        p.set_defaults(func=_cmd_count)

    if wanted("bounds"):
        p = sub.add_parser("bounds", help="run a named inequality check or all")
        add_common(p)
        p.add_argument("--check", default="all",
                       help=f"one of {bounds_mod.CHECK_NAMES} or all")
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--t", type=int, default=None,
                       help="pin the radius (default: drawn per trial)")
        p.add_argument("--density", default="0.5",
                       help="set density in [0,1], or 'auto' to draw per trial")
        p.add_argument("--all-t", action="store_true",
                       help="cover every nonzero radius (and every pair); "
                            "unit-distance still reports one drawn radius per trial")
        p.set_defaults(func=_cmd_bounds)

    if wanted("fourier"):
        p = sub.add_parser("fourier", help="dump a spectrum or a decay report")
        add_common(p)
        p.add_argument("--set", default=None)
        p.add_argument("--circle", type=int, default=None,
                       help="transform the circle of this radius")
        p.add_argument("--method", choices=("fast", "oracle"), default="fast")
        p.add_argument("--decay", action="store_true",
                       help="emit the decay report for --circle instead")
        p.set_defaults(func=_cmd_fourier)

    if wanted("vc"):
        p = sub.add_parser("vc", help="exhaustive VC dimension of a set")
        add_common(p)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--set", required=True)
        p.add_argument("--cap", type=int, default=4)
        p.set_defaults(func=_cmd_vc)

    if wanted("witness"):
        p = sub.add_parser("witness", help="construct and verify a shattering witness")
        add_common(p)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--set", required=True)
        p.set_defaults(func=_cmd_witness)

    if wanted("bench"):
        p = sub.add_parser("bench", help="time counter methods on one instance")
        add_common(p)
        p.add_argument("--quantity", choices=QUANTITIES, default="par_t")
        p.add_argument("--t", type=int, default=None)
        p.add_argument("--methods", default="oracle,fast")
        p.add_argument("--density", type=float, default=0.5)
        p.add_argument("--set", default=None)
        p.add_argument("--runs", type=int, default=5)
        p.set_defaults(func=_cmd_bench)

    if wanted("gen"):
        p = sub.add_parser("gen", help="generate a point-set file")
        add_common(p)
        p.add_argument("--set", default="random:0.5")
        p.add_argument("--out", default=None, help="output path (.json or text)")
        p.add_argument("--json", action="store_true",
                       help="emit JSON to stdout instead of text")
        p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        _check_seed(args.seed, "--seed")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceExceeded as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 1
    except FFPlaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
