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
import itertools
import json
import sys
import time

from . import bounds as bounds_mod
from . import counting, fourier, report, vc
from .errors import (
    FFPlaneError,
    ModulusMismatch,
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
    of sorted-key JSON."""

    def line(obj) -> str:
        return _ENCODER.encode({**obj, "config": config, "prng": PRNG_ALGORITHM}) + "\n"

    return line


def _report_writer(config):
    """ReportBatch -> its report lines: the bytes of
    _line_encoder(config)(rep.to_json_obj()) for each of its reports,
    written without the encoder.

    The check's layout in bounds.LINE_LAYOUTS writes the lines of the whole
    batch; this gives it their head (the config, in sorted order before
    extra) and the PRNG name.  The batches of bounds.sweep and
    fourier.circle_decay_batch have a finite lhs, rhs and ratio, so every
    number is written by repr.
    """
    head = '{"config": ' + _ENCODER.encode(config) + ', "extra": {'
    prng = _ENCODER.encode(PRNG_ALGORITHM)

    def lines(batch) -> str:
        return bounds_mod.LINE_LAYOUTS[batch.name](batch, head, prng)

    return lines


def _emit(obj, config):
    sys.stdout.write(_line_encoder(config)(obj))


def _config_echo(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _make_ctx(q: int) -> PrimeFieldCtx:
    if not is_prime(q) or q < 3:
        raise UsageError(f"--q must be an odd prime >= 3, got {q}")
    return PrimeFieldCtx(q)


def _nonzero_t(ctx, t: int) -> int:
    """--t reduced mod q; a radius of 0 is refused."""
    t %= ctx.q
    if t == 0:
        raise UsageError("--t must be nonzero")
    return t


def _random_draw(token: str, default_seed: int, slot: int) -> tuple:
    """The (density, seed) a stripped random:DENSITY[:SEED] token draws in
    ``slot``; an unseeded token draws default_seed + slot."""
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
    return density, seed


def _parse_one_set(ctx, token: str, default_seed: int, slot: int) -> PointSet:
    token = token.strip()
    if token == "full":
        return full_plane(ctx)
    if token.startswith("random:"):
        return gen_random_set(ctx, *_random_draw(token, default_seed, slot))
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
            return load_point_set(path, ctx.q)
        except ModulusMismatch as exc:
            raise UsageError(f"set file {path!r} has q={exc.q}, expected {ctx.q}") from exc
        except (OSError, PointSetFormatError) as exc:
            raise UsageError(f"cannot load {path!r}: {exc}") from exc
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
    # of what it names.  The tokens are checked in slot order; then every
    # distinct random set is drawn in one stacked pass.
    built, draws, keys = {}, {}, []
    for slot, tok in enumerate(tokens):
        name = tok.strip()
        random = name.startswith("random:")
        key = (name, slot) if random and name.count(":") == 1 else name
        if random and key not in draws:
            draws[key] = _random_draw(name, default_seed, slot)
        elif not random and key not in built:
            built[key] = _parse_one_set(ctx, name, default_seed, slot)
        keys.append(key)
    if draws:
        densities, seeds = zip(*draws.values())
        built.update(zip(draws, gen_random_set(ctx, densities, seeds)))
    return [built[key] for key in keys]


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
    if args.exclude_degenerate and quantity != "rhom_t":
        raise UsageError("--exclude-degenerate applies to rhom_t only")
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
        if args.all_t:
            raise UsageError("--t and --all-t cannot be combined")
        t = _nonzero_t(ctx, args.t)
    config = _config_echo(args)
    json_line = _line_encoder(config)
    report_lines = {"json": _report_writer(config), "csv": report.csv_lines,
                    "human": None}[args.format]
    write = sys.stdout.write
    if args.format == "csv":
        write(",".join(report.CSV_COLUMNS) + "\n")
    exit_code = 0
    # sweep gives the batches check by check, each written as it is formatted.
    for check, batches in itertools.groupby(
            bounds_mod.sweep(ctx, checks, args.trials, density, args.seed,
                             all_t=args.all_t, t=t).batches,
            key=lambda batch: batch.name):
        batches = list(batches)
        if report_lines is not None:
            for batch in batches:
                write(report_lines(batch))
        instances = sum(map(len, batches))
        violations = sum(batch.holds.count(False) for batch in batches)
        if violations and check in bounds_mod.ASSERTED_CHECKS:
            exit_code = 1
        min_slack = min(min(batch.slack) for batch in batches)
        if args.format == "json":
            write(json_line({
                "summary": True,
                "check": check,
                "instances": instances,
                "violations": violations,
                "min_slack": min_slack,
            }))
        elif args.format == "human":
            write(f"{check}: {instances} instances, {violations} "
                  f"violations, min slack {min_slack}\n")
    return exit_code


def _csv_lines(rows, columns) -> list:
    """A header and one line per row; a string cell is written as is, any
    other value as its JSON literal (true, false, null, float repr)."""
    def cell(value):
        return value if isinstance(value, str) else _ENCODER.encode(value)
    return [",".join(columns) + "\n"] + [
        ",".join(cell(row.get(col, "")) for col in columns) + "\n" for row in rows]


# -- fourier ----------------------------------------------------------------------

def _cmd_fourier(args) -> int:
    ctx = _make_ctx(args.q)
    config = _config_echo(args)
    if args.decay:
        if args.circle is None:
            raise UsageError("--decay requires --circle J")
        if args.set is not None:
            raise UsageError("--decay reports a circle; --set does not apply")
        if args.method == "oracle":
            raise UsageError("--decay uses the fast transform; --method oracle "
                             "does not apply")
        batch = fourier.circle_decay_batch(ctx, [args.circle])
        sys.stdout.write(_report_writer(config)(batch))
        return 0 if batch.holds[0] else 1
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
    t = _nonzero_t(ctx, args.t)
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
    t = _nonzero_t(ctx, args.t)
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

def _median(values: list) -> float:
    """The middle value, or the mean of the two middle ones for an even
    count: the float statistics.median returns, without importing it."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


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
            "median_ms": round(_median(times), 3),
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
        try:
            save_point_set(ps, args.out)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out!r}: {exc}") from exc
        print(f"wrote {len(ps)} points to {args.out}", file=sys.stderr)
    elif args.json:
        print(_ENCODER.encode(point_set_to_json_obj(ps)))
    else:
        sys.stdout.write(point_set_to_text(ps))
    return 0


# -- parser ------------------------------------------------------------------------

def _add_common(p, formats=("json",)):
    """--q, --seed, and --format with the formats the command writes (none
    for a command with no formats)."""
    p.add_argument("--q", type=int, required=True, help="odd prime modulus")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed in [0, 2^64)")
    if formats:
        p.add_argument("--format", choices=formats, default="json")


def _count_arguments(p):
    _add_common(p, ("json", "human"))
    p.add_argument("--quantity", choices=QUANTITIES, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--set", required=True,
                   help="comma-separated slots: full | random:D[:SEED] | "
                        "line-ap:S:STEP:LEN | file:PATH (single token broadcasts)")
    p.add_argument("--method", choices=METHODS, default="fast")
    p.add_argument("--exclude-degenerate", action="store_true")
    p.set_defaults(func=_cmd_count)


def _bounds_arguments(p):
    _add_common(p, ("json", "csv", "human"))
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


def _fourier_arguments(p):
    _add_common(p)
    p.add_argument("--set", default=None)
    p.add_argument("--circle", type=int, default=None,
                   help="transform the circle of this radius")
    p.add_argument("--method", choices=("fast", "oracle"), default="fast")
    p.add_argument("--decay", action="store_true",
                   help="emit the decay report for --circle instead")
    p.set_defaults(func=_cmd_fourier)


def _vc_arguments(p):
    _add_common(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--cap", type=int, default=4)
    p.set_defaults(func=_cmd_vc)


def _witness_arguments(p):
    _add_common(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(func=_cmd_witness)


def _bench_arguments(p):
    _add_common(p, ("json", "csv", "human"))
    p.add_argument("--quantity", choices=QUANTITIES, default="par_t")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--methods", default="oracle,fast")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--set", default=None)
    p.add_argument("--runs", type=int, default=5)
    p.set_defaults(func=_cmd_bench)


def _gen_arguments(p):
    _add_common(p, ())
    p.add_argument("--set", default="random:0.5")
    p.add_argument("--out", default=None, help="output path (.json or text)")
    p.add_argument("--json", action="store_true",
                   help="emit JSON to stdout instead of text")
    p.set_defaults(func=_cmd_gen)


# subcommand -> (its line in the full parser's help, the adder of its
# arguments and func default), in the order the full parser lists them.
_SUBCOMMANDS = {
    "count": ("run one exact counter", _count_arguments),
    "bounds": ("run a named inequality check or all", _bounds_arguments),
    "fourier": ("dump a spectrum or a decay report", _fourier_arguments),
    "vc": ("exhaustive VC dimension of a set", _vc_arguments),
    "witness": ("construct and verify a shattering witness", _witness_arguments),
    "bench": ("time counter methods on one instance", _bench_arguments),
    "gen": ("generate a point-set file", _gen_arguments),
}
COMMANDS = tuple(_SUBCOMMANDS)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The full ffplane parser, or with ``command`` the standalone parser
    ``ffplane <command>`` of that subcommand alone.

    The full parser takes the whole argument list, subcommand first; the
    one-command parser takes the arguments after the subcommand's name.  It
    is built as the full parser builds that command's subparser, plus a
    ``command`` default, so it gives the same namespace, help and errors,
    except for arguments it does not recognise: the full parser reports
    those under its own usage line.
    """
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"ffplane {command}")
        _SUBCOMMANDS[command][1](parser)
        parser.set_defaults(command=command)
        return parser
    parser = argparse.ArgumentParser(
        prog="ffplane",
        description="Configuration counts, spectral checks, and VC audits "
                    "for point sets in the plane over a prime field.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """argv parsed by the parser of the subcommand it names, alone.

    The full parser parses what names no subcommand first (no arguments,
    top-level help, an unknown or abbreviated word, a leading option), and
    an argument list that the command's parser leaves arguments of, so that
    those are reported as the full parser reports them.
    """
    if argv and argv[0] in COMMANDS:
        args, extras = build_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run the command of argv (sys.argv[1:] by default) and return its exit
    code.  A valid command is parsed by its own parser alone, never by the
    full one (_parse_args); nothing is kept from one call to the next."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
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
