"""Command-line front end.

Subcommands: count, bounds, fourier, vc, witness, bench, gen.  Reports are
JSON-lines on stdout (CSV available where tables make sense); diagnostics go
to stderr.  Exit codes: 0 success, 1 mathematical failure (a violated
asserted bound, a float count too far from an integer or past its error
bound, a cross-method value disagreement), 2 usage error, 141 stdout
closed by its reader.  Every report echoes the run configuration and the
PRNG algorithm identifier so streams are reproducible bit-for-bit apart
from elapsed_ms fields.
"""

import itertools
import json
import os
import sys
import time
from collections import namedtuple
from types import SimpleNamespace

from . import bounds as bounds_mod
from . import counting, fourier, geometry, report, vc
from .errors import FFPlaneError, PointSetFormatError, ToleranceExceeded
from .field import PrimeFieldCtx, is_prime
from .geometry import circle, point_set_to_json_obj, point_set_to_text, save_point_set
from .rng import ALGORITHM as PRNG_ALGORITHM


class UsageError(Exception):
    pass


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


def _nonzero_t(ctx, t: int) -> int:
    """--t reduced mod q; a radius of 0 is refused."""
    t %= ctx.q
    if t == 0:
        raise UsageError("--t must be nonzero")
    return t


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
    "degenerate": ("count_degenerate_rhom", 4, ("oracle", "fast"), "nonzero"),
}
QUANTITIES = tuple(QUANTITY_TABLE)
METHODS = ("oracle", "fast", "fourier")


def _quantity_t(ctx, quantity: str, t):
    """The radius reduced mod q, or None for a quantity without one (which
    refuses a --t)."""
    rule = QUANTITY_TABLE[quantity][3]
    if rule is None:
        if t is not None:
            raise UsageError(f"--t does not apply to quantity {quantity}")
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


def _cmd_count(args, ctx, config) -> int:
    quantity = args.quantity
    if args.exclude_degenerate and quantity != "rhom_t":
        raise UsageError("--exclude-degenerate applies to rhom_t only")
    sets = geometry.parse_sets(ctx, args.set, QUANTITY_TABLE[quantity][1], args.seed)
    t = _quantity_t(ctx, quantity, args.t)
    _check_method(quantity, args.method)
    extra = ({"exclude_degenerate": args.exclude_degenerate}
             if quantity == "rhom_t" else {})

    start = time.perf_counter()
    result = _run_counter(ctx, quantity, sets, t, args.method, **extra)
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    obj = result.to_json_obj(quantity)
    obj["elapsed_ms"] = round(elapsed_ms, 3)
    if args.format == "human":
        print(f"{quantity} q={ctx.q} t={result.t} value={result.value} "
              f"method={result.method} elapsed_ms={elapsed_ms:.3f}")
    else:
        _emit(obj, config)
    return 0


# -- bounds ---------------------------------------------------------------------

def _cmd_bounds(args, ctx, config) -> int:
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


# -- fourier ----------------------------------------------------------------------

def _cmd_fourier(args, ctx, config) -> int:
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
        ps = geometry.parse_sets(ctx, args.set, 1, args.seed)[0]
    spec = fourier.transform(ctx, ps, method=args.method)
    coeffs = [
        [m1, m2, float(spec[m1, m2].real), float(spec[m1, m2].imag)]
        for m1 in range(ctx.q) for m2 in range(ctx.q)
    ]
    _emit({"q": ctx.q, "coeffs": coeffs}, config)
    return 0


# -- vc / witness ------------------------------------------------------------------

def _cmd_vc(args, ctx, config) -> int:
    t = _nonzero_t(ctx, args.t)
    if args.cap < 0:
        raise UsageError("--cap must be nonnegative")
    E = geometry.parse_sets(ctx, args.set, 1, args.seed)[0]
    sys_ = vc.build_system(ctx, E, t)
    dim = vc.vc_dimension(sys_, cap=args.cap)
    example = None
    if dim >= 0:
        found = vc.find_shattered(sys_, dim)
        if found is not None:
            example = [[p[0], p[1]] for p in found]
    _emit({"vc_dim": dim, "shattered_example": example, "size": len(E)}, config)
    return 0


def _cmd_witness(args, ctx, config) -> int:
    t = _nonzero_t(ctx, args.t)
    E = geometry.parse_sets(ctx, args.set, 1, args.seed)[0]
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


def _cmd_bench(args, ctx, config) -> int:
    if args.runs < 1:
        raise UsageError("--runs must be at least 1")
    quantity = args.quantity
    t = _quantity_t(ctx, quantity, args.t)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods must name at least one method")
    for m in methods:
        _check_method(quantity, m)
    sets = geometry.parse_sets(ctx, args.set, QUANTITY_TABLE[quantity][1], args.seed)

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

    obj = {
        "quantity": quantity,
        "q": ctx.q,
        "t": t,
        "set_sizes": [len(s) for s in sets],
        "runs": args.runs,
        "results": results,
    }
    if args.format == "csv":
        sys.stdout.write("method,value,median_ms\n" + "".join(
            f"{r['method']},{r['value']},{r['median_ms']!r}\n" for r in results))
    elif args.format == "human":
        for r in results:
            print(f"{quantity} {r['method']}: value={r['value']} "
                  f"median={r['median_ms']} ms")
    else:
        _emit(obj, config)
    return 0


# -- gen ---------------------------------------------------------------------------

def _cmd_gen(args, ctx, config) -> int:
    if args.out is not None and args.json:
        raise UsageError("--json and --out cannot be combined")
    ps = geometry.parse_sets(ctx, args.set, 1, args.seed)[0]
    if args.out is not None:
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


# -- options ---------------------------------------------------------------------

# One option of a command.  type is int or str for an option that takes a
# value, or bool for a store-true flag, whose default is False.
Option = namedtuple("Option", "flag dest type default required choices help")


def _option(flag, type=str, default=None, required=False, choices=None, help=None):
    return Option(flag, flag[2:].replace("-", "_"), type,
                  False if type is bool else default, required, choices, help)


_Q = _option("--q", int, required=True, help="odd prime modulus")
_SEED = _option("--seed", int, 0, help="PRNG seed in [0, 2^64)")


def _format(*formats):
    return _option("--format", default="json", choices=formats)


# subcommand -> (its line in the full parser's help, its function, its
# options in the order the parser adds them), in the order the full parser
# lists them.  Both parses read this table: _parse_direct and build_parser.
_COMMAND_TABLE = {
    "count": ("run one exact counter", _cmd_count, (
        _Q, _SEED, _format("json", "human"),
        _option("--quantity", choices=QUANTITIES, required=True),
        _option("--t", int),
        _option("--set", required=True,
                help="comma-separated slots: full | random:D[:SEED] | "
                     "line-ap:S:STEP:LEN | file:PATH (single token broadcasts)"),
        _option("--method", default="fast", choices=METHODS),
        _option("--exclude-degenerate", bool))),
    "bounds": ("run a named inequality check or all", _cmd_bounds, (
        _Q, _SEED, _format("json", "csv", "human"),
        _option("--check", default="all",
                help=f"one of {bounds_mod.CHECK_NAMES} or all"),
        _option("--trials", int, 100),
        _option("--t", int, help="pin the radius (default: drawn per trial)"),
        _option("--density", default="0.5",
                help="set density in [0,1], or 'auto' to draw per trial"),
        _option("--all-t", bool,
                help="cover every nonzero radius (and every pair); "
                     "unit-distance still reports one drawn radius per trial"))),
    "fourier": ("dump a spectrum or a decay report", _cmd_fourier, (
        _Q, _SEED, _format("json"),
        _option("--set"),
        _option("--circle", int, help="transform the circle of this radius"),
        _option("--method", default="fast", choices=("fast", "oracle")),
        _option("--decay", bool, help="emit the decay report for --circle instead"))),
    "vc": ("exhaustive VC dimension of a set", _cmd_vc, (
        _Q, _SEED, _format("json"),
        _option("--t", int, required=True),
        _option("--set", required=True),
        _option("--cap", int, 4))),
    "witness": ("construct and verify a shattering witness", _cmd_witness, (
        _Q, _SEED, _format("json"),
        _option("--t", int, required=True),
        _option("--set", required=True))),
    "bench": ("time counter methods on one instance", _cmd_bench, (
        _Q, _SEED, _format("json", "csv", "human"),
        _option("--quantity", default="par_t", choices=QUANTITIES),
        _option("--t", int),
        _option("--methods", default="oracle,fast"),
        _option("--set", default="random:0.5"),
        _option("--runs", int, 5))),
    "gen": ("generate a point-set file", _cmd_gen, (
        _Q, _SEED,
        _option("--set", default="random:0.5"),
        _option("--out", help="output path (.json or text)"),
        _option("--json", bool, help="emit JSON to stdout instead of text"))),
}
COMMANDS = tuple(_COMMAND_TABLE)


def build_parser() -> "argparse.ArgumentParser":
    """The full ffplane parser, built from _COMMAND_TABLE: it takes the
    whole argument list, subcommand first, and gives every help text and
    usage error.

    argparse is imported here, so only an argument list that the direct
    parse declines pays for it and for gettext.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="ffplane",
        description="Configuration counts, spectral checks, and VC audits "
                    "for point sets in the plane over a prime field.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, func, options) in _COMMAND_TABLE.items():
        p = sub.add_parser(name, help=help_line)
        for opt in options:
            if opt.type is bool:
                p.add_argument(opt.flag, action="store_true", help=opt.help)
            else:
                p.add_argument(opt.flag, type=opt.type, default=opt.default,
                               required=opt.required, choices=opt.choices,
                               help=opt.help)
        p.set_defaults(func=func)
    return parser


def _parse_direct(argv):
    """argv parsed from _COMMAND_TABLE without argparse, or None where
    argparse might read it otherwise.

    It accepts a subcommand followed by its options, each named by its exact
    flag; an option's value must not start with "-", an int value must
    convert by int(), a value must be one of the option's choices, and every
    required option must be given.  A repeated option keeps its last value.
    What it accepts, the full parser parses to a namespace of the same
    vars(); everything else (help, errors, abbreviations, --opt=value,
    values that start with "-", "--") is left to the full parser.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options = _COMMAND_TABLE[argv[0]]
    by_flag = {opt.flag: opt for opt in options}
    values = {opt.dest: opt.default for opt in options}
    given = set()
    i = 1
    while i < len(argv):
        opt = by_flag.get(argv[i])
        if opt is None:
            return None
        if opt.type is bool:
            values[opt.dest] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        if opt.type is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if opt.choices is not None and value not in opt.choices:
            return None
        values[opt.dest] = value
        given.add(opt.dest)
        i += 2
    if any(opt.required and opt.dest not in given for opt in options):
        return None
    return SimpleNamespace(**values, command=argv[0], func=func)


def _parse_args(argv):
    """argv parsed by _parse_direct, or where that declines by the full
    parser, which prints help and usage errors and exits."""
    args = _parse_direct(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    """Run the command of argv (sys.argv[1:] by default) and return its exit
    code.  A valid command is parsed from the option table alone, without
    argparse; help and usage errors go to the full parser (_parse_args).
    Nothing is kept from one call to the next.  Once --seed and --q are
    checked, the command runs as func(args, ctx, config)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    try:
        # splitmix64 takes its seed mod 2^64, so a seed outside [0, 2^64)
        # would silently alias one inside it; such seeds are refused instead.
        if not 0 <= args.seed < 2**64:
            raise UsageError(f"--seed must lie in [0, 2^64), got {args.seed}")
        if not is_prime(args.q) or args.q < 3:
            raise UsageError(f"--q must be an odd prime >= 3, got {args.q}")
        return args.func(args, PrimeFieldCtx(args.q), _config_echo(args))
    except (UsageError, PointSetFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceExceeded as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 1
    except FFPlaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout (say, `| head -1`): stop quietly with the
        # status a shell gives a process killed by SIGPIPE.  fd 1 goes to
        # devnull so the interpreter's last flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
