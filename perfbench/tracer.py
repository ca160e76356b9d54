"""Span tracer that wraps ffplane's public functions from outside the package.

Each wrapped call records one span ``[id, name, start, end, parent, counts]``
in memory.  ``counts`` holds work counts computed from the call's arguments
and result (never from inside the program), e.g. the pair count |A||B| of a
difference table.  A function is replaced at every ``ffplane.*`` module
binding of its name, because ``counting``, ``bounds``, ``vc`` and ``cli``
import helpers such as ``circle`` by name; wrapping only the home module
would miss those calls.
"""

import functools
import sys
import time


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _circle_size(q, t):
    """|S_t| = q - eta(-1) for t != 0; S_0 is the two isotropic lines or {0}."""
    minus_one_square = q % 4 == 1
    if t % q == 0:
        return 2 * q - 1 if minus_one_square else 1
    return q - 1 if minus_one_square else q + 1


def _unit_distance_probes(args, kwargs, result):
    if _arg(args, kwargs, 4, "method", "fast") != "fast":
        return {}
    ctx, U = args[0], args[1]
    return {"probes": len(U) * _circle_size(ctx.q, args[3])}


def _transform_flops(args, kwargs, result):
    # The fast route is two complex q x q matrix products, 8 q^3 flops each.
    if _arg(args, kwargs, 2, "method", "fast") != "fast":
        return {}
    return {"flops": 16 * args[0].q ** 3}


def _sweep_counts(args, kwargs, result):
    return {"reports": len(result),
            "violations": sum(1 for rep in result if not rep.holds)}


def _witness_found(args, kwargs, result):
    return {"found": int(hasattr(result, "labeled_points"))}


# (module, attribute, counts from (args, kwargs, result)).  The span name is
# "<module>.<attribute>"; rng and report are counted inside their callers.
TRACED = (
    ("field", "PrimeFieldCtx", None),
    ("geometry", "circle", None),
    ("geometry", "full_plane", None),
    ("geometry", "gen_example_line_ap", None),
    ("geometry", "gen_random_set", lambda a, k, r: {"draws": a[0].q ** 2}),
    ("geometry", "difference_table",
     lambda a, k, r: {"pairs": len(a[1]) * len(a[2])}),
    ("geometry", "intersect_shift", lambda a, k, r: {"scanned": len(a[1])}),
    ("fourier", "transform", _transform_flops),
    ("fourier", "check_circle_decay", None),
    ("counting", "count_unit_distances", _unit_distance_probes),
    ("counting", "count_par_t", None),
    ("counting", "count_par_all", None),
    ("counting", "par_t_profile", None),
    ("counting", "count_rhom_t", None),
    ("counting", "count_degenerate_rhom", None),
    # The fourier route materializes one complex128 q^2 x q^2 pair table.
    ("counting", "par_t_fourier", lambda a, k, r: {"pair_bytes": 16 * a[0].q ** 4}),
    ("bounds", "sweep", _sweep_counts),
    ("bounds", "check_unit_distance", None),
    ("bounds", "check_par_mean", None),
    ("bounds", "check_par_mean_all", None),
    ("bounds", "check_par_pair", None),
    ("bounds", "check_par_all_pairs", None),
    ("bounds", "check_rhom_relation", None),
    ("bounds", "check_rhom_lower", None),
    ("vc", "build_system",
     lambda a, k, r: {"edges": sum(len(n) for n in r.neighborhoods.values())}),
    ("vc", "vc_dimension", None),
    ("vc", "find_shattered", None),
    ("vc", "find_witness", _witness_found),
    ("vc", "verify_witness", None),
    ("cli", "main", None),
)


class Tracer:
    """Collects spans of one pass.  Wrapped functions run on one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), name, 0.0, 0.0,
                      stack[-1] if stack else None, None]
            spans.append(record)
            stack.append(record[0])
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if counts is not None:
                record[5] = counts(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function at each ffplane module binding."""
        import ffplane.cli  # noqa: F401  (with the package, every submodule)

        modules = [m for n, m in sys.modules.items()
                   if n == "ffplane" or n.startswith("ffplane.")]
        for mod_name, attr, counts in TRACED:
            home = sys.modules[f"ffplane.{mod_name}"]
            original = getattr(home, attr)
            name = f"{mod_name}.{attr}"
            if isinstance(original, type):
                # Wrap the constructor so isinstance checks keep working.
                original.__init__ = self.wrap(name, original.__init__, counts)
                continue
            wrapper = self.wrap(name, original, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def self_times(spans):
    """Map span id -> duration minus the part covered by its child spans."""
    children = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    result = {}
    for span in spans:
        start, end = span[2], span[3]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span[0], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span[0]] = (end - start) - covered
    return result


def layer_totals(spans):
    """Per span name: calls, self_ms and the summed computed counts."""
    selfs = self_times(spans)
    totals = {}
    for span in spans:
        entry = totals.setdefault(span[1], {"calls": 0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["self_ms"] += selfs[span[0]] * 1000.0
        for key, value in (span[5] or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals
