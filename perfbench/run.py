"""ffplane benchmark: run one workload's CLI command list and print its metrics.

    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 0

Run from the repository root (the package is imported from ./src).  A run
measures the set-up time (a fresh interpreter through ``import ffplane.cli``)
several times, between a fixed number of passes.  One pass is one fresh
interpreter that runs the workload's commands in order (passrun.py), so
module caches start cold.  Pass i draws its inputs from seed
``SEED * 1000 + i``, so one run covers several inputs and the same seed
always gives the same inputs.  On a machine so slow that the passes take
more than ``OVERRUN`` times ``--seconds``, the run stops early, after at
least ``MIN_PASSES``.  Every command's output is checked by a route
independent of ffplane's fast code, outside the timed region.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json; the
times are scaled by the speed kernel (speed.py), and the unscaled ones are
in the detail line under ``raw``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, including the tracing overhead; traced stdout must match
untraced stdout apart from ``elapsed_ms``.  Spans are written to
``.perfbench/`` in the repository root.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it carries every computed metric, the tail percentile and
its sample count, the failure fraction and the environment.  Any failed
command makes the exit code 1.
"""

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import numpy

from speed import REF_S
from tracer import layer_totals
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PASSRUN = os.path.join(ROOT, "perfbench", "passrun.py")
SETUP_REPEATS = 9
SETUP_CMD = [sys.executable, "-c",
             "import sys, time; sys.path.insert(0, 'src'); import ffplane.cli; "
             "print(time.perf_counter())"]
MIN_PASSES = 4
OVERRUN = 2.0  # on a slow machine, no new pass after OVERRUN * --seconds
PASS_TIMEOUT_S = 150
TAIL_BEYOND = 10
PASS_SEED_STRIDE = 1000
_ELAPSED = re.compile(r'"elapsed_ms": [-+0-9.eE]+')

UNITS_E2E = {"wall_s": "s", "cmd_p50_ms": "ms", "cmd_tail_ms": "ms", "setup_s": "s"}
UNITS = {"calls": "count", "self_ms": "ms", "ns_per_pair": "ns", "flops": "flop",
         "pair_bytes": "B", "stdout_bytes": "B", "found_frac": "ratio"}


def child_env():
    env = dict(os.environ)
    env.pop("FFPLANE_THREADS", None)  # measured the way users run it: unset
    return env


def time_setup(env):
    """Wall time of a fresh interpreter from spawn until ``import ffplane.cli`` returns."""
    start = time.perf_counter()
    proc = subprocess.run(SETUP_CMD, cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True)
    return float(proc.stdout) - start


def run_pass(argvs, trace, env):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, PASSRUN], input=json.dumps({"commands": argvs, "trace": trace}),
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass process failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    scale(result, result["ready"] - start)
    result["trace"] = trace
    return result


def scale(result, startup_s):
    """Add the pass's wall time, its scaled wall time and scaled latencies.

    Each command is framed by two kernel readings and is scaled by their
    mean; the start-up (spawn through ``import ffplane.cli``) by the first.
    """
    kernel = result["kernel_s"]
    for c, before, after in zip(result["commands"], kernel, kernel[1:]):
        c["scaled_ms"] = c["ms"] * REF_S / ((before + after) / 2)
    result["wall_s"] = startup_s + sum(c["ms"] for c in result["commands"]) / 1000.0
    result["scaled_wall_s"] = (startup_s * REF_S / kernel[0]
                               + sum(c["scaled_ms"] for c in result["commands"]) / 1000.0)


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def tail(values):
    """The highest percentile with TAIL_BEYOND samples beyond it: (pct, value)."""
    n = len(values)
    rank = max(1, n - TAIL_BEYOND)
    return 100.0 * rank / n, sorted(values)[rank - 1]


def check_outputs(pass_commands, passes, twins=()):
    """(attempted, failed, errors) over every command of every pass.

    A command fails on a nonzero exit code or a wrong output.  ``twins``
    pairs (untraced, traced) passes that ran the same commands; their stdout
    must agree apart from ``elapsed_ms``.
    """
    attempted = failed = 0
    errors = []
    traced_diffs = {}
    for plain, traced in twins:
        for i, (a, b) in enumerate(zip(plain["commands"], traced["commands"])):
            if _ELAPSED.sub("", a["stdout"]) != _ELAPSED.sub("", b["stdout"]):
                traced_diffs[id(traced), i] = "traced stdout differs from untraced"
    for commands, result in zip(pass_commands, passes):
        for i, (cmd, r) in enumerate(zip(commands, result["commands"])):
            attempted += 1
            if r["rc"] != 0:
                problems = [f"exit code {r['rc']}"]
            else:
                try:
                    problems = cmd.check(r["stdout"])
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            if (id(result), i) in traced_diffs:
                problems.append(traced_diffs[id(result), i])
            if problems:
                failed += 1
                errors += [f"{' '.join(cmd.argv)}: {e}" for e in problems]
    return attempted, failed, errors


def times(passes, setups, key):
    """wall_s, cmd_p50_ms, cmd_tail_ms and setup_s: raw (key "") or scaled."""
    samples = [c[key + "ms"] for p in passes for c in p["commands"]]
    tail_pct, tail_ms = tail(samples)
    return {
        "wall_s": statistics.median(p[key + "wall_s"] for p in passes),
        "cmd_p50_ms": nearest_rank(samples, 50),
        "cmd_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
    }, tail_pct, len(samples)


def end_to_end(passes, setups):
    """Scaled times (speed.py) as metrics; the raw ones go to the detail line.

    A set-up sample is short and has no kernel readings of its own, so the
    set-up samples are scaled by the mean of all the passes' readings.
    """
    kernel = [k for p in passes for k in p["kernel_s"]]
    raw, _, _ = times(passes, setups, "")
    run_scale = REF_S / statistics.mean(kernel)
    scaled, tail_pct, nsamples = times(passes, [s * run_scale for s in setups], "scaled_")
    metrics = {name: (value, UNITS_E2E[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (
        statistics.median(p["maxrss_kb"] for p in passes) / 1024.0, "MB")
    per_command = [round(statistics.median(ms), 2)
                   for ms in zip(*([c["scaled_ms"] for c in p["commands"]] for p in passes))]
    return metrics, {"cmd_tail_pct": round(tail_pct, 2), "cmd_samples": nsamples,
                     "cmd_median_ms": per_command, "raw": raw,
                     "speed_vs_ref": run_scale}


def per_layer(plain, traced, names):
    """Median over traced passes of each per-pass layer total."""
    per_pass = []
    for p in traced:
        totals = layer_totals(p["spans"])
        totals.setdefault("cli.main", {})["stdout_bytes"] = sum(
            len(c["stdout"].encode()) for c in p["commands"])
        per_pass.append(totals)

    def stat(layer, key):
        return statistics.median(t.get(layer, {}).get(key, 0) for t in per_pass)

    metrics = {}
    for name in names:
        if name == "tracing_overhead_s":
            # Each traced pass runs right after its untraced twin on the same
            # inputs, so the paired difference cancels slow spells of the machine.
            overhead = statistics.median(
                t["scaled_wall_s"] - p["scaled_wall_s"] for p, t in zip(plain, traced))
            metrics[name] = (overhead, "s")
            continue
        layer, key = name.rsplit(".", 1)
        if key == "ns_per_pair":
            pairs = stat(layer, "pairs")
            value = stat(layer, "self_ms") * 1e6 / pairs if pairs else 0.0
        elif key == "found_frac":
            calls = stat(layer, "calls")
            value = stat(layer, "found") / calls if calls else 0.0
        else:
            value = stat(layer, key)
        metrics[name] = (value, UNITS.get(key, "count"))
    return metrics


def environment(seed):
    """Versions, BLAS threads, CPU model and caches, and the seed of this run."""
    env = {"seed": seed, "python": platform.python_version(),
           "numpy": numpy.__version__, "nproc": os.cpu_count(),
           "FFPLANE_THREADS": "unset"}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    # numpy's bundled OpenBLAS reports its thread count under a prefixed name.
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    try:
        lib = ctypes.CDLL(libs[0]) if libs else None
    except OSError:
        lib = None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            env["blas_threads"] = fn()
            break
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info = dict(ln.split(":", 1) for ln in fh if ":" in ln)
        env["cpu"] = info.get("model name\t", "").strip()
        caches = []
        for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
            fields = []
            for leaf in ("level", "type", "size"):
                with open(os.path.join(index, leaf), encoding="utf-8") as fh:
                    fields.append(fh.read().strip())
            caches.append("L{} {} {}".format(*fields))
        env["caches"] = caches
    except OSError:
        pass
    return env


def write_spans(args, traced):
    """All spans of the traced passes, one JSON array per line."""
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for pass_id, p in enumerate(traced):
            for sid, name, start, end, parent, counts in p["spans"]:
                fh.write(json.dumps([pass_id, sid, name, start, end, parent, counts]) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ffplane", "cli.py")):
        print(f"error: no ffplane source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    build, pass_s = WORKLOADS[args.workload]
    env = child_env()
    npasses = max(MIN_PASSES, round(args.seconds / pass_s))
    # Pass i runs its own inputs, so a run's medians span several inputs.
    pass_commands = [build(args.seed * PASS_SEED_STRIDE + i) for i in range(npasses)]

    started = time.perf_counter()

    def overrun(done):
        return done >= MIN_PASSES and time.perf_counter() - started > OVERRUN * args.seconds

    if args.trace:
        plain, traced = [], []
        for commands in pass_commands[:max(2, npasses // 2)]:
            if overrun(2 * len(plain)):
                break
            argvs = [cmd.argv for cmd in commands]
            plain.append(run_pass(argvs, False, env))
            traced.append(run_pass(argvs, True, env))
        listed = spec["per_layer"]
        metrics = per_layer(plain, traced, [m["name"] for m in listed])
        details = {}
        passes = plain + traced
        pass_commands = pass_commands[:len(plain)] * 2
        twins = list(zip(plain, traced))
        write_spans(args, traced)
    else:
        subprocess.run(SETUP_CMD, cwd=ROOT, env=env, check=True,
                       capture_output=True)  # writes the bytecode caches
        # Set-up samples are spread evenly over the run, between passes, so
        # that slow and fast spells of a shared machine both show in the median.
        setups, passes = [], []
        for i, commands in enumerate(pass_commands):
            if overrun(i):
                break
            due = math.ceil(SETUP_REPEATS * (i + 1) / npasses)
            setups += [time_setup(env) for _ in range(due - len(setups))]
            passes.append(run_pass([cmd.argv for cmd in commands], False, env))
        setups += [time_setup(env) for _ in range(SETUP_REPEATS - len(setups))]
        pass_commands = pass_commands[:len(passes)]
        metrics, details = end_to_end(passes, setups)
        listed = spec["end_to_end"]
        twins = ()
    for m in listed:
        if metrics[m["name"]][1] != m["unit"]:
            raise SystemExit(f"{m['name']}: BENCHMARK.json says {m['unit']}, "
                             f"the benchmark measures {metrics[m['name']][1]}")

    check_start = time.perf_counter()
    attempted, failed, errors = check_outputs(pass_commands, passes, twins)
    details["check_s"] = round(time.perf_counter() - check_start, 3)
    for err in errors:
        print(f"FAIL {err}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "trace": args.trace, "passes": len(passes),
        "commands_per_pass": len(pass_commands[0]), **details,
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "fail_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "environment": environment(args.seed),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
