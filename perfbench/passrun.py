"""One benchmark pass: a fresh interpreter runs a command list in order.

Reads ``{"commands": [argv, ...], "trace": bool}`` as JSON on stdin, calls
``ffplane.cli.main(argv)`` for each command with stdout captured, and writes
one JSON object to stdout:

* ``ready``: ``time.perf_counter()`` when ``ffplane.cli`` is imported and
  the first command is about to start.  The clock is system-wide, so the
  parent subtracts its own spawn time to get the start-up part of the
  pass's wall time; the commands' latencies make up the rest, so neither
  the speed kernel nor writing this report counts;
* ``commands``: exit code, latency in ms and captured stdout per command;
* ``kernel_s``: the speed kernel's time (speed.py) before the first command
  and after each command, so every command is framed by two readings;
* ``maxrss_kb``: ``ru_maxrss`` of this process after the commands;
* ``spans``: the tracer's spans when tracing, else an empty list.

Module caches start cold, as they do for a command-line user.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main():
    job = json.load(sys.stdin)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from speed import kernel_s

    spans = []
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        spans = tracer.spans
    import ffplane.cli

    ready = time.perf_counter()
    results = []
    kernel = [kernel_s()]
    for argv in job["commands"]:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = ffplane.cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            rc = exc.code
        ms = (time.perf_counter() - start) * 1000.0
        results.append({"rc": rc, "ms": ms, "stdout": buf.getvalue()})
        kernel.append(kernel_s())
    json.dump({
        "ready": ready,
        "commands": results,
        "kernel_s": kernel,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": spans,
    }, sys.stdout)


if __name__ == "__main__":
    main()
