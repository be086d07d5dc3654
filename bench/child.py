"""Run one CLI call of gaussmoments in this fresh process and report on it.

Usage: python3 child.py SRC_DIR TRACE ARG...

Imports ``gaussmoments.cli`` from SRC_DIR, calls ``main(ARGS)`` with stdout
and stderr captured in memory, and prints one JSON line: the exit code, the
captured output, the compute time of ``main``, the CLOCK_MONOTONIC instant
the CLI was ready (the parent subtracts its spawn instant), the peak
resident set and, with TRACE = 1, the spans of the layer boundaries.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def run(src: str, trace: bool, argv: list[str]) -> dict:
    sys.path.insert(0, src)
    from gaussmoments import cli
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = None
    if trace:
        from spans import ROOT, Tracer
        tracer = Tracer()
        tracer.install()

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = (tracer.call(ROOT, cli.main, argv) if tracer
                    else cli.main(argv))
        except SystemExit as exc:  # argparse usage errors exit 2
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a program fault is reported, not fatal here
            traceback.print_exc()
            code = "exception"
    compute_s = time.perf_counter() - start

    report = {"code": code, "stdout": out.getvalue(),
              "stderr": err.getvalue(), "compute_s": compute_s,
              "ready": ready,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        report["spans"] = tracer.spans
    return report


if __name__ == "__main__":
    report = run(sys.argv[1], sys.argv[2] == "1", sys.argv[3:])
    sys.stdout.write(json.dumps(report) + "\n")
