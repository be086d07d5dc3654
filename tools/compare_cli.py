"""Compare the gaussmoments CLI of two source trees byte for byte.

Usage: python3 tools/compare_cli.py PARENT_SRC CHANGE_SRC [--seeds A..B]

Runs one corpus of CLI calls through ``gaussmoments.cli.main`` of each tree
and compares the exit code, stdout and stderr of every call:

* the help and usage corpus: top-level ``--help``, no arguments, an unknown
  subcommand, and ``CMD --help`` and ``CMD`` alone for every subcommand;
* with --seeds, the units of every workload in ``bench/workloads.py`` for
  each seed (its recover inputs are written to a temporary directory).

Each tree runs the whole corpus in one fresh interpreter, without the
GAUSSMOMENTS_* environment variables, from which older trees read their
seed and prime defaults.  Every call that differs is printed in full; the
exit code is 1 if any call differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

COMMANDS = ("moments", "cumulants", "check", "dim", "census", "formulas",
            "recover", "structural", "matrix")

# run in each tree: the corpus comes on stdin, one [code, stdout, stderr]
# per call goes to stdout
_CHILD = """
import contextlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from gaussmoments.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "exception"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def usage_corpus() -> list[list[str]]:
    calls = [["--help"], [], ["no-such-command"]]
    for cmd in COMMANDS:
        calls += [[cmd, "--help"], [cmd]]
    return calls


def workload_corpus(seeds: list[int], inputs: Path) -> list[list[str]]:
    """The argv of every workload unit for each seed, each once."""
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    calls: dict[tuple, None] = {}
    for seed in seeds:
        for name, make in WORKLOADS.items():
            for unit in make(seed, inputs / f"{name}-seed{seed}"):
                calls[unit.argv] = None
    return [list(argv) for argv in calls]


def run_tree(src: str, calls: list[list[str]], cwd: str) -> list[list]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GAUSSMOMENTS_")}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(src).resolve())],
        input=json.dumps(calls), capture_output=True, text=True, env=env,
        cwd=cwd)
    if proc.returncode:
        raise SystemExit(f"the corpus did not run in {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _seed_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    return list(range(int(lo), int(hi if sep else lo) + 1))


def _show(label: str, result: list) -> None:
    code, out, err = result
    print(f"  {label}: exit {code}")
    for stream, text in (("stdout", out), ("stderr", err)):
        print(f"  --- {label} {stream} ---")
        sys.stdout.write(text if text.endswith("\n") or not text
                         else text + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seeds", type=_seed_range, default=[],
                        help="bench workload seeds, A..B or A")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        calls = usage_corpus() + workload_corpus(args.seeds, Path(tmp))
        parent = run_tree(args.parent_src, calls, tmp)
        change = run_tree(args.change_src, calls, tmp)

    differ = 0
    for call, a, b in zip(calls, parent, change):
        if a != b:
            differ += 1
            print(f"differs: gaussmoments {shlex.join(call)}")
            _show("parent", a)
            _show("change", b)
    print(f"{len(calls)} calls, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
