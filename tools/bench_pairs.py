"""Run the benchmark of two source trees in alternating same-session pairs.

Usage: python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W
           --seeds A..B

For each seed, runs each tree's own ``bench/run.py --workload W --seed S
--seconds 42 --trace 0`` in that tree, one run at a time; the parent goes
first on even pairs and the change on odd ones, so a drift of the host's
speed during the session does not favour one side.  The end-to-end metrics
are those of ``BENCHMARK.json``.

Writes ``BENCH_<change rev>.json`` at the root of this repository with the
revs of both trees, the Python and numpy versions and the CPU count, every
pair's metrics, and per metric the median and quartiles of both sides, the
number of pairs the change won, and the number in which the side that ran
first read worse.  A file that already holds other workloads of the same
two revs, Python, numpy and CPU count keeps them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

from compare_cli import _seed_range

REPO = Path(__file__).resolve().parent.parent
SECONDS = 42


def _rev(tree: Path) -> str:
    """The short rev of the tree's HEAD, with -dirty if tracked files
    differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "--short=7", "HEAD")
    if head.returncode:
        raise SystemExit(f"{tree} is not a git checkout")
    dirty = git("diff", "--quiet", "HEAD").returncode
    return head.stdout.strip() + ("-dirty" if dirty else "")


def run_bench(tree: Path, workload: str, seed: int) -> str:
    """The result line (the last line of stdout) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"bench/run.py failed in {tree}:\n{proc.stderr}")
    return proc.stdout.splitlines()[-1]


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[tuple[str, str]], better: dict[str, str],
              firsts: list[str]) -> dict:
    """Per end-to-end metric, from (parent, change) result lines of
    bench/run.py and the side that ran first in each pair ("parent" or
    "change"): the unit, which way is better, the median and quartiles of
    each side, in how many pairs the change was strictly better, and in
    how many the side that ran first was strictly worse (with no bias from
    the order, about half the pairs).  Also each side's attempted and
    failed operations and whether every output was correct."""
    sides = [[json.loads(line) for line in side] for side in zip(*pairs)]
    out: dict = {}
    for name, way in better.items():
        values = [[r["metrics"][name]["value"] for r in side]
                  for side in sides]
        sign = 1 if way == "lower" else -1
        gains = [sign * (p - c) for p, c in zip(*values)]
        out[name] = {"unit": sides[0][0]["metrics"][name]["unit"],
                     "better": way,
                     "parent": _spread(values[0]),
                     "change": _spread(values[1]),
                     "change_won": sum(g > 0 for g in gains),
                     "first_lost": sum(g < 0 if first == "change" else g > 0
                                       for g, first in zip(gains, firsts)),
                     "pairs": len(pairs)}
    for label, side in zip(("parent", "change"), sides):
        out[f"{label}_runs"] = {
            "attempted": sum(r["attempted"] for r in side),
            "failed": sum(r["failed"] for r in side),
            "correct": all(r["correct"] for r in side)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seed_range, required=True,
                        help="A..B or A")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent_tree.resolve(),
             "change": args.change_tree.resolve()}
    revs = {side: _rev(tree) for side, tree in trees.items()}
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    path = REPO / f"BENCH_{revs['change']}.json"
    setting = {"parent_rev": revs["parent"], "change_rev": revs["change"],
               "python": platform.python_version(),
               "numpy": numpy.__version__, "cpus": os.cpu_count(),
               "command": f"bench/run.py --seconds {SECONDS} --trace 0"}
    record = json.loads(path.read_text()) if path.exists() else setting
    if {key: record.get(key) for key in setting} != setting:
        raise SystemExit(f"{path} holds runs of another setting")

    runs, lines = [], []
    for k, seed in enumerate(args.seeds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        line = {side: run_bench(trees[side], args.workload, seed)
                for side in order}
        lines.append((line["parent"], line["change"]))
        runs.append({"seed": seed, "first": order[0],
                     **{side: json.loads(line[side])["metrics"]
                        for side in ("parent", "change")}})
        print(f"seed {seed}: " + ", ".join(
            f"{side} {runs[-1][side]['compute_s']['value']:.4f} s"
            for side in order), file=sys.stderr)

    record.setdefault("workloads", {})[args.workload] = {
        "seeds": args.seeds,
        "summary": summarize(lines, better, [r["first"] for r in runs]),
        "runs": runs}
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
