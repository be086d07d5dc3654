"""Benchmark of the gaussmoments CLI, end to end and layer by layer.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each unit of the workload (one CLI call) runs through ``gaussmoments.cli.main``
in a fresh child process, one child at a time, and its output is checked
against oracles computed apart from the program (``oracles.py``).  The units
are repeated in whole rounds until the next round would end after S seconds
(at least two rounds), and each unit counts with the median of its
repetitions.

With --trace 0 the last line of stdout is the end-to-end result:
  compute_s    sum over units of the median time of main() (s)
  setup_s      median time from child spawn to gaussmoments.cli imported (s)
  peak_rss_mb  largest peak resident set of any child (MB)
With --trace 1 every round runs each unit untraced and traced, and the
result holds the per-layer metrics, taken from each unit's median traced
repetition, and the tracing overhead.  The spans go to
.bench_out/trace-WORKLOAD-seedN.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import ROOT, layer_totals
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
OUT = REPO / ".bench_out"

MIN_ROUNDS = 2
HARD_LIMIT_S = 150  # no round starts that could end after this


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    # the CLI reads defaults for --seed and --prime from these
    return {k: v for k, v in os.environ.items()
            if not k.startswith("GAUSSMOMENTS_")}


def run_child(unit, trace: bool, env: dict, timeout: float) -> dict:
    """One unit in a fresh interpreter; the child's report plus setup_s."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(SRC),
           "1" if trace else "0", *unit.argv]
    spawn = _now()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"unit {unit.name} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"child for unit {unit.name} exited "
                           f"{proc.returncode}: {err.strip()[-2000:]}")
    report = json.loads(out.splitlines()[-1])
    report["setup_s"] = report["ready"] - spawn
    return report


def judge(unit, report: dict) -> tuple[bool, list[str]]:
    """(failed, problems).  An operation fails when the program does not
    finish as a correct run would (a crash, or an error exit on valid
    input); otherwise its output is checked against the oracle."""
    code = report["code"]
    # an accepted off-variety input finished, and its checker reports it
    if code not in (unit.expect, 0):
        return True, [f"exit {code}: {report['stderr'].strip()[-500:]}"]
    return False, unit.check(code, report["stdout"], report["stderr"])


def median_compute_s(reports: list[dict]) -> float:
    return statistics.median(r["compute_s"] for r in reports)


def median_report(reports: list[dict]) -> dict:
    """The repetition at the (lower) median compute time: a whole run of the
    unit, so its spans add up."""
    ordered = sorted(reports, key=lambda r: r["compute_s"])
    return ordered[(len(ordered) - 1) // 2]


def per_layer_metrics(median_traced: dict, compute_untraced: float,
                      compute_traced: float) -> dict:
    totals: dict = {}
    for report in median_traced.values():
        for name, t in layer_totals(report["spans"]).items():
            acc = totals.setdefault(name, {})
            for key, value in t.items():
                acc[key] = acc.get(key, 0) + value

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    rank_s = get("linalg.rank_mod_p", "s")
    rank_ops = get("linalg.rank_mod_p", "ops")
    values = {
        "moments.moment_polynomials.s": (get("moments.moment_polynomials", "s"), "s"),
        "secant.self_s": (get("secant.defect_row", "self_s"), "s"),
        "linalg.rank_mod_p.s": (rank_s, "s"),
        "linalg.rank_mod_p.calls": (get("linalg.rank_mod_p", "calls"), "count"),
        "linalg.rank_mod_p.ops": (rank_ops, "computed_ops"),
        "linalg.rank_mod_p.ops_per_s": (rank_ops / rank_s if rank_s else 0.0,
                                        "computed_ops/s"),
        "linalg.poly_det.s": (get("linalg.poly_det", "s"), "s"),
        "linalg.poly_det.calls": (get("linalg.poly_det", "calls"), "count"),
        "determinantal.hb_minors.s": (get("determinantal.hb_minors", "s"), "s"),
        "determinantal.hb_structural_checks.self_s": (
            get("determinantal.hb_structural_checks", "self_s"), "s"),
        "recovery.recover.self_s": (get("recovery.recover", "self_s"), "s"),
        "recovery.recover_n3.s": (get("recovery.recover_n3", "s"), "s"),
        "recovery.recover_n3.calls": (get("recovery.recover_n3", "calls"), "count"),
        "moments.mixture_moments.s": (get("moments.mixture_moments", "s"), "s"),
        "cli.self_s": (get(ROOT, "self_s"), "s"),
        "trace.compute_s": (compute_traced, "s"),
        "trace.untraced_compute_s": (compute_untraced, "s"),
        "trace.overhead_pct": (100.0 * (compute_traced / compute_untraced - 1),
                               "%"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def write_trace(path: Path, workload: str, traced: dict) -> None:
    with path.open("w") as fh:
        for unit_name, reports in traced.items():
            for rep, report in enumerate(reports):
                for span in report["spans"]:
                    fh.write(json.dumps({"workload": workload,
                                         "unit": unit_name, "rep": rep,
                                         **span}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gaussmoments" / "cli.py").is_file():
        print(f"error: no gaussmoments sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    units = WORKLOADS[args.workload](args.seed, OUT / "inputs" / tag)
    env = _child_env()

    plain = {u.name: [] for u in units}
    traced = {u.name: [] for u in units}
    attempted = failed = 0
    problems: list[str] = []
    start = _now()
    fastest_round = 0.0
    rounds = 0
    while True:
        end = _now() - start + fastest_round
        if end > HARD_LIMIT_S or (rounds >= MIN_ROUNDS and end > args.seconds):
            break
        round_start = _now()
        for unit in units:
            # in traced runs the two kinds alternate which goes first
            kinds = [False, True] if trace else [False]
            if rounds % 2:
                kinds.reverse()
            for kind in kinds:
                timeout = start + HARD_LIMIT_S + 20 - _now()
                report = run_child(unit, kind, env, max(timeout, 1.0))
                attempted += 1
                bad, why = judge(unit, report)
                if bad:
                    failed += 1
                    print(f"FAILED {unit.name}: {why[0]}", file=sys.stderr)
                else:
                    problems.extend(f"{unit.name}: {p}" for p in why)
                    (traced if kind else plain)[unit.name].append(report)
        took = _now() - round_start
        fastest_round = min(fastest_round, took) if rounds else took
        rounds += 1

    for p in problems:
        print(f"WRONG {p}", file=sys.stderr)
    reports = [r for rs in plain.values() for r in rs]
    if not reports:
        print("error: every operation failed", file=sys.stderr)
        return 1
    # a unit with no successful repetition cannot be timed
    compute_s = sum(median_compute_s(rs) for rs in plain.values() if rs)
    if trace:
        # traced and untraced compared by the same choice of repetition,
        # the one whose spans are reported
        median_traced = {name: median_report(rs)
                         for name, rs in traced.items() if rs}
        metrics = per_layer_metrics(
            median_traced,
            sum(median_report(rs)["compute_s"] for rs in plain.values() if rs),
            sum(r["compute_s"] for r in median_traced.values()))
        write_trace(OUT / f"trace-{tag}.jsonl", args.workload, traced)
    else:
        metrics = {
            "compute_s": {"value": compute_s, "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"]
                                                   for r in reports),
                        "unit": "s"},
            "peak_rss_mb": {"value": max(r["maxrss_kb"] for r in reports)
                            / 1024, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
              "unit_compute_s": {name: [r["compute_s"] for r in rs]
                                 for name, rs in plain.items()},
              "problems": problems, **result}
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
