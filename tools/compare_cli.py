"""Compare the gaussmoments CLI of two source trees byte for byte.

Usage: python3 tools/compare_cli.py PARENT_SRC CHANGE_SRC [--seeds A..B]

Runs one corpus of CLI calls through ``gaussmoments.cli.main`` of each tree
and compares the exit code, stdout and stderr of every call:

* the help and usage corpus: top-level ``--help``, no arguments, an unknown
  subcommand, and ``CMD --help`` and ``CMD`` alone for every subcommand;
* with --seeds, for each seed: the units of every workload in
  ``bench/workloads.py``, and calls of the subcommands the benchmark does
  not run (``moments``, ``cumulants``, ``check`` with each method,
  ``formulas`` with each flag, ``matrix`` for each matrix, the gd and hb
  matrices up to d = 12 and the Willink matrix also with ``--moments``,
  and ``check`` at orders 4..8, where the gd matrix has more than one
  minor) on inputs drawn from the seed, and ``dim`` and
  ``census`` calls at d = 4 and 5, n = 2..6, at one prime per limb count
  of the rank kernel (1, 2 and 3 limbs), which the benchmark runs at
  other orders and primes; and once, the matrices ``matrix`` prints with
  two-digit coefficients (``11*m10``, ``11*x``): gd and hb at d = 12, and
  the Willink matrix at n = 1, d = 12 and n = 3, d = 6.  The input files
  go to a temporary directory.

Each tree runs the whole corpus in one fresh interpreter, without the
GAUSSMOMENTS_* environment variables, from which older trees read their
seed and prime defaults.  Every call that differs is printed in full; the
exit code is 1 if any call differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
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


# the matrices whose coefficients reach two digits (11*m10, 11*x)
LARGEST_MATRICES = (("gd", "--d", "12"), ("hb", "--d", "12"),
                    ("willink", "--n", "1", "--d", "12"),
                    ("willink", "--n", "3", "--d", "6"))


def cli_corpus(seeds: list[int], inputs: Path) -> list[list[str]]:
    """For each seed and n = 1, 2, 3: the seeded calls of ``moments``,
    ``cumulants``, ``check`` and ``matrix --which willink --moments`` on a
    random two-component mixture and on its first component alone (a
    Gaussian, so a member of the moment variety), and the symbolic matrices
    at a random order; one call of ``formulas`` per flag; and ``check``
    with each method on the moments of a univariate Gaussian of a random
    order 4..8, and on the same moments with the top one raised by 1.
    Then, if there are seeds, the largest matrices: LARGEST_MATRICES."""
    sys.path.insert(0, str(BENCH))
    import oracles

    calls = []
    for seed in seeds:
        rng = random.Random(seed)
        fmt = ("csv", "json", "markdown")[seed % 3]
        for n in (1, 2, 3):
            mix = oracles.random_mixture(rng, n)
            params = inputs / f"params-n{n}-seed{seed}.json"
            params.write_text(json.dumps({"components": [
                {"weight": str(w), "mean": [str(x) for x in mu],
                 "cov": [str(x) for x in cov]}
                for w, mu, cov in zip(mix["weights"], mix["means"],
                                      mix["covs"])]}))
            d = str(rng.randint(3, 5))
            calls += [["moments", "--params", str(params), "--d", d],
                      ["cumulants", "--params", str(params), "--d", d]]
            gaussian = {key: value[:1] for key, value in mix.items()}
            gaussian["weights"] = [1]
            for name, m in (("gaussian", gaussian), ("mixture", mix)):
                path = str(inputs / f"{name}-n{n}-seed{seed}.json")
                Path(path).write_text(json.dumps(oracles.moments_json(
                    n, oracles.mixture_moments3(m))))
                calls += [["check", "--moments", path, "--method", how]
                          for how in ("gd", "willink", "cumulant")]
                calls += [["cumulants", "--moments", path],
                          ["matrix", "--which", "willink", "--n", str(n),
                           "--d", "3", "--moments", path]]
            calls += [["matrix", "--which", which, "--d",
                       str(rng.randint(3, 12))] for which in ("gd", "hb")]
            calls.append(["matrix", "--which", "willink", "--n", str(n),
                          "--d", str(rng.randint(3, 6))])
        # the lowest d, n and r each formula takes
        for flag, lo in (("--deg-sec2-g1", 3), ("--deg-sec2-x", 4),
                         ("--deg-sec3-x", 6)):
            calls.append(["formulas", flag, "--d",
                          f"{lo}..{lo + rng.randrange(10)}", "--format", fmt])
        for flag in ("--dim-d3", "--defect-d3"):
            calls.append(["formulas", flag, "--n", str(rng.randint(1, 10)),
                          "--k", f"1..{rng.randint(1, 8)}", "--format", fmt])
        calls.append(["formulas", "--conj-eleven", "--n",
                      str(rng.randint(8, 12)), "--r",
                      f"3..{rng.randint(3, 6)}", "--format", fmt])
        # at order 3 the gd matrix has one minor; at order 4..8 the order
        # in which check looks for a nonzero one shows in its witness
        mix = oracles.random_mixture(rng, 1)
        top = rng.randint(4, 8)
        gaussian = univariate_moments(mix["means"][0][0], mix["covs"][0][0],
                                      top)
        pushed = gaussian[:-1] + [gaussian[-1] + 1]
        for name, m in (("gaussian", gaussian), ("pushed", pushed)):
            path = str(inputs / f"{name}-order{top}-n1-seed{seed}.json")
            Path(path).write_text(json.dumps({"n": 1, "d": top, "values": [
                {"idx": [i], "num": v.numerator, "den": v.denominator}
                for i, v in enumerate(m)]}))
            calls += [["check", "--moments", path, "--method", how]
                      for how in ("gd", "willink", "cumulant")]
    if seeds:
        calls += [["matrix", "--which", *argv] for argv in LARGEST_MATRICES]
    return calls



def univariate_moments(mean: Fraction, var: Fraction, d: int) -> list:
    """m_0..m_d of N(mean, var) by m_i = mean m_{i-1} + (i-1) var m_{i-2}."""
    m = [Fraction(1), mean]
    for i in range(2, d + 1):
        m.append(mean * m[i - 1] + (i - 1) * var * m[i - 2])
    return m


# one prime per limb count of linalg's residue arithmetic: 21, 31 and 62 bits
LIMB_PRIMES = (2097143, 2147483647, None)


def rank_corpus(seeds: list[int]) -> list[list[str]]:
    """For each seed, d = 4 and 5 and each of LIMB_PRIMES (None: the
    default prime): one ``census`` of every row with n = 2..6 and one
    ``dim`` at a random n in that range.  Each runs the closed-form steps
    and the order >= 4 product that drops component 2's covariance
    columns."""
    calls = []
    for seed in seeds:
        rng = random.Random(seed)
        fmt = ("csv", "json", "markdown")[seed % 3]
        for d in ("4", "5"):
            for prime in LIMB_PRIMES:
                options = ["--seed", str(seed), "--format", fmt]
                if prime is not None:
                    options += ["--prime", str(prime)]
                calls += [["census", "--d", d, "--n", "2..6", "--k",
                           f"1..{rng.randint(2, 8)}", "--trials", "1",
                           *options],
                          ["dim", "--n", str(rng.randint(2, 6)), "--d", d,
                           "--k", str(rng.randint(2, 12)), *options]]
    return calls


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
        calls = (usage_corpus() + workload_corpus(args.seeds, Path(tmp))
                 + cli_corpus(args.seeds, Path(tmp)) + rank_corpus(args.seeds))
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
