"""The benchmark's workloads: the CLI calls (units) of each, their inputs
made from the seed, and the oracle each output is checked against."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import oracles

P31 = 2 ** 31 - 1
DEFAULT_PRIME = 2 ** 62 - 57  # the CLI's documented default modulus


@dataclass(frozen=True)
class Unit:
    """One CLI call.  ``expect`` is the exit code of a correct run;
    ``check(code, stdout, stderr)`` lists what is wrong with its output."""

    name: str
    argv: tuple[str, ...]
    expect: int
    check: Callable[[int, str, str], list[str]]


def _census_units(seed: int, d: int, table, groups, prime: int | None):
    units = []
    for n, ks in groups:
        k_arg = str(ks[0]) if len(ks) == 1 else f"{ks[0]}..{ks[-1]}"
        argv = ["census", "--d", str(d), "--n", str(n), "--k", k_arg,
                "--defective-only", "--trials", "1", "--seed", str(seed),
                "--format", "csv"]
        if prime is not None:
            argv += ["--prime", str(prime)]
        config = {"seed": str(seed), "prime": str(prime or DEFAULT_PRIME),
                  "trials": "1"}

        def check(code, out, err, n=n, ks=tuple(ks), config=config):
            return oracles.check_census(out, table, d, n, ks, config)
        units.append(Unit(f"n{n}-k{k_arg}", tuple(argv), 0, check))
    return units


def census_p31(seed: int, inputs: Path) -> list[Unit]:
    """Table 2 rows with n = 8..10, one unit per row, at p = 2^31 - 1."""
    rows = [(r[0], [r[1]]) for r in oracles.TABLE2 if r[0] <= 10]
    return _census_units(seed, 4, oracles.TABLE2, rows, P31)


def census_p62(seed: int, inputs: Path) -> list[Unit]:
    """Table 1, one unit per n = 5..10 with k = 3..6, at the default prime."""
    groups = [(n, [3, 4, 5, 6]) for n in range(5, 11)]
    return _census_units(seed, 3, oracles.TABLE1, groups, None)


# d ranges of the structural units, of 1.4 to 2 s each: few units, so few
# child start-ups per round
STRUCTURAL_GROUPS = ((3, 18), (19, 20), (21, 22), (23, 23), (24, 24))


def structural(seed: int, inputs: Path) -> list[Unit]:
    """structural --d 3..24, split into units by d.  No input is random."""
    units = []
    for lo, hi in STRUCTURAL_GROUPS:
        d_arg = str(lo) if lo == hi else f"{lo}..{hi}"
        ds = tuple(range(lo, hi + 1))

        def check(code, out, err, ds=ds):
            return oracles.check_structural(out, ds)
        units.append(Unit(f"d{d_arg}", ("structural", "--d", d_arg,
                                        "--format", "csv"), 0, check))
    return units


RECOVER_NS = (3, 4, 5, 6, 7, 8)
# (n, moment raised by 1): x2^2 x3 for n = 3, and x5^2 x6 for n = 6, which
# only the last coordinate subset {1, 5, 6} sees
OFF_VARIETY = ((3, (0, 2, 1)), (6, (0, 0, 0, 0, 2, 1)))


def recover(seed: int, inputs: Path) -> list[Unit]:
    """Round trips for n = 3..8 from seeded random mixtures, and mixtures
    pushed off the secant variety, which must be rejected."""
    rng = random.Random(seed)
    inputs.mkdir(parents=True, exist_ok=True)
    mixtures = {n: oracles.random_mixture(rng, n) for n in RECOVER_NS}
    units = []

    def unit(name, moments, mixture, check, expect):
        n = len(mixture["means"][0])
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(oracles.moments_json(n, moments)))
        # the '=' form: argparse reads '--mu11 -1/2' as a missing argument
        argv = ("recover", "--moments", str(path),
                f"--mu11={mixture['means'][0][0]}",
                f"--mu21={mixture['means'][1][0]}")
        units.append(Unit(name, argv, expect, check))

    for n in RECOVER_NS:
        mix = mixtures[n]

        def check(code, out, err, mix=mix):
            return oracles.check_recovered(out, mix)
        unit(f"n{n}", oracles.mixture_moments3(mix), mix, check, 0)
    for n, e in OFF_VARIETY:
        mix = mixtures[n]
        moments = oracles.push_off(oracles.mixture_moments3(mix), e)
        unit(f"n{n}-off", moments, mix,
             lambda code, out, err: oracles.check_rejected(code, out, err), 1)
    return units


def exact(seed: int, inputs: Path) -> list[Unit]:
    """The exact-arithmetic half of the program: the recover units, then the
    structural units.  No unit runs a modular rank."""
    return ([replace(u, name=f"recover-{u.name}")
             for u in recover(seed, inputs)]
            + [replace(u, name=f"structural-{u.name}")
               for u in structural(seed, inputs)])


WORKLOADS = {
    "census-p31": census_p31,
    "census-p62": census_p62,
    "exact": exact,
}
