"""Command-line front end.

Subcommands: moments, cumulants, check, dim, census, formulas, recover,
structural, matrix.  All randomness flows from a single 64-bit seed through
the named PRNG (splitmix64-v1); seed, prime and trial count are echoed into
the output header of every command that uses them, so runs are reproducible
byte for byte.

Exit codes: 0 on success, 1 on a domain error (bad moment vector, off-variety
input, ...) or when memory runs out, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations

from . import determinantal, moments, recovery, secant
from .linalg import rank_rational
from .polyring import det
from .rng import PRNG_NAME
from .secant import _shown


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SystemExit2(f"{what} must be an integer, not "
                          f"{_shown(text)!r}") from None


def _parse_fraction(text: str, what: str) -> Fraction:
    if moments.DECIMAL_EXPONENT.search(text):
        raise SystemExit2(f"{what} must be a rational number without a "
                          "decimal exponent (a/b or a decimal), not "
                          f"{_shown(text)!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SystemExit2(f"{what} must be a rational number, not "
                          f"{_shown(text)!r}") from None


def _parse_range(text: str) -> list[int]:
    """'5..10' -> [5..10]; '7' -> [7]."""
    lo, sep, hi = text.partition("..")
    lo = _parse_int(lo, "range bound")
    hi = _parse_int(hi, "range bound") if sep else lo
    if hi < lo:
        raise SystemExit2(f"empty range {_shown(text)!r}")
    return list(range(lo, hi + 1))


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        if exc.filename is not None:  # the message echoes it
            exc.filename = _shown(exc.filename)
        raise


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _config_header(cfg: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in cfg.items())


def _emit_rows(rows: list[dict], columns: tuple[str, ...], fmt: str,
               cfg: dict | None) -> None:
    if fmt == "json":
        payload: dict = {}
        if cfg:
            payload["config"] = cfg
        payload["rows"] = rows
        _print_json(payload)
        return
    if fmt == "markdown":
        if cfg:
            print(f"_{_config_header(cfg)}_")
        print("| " + " | ".join(columns) + " |")
        print("|" + "|".join("---" for _ in columns) + "|")
        for row in rows:
            print("| " + " | ".join(str(row[c]) for c in columns) + " |")
        return
    # csv
    if cfg:
        for k, v in cfg.items():
            print(f"# {k}={v}")
    print(",".join(columns))
    for row in rows:
        print(",".join(str(row[c]) for c in columns))


def _rank_config(args, d: int) -> dict:
    try:
        secant._check_prime(d, args.prime)
    except ValueError as exc:
        raise SystemExit2(str(exc)) from None
    if args.trials < 1:
        raise SystemExit2("--trials must be at least 1")
    # SplitMix64 keeps 64 bits of the seed, and the header echoes it whole
    if not 0 <= args.seed < 1 << 64:
        raise SystemExit2(f"--seed must be in 0..2^64-1, not "
                          f"{_shown(args.seed)}")
    return {"seed": args.seed, "prime": args.prime, "trials": args.trials,
            "prng": PRNG_NAME}


class SystemExit2(Exception):
    """Usage error (exit code 2)."""


class _HelpShown(Exception):
    """argparse has printed the help, and main returns 0."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose own errors are one-line usage errors, with
    every long value they echo cut short as :func:`_shown` does."""

    def parse_known_args(self, args=None, namespace=None):
        self._args = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(self._args, namespace)

    def _check_value(self, action, value):
        # argparse lists the choices after the value; a long value is cut
        # and the list left out, so that the line stays short
        if (action.choices is not None and value not in action.choices
                and _shown(value) != value):
            raise argparse.ArgumentError(
                action, f"invalid choice: {_shown(value)!r}")
        super()._check_value(action, value)

    def exit(self, status=0, message=None):
        # argparse's errors go to error(), so it exits here only from the
        # help action, after printing the help
        raise _HelpShown

    def error(self, message):
        # argparse echoes an argument whole, or its part after an option:
        # '--opt=value', or '-hhvalue' (-h is the only one-letter option),
        # in repr or as it is
        for arg in self._args:
            for text in (arg, arg.partition("=")[2], arg.lstrip("-h")):
                shown = _shown(text)
                message = message.replace(repr(text), repr(shown)).replace(
                    text, shown)
        raise SystemExit2(" ".join(message.splitlines()))


def _integer(text: str) -> int:
    """The type of the integer options: argparse's message for a value
    that is not an integer, with a long value cut short."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {_shown(text)!r}") from None


# -- subcommands -----------------------------------------------------------------


def _check_order(d: int | None) -> None:
    if d is not None and d < 1:
        raise SystemExit2(f"--d must be at least 1, not {_shown(d)}")


def _cmd_moments(args) -> int:
    _check_order(args.d)
    params = moments.mixture_params_from_json(_load_json(args.params))
    if args.n is not None and params.n != args.n:
        raise ValueError(f"params file has n={params.n}, expected {args.n}")
    mv = moments.mixture_moments(params, args.d)
    _print_json(moments.moment_vector_to_json(mv))
    return 0


def _cmd_cumulants(args) -> int:
    if args.moments is not None and (args.params is not None
                                     or args.d is not None):
        raise SystemExit2("cumulants takes --moments alone, or --params "
                          "with --d")
    _check_order(args.d)
    if args.moments:
        mv = moments.moment_vector_from_json(_load_json(args.moments))
    else:
        if not args.params or args.d is None:
            raise SystemExit2("cumulants needs --moments, or --params with --d")
        params = moments.mixture_params_from_json(_load_json(args.params))
        mv = moments.mixture_moments(params, args.d)
    cum = moments.moments_to_cumulants(mv)
    _print_json(moments.cumulant_vector_to_json(cum))
    return 0


def _first_nonzero_cumulant(mv) -> tuple | None:
    cum = moments.moments_to_cumulants(mv)
    for idx in moments.multi_indices(mv.n, mv.d, min_order=3):
        if cum[idx] != 0:
            return idx
    return None


def _cmd_check(args) -> int:
    mv = moments.moment_vector_from_json(_load_json(args.moments))
    method = args.method
    result: dict = {"method": method, "n": mv.n, "d": mv.d}
    if method == "gd":
        if mv.n != 1:
            raise ValueError("the minor test applies to n = 1 only")
        matrix = determinantal.evaluate(determinantal.build_gd(mv.d),
                                        determinantal.moment_point(mv))
        # the first column triple, in lexicographic order, whose minor is
        # nonzero at the point
        witness = next((cols for cols in combinations(range(mv.d), 3)
                        if det([[row[c] for c in cols] for row in matrix])),
                       None)
        result["member"] = witness is None
        result["witness"] = [c + 1 for c in witness] if witness else None
    elif method == "willink":
        rank = rank_rational(determinantal.evaluate(
            determinantal.build_willink(mv.n, mv.d),
            determinantal.moment_point(mv)))
        result["member"] = rank <= mv.n + 1
        result["witness"] = {"rank": rank, "bound": mv.n + 1}
    else:  # cumulant; argparse's choices admit no other method
        witness = _first_nonzero_cumulant(mv)
        result["member"] = witness is None
        result["witness"] = list(witness) if witness else None
    _print_json(result)
    return 0


def _cmd_dim(args) -> int:
    cfg = _rank_config(args, args.d)
    problem = secant.SecantProblem(args.n, args.d, args.k)
    row, cert = secant.defect_row(problem, trials=cfg["trials"],
                                  seed=cfg["seed"], prime=cfg["prime"])
    if args.format == "json":
        _print_json({"config": cfg, "row": asdict(row),
                     "certificate": cert.to_json()})
    else:
        _emit_rows([asdict(row)], secant.DefectRow.COLUMNS, args.format, cfg)
        cert_line = json.dumps(cert.to_json())
        prefix = "# " if args.format == "csv" else ""
        print(f"{prefix}certificate: {cert_line}")
    if cert.failure_bound() >= 1:
        print(f"note: failure bound {cert.degree_bound}/{cert.prime} is not "
              "below 1; at this prime the certificate certifies nothing",
              file=sys.stderr)
    return 0


def _cmd_census(args) -> int:
    cfg = _rank_config(args, args.d)
    rows = secant.census(args.d, _parse_range(args.n), _parse_range(args.k),
                         defective_only=args.defective_only,
                         trials=cfg["trials"], seed=cfg["seed"],
                         prime=cfg["prime"])
    _emit_rows([asdict(r) for r in rows], secant.DefectRow.COLUMNS,
               args.format, cfg)
    return 0


def _cmd_formulas(args) -> int:
    rows: list[dict] = []
    if (args.deg_sec2_g1 or args.deg_sec2_x or args.deg_sec3_x) and args.d is None:
        raise SystemExit2("degree formulas need --d")
    if (args.dim_d3 or args.defect_d3) and (args.n is None or args.k is None):
        raise SystemExit2("--dim-d3/--defect-d3 need --n and --k")
    if args.conj_eleven and (args.n is None or args.r is None):
        raise SystemExit2("--conj-eleven needs --n and --r")
    if args.deg_sec2_g1:
        for d in _parse_range(args.d):
            note = ("extrapolated" if d > secant.DEG_SEC2_G1_VERIFIED_MAX
                    else "")
            rows.append({"d": d, "value": secant.degree_formula_sec2_g1(d),
                         "note": note})
        columns = ("d", "value", "note")
    elif args.deg_sec2_x:
        for d in _parse_range(args.d):
            rows.append({"d": d, "value": secant.degree_formula_sec2_x(d)})
        columns = ("d", "value")
    elif args.deg_sec3_x:
        for d in _parse_range(args.d):
            rows.append({"d": d, "value": secant.degree_formula_sec3_x(d)})
        columns = ("d", "value")
    elif args.dim_d3:
        for k in _parse_range(args.k):
            rows.append({"n": args.n, "k": k,
                         "value": secant.dim_formula_d3(args.n, k)})
        columns = ("n", "k", "value")
    elif args.defect_d3:
        for k in _parse_range(args.k):
            rows.append({"n": args.n, "k": k,
                         "value": secant.defect_identity_d3(args.n, k)})
        columns = ("n", "k", "value")
    else:  # --conj-eleven; argparse requires one flag of the group
        for r in _parse_range(args.r):
            rows.append({"n": args.n, "r": r, "k": args.n + r,
                         "value": secant.conjecture_eleven_defect(args.n, r)})
        columns = ("n", "r", "k", "value")
    _emit_rows(rows, columns, args.format, None)
    return 0


def _cmd_recover(args) -> int:
    mu11 = _parse_fraction(args.mu11, "--mu11")
    mu21 = _parse_fraction(args.mu21, "--mu21")
    mv = moments.moment_vector_from_json(_load_json(args.moments))
    params = recovery.recover(mv, mu11, mu21)
    # recover returns only parameters that reproduce every moment exactly
    _print_json({"params": moments.mixture_params_to_json(params),
                 "residual": "0"})
    return 0


def _cmd_structural(args) -> int:
    rows = [asdict(determinantal.hb_structural_checks(d))
            for d in _parse_range(args.d)]
    _emit_rows(rows, ("d", "monomials_disjoint", "no_y2_factor",
                      "lowest_terms_ok"), args.format, None)
    return 0


def _cmd_matrix(args) -> int:
    if args.which != "willink":
        for option, value in (("--n", args.n), ("--moments", args.moments)):
            if value is not None:
                raise SystemExit2(f"matrix --which {args.which} takes no "
                                  f"{option}")
    if args.which == "gd":
        rows = determinantal.build_gd(args.d)
    elif args.which == "hb":
        rows = determinantal.build_hilbert_burch(args.d)
    else:
        if args.n is None:
            raise SystemExit2("matrix --which willink needs --n")
        if args.n < 1 or args.d < 2:
            raise ValueError("the Willink matrix needs n >= 1 and d >= 2")
        rows = determinantal.build_willink(args.n, args.d)
        if args.moments:
            mv = moments.moment_vector_from_json(_load_json(args.moments))
            if mv.n != args.n or mv.d < args.d:
                raise ValueError("moment vector does not match (n, d)")
            rows = determinantal.evaluate(rows,
                                          determinantal.moment_point(mv))
    sys.stdout.write(determinantal.csv_text(rows))
    return 0


# -- parser ------------------------------------------------------------------------


def _arg(*flags, **kwargs):
    """An argument of a subcommand, added when its parser is built."""
    return lambda parser: parser.add_argument(*flags, **kwargs)


def _one_of(*flags):
    """Flags of which a subcommand needs exactly one."""
    def add(parser):
        group = parser.add_mutually_exclusive_group(required=True)
        for flag in flags:
            group.add_argument(flag, action="store_true")
    return add


_RANK_OPTIONS = (
    _arg("--seed", type=_integer, default=secant.DEFAULT_SEED,
         help=f"PRNG seed (default: {secant.DEFAULT_SEED})"),
    _arg("--prime", type=_integer, default=secant.DEFAULT_PRIME,
         help="prime modulus for rank computations (default: "
              f"{secant.DEFAULT_PRIME})"),
    _arg("--trials", type=_integer, default=secant.DEFAULT_TRIALS,
         help="independent random points per rank"),
)
_FORMAT = _arg("--format", choices=("csv", "json", "markdown"), default="csv")

# the subcommands in help order: name, help, handler, arguments
_COMMANDS = (
    ("moments", "moment vector of a mixture", _cmd_moments, (
        _arg("--params", required=True, help="MixtureParams JSON file"),
        _arg("--d", type=_integer, required=True),
        _arg("--n", type=_integer, default=None))),
    ("cumulants", "cumulant vector", _cmd_cumulants, (
        _arg("--params", default=None),
        _arg("--moments", default=None),
        _arg("--d", type=_integer, default=None))),
    ("check", "moment-variety membership", _cmd_check, (
        _arg("--moments", required=True),
        _arg("--method", choices=("gd", "willink", "cumulant"),
             required=True))),
    ("dim", "secant dimension with certificate", _cmd_dim, (
        _arg("--n", type=_integer, required=True),
        _arg("--d", type=_integer, required=True),
        _arg("--k", type=_integer, required=True),
        *_RANK_OPTIONS, _FORMAT)),
    ("census", "defect census over (n, k) ranges", _cmd_census, (
        _arg("--d", type=_integer, required=True),
        _arg("--n", required=True, help="range, e.g. 5..10"),
        _arg("--k", required=True, help="range, e.g. 3..6"),
        _arg("--defective-only", action="store_true"),
        *_RANK_OPTIONS, _FORMAT)),
    ("formulas", "closed-form dimension/degree values", _cmd_formulas, (
        _one_of("--deg-sec2-g1", "--deg-sec2-x", "--deg-sec3-x", "--dim-d3",
                "--defect-d3", "--conj-eleven"),
        _arg("--d", default=None),
        _arg("--n", type=_integer, default=None),
        _arg("--k", default=None),
        _arg("--r", default=None),
        _FORMAT)),
    ("recover", "two-component parameter recovery", _cmd_recover, (
        _arg("--moments", required=True),
        _arg("--mu11", required=True),
        _arg("--mu21", required=True),
        _arg("--format", choices=("json",), default="json"))),
    ("structural", "structural checks on the minors", _cmd_structural, (
        _arg("--d", required=True, help="single value or range"),
        _FORMAT)),
    ("matrix", "dump a determinantal matrix as CSV", _cmd_matrix, (
        _arg("--which", choices=("gd", "hb", "willink"), required=True),
        _arg("--d", type=_integer, required=True),
        _arg("--n", type=_integer, default=None),
        _arg("--moments", default=None))),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone when it
    names one.  That subcommand's help and errors read the same from
    either parser."""
    p = _Parser(
        prog="gaussmoments",
        description="Exact computations with Gaussian mixture moment varieties")
    sub = p.add_subparsers(dest="command", required=True)
    chosen = [c for c in _COMMANDS if c[0] == command] or _COMMANDS
    for name, help_text, func, arguments in chosen:
        sp = sub.add_parser(name, help=help_text)
        for add in arguments:
            add(sp)
        sp.set_defaults(func=func)
    return p


# options whose value may be a negative fraction such as -1/2, which argparse
# would otherwise take for an option flag
_SIGNED_VALUE_OPTIONS = ("--mu11", "--mu21")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite '--mu11 -1/2' as '--mu11=-1/2'."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in _SIGNED_VALUE_OPTIONS
                and re.match(r"-[0-9.]", arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@contextmanager
def _whole_ints():
    """Lift Python's limit on the digits of int <-> str conversions (4300
    by default, in CPython 3.11 and 3.10.7 on) and restore it on exit:
    exact inputs and results can be longer, and are read and printed
    whole."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit to lift
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    with _whole_ints():
        return _main(argv)


def _main(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call pays for the one subcommand it runs; argv that names none gets
    # the full parser's help, or its error for a missing or unknown one
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(_attach_signed_values(argv))
        # argparse reads --opt=-- as the empty list; no option takes a list
        for name, value in vars(args).items():
            if value == []:
                raise SystemExit2(f"--{name.replace('_', '-')} needs a value, "
                                  "not '--'")
        return args.func(args)
    except _HelpShown:
        return 0
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
