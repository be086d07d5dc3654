"""Command-line interface: output formats, reproducibility, exit codes."""

import contextlib
import io
import json
import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmoments import moments as M
from gaussmoments import secant as S
from gaussmoments.cli import main
from gaussmoments.linalg import rank_mod_p
from gaussmoments.rng import SplitMix64
from util import layouts, rand_mixture

P31 = 2 ** 31 - 1


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_params(tmp_path, params, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(M.mixture_params_to_json(params)))
    return str(path)


def write_moments(tmp_path, mv, name="moments.json"):
    path = tmp_path / name
    path.write_text(json.dumps(M.moment_vector_to_json(mv)))
    return str(path)


class TestMoments:
    def test_standard_normal_values(self, capsys, tmp_path):
        p = M.MixtureParams(
            (M.GaussianParams((Fraction(0),), (Fraction(1),)),),
            (Fraction(1),))
        code, out, _ = run(capsys, "moments", "--params",
                           write_params(tmp_path, p), "--d", "6")
        assert code == 0
        data = json.loads(out)
        assert [v["num"] for v in data["values"]] == [1, 0, 1, 0, 3, 0, 15]

    def test_empty_components_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 1, "k": 0, "components": []}))
        code, _, err = run(capsys, "moments", "--params", str(path), "--d", "3")
        assert code == 1
        assert "empty components" in err

    def test_dimension_check(self, capsys, tmp_path):
        rng = SplitMix64(1)
        p = rand_mixture(rng, 2, 2)
        code, _, err = run(capsys, "moments", "--params",
                           write_params(tmp_path, p), "--d", "3", "--n", "5")
        assert code == 1 and "n=2" in err

    def test_order_below_one_is_usage_error(self, capsys, tmp_path):
        p = M.MixtureParams(
            (M.GaussianParams((Fraction(0),), (Fraction(1),)),),
            (Fraction(1),))
        path = write_params(tmp_path, p)
        for command in ("moments", "cumulants"):
            code, out, err = run(capsys, command, "--params", path,
                                 "--d", "-1")
            assert (code, out) == (2, "")
            assert err == "usage error: --d must be at least 1, not -1\n"


class TestCumulants:
    def test_from_params(self, capsys, tmp_path):
        p = M.MixtureParams(
            (M.GaussianParams((Fraction(2),), (Fraction(3),)),),
            (Fraction(1),))
        code, out, _ = run(capsys, "cumulants", "--params",
                           write_params(tmp_path, p), "--d", "4")
        assert code == 0
        vals = {tuple(v["idx"]): Fraction(v["num"], v["den"])
                for v in json.loads(out)["values"]}
        assert vals == {(1,): 2, (2,): 3, (3,): 0, (4,): 0}

    def test_from_moments_file(self, capsys, tmp_path):
        mv = M.univariate_moments(1, 2, 3)
        code, out, _ = run(capsys, "cumulants", "--moments",
                           write_moments(tmp_path, mv))
        assert code == 0
        assert json.loads(out)["d"] == 3

    def test_neither_moments_nor_params_with_order(self, capsys, tmp_path):
        p = M.MixtureParams(
            (M.GaussianParams((Fraction(2),), (Fraction(3),)),),
            (Fraction(1),))
        for args in ((), ("--d", "3"), ("--params", write_params(tmp_path, p))):
            assert run(capsys, "cumulants", *args) == (
                2, "", "usage error: cumulants needs --moments, or --params "
                "with --d\n")


class TestCheck:
    def test_member_by_all_methods(self, capsys, tmp_path):
        mv = M.univariate_moments(Fraction(1, 2), Fraction(3), 6)
        path = write_moments(tmp_path, mv)
        for method in ("gd", "willink", "cumulant"):
            code, out, _ = run(capsys, "check", "--moments", path,
                               "--method", method)
            assert code == 0
            assert json.loads(out)["member"] is True

    def test_non_member_with_witness(self, capsys, tmp_path):
        vals = {(i,): Fraction(i == 0) for i in range(7)}
        vals[(3,)] = Fraction(5)
        path = write_moments(tmp_path, M.MomentVector(1, 6, vals))
        verdicts = {}
        for method in ("gd", "willink", "cumulant"):
            code, out, _ = run(capsys, "check", "--moments", path,
                               "--method", method)
            data = json.loads(out)
            verdicts[method] = data["member"]
            assert data["witness"] is not None
        assert verdicts == {"gd": False, "willink": False, "cumulant": False}

    def test_mixture_moments_are_not_on_the_variety(self, capsys, tmp_path):
        rng = SplitMix64(5)
        p = rand_mixture(rng, 2, 2, distinct_first=True)
        path = write_moments(tmp_path, M.mixture_moments(p, 4))
        code, out, _ = run(capsys, "check", "--moments", path,
                           "--method", "willink")
        assert json.loads(out)["member"] is False

    def test_gd_requires_univariate(self, capsys, tmp_path):
        rng = SplitMix64(6)
        mv = M.mixture_moments(rand_mixture(rng, 2, 1), 3)
        code, _, err = run(capsys, "check", "--moments",
                           write_moments(tmp_path, mv), "--method", "gd")
        assert code == 1 and "n = 1" in err


def unit_moments(**entry):
    """The n = 1, d = 1 moment file with m1 replaced by ``entry``."""
    one = {"idx": [0], "num": 1, "den": 1}
    return {"n": 1, "d": 1, "values": [one, {"idx": [1], **entry}]}


class TestMalformedJson:
    """Each malformed file is a one-line domain error, never a traceback."""

    def check_rejected(self, capsys, tmp_path, data, message,
                       command=("check", "--method", "cumulant", "--moments")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, *command, str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_string_numerator(self, capsys, tmp_path):
        self.check_rejected(capsys, tmp_path, unit_moments(num="x", den=1),
                            "num must be an integer")

    def test_bool_numerator(self, capsys, tmp_path):
        self.check_rejected(capsys, tmp_path, unit_moments(num=True, den=1),
                            "num must be an integer")

    def test_zero_denominator(self, capsys, tmp_path):
        self.check_rejected(capsys, tmp_path, unit_moments(num=1, den=0),
                            "den is 0")

    def test_top_level_array(self, capsys, tmp_path):
        self.check_rejected(capsys, tmp_path, [unit_moments(num=1, den=1)],
                            "must be a JSON object")

    def test_values_not_a_list(self, capsys, tmp_path):
        self.check_rejected(capsys, tmp_path, {"n": 1, "d": 1, "values": {}},
                            "values must be a JSON list")

    def test_duplicate_idx(self, capsys, tmp_path):
        data = unit_moments(num=1, den=1)
        data["values"].append({"idx": [1], "num": 2, "den": 1})
        self.check_rejected(capsys, tmp_path, data, "duplicate idx [1]")

    def test_idx_of_wrong_length(self, capsys, tmp_path):
        self.check_rejected(capsys, tmp_path,
                            {"n": 1, "d": 1,
                             "values": [{"idx": [0, 0], "num": 1, "den": 1}]},
                            "must have length n = 1")

    def test_order_below_one(self, capsys, tmp_path):
        self.check_rejected(capsys, tmp_path,
                            {"n": 1, "d": -2, "values": []},
                            "d must be at least 1")

    def test_params_top_level_array(self, capsys, tmp_path):
        self.check_rejected(capsys, tmp_path, [], "must be a JSON object",
                            command=("moments", "--d", "2", "--params"))

    def test_params_mean_not_a_list(self, capsys, tmp_path):
        entry = {"weight": "1", "mean": "12", "cov": ["1"]}
        self.check_rejected(capsys, tmp_path, {"components": [entry]},
                            "mean must be a JSON list",
                            command=("moments", "--d", "2", "--params"))

    @pytest.mark.parametrize("key", ["weight", "mean", "cov"])
    def test_params_component_missing_key(self, capsys, tmp_path, key):
        entry = {"weight": "1/2", "mean": ["0"], "cov": ["1"]}
        partial = dict(entry)
        del partial[key]
        self.check_rejected(capsys, tmp_path,
                            {"components": [entry, partial]},
                            f"components[1] has no '{key}' key",
                            command=("moments", "--d", "2", "--params"))

    @pytest.mark.parametrize("key,value,what", [
        ("mean", ["1e1000000"], "mean entry '1e1000000'"),
        ("cov", ["2.5E-3"], "cov entry '2.5E-3'"),
        ("weight", "1e0", "weight '1e0'")])
    def test_params_decimal_exponent(self, capsys, tmp_path, key, value,
                                     what):
        # Fraction would expand 1e1000000 into a million-digit integer
        entry = dict({"weight": "1", "mean": ["0"], "cov": ["1"]},
                     **{key: value})
        self.check_rejected(capsys, tmp_path, {"components": [entry]},
                            f"{what} has a decimal exponent",
                            command=("moments", "--d", "2", "--params"))

    @pytest.mark.parametrize("top,message", [
        ({"n": 2, "k": 1}, "n = 2, but the components have dimension 1"),
        ({"n": 1, "k": 2}, "k = 2, but there are 1 components"),
        ({"n": True}, "n must be an integer"),
        ({"k": "1"}, "k must be an integer"),
        ({"n": 1.0}, "n must be an integer")],
        ids=["n-mismatch", "k-mismatch", "n-bool", "k-string", "n-float"])
    def test_params_top_level_n_k_must_match(self, capsys, tmp_path, top,
                                             message):
        entry = {"weight": "1", "mean": ["0"], "cov": ["1"]}
        self.check_rejected(capsys, tmp_path,
                            dict(top, components=[entry]), message,
                            command=("moments", "--d", "2", "--params"))

    def test_params_top_level_n_k_optional(self, capsys, tmp_path):
        entry = {"weight": "1", "mean": ["0"], "cov": ["1"]}
        outs = []
        for top in ({}, {"n": 1, "k": 1}):
            path = tmp_path / "params.json"
            path.write_text(json.dumps(dict(top, components=[entry])))
            code, out, err = run(capsys, "moments", "--d", "2", "--params",
                                 str(path))
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]


class TestCensusAndDim:
    def test_census_csv_json_round_trip(self, capsys):
        args = ("census", "--d", "3", "--n", "5..6", "--k", "3..4",
                "--defective-only", "--seed", "11", "--prime", str(P31),
                "--trials", "1")
        code, csv_out, _ = run(capsys, *args, "--format", "csv")
        assert code == 0
        code, json_out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        lines = [l for l in csv_out.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        csv_rows = [dict(zip(header, map(int, l.split(","))))
                    for l in lines[1:]]
        data = json.loads(json_out)
        assert csv_rows == data["rows"]
        assert data["config"]["prng"] == "splitmix64-v1"

    def test_byte_identical_reruns(self, capsys):
        args = ("census", "--d", "3", "--n", "5..5", "--k", "3..3",
                "--seed", "4", "--prime", str(P31), "--trials", "2")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_markdown_table(self, capsys):
        code, out, _ = run(capsys, "census", "--d", "3", "--n", "5..5",
                           "--k", "3..3", "--seed", "4", "--prime", str(P31),
                           "--trials", "1", "--format", "markdown")
        assert code == 0
        assert out.splitlines()[1].startswith("| n | k | d |")

    def test_dim_prints_row_and_certificate(self, capsys):
        code, out, _ = run(capsys, "dim", "--n", "3", "--d", "3", "--k", "2",
                           "--seed", "3", "--prime", str(P31),
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["row"]["dim"] == 17
        assert data["certificate"]["ranks"] == [17, 17, 17]

    def test_small_prime_certificate_note(self, capsys):
        # failure bound 51/29 >= 1: stdout is unchanged, stderr says why
        # the certificate certifies nothing
        code, out, err = run(capsys, "dim", "--n", "3", "--d", "3", "--k",
                             "2", "--prime", "29")
        assert code == 0
        assert out.splitlines()[-1].endswith('"failure_bound": "51/29"}')
        assert err == ("note: failure bound 51/29 is not below 1; at this "
                       "prime the certificate certifies nothing\n")
        code, out, err = run(capsys, "dim", "--n", "3", "--d", "3", "--k",
                             "2", "--prime", str(P31))
        assert (code, err) == (0, "")

    def test_env_defaults_are_echoed(self, capsys, monkeypatch):
        monkeypatch.setenv("GAUSSMOMENTS_SEED", "777")
        monkeypatch.setenv("GAUSSMOMENTS_PRIME", str(P31))
        code, out, _ = run(capsys, "dim", "--n", "1", "--d", "4", "--k", "1",
                           "--format", "json")
        assert code == 0
        cfg = json.loads(out)["config"]
        assert cfg["seed"] == 777 and cfg["prime"] == P31

    def test_composite_prime_rejected(self, capsys):
        code, _, err = run(capsys, "dim", "--n", "1", "--d", "3", "--k", "1",
                           "--prime", "91")
        assert code == 2 and "not prime" in err

    def test_prime_at_or_above_2_62_rejected(self, capsys, monkeypatch):
        big = str(2 ** 64 - 59)  # prime, above the kernel's range
        code, out, err = run(capsys, "dim", "--n", "2", "--d", "3", "--k", "1",
                             "--prime", big)
        assert code == 2 and out == ""
        assert err == f"usage error: --prime {big} must be below 2^62\n"
        monkeypatch.setenv("GAUSSMOMENTS_PRIME", big)
        code, out, err = run(capsys, "dim", "--n", "2", "--d", "3", "--k", "1")
        assert code == 2 and out == "" and "below 2^62" in err

    def test_prime_must_exceed_d_factorial(self, capsys):
        code, _, err = run(capsys, "census", "--d", "4", "--n", "1..1",
                           "--k", "1..1", "--prime", "23")
        assert code == 2 and "must exceed" in err

    def test_range_with_a_non_integer_bound(self, capsys):
        code, out, err = run(capsys, "census", "--d", "3", "--n", "5..x",
                             "--k", "3")
        assert (code, out) == (2, "")
        assert err == "usage error: range bound must be an integer, not 'x'\n"

    @pytest.mark.parametrize("name", ["GAUSSMOMENTS_SEED",
                                      "GAUSSMOMENTS_PRIME"])
    def test_non_integer_environment_default(self, capsys, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        code, out, err = run(capsys, "dim", "--n", "1", "--d", "3", "--k", "1")
        assert (code, out) == (2, "")
        assert err == f"usage error: {name} must be an integer, not 'abc'\n"

    def test_usage_error_exit_code(self, capsys):
        assert run(capsys, "census", "--d", "3") == (  # missing --n/--k
            2, "", "usage error: the following arguments are required: "
            "--n, --k\n")

    def test_non_integer_option_value(self, capsys):
        assert run(capsys, "dim", "--n", "x", "--d", "3", "--k", "1") == (
            2, "", "usage error: argument --n: invalid int value: 'x'\n")


GOLDEN_TABLE1 = """\
# seed=2016
# prime=4611686018427387847
# trials=1
# prng=splitmix64-v1
n,k,d,par,N,exp,dim,delta,par_minus_dim
5,3,3,62,55,55,51,4,11
5,4,3,83,55,55,55,0,28
5,5,3,104,55,55,55,0,49
5,6,3,125,55,55,55,0,70
6,3,3,83,83,83,71,12,12
6,4,3,111,83,83,82,1,29
6,5,3,139,83,83,83,0,56
6,6,3,167,83,83,83,0,84
7,3,3,107,119,107,94,13,13
7,4,3,143,119,119,111,8,32
7,5,3,179,119,119,119,0,60
7,6,3,215,119,119,119,0,96
8,3,3,134,164,134,120,14,14
8,4,3,179,164,164,144,20,35
8,5,3,224,164,164,160,4,64
8,6,3,269,164,164,164,0,105
9,3,3,164,219,164,149,15,15
9,4,3,219,219,219,181,38,38
9,5,3,274,219,219,204,15,70
9,6,3,329,219,219,219,0,110
10,3,3,197,285,197,181,16,16
10,4,3,263,285,263,222,41,41
10,5,3,329,285,285,253,32,76
10,6,3,395,285,285,275,10,120
"""

GOLDEN_DIM = """\
# seed=2016
# prime=4611686018427387847
# trials=3
# prng=splitmix64-v1
n,k,d,par,N,exp,dim,delta,par_minus_dim
3,2,3,19,19,19,17,2,2
# certificate: {"prime": 4611686018427387847, "seed": 2016, "trials": 3, \
"prng": "splitmix64-v1", "ranks": [17, 17, 17], "reported": 17, \
"degree_bound": 51, "failure_bound": "51/4611686018427387847"}
"""


class TestGoldenRankOutput:
    """Full stdout at the default seed and prime, so a change to the random
    stream or the Jacobian layout cannot change the output unnoticed."""

    @pytest.fixture(autouse=True)
    def _defaults(self, monkeypatch):
        monkeypatch.delenv("GAUSSMOMENTS_SEED", raising=False)
        monkeypatch.delenv("GAUSSMOMENTS_PRIME", raising=False)

    def test_table1_census(self, capsys):
        assert run(capsys, "census", "--d", "3", "--n", "5..10", "--k",
                   "3..6", "--trials", "1") == (0, GOLDEN_TABLE1, "")

    def test_dim(self, capsys):
        assert run(capsys, "dim", "--n", "3", "--d", "3", "--k", "2") == \
            (0, GOLDEN_DIM, "")


class TestFormulas:
    def test_deg_sec2_g1_with_extrapolation_flag(self, capsys):
        code, out, _ = run(capsys, "formulas", "--deg-sec2-g1", "--d", "5..12")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d,value,note"
        values = [l.split(",") for l in lines[1:]]
        assert [v[1] for v in values] == \
            ["9", "39", "105", "225", "420", "714", "1134", "1710"]
        assert values[-1][2] == "extrapolated" and values[-2][2] == ""

    def test_trisecant(self, capsys):
        code, out, _ = run(capsys, "formulas", "--deg-sec3-x", "--d", "9")
        assert out.splitlines()[1] == "9,2497"

    def test_dim_d3(self, capsys):
        code, out, _ = run(capsys, "formulas", "--dim-d3", "--n", "9",
                           "--k", "4")
        assert out.splitlines()[1] == "9,4,181"

    def test_conj_eleven(self, capsys):
        code, out, _ = run(capsys, "formulas", "--conj-eleven", "--n", "12",
                           "--r", "8")
        assert out.splitlines()[1] == "12,8,20,21"

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "formulas", "--dim-d3")
        assert code == 2

    @staticmethod
    def rendered(fmt, columns, rows):
        """The stdout of a formulas table of ``rows`` in format ``fmt``."""
        if fmt == "json":
            return json.dumps({"rows": [dict(zip(columns, r)) for r in rows]},
                              indent=2) + "\n"
        if fmt == "markdown":
            lines = ["| " + " | ".join(columns) + " |",
                     "|" + "|".join("---" for _ in columns) + "|"]
            lines += ["| " + " | ".join(map(str, r)) + " |" for r in rows]
        else:
            lines = [",".join(columns)] + [",".join(map(str, r)) for r in rows]
        return "".join(line + "\n" for line in lines)

    @pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
    def test_deg_sec2_x(self, capsys, fmt):
        # (d-4)(d-3)(d^2+5d-2)/8
        rows = [(d, (d - 4) * (d - 3) * (d * d + 5 * d - 2) // 8)
                for d in range(4, 9)]
        assert [v for _, v in rows] == [0, 12, 48, 123, 255]
        assert run(capsys, "formulas", "--deg-sec2-x", "--d", "4..8",
                   "--format", fmt) == (
            0, self.rendered(fmt, ("d", "value"), rows), "")

    def test_deg_sec2_x_csv_golden(self, capsys):
        assert run(capsys, "formulas", "--deg-sec2-x", "--d", "4..8") == (
            0, "d,value\n4,0\n5,12\n6,48\n7,123\n8,255\n", "")

    @pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
    def test_defect_d3(self, capsys, fmt):
        # the defect identity is par - dim_formula_d3
        for n in range(2, 15):
            rows = [(n, k, S.SecantProblem(n, 3, k).parameters
                     - S.dim_formula_d3(n, k)) for k in range(1, 12)]
            assert run(capsys, "formulas", "--defect-d3", "--n", str(n),
                       "--k", "1..11", "--format", fmt) == (
                0, self.rendered(fmt, ("n", "k", "value"), rows), "")

    def test_defect_d3_markdown_golden(self, capsys):
        assert run(capsys, "formulas", "--defect-d3", "--n", "5", "--k",
                   "1..4", "--format", "markdown") == (
            0, "| n | k | value |\n|---|---|---|\n| 5 | 1 | 0 |\n"
            "| 5 | 2 | 2 |\n| 5 | 3 | 11 |\n| 5 | 4 | 26 |\n", "")


# recover stdout for rand_mixture(SplitMix64(11), 5, 2, distinct_first=True)
GOLDEN_RECOVER_N5 = """\
{
  "params": {
    "n": 5,
    "k": 2,
    "components": [
      {
        "weight": "1/6",
        "mean": [
          "4",
          "2/3",
          "-2",
          "3/4",
          "0"
        ],
        "cov": [
          "-5",
          "1/4",
          "0",
          "1/3",
          "0",
          "4",
          "-5/4",
          "5/3",
          "-2",
          "5",
          "0",
          "1",
          "-4/3",
          "-5/2",
          "5/4"
        ]
      },
      {
        "weight": "5/6",
        "mean": [
          "0",
          "2",
          "3/4",
          "-2",
          "-1"
        ],
        "cov": [
          "5/3",
          "1",
          "-2/3",
          "1/3",
          "-5/4",
          "-1/4",
          "-3/2",
          "-2",
          "-1/2",
          "-2",
          "1/4",
          "-5/4",
          "-3",
          "-5/4",
          "-2"
        ]
      }
    ]
  },
  "residual": "0"
}
"""


# recover stdout for rand_mixture(SplitMix64(11), 3, 2, distinct_first=True)
GOLDEN_RECOVER_N3 = """\
{
  "params": {
    "n": 3,
    "k": 2,
    "components": [
      {
        "weight": "1/4",
        "mean": [
          "2",
          "-3",
          "5/3"
        ],
        "cov": [
          "1/3",
          "1/3",
          "-2",
          "0",
          "3",
          "5"
        ]
      },
      {
        "weight": "3/4",
        "mean": [
          "-5/3",
          "3/2",
          "-1"
        ],
        "cov": [
          "1",
          "1",
          "2/3",
          "4/3",
          "0",
          "5/4"
        ]
      }
    ]
  },
  "residual": "0"
}
"""


# recover stdout for rand_mixture(SplitMix64(11), 4, 2, distinct_first=True)
GOLDEN_RECOVER_N4 = """\
{
  "params": {
    "n": 4,
    "k": 2,
    "components": [
      {
        "weight": "1/12",
        "mean": [
          "2",
          "-3",
          "5/3",
          "1/3"
        ],
        "cov": [
          "1/3",
          "-2",
          "0",
          "3",
          "5",
          "-5/3",
          "3/2",
          "-1",
          "1",
          "1"
        ]
      },
      {
        "weight": "11/12",
        "mean": [
          "2/3",
          "4/3",
          "0",
          "5/4"
        ],
        "cov": [
          "0",
          "-1",
          "2",
          "-3",
          "3/2",
          "-5",
          "-1/3",
          "-5/2",
          "3",
          "0"
        ]
      }
    ]
  },
  "residual": "0"
}
"""


class TestRecoverCli:
    def test_round_trip(self, capsys, tmp_path):
        rng = SplitMix64(9)
        p = rand_mixture(rng, 3, 2, distinct_first=True)
        mv = M.mixture_moments(p, 3)
        code, out, _ = run(capsys, "recover", "--moments",
                           write_moments(tmp_path, mv),
                           "--mu11", str(p.components[0].mean[0]),
                           "--mu21", str(p.components[1].mean[0]))
        assert code == 0
        data = json.loads(out)
        assert data["residual"] == "0"
        assert M.mixture_params_from_json(data["params"]) == p

    def test_off_variety_is_domain_error(self, capsys, tmp_path):
        rng = SplitMix64(10)
        p = rand_mixture(rng, 3, 2, distinct_first=True)
        mv = M.mixture_moments(p, 3)
        vals = dict(mv.values)
        vals[(0, 3, 0)] = vals[(0, 3, 0)] + 1
        bad = M.MomentVector(3, 3, vals)
        code, _, err = run(capsys, "recover", "--moments",
                           write_moments(tmp_path, bad),
                           "--mu11", "4", "--mu21=-9/2")
        assert code == 1 and "secant" in err

    def test_off_variety_message_n6(self, capsys, tmp_path):
        # x5^2 x6 raised: only the subset {1, 5, 6} reads it, and its n = 3
        # recovery finds no common root
        p = rand_mixture(SplitMix64(11), 6, 2, distinct_first=True)
        vals = dict(M.mixture_moments(p, 3).values)
        vals[(0, 0, 0, 0, 2, 1)] += 1
        path = write_moments(tmp_path, M.MomentVector(6, 3, vals))
        assert run(capsys, "recover", "--moments", path, "--mu11", "2",
                   "--mu21", "0") == (
            1, "", "error: final system for mu25 has no common solution; "
            "the moment vector is not on the secant variety\n")

    def test_golden_n5(self, capsys, tmp_path):
        p = rand_mixture(SplitMix64(11), 5, 2, distinct_first=True)
        path = write_moments(tmp_path, M.mixture_moments(p, 3))
        assert run(capsys, "recover", "--moments", path, "--mu11", "4",
                   "--mu21", "0") == (0, GOLDEN_RECOVER_N5, "")

    def test_golden_n3(self, capsys, tmp_path):
        p = rand_mixture(SplitMix64(11), 3, 2, distinct_first=True)
        path = write_moments(tmp_path, M.mixture_moments(p, 3))
        assert run(capsys, "recover", "--moments", path, "--mu11", "2",
                   "--mu21=-5/3") == (0, GOLDEN_RECOVER_N3, "")

    def test_golden_n4(self, capsys, tmp_path):
        # n - 1 odd: the subsets {1, 2, 3} and {1, 3, 4} overlap
        p = rand_mixture(SplitMix64(11), 4, 2, distinct_first=True)
        path = write_moments(tmp_path, M.mixture_moments(p, 3))
        assert run(capsys, "recover", "--moments", path, "--mu11", "2",
                   "--mu21", "2/3") == (0, GOLDEN_RECOVER_N4, "")

    def test_off_variety_message_n3(self, capsys, tmp_path):
        # x2^2 x3 raised: the final system in (mu22, mu23) has no root
        p = rand_mixture(SplitMix64(11), 3, 2, distinct_first=True)
        vals = dict(M.mixture_moments(p, 3).values)
        vals[(0, 2, 1)] += 1
        path = write_moments(tmp_path, M.MomentVector(3, 3, vals))
        assert run(capsys, "recover", "--moments", path, "--mu11", "2",
                   "--mu21=-5/3") == (
            1, "", "error: final system for mu22 has no common solution; "
            "the moment vector is not on the secant variety\n")

    def test_negative_fraction_values(self, capsys, tmp_path):
        half = Fraction(1, 2)
        p = M.MixtureParams(
            (M.GaussianParams((-half, Fraction(1), Fraction(2)),
                              (Fraction(1),) * 6),
             M.GaussianParams((Fraction(-3), half, Fraction(0)),
                              (Fraction(2), Fraction(0), Fraction(0),
                               Fraction(1), Fraction(0), Fraction(3)))),
            (Fraction(1, 3), Fraction(2, 3)))
        path = write_moments(tmp_path, M.mixture_moments(p, 3))
        spaced = run(capsys, "recover", "--moments", path,
                     "--mu11", "-1/2", "--mu21", "-3")
        joined = run(capsys, "recover", "--moments", path,
                     "--mu11=-1/2", "--mu21=-3")
        assert spaced == joined
        assert spaced[0] == 0
        assert M.mixture_params_from_json(json.loads(spaced[1])["params"]) == p

    @pytest.mark.parametrize("option", ["--mu11", "--mu21"])
    @pytest.mark.parametrize("value", ["abc", "nan", "1/0"])
    def test_malformed_fixed_coordinate_is_usage_error(self, capsys, tmp_path,
                                                       option, value):
        p = rand_mixture(SplitMix64(9), 3, 2, distinct_first=True)
        path = write_moments(tmp_path, M.mixture_moments(p, 3))
        values = {"--mu11": "1", "--mu21": "2", option: value}
        assert run(capsys, "recover", "--moments", path,
                   *(f"{k}={v}" for k, v in values.items())) == (
            2, "", f"usage error: {option} must be a rational number, "
            f"not {value!r}\n")

    @pytest.mark.parametrize("option", ["--mu11", "--mu21"])
    @pytest.mark.parametrize("value", ["1e10000", "1e100000000", "-2.5E-3",
                                       "1.e5"])
    def test_decimal_exponent_is_usage_error(self, capsys, tmp_path, option,
                                             value):
        # parsed at once: Fraction would expand 1e100000000 for minutes
        p = rand_mixture(SplitMix64(7), 3, 2, distinct_first=True)
        path = write_moments(tmp_path, M.mixture_moments(p, 3))
        values = {"--mu11": "1", "--mu21": "0", option: value}
        assert run(capsys, "recover", "--moments", path,
                   *(f"{k}={v}" for k, v in values.items())) == (
            2, "", f"usage error: {option} must be a rational number without "
            f"a decimal exponent (a/b or a decimal), not {value!r}\n")

    def test_equal_fixed_coordinates_stay_a_domain_error(self, capsys,
                                                         tmp_path):
        p = rand_mixture(SplitMix64(9), 3, 2, distinct_first=True)
        path = write_moments(tmp_path, M.mixture_moments(p, 3))
        assert run(capsys, "recover", "--moments", path, "--mu11", "-1/2",
                   "--mu21=-2/4") == (
            1, "", "error: the fixed first coordinates must be distinct\n")


# text for --mu11/--mu21: three times in four a rational, else junk from
# the characters of numeric literals (no 'e', so no literal asks for a huge
# power of ten)
MU_TEXT = st.integers(0, 3).flatmap(lambda pick: st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1/0", "", " 2 ", "0x1", "1_000"]),
    st.text(alphabet="0123456789-+/._ abcn", max_size=6)) if pick == 0 else
    st.fractions(max_denominator=6, min_value=-5, max_value=5).map(str))

JSON_SCALARS = st.one_of(st.none(), st.booleans(),
                         st.integers(-3, 5), st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["n", "d", "values", "idx", "num",
                                         "den"]), inner, max_size=4)),
    max_leaves=8)


def is_rational(text: str) -> bool:
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return False
    return True


@st.composite
def moment_files(draw, ns=(3, 4), ds=(3,)):
    """A moment-vector JSON file's text: the moments of order d in ``ds`` of
    a random mixture with n in ``ns``, perhaps with one entry raised, one
    key replaced or one entry dropped; arbitrary small JSON; or text that is
    not JSON."""
    kind = draw(st.sampled_from(["moments"] * 4 + ["json", "text"]))
    if kind == "json":
        return json.dumps(draw(JSON_VALUES))
    if kind == "text":
        return draw(st.text(max_size=12))
    n, d = draw(st.sampled_from(ns)), draw(st.sampled_from(ds))
    p = rand_mixture(SplitMix64(draw(st.integers(0, 2 ** 32))), n, 2)
    data = M.moment_vector_to_json(M.mixture_moments(p, d))
    values = data["values"]
    spot = draw(st.integers(0, len(values) - 1))
    edit = draw(st.sampled_from(["none", "none", "none", "raise", "drop",
                                 "key", "top"]))
    if edit == "raise":
        values[spot]["num"] += values[spot]["den"]
    elif edit == "drop":
        del values[spot]
    elif edit == "key":
        values[spot][draw(st.sampled_from(["idx", "num", "den"]))] = draw(
            JSON_VALUES)
    elif edit == "top":
        data[draw(st.sampled_from(["n", "d", "values"]))] = draw(JSON_VALUES)
    return json.dumps(data)


class TestRecoverFuzz:
    """Random --mu11/--mu21 text and moment files: every run ends in exit 0,
    1 or 2, with at most one line on stderr and no output on error."""

    @settings(max_examples=80, deadline=None)
    @given(moment_files(), MU_TEXT, MU_TEXT)
    def test_exit_codes_and_streams(self, tmp_path_factory, text, mu11, mu21):
        path = tmp_path_factory.mktemp("fuzz") / "moments.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["recover", "--moments", str(path),
                         f"--mu11={mu11}", f"--mu21={mu21}"])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        if not all(map(is_rational, (mu11, mu21))):
            assert code == 2 and err.startswith("usage error: --mu")
        assert "Traceback" not in err and err.count("\n") <= 1
        if code:
            assert out == "" and err.endswith("\n")
        else:
            assert err == "" and json.loads(out)["residual"] == "0"


@st.composite
def params_files(draw, n):
    """A mixture-parameters JSON file's text: a random mixture in dimension
    n with k <= 2, perhaps with one component dropped, or one of its keys or
    a top-level key replaced."""
    k = draw(st.integers(1, 2))
    p = rand_mixture(SplitMix64(draw(st.integers(0, 2 ** 32))), n, k)
    data = M.mixture_params_to_json(p)
    comps = data["components"]
    spot = draw(st.integers(0, k - 1))
    edit = draw(st.sampled_from(["none", "none", "none", "drop", "key",
                                 "top"]))
    if edit == "drop":
        del comps[spot]
    elif edit == "key":
        comps[spot][draw(st.sampled_from(["weight", "mean", "cov"]))] = draw(
            JSON_VALUES)
    elif edit == "top":
        data[draw(st.sampled_from(["n", "k", "components"]))] = draw(
            JSON_VALUES)
    return json.dumps(data)


@st.composite
def json_runs(draw):
    """Each command that reads a JSON file, with well-formed options, and
    the text of that file (F in the argv): random JSON or text, or built
    for the command's n and d and perhaps mutated."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    moment_text = moment_files(ns=(n,), ds=(d,))
    return draw(st.sampled_from([
        (["moments", "--params", "F", "--d", str(d)], params_files(n)),
        (["cumulants", "--params", "F", "--d", str(d)], params_files(n)),
        (["cumulants", "--moments", "F"], moment_text),
        (["check", "--method", "gd", "--moments", "F"], moment_text),
        (["check", "--method", "willink", "--moments", "F"], moment_text),
        (["check", "--method", "cumulant", "--moments", "F"], moment_text),
        (["matrix", "--which", "willink", "--n", str(n), "--d", str(d),
          "--moments", "F"], moment_text),
        (["recover", "--mu11=0", "--mu21=1", "--moments", "F"],
         moment_files())]).flatmap(
        lambda run: st.tuples(st.just(run[0]), run[1])))


class TestJsonFuzz:
    """Random and mutated moment and parameter files through every command
    that reads one: exit 0 or 1, at most one stderr line, no output on
    error, and no traceback."""

    @settings(max_examples=150, deadline=None)
    @given(json_runs())
    def test_exit_codes_and_streams(self, tmp_path_factory, run):
        command, text = run
        path = tmp_path_factory.mktemp("fuzz") / "data.json"
        path.write_text(text)
        code, out, err = run_captured(
            [str(path) if a == "F" else a for a in command])
        assert code in (0, 1)
        assert "Traceback" not in err and err.count("\n") <= 1
        if code:
            assert out == "" and err.startswith("error: ")
            assert err.endswith("\n")
        else:
            assert err == "" and out


def run_captured(argv):
    """main(argv) with its streams captured: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestLongNumbers:
    """Python refuses int <-> str conversions above 4300 digits by default.
    The CLI reads and prints exact numbers of any length, restores the
    limit when it returns, and echoes a long malformed value cut short."""

    @pytest.mark.parametrize("digits", [4001, 10001])
    def test_long_fixed_coordinate(self, capsys, tmp_path, digits):
        p = rand_mixture(SplitMix64(7), 3, 2, distinct_first=True)
        path = write_moments(tmp_path, M.mixture_moments(p, 3))
        limit = sys.get_int_max_str_digits()
        mu11 = "1" + "0" * (digits - 1)
        code, out, err = run(capsys, "recover", "--moments", path,
                             f"--mu11={mu11}", "--mu21=0")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        data = json.loads(out)
        assert data["residual"] == "0"
        assert data["params"]["components"][0]["mean"][0] == mu11

    def test_long_mean_in_a_params_file(self, capsys, tmp_path):
        mean = "1" + "0" * 4000
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"components": [
            {"weight": "1", "mean": [mean], "cov": ["1"]}]}))
        code, out, err = run(capsys, "moments", "--params", str(path),
                             "--d", "2")
        assert (code, err) == (0, "")
        # m1 = mean and m2 = mean^2 + 1, printed whole
        assert f'"num": {mean},' in out
        assert '"num": 1' + "0" * 7999 + "1," in out

    @pytest.mark.parametrize("option", ["--mu11", "--mu21"])
    def test_long_malformed_value_is_one_short_line(self, capsys, tmp_path,
                                                    option):
        p = rand_mixture(SplitMix64(7), 3, 2, distinct_first=True)
        path = write_moments(tmp_path, M.mixture_moments(p, 3))
        values = {"--mu11": "1", "--mu21": "0", option: "1" * 10000 + "x"}
        assert run(capsys, "recover", "--moments", path,
                   *(f"{k}={v}" for k, v in values.items())) == (
            2, "", f"usage error: {option} must be a rational number, not "
            "'11111111111111111111... (10001 characters)'\n")

    @pytest.mark.parametrize("d,shown", [
        ("21", "21"), ("2000", "2000"),
        ("1" + "0" * 5000, "10000000000000000000... (5001 characters)")])
    def test_large_order_is_one_short_line(self, capsys, d, shown):
        # d! is above every prime the kernel takes, and is not printed
        assert run(capsys, "dim", "--n", "1", "--d", d, "--k", "1",
                   "--prime", str(P31)) == (
            2, "", f"usage error: --prime {P31} must exceed d!, which is "
            f"above 2^62 for --d {shown}\n")

    def test_long_non_integer_option_value(self, capsys):
        assert run(capsys, "dim", "--n", "1", "--d", "3", "--k", "1",
                   "--seed", "1" * 5000 + "x") == (
            2, "", "usage error: argument --seed: invalid int value: "
            "'11111111111111111111... (5001 characters)'\n")

    @pytest.mark.parametrize("argv,line", [
        (("dim", "--n", "1", "--d", "3", "--k", "1", "--format", "x" * 5000),
         "argument --format: invalid choice: "
         "'xxxxxxxxxxxxxxxxxxxx... (5000 characters)'"),
        (("y" * 6000,), "argument command: invalid choice: "
         "'yyyyyyyyyyyyyyyyyyyy... (6000 characters)'"),
        (("structural", "--d", "3", "--bogus", "x" * 5000),
         "unrecognized arguments: --bogus "
         "xxxxxxxxxxxxxxxxxxxx... (5000 characters)"),
        (("structural", "--d", "3", "--bogus", "a b " * 1250),
         "unrecognized arguments: --bogus "
         "a b a b a b a b a b ... (5000 characters)"),
        (("formulas", "--de=" + "x" * 5000), "ambiguous option: "
         "--de=xxxxxxxxxxxxxxx... (5005 characters) could match "
         "--deg-sec2-g1, --deg-sec2-x, --deg-sec3-x, --defect-d3"),
        (("formulas", "--dim-d3=" + "x" * 5000), "argument --dim-d3: "
         "ignored explicit argument 'xxxxxxxxxxxxxxxxxxxx... "
         "(5000 characters)'"),
        (("structural", "--d", "3", "-hh" + "x" * 5000), "argument "
         "-h/--help: ignored explicit argument 'xxxxxxxxxxxxxxxxxxxx... "
         "(5000 characters)'"),
        (("structural", "--d", "3..0" + "0" * 5000 + "1"),
         "empty range '3..00000000000000000... (5005 characters)'")],
        ids=["choice", "command", "unrecognized", "spaces", "ambiguous",
             "explicit", "short-flags", "range"])
    def test_long_usage_value_is_one_short_line(self, capsys, argv, line):
        # argparse's own messages cut a long value as the CLI's do; a cut
        # choice value is not followed by the list of choices
        assert run(capsys, *argv) == (2, "", f"usage error: {line}\n")

    def test_long_file_name_is_one_short_line(self, capsys):
        code, out, err = run(capsys, "check", "--method", "cumulant",
                             "--moments", "x" * 5000)
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert err.endswith(": 'xxxxxxxxxxxxxxxxxxxx... (5000 characters)'\n")

    def test_long_prime_is_one_short_line(self, capsys):
        assert run(capsys, "dim", "--n", "1", "--d", "3", "--k", "1",
                   "--prime", "1" + "0" * 5000) == (
            2, "", "usage error: --prime 10000000000000000000... "
            "(5001 characters) must be below 2^62\n")


# census/dim option values: --d 1..5 and ranges that may be empty, reversed
# or not integers; primes that may be composite, at most d! or at least
# 2^62; 0 to 3 trials.  Valid values are drawn more often, so that about
# half the runs reach the rank computation.
RANGE_TEXT = st.integers(0, 3).flatmap(lambda pick: st.sampled_from(
    ["", "..", "2..", "..3", "x", "1..y", "2.5", "1..2..3", "3..1", "4..0"])
    if pick == 0 else st.tuples(st.integers(0, 4), st.integers(0, 2)).map(
        lambda b: f"{b[0]}..{b[0] + b[1]}" if b[1] else str(b[0])))
PRIMES = st.integers(0, 3).flatmap(lambda pick: st.sampled_from(
    [2, 5, 23, 113, 719, 91, 2 ** 31 - 3, 2 ** 62, 2 ** 62 + 135,
     2 ** 64 - 59]) if pick == 0 else st.sampled_from(
    [7919, 2 ** 21 - 9, 2 ** 31 - 1, S.DEFAULT_PRIME]))


@st.composite
def rank_argv(draw):
    d = draw(st.integers(1, 5))
    if draw(st.booleans()):
        argv = ["census", "--d", str(d), "--n", draw(RANGE_TEXT),
                "--k", draw(RANGE_TEXT)]
        if draw(st.booleans()):
            argv.append("--defective-only")
    else:
        argv = ["dim", "--d", str(d), "--n", str(draw(st.integers(0, 4))),
                "--k", str(draw(st.integers(0, 4)))]
    return argv + ["--prime", str(draw(PRIMES)),
                   "--trials", str(draw(st.sampled_from([0, 1, 1, 2, 3]))),
                   "--seed", str(draw(st.integers(0, 2 ** 64))),
                   "--format", "json"]


def full_layout_rank(n, d, k, trials, seed, prime):
    """The max over trials of the rank of the whole layout of k components,
    with no Schur step."""
    return max(rank_mod_p(layout, prime)
               for layout in layouts(n, d, k, trials, seed, prime))


class TestRankFuzz:
    """Random census/dim argv: exit 0, 1 or 2, no traceback, one stderr line
    at most, no output on error, and on success every dimension equal to the
    rank of the whole layout."""

    @settings(max_examples=100, deadline=None)
    @given(rank_argv())
    def test_exit_codes_streams_and_ranks(self, argv):
        code, out, err = run_captured(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err and err.count("\n") <= 1
        if code:
            assert out == "" and err.endswith("\n")
            return
        data = json.loads(out)
        cfg = data["config"]
        d = int(argv[2])
        assert 1 <= cfg["trials"] and factorial(d) < cfg["prime"] < 2 ** 62
        rows = data["rows"] if argv[0] == "census" else [data["row"]]
        for row in rows:
            assert row["dim"] == full_layout_rank(
                row["n"], d, row["k"], cfg["trials"], cfg["seed"],
                cfg["prime"]), row


class TestDoubleDashValue:
    """argparse reads --opt=-- as an empty list, which no option takes: a
    one-line usage error, not a traceback."""

    @pytest.mark.parametrize("argv,option", [
        (("recover", "--moments", "M", "--mu11=--", "--mu21=1"), "--mu11"),
        (("recover", "--moments", "M", "--mu11=1", "--mu21=--"), "--mu21"),
        (("census", "--d", "3", "--n", "5", "--k", "3", "--seed=--"),
         "--seed"),
        (("census", "--n=--", "--d", "3", "--k", "3"), "--n"),
        (("moments", "--params=--", "--d", "2"), "--params")],
        ids=["mu11", "mu21", "seed", "census-n", "params"])
    def test_usage_error(self, capsys, tmp_path, argv, option):
        p = rand_mixture(SplitMix64(9), 3, 2, distinct_first=True)
        path = write_moments(tmp_path, M.mixture_moments(p, 3))
        argv = [path if a == "M" else a for a in argv]
        assert run(capsys, *argv) == (
            2, "", f"usage error: {option} needs a value, not '--'\n")


class TestStructuralAndMatrix:
    def test_structural_range(self, capsys):
        code, out, _ = run(capsys, "structural", "--d", "7..8")
        lines = out.splitlines()
        assert lines[1] == "7,True,True,True"
        assert lines[2] == "8,True,True,True"

    def test_matrix_gd(self, capsys):
        code, out, _ = run(capsys, "matrix", "--which", "gd", "--d", "3")
        assert out.splitlines()[0] == '"0","m0","2*m1"'

    def test_matrix_hb(self, capsys):
        code, out, _ = run(capsys, "matrix", "--which", "hb", "--d", "3")
        assert out.splitlines()[1] == '"x","y","z","0"'

    def test_matrix_willink_numeric(self, capsys, tmp_path):
        mv = M.univariate_moments(0, 1, 4)
        code, out, _ = run(capsys, "matrix", "--which", "willink", "--d", "4",
                           "--n", "1", "--moments", write_moments(tmp_path, mv))
        assert code == 0
        assert out.splitlines()[0] == '"1","0","0"'

    def test_matrix_willink_numeric_golden(self, capsys, tmp_path):
        f = Fraction
        p = M.MixtureParams(
            (M.GaussianParams((f(-1, 2), f(2)), (f(1), f(1, 3), f(3, 4))),
             M.GaussianParams((f(3), f(-5, 7)), (f(2), f(0), f(1, 5)))),
            (f(1, 3), f(2, 3)))
        path = write_moments(tmp_path, M.mixture_moments(p, 3))
        code, out, _ = run(capsys, "matrix", "--which", "willink", "--n", "2",
                           "--d", "3", "--moments", path)
        assert code == 0
        assert out == (
            '"1","11/6","4/21","0","0"\n'
            '"4/21","-104/63","6047/2940","0","1"\n'
            '"11/6","31/4","-104/63","1","0"\n'
            '"6047/2940","18931/17640","7487/2058","0","8/21"\n'
            '"-104/63","-569/126","18931/17640","4/21","11/6"\n'
            '"31/4","707/24","-569/126","11/3","0"\n')

    def test_matrix_willink_needs_n(self, capsys):
        code, _, err = run(capsys, "matrix", "--which", "willink", "--d", "4")
        assert code == 2


# argv for formulas, structural and matrix: for formulas mostly one of its
# flags, sometimes none or two; the required options and some others, each
# with a value of its kind four times in five and junk else; and up to two
# chunks of junk.  Numbers and ranges are short (a long range is a long
# valid run, not an error); junk is text, long text with and without
# spaces, and a few tokens that argparse treats specially.
USAGE_FLAGS = ["--deg-sec2-g1", "--deg-sec2-x", "--deg-sec3-x", "--dim-d3",
               "--defect-d3", "--conj-eleven"]
USAGE_NUMBERS = st.one_of(
    st.integers(-2, 5).map(str),
    st.tuples(st.integers(-2, 5), st.integers(-1, 3)).map(
        lambda b: f"{b[0]}..{b[0] + b[1]}"))
USAGE_FORMATS = st.sampled_from(["csv", "json", "markdown"])
# per command: how many of its first options are required, and each
# option's values
USAGE_OPTIONS = {
    "formulas": (0, {"--d": USAGE_NUMBERS, "--n": USAGE_NUMBERS,
                     "--k": USAGE_NUMBERS, "--r": USAGE_NUMBERS,
                     "--format": USAGE_FORMATS}),
    "structural": (1, {"--d": USAGE_NUMBERS, "--format": USAGE_FORMATS}),
    "matrix": (2, {"--which": st.sampled_from(["gd", "hb", "willink"]),
                   "--d": USAGE_NUMBERS, "--n": USAGE_NUMBERS,
                   "--moments": st.just("no-such-file.json")})}
USAGE_JUNK = st.one_of(
    st.sampled_from(["", "..", "--", "-1", "--bogus", "x", "json", "gd"]),
    st.text(max_size=8),
    st.sampled_from(["x", "a b ", "7 "]).map(lambda c: c * 1500))


@st.composite
def usage_argv(draw):
    command = draw(st.sampled_from(sorted(USAGE_OPTIONS)))
    required, options = USAGE_OPTIONS[command]
    chunks = []
    if command == "formulas":
        chunks += [[flag] for flag in draw(st.permutations(USAGE_FLAGS))[
            :draw(st.sampled_from([0, 1, 1, 1, 2]))]]
    for i, (option, values) in enumerate(options.items()):
        if i < required or draw(st.booleans()):
            junk = draw(st.integers(0, 4)) == 0
            chunks.append([option, draw(USAGE_JUNK if junk else values)])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        option, value = draw(st.sampled_from(sorted(options))), draw(
            USAGE_JUNK)
        chunks.append(draw(st.sampled_from(
            [[option], [f"{option}={value}"], [value]])))
    return [command] + [a for chunk in draw(st.permutations(chunks))
                        for a in chunk]


class TestUsageFuzz:
    """Random argv for formulas, structural and matrix: exit 0, 1 or 2, and
    on error no output and one stderr line of at most 300 characters (each
    long value it echoes is cut), never a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(usage_argv())
    def test_exit_codes_and_one_short_line(self, argv):
        code, out, err = run_captured(argv)
        assert code in (0, 1, 2)
        if code:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n")
            assert len(err) <= 300 and "Traceback" not in err
        else:
            assert err == ""

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["census", "-h"],
                                      ["dim", "--d", "3", "--help"],
                                      ["formulas", "--help", "--bogus"]])
    def test_help_returns_zero(self, argv):
        # main prints the help and returns, as on every other path
        code, out, err = run_captured(argv)
        assert (code, err) == (0, "") and out.startswith("usage: gaussmoments")
