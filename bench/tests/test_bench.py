"""Tests of the benchmark itself: its oracles reject wrong output, its moment
formula agrees with the program's, and its tracing arithmetic is right.

Run with: python3 -m pytest bench/tests
(outside the repository's default test paths, so the suite stays as fast).
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def census_csv(rows, seed=5, prime=2147483647, trials=1):
    lines = [f"# seed={seed}", f"# prime={prime}", f"# trials={trials}",
             "# prng=splitmix64-v1", ",".join(oracles.COLUMNS)]
    lines += [",".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


CONFIG = {"seed": "5", "prime": "2147483647", "trials": "1"}


class TestCensusOracle:
    def test_paper_rows_pass(self):
        rows = [r for r in oracles.TABLE2 if r[0] == 10]
        assert oracles.check_census(census_csv(rows), oracles.TABLE2, 4, 10,
                                    (13, 14, 15), CONFIG) == []

    def test_wrong_dim_is_rejected(self):
        row = list(oracles.TABLE2[0])
        row[6] += 1  # dim
        row[7] -= 1  # delta, kept consistent with the wrong dim
        row[8] -= 1
        problems = oracles.check_census(census_csv([row]), oracles.TABLE2, 4,
                                        8, (11,), CONFIG)
        assert any("paper rows" in p for p in problems)
        assert any("binom(r-1, 2)" in p for p in problems)

    def test_missing_and_extra_rows_are_rejected(self):
        rows = [r for r in oracles.TABLE1 if r[0] == 8]
        check = lambda rs: oracles.check_census(
            census_csv(rs, prime=2 ** 62 - 57), oracles.TABLE1, 3, 8,
            (3, 4, 5, 6), dict(CONFIG, prime=str(2 ** 62 - 57)))
        assert check(rows) == []
        assert check(rows[:-1])
        nondefective = (8, 6, 3, 269, 164, 164, 164, 0, 105)
        assert check(rows + [nondefective])

    def test_wrong_config_echo_is_rejected(self):
        rows = [oracles.TABLE2[0]]
        problems = oracles.check_census(census_csv(rows, seed=6),
                                        oracles.TABLE2, 4, 8, (11,), CONFIG)
        assert problems == ["config seed='6', expected '5'"]

    def test_unparsable_output_is_rejected(self):
        assert oracles.check_census("", oracles.TABLE2, 4, 8, (11,), CONFIG)

    def test_closed_form_d3_matches_every_table1_row(self):
        for n, k, d, par, big_n, exp, dim, delta, pmd in oracles.TABLE1:
            assert oracles.dim_d3(n, k) == dim
            assert oracles.parameter_count(n, k) == par
            assert oracles.ambient_dimension(n, d) == big_n

    def test_d4_defect_pattern_matches_table2(self):
        for row in oracles.TABLE2:
            assert oracles.defect_d4(row[0], row[1]) == row[7]


class TestStructuralOracle:
    def test_all_true_passes(self):
        text = "d,monomials_disjoint,no_y2_factor,lowest_terms_ok\n" \
               "3,True,True,True\n4,True,True,True\n"
        assert oracles.check_structural(text, (3, 4)) == []

    def test_false_fact_or_missing_d_is_rejected(self):
        head = "d,monomials_disjoint,no_y2_factor,lowest_terms_ok\n"
        assert oracles.check_structural(head + "3,True,False,True\n", (3,))
        assert oracles.check_structural(head + "3,True,True,True\n", (3, 4))


def recover_stdout(mix, residual="0"):
    comps = [{"weight": str(w), "mean": [str(x) for x in mu],
              "cov": [str(x) for x in cov]}
             for w, mu, cov in zip(mix["weights"], mix["means"], mix["covs"])]
    return json.dumps({"params": {"n": len(mix["means"][0]), "k": 2,
                                  "components": comps},
                       "residual": residual})


class TestRecoveryOracle:
    def test_exact_parameters_pass(self):
        mix = oracles.random_mixture(random.Random(1), 4)
        assert oracles.check_recovered(recover_stdout(mix), mix) == []

    def test_wrong_parameter_is_rejected(self):
        mix = oracles.random_mixture(random.Random(2), 3)
        wrong = {key: [list(v) if isinstance(v, list) else v
                       for v in mix[key]] for key in mix}
        wrong["covs"][1][4] += Fraction(1, 3)
        problems = oracles.check_recovered(recover_stdout(wrong), mix)
        assert problems and "covs" in problems[0]

    def test_nonzero_residual_is_rejected(self):
        mix = oracles.random_mixture(random.Random(3), 3)
        assert oracles.check_recovered(recover_stdout(mix, "1/7"), mix)

    def test_missing_rejection_is_caught(self):
        mix = oracles.random_mixture(random.Random(4), 3)
        assert oracles.check_rejected(0, recover_stdout(mix), "")
        assert oracles.check_rejected(1, "", "error: off the variety\n") == []
        assert oracles.check_rejected(1, "", "Traceback\n  line\nError\n")
        assert oracles.check_rejected(2, "", "error: usage\n")


def test_moment_formula_agrees_with_the_program():
    from gaussmoments.moments import (GaussianParams, MixtureParams,
                                      mixture_moments)
    rng = random.Random(2016)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            mix = oracles.random_mixture(rng, n)
            params = MixtureParams(
                tuple(GaussianParams(tuple(mu), tuple(cov))
                      for mu, cov in zip(mix["means"], mix["covs"])),
                tuple(mix["weights"]))
            ours = oracles.mixture_moments3(mix)
            theirs = mixture_moments(params, 3)
            assert ours == {e: theirs[e] for e in ours}
            assert len(ours) == len(theirs.values)


def test_pushed_off_moment_differs_in_one_entry():
    mix = oracles.random_mixture(random.Random(9), 3)
    m = oracles.mixture_moments3(mix)
    off = oracles.push_off(m, (0, 2, 1))
    assert [e for e in m if m[e] != off[e]] == [(0, 2, 1)]


def test_recover_inputs_follow_the_seed(tmp_path):
    a = workloads.recover(7, tmp_path / "a")
    b = workloads.recover(7, tmp_path / "b")
    c = workloads.recover(8, tmp_path / "c")
    read = lambda units: [Path(u.argv[2]).read_text() for u in units]
    assert read(a) == read(b)
    assert read(a) != read(c)
    assert [u.expect for u in a] == [0] * 6 + [1] * 2


def test_exact_workload_is_recover_then_structural(tmp_path):
    units = workloads.exact(7, tmp_path)
    names = [u.name for u in units]
    assert len(set(names)) == len(names)
    assert [u.argv[0] for u in units] == ["recover"] * 8 + ["structural"] * 5
    ds = [d for lo, hi in workloads.STRUCTURAL_GROUPS
          for d in range(lo, hi + 1)]
    assert ds == list(range(3, 25))


def test_median_repetition():
    reports = [{"compute_s": t} for t in (3.0, 1.0, 2.0, 9.0)]
    assert run.median_compute_s(reports) == 2.5
    assert run.median_report(reports)["compute_s"] == 2.0
    assert run.median_report(reports[:3])["compute_s"] == 2.0
    assert run.median_report(reports[:1])["compute_s"] == 3.0


class TestSpans:
    def test_self_time_subtracts_children(self):
        spans_ = [
            {"id": 0, "parent": None, "name": "cli.main", "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "name": "secant.defect_row", "start": 1.0, "end": 9.0},
            {"id": 2, "parent": 1, "name": "linalg.rank_mod_p", "start": 2.0,
             "end": 5.0, "ops": 7},
            {"id": 3, "parent": 1, "name": "linalg.rank_mod_p", "start": 5.0,
             "end": 6.0, "ops": 5},
        ]
        t = spans.layer_totals(spans_)
        assert t["cli.main"]["self_s"] == pytest.approx(2.0)
        assert t["secant.defect_row"]["self_s"] == pytest.approx(4.0)
        assert t["linalg.rank_mod_p"] == pytest.approx(
            {"calls": 2, "s": 4.0, "self_s": 4.0, "ops": 12})

    def test_nested_spans_of_one_layer_count_once(self):
        spans_ = [
            {"id": 0, "parent": None, "name": "a", "start": 0.0, "end": 4.0},
            {"id": 1, "parent": 0, "name": "a", "start": 1.0, "end": 3.0},
        ]
        assert spans.layer_totals(spans_)["a"]["s"] == pytest.approx(4.0)

    def test_elimination_ops_from_shape_and_rank(self):
        rows = [[0] * 4 for _ in range(3)]
        # pivot 0 updates 2 rows x 4 entries, pivot 1 updates 1 row x 3
        assert spans.elimination_ops(rows, 2) == 11
        assert spans.elimination_ops(rows, 0) == 0

    def test_missing_boundary_is_skipped(self, monkeypatch):
        monkeypatch.setattr(spans, "BOUNDARIES", (
            ("gaussmoments.linalg", "no_such_function", "linalg.gone"),
            ("gaussmoments.no_such_module", "f", "gone.f"),
            ("gaussmoments.secant", "rank_mod_p", "linalg.rank_mod_p")))
        from gaussmoments import secant
        original = secant.rank_mod_p
        tracer = spans.Tracer()
        try:
            assert tracer.install() == ["linalg.rank_mod_p"]
            assert secant.rank_mod_p([[1, 2], [2, 4]], 7) == 1
        finally:
            secant.rank_mod_p = original
        assert [s["name"] for s in tracer.spans] == ["linalg.rank_mod_p"]
        assert tracer.spans[0]["ops"] == 1 * 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recover", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
