"""Acceptance suite: the nine exit criteria, one test each.

Each test prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (visible with -s, or
in the captured output on failure).  All comparisons are exact; the defect
tables are frozen below, digit for digit.

Rank computations here use the modulus 2^31-1 where large eliminations are
involved (it exceeds d! for d in {3, 4}, as required, and enables the
vectorized elimination); the univariate suite runs at the 62-bit default.
"""

import json
from contextlib import contextmanager
from dataclasses import astuple
from fractions import Fraction
from functools import lru_cache

import pytest

from gaussmoments import determinantal as D
from gaussmoments import moments as M
from gaussmoments import recovery as R
from gaussmoments import secant as S
from gaussmoments.cli import main as cli_main
from gaussmoments.linalg import rank_rational
from gaussmoments.polyring import PolyRing
from gaussmoments.rng import SplitMix64
from util import (gd_jacobian_reference, rand_fraction, rand_gaussian,
                  rand_mixture)

P31 = 2 ** 31 - 1

TABLE1 = [
    (5, 3, 3, 62, 55, 55, 51, 4, 11),
    (6, 3, 3, 83, 83, 83, 71, 12, 12),
    (6, 4, 3, 111, 83, 83, 82, 1, 29),
    (7, 3, 3, 107, 119, 107, 94, 13, 13),
    (7, 4, 3, 143, 119, 119, 111, 8, 32),
    (8, 3, 3, 134, 164, 134, 120, 14, 14),
    (8, 4, 3, 179, 164, 164, 144, 20, 35),
    (8, 5, 3, 224, 164, 164, 160, 4, 64),
    (9, 3, 3, 164, 219, 164, 149, 15, 15),
    (9, 4, 3, 219, 219, 219, 181, 38, 38),
    (9, 5, 3, 274, 219, 219, 204, 15, 70),
    (10, 3, 3, 197, 285, 197, 181, 16, 16),
    (10, 4, 3, 263, 285, 263, 222, 41, 41),
    (10, 5, 3, 329, 285, 285, 253, 32, 76),
    (10, 6, 3, 395, 285, 285, 275, 10, 120),
]

TABLE2 = [
    (8, 11, 4, 494, 494, 494, 493, 1, 1),
    (9, 12, 4, 659, 714, 659, 658, 1, 1),
    (9, 13, 4, 714, 714, 714, 711, 3, 3),
    (10, 13, 4, 857, 1000, 857, 856, 1, 1),
    (10, 14, 4, 923, 1000, 923, 920, 3, 3),
    (10, 15, 4, 989, 1000, 989, 983, 6, 6),
    (11, 14, 4, 1091, 1364, 1091, 1090, 1, 1),
    (11, 15, 4, 1169, 1364, 1169, 1166, 3, 3),
    (11, 16, 4, 1247, 1364, 1247, 1241, 6, 6),
    (11, 17, 4, 1325, 1364, 1325, 1315, 10, 10),
    (12, 15, 4, 1364, 1819, 1364, 1363, 1, 1),
    (12, 16, 4, 1455, 1819, 1455, 1452, 3, 3),
    (12, 17, 4, 1546, 1819, 1546, 1540, 6, 6),
    (12, 18, 4, 1637, 1819, 1637, 1627, 10, 10),
    (12, 19, 4, 1728, 1819, 1728, 1713, 15, 15),
    (12, 20, 4, 1819, 1819, 1819, 1798, 21, 21),
]

TABLE2_K_RANGES = {8: [11], 9: [12, 13], 10: [13, 14, 15],
                   11: [14, 15, 16, 17], 12: [15, 16, 17, 18, 19, 20]}


@contextmanager
def criterion(tag: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {tag}: FAIL")
        raise
    print(f"ACCEPTANCE {tag}: PASS")


@lru_cache(maxsize=None)
def table1_census(seed: int):
    return S.census(3, range(5, 11), range(3, 7), defective_only=True,
                    trials=1, seed=seed, prime=P31)


def test_criterion_1_table1_reproduction(capsys):
    with criterion("1 (Table 1, three seeds)"):
        for seed in (11, 22, 33):
            rows = [astuple(r) for r in table1_census(seed)]
            assert rows == TABLE1, f"seed {seed}"
        # and through the command line, as specified
        code = cli_main(["census", "--d", "3", "--n", "5..10", "--k", "3..6",
                         "--defective-only", "--seed", "11", "--prime",
                         str(P31), "--trials", "1"])
        out = capsys.readouterr().out
        assert code == 0
        data_lines = [l for l in out.splitlines()
                      if l and not l.startswith("#")][1:]
        parsed = [tuple(int(x) for x in l.split(",")) for l in data_lines]
        assert parsed == TABLE1


def test_criterion_3_univariate_identifiability():
    with criterion("3 (univariate dimensions min(d, 3k-1))"):
        for seed in (1, 2, 3):
            for d in range(3, 21):
                for k in range(1, -(-d // 3) + 2):
                    dim = S.defect_row(S.SecantProblem(1, d, k), trials=1,
                                       seed=seed)[0].dim
                    assert dim == min(d, 3 * k - 1), (d, k, seed)
        # the specific points called out: a hypersurface for d = 6 and the
        # same dimension for d in {7, 8}
        for d in (6, 7, 8):
            dim = S.defect_row(S.SecantProblem(1, d, 2), trials=3,
                               seed=1)[0].dim
            assert dim == 5


def test_criterion_4_defect_two():
    with criterion("4 (two-component third-moment defect is 2)"):
        for n in range(3, 11):
            p = S.SecantProblem(n, 3, 2)
            dim = S.defect_row(p, trials=2, seed=7, prime=P31)[0].dim
            assert dim == n * (n + 3) + 1 - 2, n
            assert p.expected - dim == 2, n
        row, cert = S.defect_row(S.SecantProblem(3, 3, 2), trials=3, seed=7,
                                 prime=P31)
        assert row.dim == 17
        assert all(r == 17 for r in cert.ranks)


def test_criterion_5_recovery_round_trip():
    with criterion("5 (exact recovery round trips)"):
        rng = SplitMix64(2718)
        for n in (3, 4, 5):
            for _ in range(25):
                p = rand_mixture(rng, n, 2, distinct_first=True)
                mv = M.mixture_moments(p, 3)
                res = R.recover(mv, p.components[0].mean[0],
                                p.components[1].mean[0])
                assert res == p
                assert M.mixture_moments(res, 3) == mv
            # degenerate-mean inputs are rejected
            c1 = rand_gaussian(rng, n)
            c2 = rand_gaussian(rng, n)
            c2 = M.GaussianParams((c1.mean[0],) + c2.mean[1:], c2.cov_upper)
            bad = M.mixture_moments(
                M.MixtureParams((c1, c2), (Fraction(1, 2), Fraction(1, 2))), 3)
            with pytest.raises(R.RecoveryError):
                R.recover(bad, Fraction(0), Fraction(1))


def _verdicts(mv, path, capsys):
    """The member verdict of ``check`` by each method that applies."""
    path.write_text(json.dumps(M.moment_vector_to_json(mv)))
    out = {}
    for method in ("gd", "willink", "cumulant")[mv.n > 1:]:
        assert cli_main(["check", "--moments", str(path), "--method",
                         method]) == 0
        out[method] = json.loads(capsys.readouterr().out)["member"]
    return out


def test_criterion_6_membership_triple_agreement(tmp_path, capsys):
    with criterion("6 (membership checks agree on 50 points each)"):
        rng = SplitMix64(4242)
        for n, d in ((1, 6), (1, 10), (2, 4), (3, 3), (4, 4)):
            for t in range(50):
                if t % 2 == 0:
                    mv = M.mixture_moments(rand_mixture(rng, n, 1), d)
                    expected = True
                else:
                    vals = {i: rand_fraction(rng)
                            for i in M.multi_indices(n, d)}
                    vals[(0,) * n] = Fraction(1)
                    mv = M.MomentVector(n, d, vals)
                    expected = None  # generically a non-member
                verdicts = _verdicts(mv, tmp_path / "m.json", capsys)
                assert len(set(verdicts.values())) == 1, (n, d, t, verdicts)
                if expected is not None:
                    assert set(verdicts.values()) == {expected}


def test_criterion_7_structural_checks():
    with criterion("7 (structural facts about the parametrizing minors)"):
        for d in range(3, 25):
            rep = D.hb_structural_checks(d)
            assert rep.monomials_disjoint, d
            assert rep.no_y2_factor, d
            assert rep.lowest_terms_ok, d
        rng = SplitMix64(135)
        xyz = PolyRing(["x", "y", "z"])
        for d in range(2, 13):
            mu, var = rand_fraction(rng), rand_fraction(rng)
            mv = M.univariate_moments(mu, var, d)
            point = {"x": -var, "y": mu, "z": 1}
            assert [xyz.from_terms(q).evaluate(point)
                    for q in D.hb_minors(d)] == [mv[(i,)]
                                                 for i in range(d + 1)], d


def test_criterion_8_singular_line_rank():
    with criterion("8 (Jacobian ranks on and off the singular line)"):
        rng = SplitMix64(975)
        for d in range(4, 13):
            tails = [(1, 0), (0, 1), (1, 1)]
            while len(tails) < 5:
                t = (rand_fraction(rng), rand_fraction(rng))
                if t != (0, 0):
                    tails.append(t)
            for tail in tails:
                point = [0] * (d - 1) + list(tail)
                assert rank_rational(gd_jacobian_reference(d, point)) \
                    <= d - 3, (d, tail)
            for _ in range(5):
                mv = M.univariate_moments(rand_fraction(rng),
                                          rand_fraction(rng), d)
                jac = gd_jacobian_reference(
                    d, [mv[(i,)] for i in range(d + 1)])
                assert rank_rational(jac) == d - 2, d


def test_criterion_9_formula_constants():
    with criterion("9 (closed-form dimension and degree values)"):
        assert [S.degree_formula_sec2_g1(d) for d in range(5, 11)] == \
            [9, 39, 105, 225, 420, 714]
        assert S.degree_formula_sec3_x(9) == 2497
        rows = table1_census(11)
        assert [astuple(r) for r in rows] == TABLE1
        for r in rows:
            assert S.dim_formula_d3(r.n, r.k) == r.dim, (r.n, r.k)
            assert S.defect_identity_d3(r.n, r.k) == r.par_minus_dim, (r.n, r.k)


def test_criterion_2_table2_reproduction():
    with criterion("2 (Table 2, the d = 4 defect census)"):
        rows = [row for n, ks in TABLE2_K_RANGES.items()
                for row in S.census(4, [n], ks, defective_only=True,
                                    trials=1, seed=11, prime=P31)]
        assert [astuple(r) for r in rows] == TABLE2
