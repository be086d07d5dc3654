"""Exact rank engines, rational and modular, and the test-only Bareiss
determinant of polynomial matrices."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmoments import linalg
from gaussmoments.linalg import (_BASE_WIDTH, _fold, _sub_matmul, rank_mod_p,
                                 rank_profile_mod_p, rank_rational)
from gaussmoments.polyring import PolyRing
from gaussmoments.rng import SplitMix64
from util import (poly_det_reference, rand_fraction, rand_poly,
                  rank_mod_p_oracle, to_sympy)

P31 = 2 ** 31 - 1
P62 = 2 ** 62 - 57


def random_matrix_with_rank(rng, rows, cols, rank):
    """rows x cols integer matrix of the given rank (a product of factors)."""
    a = [[rng.below(9) - 4 for _ in range(rank)] for _ in range(rows)]
    b = [[rng.below(9) - 4 for _ in range(cols)] for _ in range(rank)]
    m = [[sum(a[i][t] * b[t][j] for t in range(rank)) for j in range(cols)]
         for i in range(rows)]
    return m


class TestRankRational:
    def test_against_numpy(self):
        rng = SplitMix64(2024)
        for _ in range(300):
            r = rng.below(6) + 1
            c = rng.below(6) + 1
            k = rng.below(min(r, c) + 1)
            m = random_matrix_with_rank(rng, r, c, k)
            want = np.linalg.matrix_rank(np.array(m, dtype=float))
            assert rank_rational(m) == want

    def test_fraction_rows(self):
        rng = SplitMix64(17)
        for _ in range(50):
            m = random_matrix_with_rank(rng, 5, 5, 3)
            scaled = [[Fraction(x, rng.below(5) + 1) for x in row] for row in m]
            # scaling single rows does not change the rank
            row_scaled = [[Fraction(x, i + 2) for x in row]
                          for i, row in enumerate(m)]
            assert rank_rational(row_scaled) == rank_rational(m)
            assert rank_rational(scaled) <= 5

    def test_empty_and_zero(self):
        assert rank_rational([]) == 0
        assert rank_rational([[0, 0], [0, 0]]) == 0


# primes at the limb boundaries of the modular kernel: for 1, 2 and 3 limbs
# the largest prime (full 21-bit limbs) and the smallest above the boundary
PRIMES = (2, 7, 2097143, 2097169, P31, 4398046511093, 4398046511119, P62)


def residue_matrix_with_rank(rng, rows, cols, rank, p, density=1.0):
    """rows x cols matrix of residues mod p, a product of random factors of
    inner dimension ``rank``; some entries of the left factor are zeroed."""
    a = [[rng.below(p) if rng.below(1000) < density * 1000 else 0
          for _ in range(rank)] for _ in range(rows)]
    b = [[rng.below(p) for _ in range(cols)] for _ in range(rank)]
    return [[sum(a[i][t] * b[t][j] for t in range(rank)) % p
             for j in range(cols)] for i in range(rows)]


class TestRankModP:
    def test_equals_rational_rank_generically(self):
        rng = SplitMix64(5)
        for _ in range(100):
            m = random_matrix_with_rank(rng, 6, 5, rng.below(6))
            want = rank_rational(m)
            for p in (P31, P62):
                assert rank_mod_p(m, p) == want == rank_mod_p_oracle(m, p)

    def test_shapes_against_oracle(self):
        # tall, wide, square, one row, one column; large enough to run the
        # column recursion and both base cases
        rng = SplitMix64(8)
        shapes = ((1, 1), (1, 40), (40, 1), (3, 70), (70, 3), (20, 20),
                  (45, 30), (30, 45), (64, 64))
        for p in PRIMES:
            for rows, cols in shapes:
                for density in (1.0, 0.2):
                    r = rng.below(min(rows, cols) + 1)
                    m = residue_matrix_with_rank(rng, rows, cols, r, p,
                                                 density)
                    assert rank_mod_p(m, p) == rank_mod_p_oracle(m, p), \
                        (p, rows, cols, r, density)

    def test_small_integer_matrices_against_rational(self):
        rng = SplitMix64(9)
        for p in (P31, P62):
            for rows, cols in ((12, 30), (30, 12), (25, 25)):
                r = rng.below(min(rows, cols) + 1)
                m = random_matrix_with_rank(rng, rows, cols, r)
                assert rank_mod_p(m, p) == rank_rational(m) == r

    def test_empty(self):
        for p in PRIMES:
            assert rank_mod_p([], p) == 0
            assert rank_mod_p([[]], p) == 0
            assert rank_mod_p(np.zeros((0, 4), dtype=np.int64), p) == 0
            assert rank_mod_p(np.zeros((4, 0), dtype=np.int64), p) == 0
            assert rank_mod_p([[0] * 30] * 50, p) == 0

    def test_all_entries_p_minus_1(self):
        for p in PRIMES:
            assert rank_mod_p([[p - 1] * 50] * 40, p) == 1
            m = [[p - 1 if i == j else 0 for j in range(30)]
                 for i in range(40)]
            assert rank_mod_p(m, p) == 30

    def test_characteristic_drop(self):
        # rank can only drop mod p, and does for a matrix divisible by p
        m = [[7, 0], [0, 7]]
        assert rank_mod_p(m, 7) == 0
        assert rank_rational(m) == 2
        for p in PRIMES:
            m = [[1, 2, 3], [2, 4 + p, 6], [3, 6 + p, 9]]
            assert rank_rational(m) == 2
            assert rank_mod_p(m, p) == 1 == rank_mod_p_oracle(m, p)

    def test_int64_array_reduced_in_place(self):
        rng = SplitMix64(10)
        m = [[rng.below(2 ** 40) - 2 ** 39 for _ in range(20)]
             for _ in range(30)]
        for p in PRIMES:
            a = np.array(m, dtype=np.int64)
            assert rank_mod_p(a, p) == rank_mod_p_oracle(m, p)
        # big and negative Python ints are reduced before the int64 copy
        assert rank_mod_p([[-1, 2 ** 80], [1, -(2 ** 80)]], 7) == 1

    def test_prime_out_of_range(self):
        for p in (0, 1, 2 ** 62, 2 ** 64 - 59):
            with pytest.raises(ValueError, match="2\\^62"):
                rank_mod_p([[1]], p)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(0, 50), cols=st.integers(0, 50),
           rank=st.integers(0, 50), density=st.sampled_from((1.0, 0.3)),
           p=st.sampled_from(PRIMES), seed=st.integers(0, 2 ** 64 - 1))
    def test_property_equals_oracle(self, rows, cols, rank, density, p, seed):
        m = residue_matrix_with_rank(SplitMix64(seed), rows, cols,
                                     min(rank, rows, cols), p, density)
        assert rank_mod_p(m, p) == rank_mod_p_oracle(m, p)

    @settings(deadline=None)
    @given(m=st.lists(st.lists(st.integers(-50, 50), min_size=4, max_size=4),
                      max_size=6))
    def test_property_equals_rational_rank(self, m):
        # entries of at most 50 keep every minor far below the primes used
        for p in (P31, P62):
            assert rank_mod_p(m, p) == rank_rational(m)


class TestRankProfile:
    def test_small_cases(self):
        assert rank_profile_mod_p([[0, 1, 1, 0, 2], [0, 2, 2, 0, 5]], 7) == \
            [1, 4]
        assert rank_profile_mod_p([[0] * 4] * 3, 7) == []
        assert rank_profile_mod_p([], 7) == []
        assert rank_mod_p([[0, 1, 1, 0, 2], [0, 2, 2, 0, 5]], 7) == 2

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 40), cols=st.integers(1, 60),
           rank=st.integers(0, 40), repeats=st.integers(0, 20),
           p=st.sampled_from(PRIMES), seed=st.integers(0, 2 ** 64 - 1))
    def test_property_prefix_counts_are_prefix_ranks(self, rows, cols, rank,
                                                     repeats, p, seed):
        # columns copied to random later positions and zero columns give the
        # profile gaps wherever they land, inside the base case's blocks and
        # across the recursive splits
        rng = SplitMix64(seed)
        m = residue_matrix_with_rank(rng, rows, cols, min(rank, rows, cols),
                                     p)
        for _ in range(repeats):
            src, dst = rng.below(cols), rng.below(cols)
            for row in m:
                row[dst] = 0 if src == dst else row[src]
        profile = rank_profile_mod_p(m, p)
        assert profile == sorted(set(profile))
        for c in range(cols + 1):
            prefix = [row[:c] for row in m]
            assert sum(j < c for j in profile) == rank_mod_p(prefix, p), \
                (p, c)


def _split_counts(width: int) -> tuple[int, int]:
    """(base blocks, splits) of the column recursion on ``width`` columns."""
    if width <= _BASE_WIDTH:
        return 1, 0
    left, right = _split_counts(width // 2), _split_counts(width - width // 2)
    return left[0] + right[0], left[1] + right[1] + 1


class TestBlockRounds:
    """The base case eliminates whole blocks in rounds: a round takes rows
    spread over the nonzero ones, and the rows it leaves nonzero go to the
    next round."""

    def test_sub_matmul_calls_per_base_block(self, monkeypatch):
        calls = []
        inner = linalg._sub_matmul

        def counted(c, x, y, p):
            calls.append(x.shape)
            inner(c, x, y, p)
        monkeypatch.setattr(linalg, "_sub_matmul", counted)
        rng = SplitMix64(13)
        m = np.array([[rng.below(P31) for _ in range(300)]
                      for _ in range(300)], dtype=np.int64)
        assert len(rank_profile_mod_p(m, P31)) == 300
        blocks, splits = _split_counts(300)
        # at most two per base block and two per split; a base case that
        # finished every column with a rank-1 update would make 300 more
        assert len(calls) <= 2 * (blocks + splits) < 300

    def test_pivot_rows_found_out_of_row_order(self):
        # row 0 is zero in column 0, so a round takes row 1 as the pivot of
        # column 0 and row 0 as that of column 1; the three rows below are
        # combinations of the two, and the right half copies the left, so
        # the profile is [0, 1] only if G follows the pivot rows' order
        for p in PRIMES:
            rng = SplitMix64(14)
            a = [0] + [rng.below(p - 1) + 1 for _ in range(7)]
            b = [rng.below(p - 1) + 1 for _ in range(8)]
            rows = [a, b] + [[(x * s + y * t) % p for s, t in zip(a, b)]
                             for x, y in ((1, 2), (3, 1), (2, 5))]
            m = [row + row for row in rows] + [[0] * 16] * 35
            assert rank_profile_mod_p(m, p) == [0, 1], p

    def test_property_tall_structured_profiles(self, monkeypatch):
        # tall matrices, rank-deficient by structure: low-rank products,
        # zero bands of rows, and rows that copy one row onto every position
        # a round of any width takes first, so that round finds one pivot;
        # columns copied to later positions make the right half of a split
        # depend on the left half, which a wrong G would break
        rounds, open_calls = [], []
        narrow, gauss_jordan = linalg._eliminate_narrow, linalg._gauss_jordan

        def counted_narrow(*args):
            open_calls.append(0)
            try:
                return narrow(*args)
            finally:
                rounds.append(open_calls.pop())

        def counted_gauss_jordan(*args):
            open_calls[-1] += 1
            return gauss_jordan(*args)
        monkeypatch.setattr(linalg, "_eliminate_narrow", counted_narrow)
        monkeypatch.setattr(linalg, "_gauss_jordan", counted_gauss_jordan)

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(rows=st.integers(33, 300), cols=st.integers(1, 40),
               rank=st.integers(0, 12), repeats=st.integers(0, 8),
               kind=st.sampled_from(("product", "band", "spread")),
               p=st.sampled_from(PRIMES), seed=st.integers(0, 2 ** 64 - 1))
        def check(rows, cols, rank, repeats, kind, p, seed):
            rng = SplitMix64(seed)
            m = residue_matrix_with_rank(rng, rows, cols, min(rank, cols), p)
            for _ in range(repeats):
                src = rng.below(cols)
                dst = src + rng.below(cols - src)
                for row in m:
                    row[dst] = row[src]
            if kind == "band":
                # half the time only up to one block's worth of top rows
                # stays nonzero, with some entries zeroed, so that a round
                # finds its pivots out of row order
                if rng.below(2):
                    lo, hi = 1 + rng.below(_BASE_WIDTH), rows
                    for row in m[:lo]:
                        for j in range(cols):
                            if not rng.below(3):
                                row[j] = 0
                else:
                    lo = rng.below(rows)
                    hi = lo + 1 + rng.below(rows - lo)
                m[lo:hi] = [[0] * cols for _ in range(hi - lo)]
            elif kind == "spread":
                for w in range(1, _BASE_WIDTH + 1):
                    for t in range(w):
                        m[t * rows // w] = list(m[0])
            profile = rank_profile_mod_p(m, p)
            assert profile == sorted(set(profile))
            # the rank rises by one at every profile column and nowhere
            # else: checked at each side of every profile column
            for c in {0, cols} | set(profile) | {j + 1 for j in profile}:
                assert sum(j < c for j in profile) == rank_mod_p_oracle(
                    [row[:c] for row in m], p), (p, kind, c)

        check()
        assert 1 in rounds and max(rounds) > 1


class TestLimbMatmul:
    def test_exact_at_the_float64_limit(self):
        # all entries p - 1 with inner dimension 2048: the largest limb
        # product sums the kernel forms
        for p in PRIMES:
            for inner in (2048, 2049):
                x = np.full((3, inner), p - 1, dtype=np.int64)
                y = np.full((inner, 5), p - 1, dtype=np.int64)
                c = np.zeros((3, 5), dtype=np.int64)
                _sub_matmul(c, x, y, p)
                assert (c == -inner * (p - 1) ** 2 % p).all(), (p, inner)

    def test_fold_corrects_an_estimate_off_by_one(self):
        # the quotient estimate may land on either side of an integer; _fold
        # takes V wrapped to int64
        for p in PRIMES:
            v = np.array([(x + 2 ** 63) % 2 ** 64 - 2 ** 63
                          for x in (5 * p, 5 * p - 1, 5 * p + 1)],
                         dtype=np.int64)
            low = np.array([5 - 2.0 ** -20, 5.0, 5 + 2.0 ** -20])
            high = np.array([5.0, 5 - 2.0 ** -20, 4.9999])
            want = [0, p - 1, 1]
            assert _fold(v.copy(), low, p).tolist() == want
            assert _fold(v.copy(), high, p).tolist() == want

    def test_fold_at_the_edges_of_its_range(self):
        # with f = 0 the difference V - floor(f)*p is v itself, which _fold
        # takes anywhere in [-p, 2p)
        for p in PRIMES:
            v = np.array([-p, -1, 0, p - 1, p, 2 * p - 1], dtype=np.int64)
            assert _fold(v, np.zeros(len(v)), p).tolist() == \
                [0, p - 1, 0, p - 1, 0, p - 1], p

    def test_subtraction_at_the_edges(self):
        # c - x @ y for c and x @ y mod p each 0 or p - 1: the difference
        # before the last correction lies in (-p, p)
        for p in PRIMES:
            c = np.array([[0, 0, p - 1, p - 1]], dtype=np.int64)
            y = np.array([[0, p - 1, 0, p - 1]], dtype=np.int64)
            _sub_matmul(c, np.ones((1, 1), dtype=np.int64), y, p)
            assert c.tolist() == [[0, 1, p - 1, 0]], p

    def test_against_python_ints(self):
        rng = SplitMix64(11)
        for p in PRIMES:
            h, k, n = 7, rng.below(3000) + 1, 70
            x = [[rng.below(p) for _ in range(k)] for _ in range(h)]
            y = [[rng.below(p) for _ in range(n)] for _ in range(k)]
            c = [[rng.below(p) for _ in range(n)] for _ in range(h)]
            got = np.array(c, dtype=np.int64)
            _sub_matmul(got, np.array(x, dtype=np.int64),
                        np.array(y, dtype=np.int64), p)
            want = [[(c[i][j] - sum(x[i][t] * y[t][j] for t in range(k))) % p
                     for j in range(n)] for i in range(h)]
            assert got.tolist() == want, p


def _poly_cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    ring = m[0][0].ring
    total = ring.zero()
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _poly_cofactor_det(sub)
        total = total + (term if j % 2 == 0 else -term)
    return total


class TestPolyDet:
    """util.poly_det_reference, the oracle of determinantal.hb_minors."""

    def test_vandermonde(self):
        ring = PolyRing(["a", "b", "c"])
        a, b, c = ring.var("a"), ring.var("b"), ring.var("c")
        one = ring.one()
        m = [[one, a, a * a], [one, b, b * b], [one, c, c * c]]
        expect = (b - a) * (c - a) * (c - b)
        assert poly_det_reference(m) == expect

    def test_rational_path_matches_cofactor(self):
        ring = PolyRing(["x"])
        rng = SplitMix64(7)
        for _ in range(25):
            m = [[ring.from_terms({(rng.below(3),): rand_fraction(rng)})
                  for _ in range(3)] for _ in range(3)]
            assert poly_det_reference(m) == _poly_cofactor_det(m)
        # integer coefficients, two variables, 4 x 4
        ring = PolyRing(["x", "y"])
        rng = SplitMix64(6)
        for _ in range(25):
            m = [[ring.from_terms({(rng.below(3), rng.below(3)):
                                   rng.below(7) - 3}) for _ in range(4)]
                 for _ in range(4)]
            assert poly_det_reference(m) == _poly_cofactor_det(m)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        ring = PolyRing(["x", "y"])
        rng = SplitMix64(8)
        for size in (1, 2, 3, 4):
            for _ in range(5):
                m = [[rand_poly(ring, rng, max_terms=3, max_exp=2)
                      for _ in range(size)] for _ in range(size)]
                expected = sympy.Matrix([[to_sympy(e) for e in row]
                                         for row in m]).det("berkowitz")
                got = to_sympy(poly_det_reference(m))
                assert sympy.expand(got - expected) == 0

    def test_singular_matrix(self):
        ring = PolyRing(["x"])
        x = ring.var("x")
        assert poly_det_reference([[x, x], [x, x]]).is_zero()

    def test_non_square(self):
        ring = PolyRing(["x"])
        with pytest.raises(ValueError, match="non-square"):
            poly_det_reference([[ring.one(), ring.one()]])

    def test_empty_matrix(self):
        with pytest.raises(ValueError, match="empty matrix"):
            poly_det_reference([])
