"""The three determinantal matrix families."""

from fractions import Fraction
from math import comb

import pytest

from gaussmoments import determinantal as D
from gaussmoments import moments as M
from gaussmoments.linalg import rank_rational
from gaussmoments.polyring import PolyRing
from gaussmoments.rng import SplitMix64
from util import (annihilates, below, gd_jacobian_reference,
                  gd_minors_reference, hb_minors_reference, moment_ring,
                  poly_det_reference, polynomial_rows, power, rand_fraction,
                  rand_gaussian, rand_mixture, willink_kernel)

XYZ = PolyRing(["x", "y", "z"])
ZERO = (0, None)


def willink_at(n: int, d: int, mv):
    """The Willink matrix at a moment vector, as ``check`` evaluates it."""
    return D.evaluate(D.build_willink(n, d), D.moment_point(mv))


class TestMomentMatrix:
    def test_d3_display(self):
        assert D.build_gd(3) == ((ZERO, (1, "m0"), (2, "m1")),
                                 ((1, "m0"), (1, "m1"), (1, "m2")),
                                 ((1, "m1"), (1, "m2"), (1, "m3")))

    def test_top_row_rule(self):
        g = D.build_gd(7)
        for j in range(1, 8):
            assert g[0][j - 1] == (ZERO if j == 1 else (j - 1, f"m{j - 2}"))

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            D.build_gd(2)

    def test_minor_count(self):
        # the reference the gd witness is checked against has every triple
        assert len(gd_minors_reference(6)) == comb(6, 3) == 20
        assert list(gd_minors_reference(9)) == [
            (a, b, c) for a in range(1, 10) for b in range(a + 1, 10)
            for c in range(b + 1, 10)]

    def test_csv_dump(self):
        text = D.csv_text(D.build_gd(3))
        assert text.splitlines() == ['"0","m0","2*m1"', '"m0","m1","m2"',
                                     '"m1","m2","m3"']

    def test_evaluate(self):
        mv = M.univariate_moments(Fraction(1, 2), 3, 3)
        matrix = D.evaluate(D.build_gd(3), D.moment_point(mv))
        assert matrix == [[0, 1, 1], [1, Fraction(1, 2), Fraction(13, 4)],
                          [Fraction(1, 2), Fraction(13, 4), Fraction(37, 8)]]
        assert all(type(x) is Fraction for row in matrix for x in row)


class TestMomentMatrixMinors:
    """The minors as cubics (gd_minors_reference, Bareiss on build_gd's
    rows); ``check --method gd`` evaluates them as numbers, as
    tests/test_cli.py checks against this reference."""

    def test_vanish_on_surface_nonvanish_off(self):
        rng = SplitMix64(12)
        for d in range(3, 13):
            minors = gd_minors_reference(d).values()
            for _ in range(10):
                mv = M.univariate_moments(rand_fraction(rng),
                                          rand_fraction(rng), d)
                pt = {f"m{i}": mv[(i,)] for i in range(d + 1)}
                assert all(q.evaluate(pt) == 0 for q in minors)
                off = dict(pt)
                j = below(rng, d - 2) + 3
                off[f"m{j}"] = off[f"m{j}"] + Fraction(below(rng, 5) + 1)
                assert any(q.evaluate(off) != 0 for q in minors)

    def test_columns_12i_minor_is_the_recursion(self):
        # the minor on columns (1, 2, i) is, up to sign,
        # m0^2 m_i - m0 m1 m_{i-1} - (i-1)(m0 m2 - m1^2) m_{i-2};
        # solving it for m_i on the chart is the moment recursion
        d = 8
        minors = gd_minors_reference(d)
        ring = moment_ring(d)
        m = [ring.var(f"m{i}") for i in range(d + 1)]
        for i in range(3, d + 1):
            minor = minors[1, 2, i]
            expected = (m[0] * m[0] * m[i] - m[0] * m[1] * m[i - 1]
                        - ((m[0] * m[2] - m[1] * m[1]) * m[i - 2]).scale(i - 1))
            assert minor == -expected


class TestSingularLocus:
    """Ranks of the Jacobian of the minors (gd_jacobian_reference)."""

    def test_rank_bound_on_line(self):
        for tail in ([1, 1], [1, 0], [0, 1]):
            jac = gd_jacobian_reference(6, [0, 0, 0, 0, 0] + tail)
            assert rank_rational(jac) <= 3

    def test_generic_point_rank_is_codimension(self):
        rng = SplitMix64(13)
        for d in (4, 6, 9):
            mv = M.univariate_moments(rand_fraction(rng),
                                      rand_fraction(rng) + 1, d)
            jac = gd_jacobian_reference(d, [mv[(i,)] for i in range(d + 1)])
            assert rank_rational(jac) == d - 2


class TestBandedMatrix:
    def test_d3_display(self):
        text = D.csv_text(D.build_hilbert_burch(3))
        assert text.splitlines() == ['"y","z","0","0"', '"x","y","z","0"',
                                     '"0","2*x","y","z"']

    def test_subdiagonal_coefficients(self):
        b = D.build_hilbert_burch(9)
        for i in range(1, 9):
            assert b[i][i - 1] == (i, "x")

    def test_off_band_zero(self):
        b = D.build_hilbert_burch(6)
        for i in range(6):
            for j in range(7):
                if j not in (i - 1, i, i + 1):
                    assert b[i][j] == ZERO


class TestBandedMinors:
    def test_low_index_displays(self):
        x, y, z = XYZ.var("x"), XYZ.var("y"), XYZ.var("z")
        for d in (5, 8):
            b = [XYZ.from_terms(q) for q in D.hb_minors(d)]
            assert b[0] == power(z, d)
            assert b[1] == y * power(z, d - 1)
            assert b[2] == y * y * power(z, d - 2) - x * power(z, d - 1)
            assert b[3] == (y * y * y * power(z, d - 3)
                            - (x * y * power(z, d - 2)).scale(3))

    def test_top_index_second_terms(self):
        for d in (7, 10):
            b = D.hb_minors(d)
            top = b[d]  # exponents of (x, y, z)
            assert top.get((0, d, 0), 0) == 1
            assert top.get((1, d - 2, 1), 0) == -comb(d, 2)
            nxt = b[d - 1]
            assert nxt.get((0, d - 1, 1), 0) == 1
            assert nxt.get((1, d - 3, 2), 0) == -comb(d - 1, 2)

    def test_recurrence_equals_the_matrix_minors(self):
        # b_i is the minor that deletes column i, computed by Bareiss
        for d in range(2, 15):
            rows = polynomial_rows(XYZ, D.build_hilbert_burch(d))
            minors = tuple(
                poly_det_reference([[row[c] for c in range(d + 1) if c != i]
                                    for row in rows])
                for i in range(d + 1))
            assert tuple(XYZ.from_terms(q) for q in D.hb_minors(d)) == minors

    def test_closed_form_equals_the_continuant(self):
        # term for term, with exponents of (x, y, z) and int coefficients
        for d in range(2, 41):
            minors = D.hb_minors(d)
            reference = hb_minors_reference(d)
            assert len(minors) == d + 1
            for got, want in zip(minors, reference):
                assert want.ring == XYZ
                assert got == want.terms
                assert all(type(c) is int for c in got.values())

    def test_substitution_gives_univariate_moments(self):
        rng = SplitMix64(14)
        for d in (4, 7, 12):
            mu, var = rand_fraction(rng), rand_fraction(rng)
            mv = M.univariate_moments(mu, var, d)
            point = {"x": -var, "y": mu, "z": 1}
            assert [XYZ.from_terms(q).evaluate(point)
                    for q in D.hb_minors(d)] == [mv[(i,)]
                                                 for i in range(d + 1)]


class TestStructuralChecks:
    def test_all_true_spot(self):
        for d in (3, 5, 10, 13):
            report = D.hb_structural_checks(d)
            assert report.monomials_disjoint
            assert report.no_y2_factor
            assert report.lowest_terms_ok

    def test_odd_ending_pattern(self):
        # d = 7: lowest terms end ..., z^4, y*z^3
        minors = D.hb_minors(7)
        assert set(D._lowest_part_at_base_point(minors[6])) == {(0, 4)}
        assert set(D._lowest_part_at_base_point(minors[7])) == {(1, 3)}

    def test_even_ending_pattern(self):
        # d = 8: lowest terms end ..., y*z^4, z^4
        minors = D.hb_minors(8)
        assert set(D._lowest_part_at_base_point(minors[7])) == {(1, 4)}
        assert set(D._lowest_part_at_base_point(minors[8])) == {(0, 4)}

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            D.hb_structural_checks(2)


# the 10 x 5 display for n = 2, d = 4, with entries (moment, factor);
# its middle block lists +e2 before +e1, the reverse of the row contract
_W24_DISPLAY = [
    [((0, 0), 1), ((0, 1), 1), ((1, 0), 1), (None, 0), (None, 0)],
    [((0, 1), 1), ((0, 2), 1), ((1, 1), 1), (None, 0), ((0, 0), 1)],
    [((1, 0), 1), ((1, 1), 1), ((2, 0), 1), ((0, 0), 1), (None, 0)],
    [((0, 2), 1), ((0, 3), 1), ((1, 2), 1), (None, 0), ((0, 1), 2)],
    [((1, 1), 1), ((1, 2), 1), ((2, 1), 1), ((0, 1), 1), ((1, 0), 1)],
    [((2, 0), 1), ((2, 1), 1), ((3, 0), 1), ((1, 0), 2), (None, 0)],
    [((0, 3), 1), ((0, 4), 1), ((1, 3), 1), (None, 0), ((0, 2), 3)],
    [((1, 2), 1), ((1, 3), 1), ((2, 2), 1), ((0, 2), 1), ((1, 1), 2)],
    [((2, 1), 1), ((2, 2), 1), ((3, 1), 1), ((1, 1), 2), ((2, 0), 1)],
    [((3, 0), 1), ((3, 1), 1), ((4, 0), 1), ((2, 0), 3), (None, 0)],
]


class TestWillink:
    def test_w24_matches_display(self):
        w = D.build_willink(2, 4)
        # contract order (m_u, u+e1, u+e2, ...) vs display order (m_u, u+e2,
        # u+e1, ...): swap the middle block
        perm = [0, 2, 1, 3, 4]
        for row, disp in zip(w, _W24_DISPLAY):
            permuted = [row[p] for p in perm]
            for entry, (idx, factor) in zip(permuted, disp):
                if factor == 0:
                    assert entry == ZERO
                else:
                    assert entry == (factor, D.moment_variable(idx))

    def test_row_zero(self):
        for n in (1, 2, 3):
            w = D.build_willink(n, 3)
            row = w[0]
            assert row[0] == (1, D.moment_variable((0,) * n))
            assert all(row[n + 1 + i] == ZERO for i in range(n))

    def test_n1_is_transposed_row_permuted_moment_matrix(self):
        for d in (4, 7):
            w = D.build_willink(1, d)
            g = D.build_gd(d)
            # rows of the moment matrix in order (2, 3, 1), transposed
            perm = (1, 2, 0)
            for u in range(d):
                for c in range(3):
                    assert w[u][c] == g[perm[c]][u]

    def test_shape(self):
        w = D.build_willink(3, 4)
        assert len(w) == comb(3 + 3, 3)
        assert all(len(row) == 7 for row in w)


class TestWillinkMembership:
    """The Willink rank, which ``check --method willink`` compares with
    n + 1."""

    def test_gaussian_rank_and_kernel(self):
        # the n vectors (mu_i, -e_i, Sigma e_i) annihilate the Willink
        # matrix of the Gaussian's moments, which has rank n + 1
        rng = SplitMix64(15)
        for n in range(1, 5):
            for d in range(2, 7):
                g = rand_gaussian(rng, n)
                mv = M.mixture_moments(M.MixtureParams((g,), (1,)), d)
                mat = willink_at(n, d, mv)
                assert all(annihilates(mat, vec) for vec in willink_kernel(g))
                assert rank_rational(mat) == n + 1

    def test_kernel_rejects_other_parameters(self):
        # the moments of g are in the variety, but no kernel vector of
        # another Gaussian annihilates their Willink matrix
        rng = SplitMix64(19)
        for n, d in ((1, 4), (2, 3), (3, 4)):
            g, other = rand_gaussian(rng, n), rand_gaussian(rng, n)
            assert other != g
            mv = M.mixture_moments(M.MixtureParams((g,), (1,)), d)
            mat = willink_at(n, d, mv)
            assert not any(annihilates(mat, vec)
                           for vec in willink_kernel(other))
            assert rank_rational(mat) == n + 1

    def test_random_vector_is_not_member(self):
        rng = SplitMix64(16)
        for n, d in ((1, 6), (2, 4), (3, 3)):
            vals = {idx: rand_fraction(rng) for idx in M.multi_indices(n, d)}
            vals[(0,) * n] = Fraction(1)
            mv = M.MomentVector(n, d, vals)
            assert rank_rational(willink_at(n, d, mv)) > n + 1

    def test_unit_minor_certificate(self):
        # the first n+1 rows on the columns (1, n+2, ..., 2n+1) form a
        # minor equal to +-m_0^(n+1) = +-1, so the Willink rank is >= n+1
        rng = SplitMix64(17)
        for n, d in ((1, 5), (2, 4), (3, 3), (4, 4)):
            mv = M.mixture_moments(rand_mixture(rng, n, 1), d)
            rows = willink_at(n, d, mv)[: n + 1]
            cols = [0] + list(range(n + 1, 2 * n + 1))
            assert rank_rational([[row[c] for c in cols]
                                  for row in rows]) == n + 1

    def test_mixture_moments_off_the_variety(self):
        rng = SplitMix64(18)
        p = rand_mixture(rng, 2, 2, distinct_first=True)
        mv = M.mixture_moments(p, 4)
        assert rank_rational(willink_at(2, 4, mv)) > 3

