"""The three determinantal matrix families and the divisor pairing."""

from fractions import Fraction
from math import comb

import pytest

from gaussmoments import determinantal as D
from gaussmoments import moments as M
from gaussmoments.linalg import rank_rational
from gaussmoments.rng import SplitMix64
from util import poly_det_reference, rand_fraction, rand_gaussian


class TestMomentMatrix:
    def test_d3_display(self):
        g = D.build_gd(3)
        rows = [[str(e) for e in row] for row in g.entries]
        assert rows == [["0", "m0", "2*m1"],
                        ["m0", "m1", "m2"],
                        ["m1", "m2", "m3"]]

    def test_top_row_rule(self):
        g = D.build_gd(7)
        ring = g.ring
        for j in range(1, 8):
            want = ring.zero() if j == 1 else ring.var(f"m{j - 2}").scale(j - 1)
            assert g.entries[0][j - 1] == want

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            D.build_gd(2)

    def test_minor_count(self):
        assert len(D.gd_minors(6)) == comb(6, 3) == 20
        assert len(D.gd_minors(9)) == comb(9, 3)

    def test_surface_degree_constant(self):
        assert D.gd_surface_degree(6) == 15


class TestMomentMatrixMinors:
    def test_vanish_on_surface_nonvanish_off(self):
        rng = SplitMix64(12)
        for d in range(3, 13):
            minors = D.gd_minors(d)
            for _ in range(10):
                mv = M.univariate_moments(rand_fraction(rng),
                                          rand_fraction(rng), d)
                pt = {f"m{i}": mv[(i,)] for i in range(d + 1)}
                assert all(q.evaluate(pt) == 0 for q in minors)
                off = dict(pt)
                j = rng.below(d - 2) + 3
                off[f"m{j}"] = off[f"m{j}"] + Fraction(rng.below(5) + 1)
                assert any(q.evaluate(off) != 0 for q in minors)

    def test_columns_12i_minor_is_the_recursion(self):
        # the minor on columns (1, 2, i) is, up to sign,
        # m0^2 m_i - m0 m1 m_{i-1} - (i-1)(m0 m2 - m1^2) m_{i-2};
        # solving it for m_i on the chart is the moment recursion
        d = 8
        minors = D.gd_minors(d)
        cols = D.gd_minor_columns(d)
        ring = D.moment_ring(d)
        m = [ring.var(f"m{i}") for i in range(d + 1)]
        for i in range(3, d + 1):
            minor = minors[cols.index((1, 2, i))]
            expected = (m[0] * m[0] * m[i] - m[0] * m[1] * m[i - 1]
                        - ((m[0] * m[2] - m[1] * m[1]) * m[i - 2]).scale(i - 1))
            assert minor == -expected


class TestSingularLocus:
    def test_rank_bound_on_line(self):
        assert D.singular_locus_rank(6, [0, 0, 0, 0, 0, 1, 1]) <= 3
        assert D.singular_locus_rank(6, [0, 0, 0, 0, 0, 1, 0]) <= 3
        assert D.singular_locus_rank(6, [0, 0, 0, 0, 0, 0, 1]) <= 3

    def test_generic_point_rank_is_codimension(self):
        rng = SplitMix64(13)
        for d in (4, 6, 9):
            mv = M.univariate_moments(rand_fraction(rng),
                                      rand_fraction(rng) + 1, d)
            rank = D.gd_jacobian_rank(d, [mv[(i,)] for i in range(d + 1)])
            assert rank == d - 2

    def test_rejects_points_off_the_line(self):
        with pytest.raises(ValueError, match="not on the singular line"):
            D.singular_locus_rank(6, [1, 0, 0, 0, 0, 1, 1])
        with pytest.raises(ValueError, match="not both vanish"):
            D.singular_locus_rank(6, [0, 0, 0, 0, 0, 0, 0])


class TestBandedMatrix:
    def test_d3_display(self):
        b = D.build_hilbert_burch(3)
        rows = [[str(e) for e in row] for row in b.entries]
        assert rows == [["y", "z", "0", "0"],
                        ["x", "y", "z", "0"],
                        ["0", "2*x", "y", "z"]]

    def test_subdiagonal_coefficients(self):
        b = D.build_hilbert_burch(9)
        x = b.ring.var("x")
        for i in range(1, 9):
            assert b.entries[i][i - 1] == x.scale(i)

    def test_off_band_zero(self):
        b = D.build_hilbert_burch(6)
        for i in range(6):
            for j in range(7):
                if j not in (i - 1, i, i + 1):
                    assert b.entries[i][j].is_zero()


class TestBandedMinors:
    def test_low_index_displays(self):
        ring = D.build_hilbert_burch(2).ring
        x, y, z = ring.var("x"), ring.var("y"), ring.var("z")
        for d in (5, 8):
            b = D.hb_minors(d)
            assert b[0] == z ** d
            assert b[1] == y * z ** (d - 1)
            assert b[2] == y ** 2 * z ** (d - 2) - x * z ** (d - 1)
            assert b[3] == y ** 3 * z ** (d - 3) - (x * y * z ** (d - 2)).scale(3)

    def test_top_index_second_terms(self):
        for d in (7, 10):
            b = D.hb_minors(d)
            x_i, y_i, z_i = 0, 1, 2  # ring vars are (x, y, z)
            top = b[d]
            assert top.coefficient((0, d, 0)) == 1
            assert top.coefficient((1, d - 2, 1)) == -comb(d, 2)
            nxt = b[d - 1]
            assert nxt.coefficient((0, d - 1, 1)) == 1
            assert nxt.coefficient((1, d - 3, 2)) == -comb(d - 1, 2)

    def test_recurrence_equals_the_matrix_minors(self):
        # b_i is the minor that deletes column i, computed by Bareiss
        for d in range(2, 15):
            rows = D.build_hilbert_burch(d).entries
            minors = tuple(
                poly_det_reference([[row[c] for c in range(d + 1) if c != i]
                                    for row in rows])
                for i in range(d + 1))
            assert D.hb_minors(d) == minors

    def test_substitution_gives_univariate_moments(self):
        rng = SplitMix64(14)
        for d in (4, 7, 12):
            mu, var = rand_fraction(rng), rand_fraction(rng)
            mv = M.univariate_moments(mu, var, d)
            assert D.hb_substituted_moments(d, mu, var) == \
                [mv[(i,)] for i in range(d + 1)]


class TestStructuralChecks:
    def test_all_true_spot(self):
        for d in (3, 5, 10, 13):
            assert D.hb_structural_checks(d).all_ok()

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
        ring = w.ring
        # contract order (m_u, u+e1, u+e2, ...) vs display order (m_u, u+e2,
        # u+e1, ...): swap the middle block
        perm = [0, 2, 1, 3, 4]
        for row, disp in zip(w.entries, _W24_DISPLAY):
            permuted = [row[p] for p in perm]
            for entry, (idx, factor) in zip(permuted, disp):
                if factor == 0:
                    assert entry.is_zero()
                else:
                    name = D.willink_variable(idx)
                    assert entry == ring.var(name).scale(factor)

    def test_row_zero(self):
        for n in (1, 2, 3):
            w = D.build_willink(n, 3)
            row = w.entries[0]
            assert row[0] == w.ring.var(D.willink_variable((0,) * n))
            assert all(row[n + 1 + i].is_zero() for i in range(n))

    def test_n1_is_transposed_row_permuted_moment_matrix(self):
        for d in (4, 7):
            w = D.build_willink(1, d)
            g = D.build_gd(d)
            # rows of the moment matrix in order (2, 3, 1), transposed
            perm = (1, 2, 0)
            for u in range(d):
                for c in range(3):
                    assert w.entries[u][c] == g.entries[perm[c]][u]

    def test_shape(self):
        w = D.build_willink(3, 4)
        assert w.rows == comb(3 + 3, 3) and w.cols == 7


class TestWillinkMembership:
    def test_gaussian_rank_and_kernel(self):
        rng = SplitMix64(15)
        for n in range(1, 5):
            for d in range(2, 7):
                g = rand_gaussian(rng, n)
                mv = M.gaussian_moments(g, d)
                res = D.willink_membership(n, d, mv, params=g)
                assert res.rank == n + 1
                assert res.is_member
                assert res.kernel_ok

    def test_kernel_rejects_other_parameters(self):
        # the moments of g are in the variety, but the kernel vectors of
        # another Gaussian do not annihilate their Willink matrix
        rng = SplitMix64(19)
        for n, d in ((1, 4), (2, 3), (3, 4)):
            g, other = rand_gaussian(rng, n), rand_gaussian(rng, n)
            assert other != g
            res = D.willink_membership(n, d, M.gaussian_moments(g, d),
                                       params=other)
            assert res.rank == n + 1 and res.is_member
            assert res.kernel_ok is False

    def test_random_vector_is_not_member(self):
        rng = SplitMix64(16)
        for n, d in ((1, 6), (2, 4), (3, 3)):
            vals = {idx: rand_fraction(rng) for idx in M.multi_indices(n, d)}
            vals[(0,) * n] = Fraction(1)
            mv = M.MomentVector(n, d, vals)
            res = D.willink_membership(n, d, mv)
            assert res.rank > n + 1 and not res.is_member
            assert res.kernel_ok is None

    def test_unit_minor_certificate(self):
        # the first n+1 rows on the columns (1, n+2, ..., 2n+1) form a
        # minor equal to +-m_0^(n+1) = +-1, so the Willink rank is >= n+1
        rng = SplitMix64(17)
        for n, d in ((1, 5), (2, 4), (3, 3), (4, 4)):
            mv = M.gaussian_moments(rand_gaussian(rng, n), d)
            rows = D.willink_numeric(n, d, mv)[: n + 1]
            cols = [0] + list(range(n + 1, 2 * n + 1))
            assert rank_rational([[row[c] for c in cols]
                                  for row in rows]) == n + 1

    def test_mixture_moments_off_the_variety(self):
        rng = SplitMix64(18)
        from util import rand_mixture
        p = rand_mixture(rng, 2, 2, distinct_first=True)
        mv = M.mixture_moments(p, 4)
        assert not D.willink_membership(2, 4, mv).is_member


class TestDivisorPairing:
    def test_basis_squares(self):
        L = D.DivisorClass((1, 0, 0, 0))
        Ep = D.DivisorClass((0, 1, 0, 0))
        F1 = D.DivisorClass((0, 0, 0, 1))
        assert D.intersection_pairing(L, L) == 1
        assert D.intersection_pairing(Ep, Ep) == -1
        assert D.intersection_pairing(F1, F1) == -1
        assert D.intersection_pairing(L, Ep) == 0

    def test_hyperplane_class_even_odd(self):
        h6 = D.hd_class(6, [1, 2])
        assert h6.coeffs == (6, -3, -3, -1, -2)
        h7 = D.hd_class(7, [1])
        assert h7.coeffs == (7, -4, -3, -1)

    def test_hyperplane_pairings(self):
        for d in (6, 7, 11):
            h = D.hd_class(d, [1, 1])
            L = D.DivisorClass((1, 0, 0, 0, 0))
            Ep = D.DivisorClass((0, 1, 0, 0, 0))
            assert D.intersection_pairing(h, L) == d
            assert D.intersection_pairing(h, Ep) == (d + 1) // 2

    def test_errors(self):
        with pytest.raises(ValueError, match="different bases"):
            D.intersection_pairing(D.DivisorClass((1, 0, 0)),
                                   D.DivisorClass((1, 0, 0, 0)))
        with pytest.raises(ValueError, match="positive"):
            D.hd_class(6, [0])


class TestLinearMatrix:
    def test_rejects_quadratic_entries(self):
        from gaussmoments.polyring import PolyRing
        ring = PolyRing(["x"])
        x = ring.var("x")
        with pytest.raises(ValueError, match="degree > 1"):
            D.LinearMatrix(ring, ((x * x,),))

    def test_csv_dump(self):
        g = D.build_gd(3)
        text = D.csv_text(g.entries)
        assert text.splitlines()[0] == '"0","m0","2*m1"'
