"""Secant dimensions by modular Jacobian rank, and the closed formulas."""

from bisect import bisect_left
from dataclasses import astuple
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from gaussmoments import moments as M
from gaussmoments import secant as S
from gaussmoments.linalg import rank_mod_p, rank_profile_mod_p
from gaussmoments.rng import SplitMix64, derive_seed
from util import (PRIMES, below, deconvolved, dim_formula_d3_max_k,
                  fills_ambient, jacobian_reference, layouts,
                  moment_residues_reference, params_to_modular, partial,
                  partials_reference, prefix_ranks_reference, rand_mixture,
                  rank_mod_p_oracle, residue, rotated, terracini_reference,
                  veronese_layout)

P31 = 2 ** 31 - 1


class TestExpectedDimension:
    def test_trivariate_two_component(self):
        p = S.SecantProblem(3, 3, 2)
        assert (p.ambient, p.parameters, p.expected) == (19, 19, 19)

    def test_surface_case(self):
        for d in range(2, 9):
            assert S.SecantProblem(1, d, 1).expected == min(d, 2)

    def test_census_case(self):
        assert S.SecantProblem(9, 4, 13).expected == 714


class TestJacobian:
    def test_rank_17_at_random_points(self):
        row, cert = S.defect_row(S.SecantProblem(3, 3, 2), trials=3, seed=7,
                                 prime=P31)
        assert row.dim == 17
        assert cert.ranks == (17, 17, 17)

    def test_single_component_is_smooth_chart(self):
        for n, d in ((2, 3), (3, 3), (4, 4), (5, 3)):
            dim = S.defect_row(S.SecantProblem(n, d, 1), trials=1, seed=3,
                               prime=P31)[0].dim
            assert dim == n * (n + 3) // 2

    def test_prime_too_small(self):
        with pytest.raises(ValueError, match="must exceed"):
            S.defect_row(S.SecantProblem(1, 4, 2), prime=23)

    def test_prime_too_large(self):
        for prime in (2 ** 62, 2 ** 64 - 59):
            with pytest.raises(ValueError, match="below 2\\^62"):
                S.defect_row(S.SecantProblem(2, 3, 1), prime=prime)

    def test_composite_modulus(self):
        for prime in (10007 * 10009, 91, 1, 0, -7):
            with pytest.raises(ValueError, match="is not prime"):
                S.defect_row(S.SecantProblem(2, 3, 2), trials=1, prime=prime)
            with pytest.raises(ValueError, match="is not prime"):
                S.census(3, [2], [2], trials=1, prime=prime)


def _symbolic_blocks(n: int, d: int, point: M.MixtureParams,
                     p: int) -> list:
    """For each moment of order 1..d and each component, the moment and
    its partials in (mu, sigma) from the symbolic ``moment_polynomials``,
    evaluated exactly at the point and reduced mod p: the layout of
    ``secant._moment_blocks``."""
    polys = M.moment_polynomials(n, d)
    names = M.parameter_ring(n).vars
    values = [dict(zip(names, c.mean + c.cov_upper))
              for c in point.components]
    return [[[residue(q.evaluate(vals), p)
              for q in [polys[idx]] + [partial(polys[idx], v)
                                       for v in names]]
             for vals in values]
            for idx in M.multi_indices(n, d, min_order=1)]


class TestJacobianOracle:
    """The closed-form partials of ``secant._moment_blocks`` against the
    symbolic partials of the moment polynomials, and the coefficient
    divisibility behind ``_check_prime``."""

    @pytest.mark.parametrize("n,d,k", [(1, 6, 3), (2, 4, 2), (3, 3, 3),
                                       (4, 3, 2)])
    @pytest.mark.parametrize("prime", [7919, P31])
    def test_equals_symbolic_partials(self, n, d, k, prime):
        rng = SplitMix64(100 * n + 10 * d + k)
        points = [rand_mixture(rng, n, k) for _ in range(2)]
        first = points[0].components[0]
        zero_mean = M.GaussianParams((Fraction(0),) + first.mean[1:],
                                     first.cov_upper)
        points.append(M.MixtureParams(
            (zero_mean,) + points[0].components[1:], points[0].weights))
        for point in points:
            comp_vals, _ = params_to_modular(point, prime)
            moments = S._moment_residues(n, d, comp_vals, prime)
            assert S._moment_blocks(n, d, moments, prime).tolist() == \
                _symbolic_blocks(n, d, point, prime)

    @pytest.mark.parametrize("n,d", [(1, 10), (2, 6), (3, 5), (4, 4)])
    def test_coefficients_divide_d_factorial(self, n, d):
        # a prime above d! therefore leaves every coefficient nonzero
        names = M.parameter_ring(n).vars
        for poly in M.moment_polynomials(n, d).values():
            for q in [poly] + [partial(poly, v) for v in names]:
                for c in q.terms.values():
                    assert c.denominator == 1
                    assert factorial(d) % c.numerator == 0, (q, c)


class TestTerraciniLayout:
    """The weight-free layout [A_1 | M_2 - M_1, A_2 | ...] that ranks are
    computed from."""

    @pytest.mark.parametrize("n,d,k", [(1, 6, 3), (2, 4, 3), (3, 3, 2),
                                       (3, 3, 3), (5, 3, 3), (4, 4, 4)])
    @pytest.mark.parametrize("prime", [7919, P31, S.DEFAULT_PRIME])
    def test_rank_equals_mixture_jacobian_rank(self, n, d, k, prime):
        # nonzero weights: the two matrices have the same column space
        problem = S.SecantProblem(n, d, k)
        rng = SplitMix64(100 * n + 10 * d + k)
        checked = 0
        while checked < 2:
            point = rand_mixture(rng, n, k)
            comp_vals, weights = params_to_modular(point, prime)
            if not all(weights):
                continue
            checked += 1
            layout = terracini_reference(n, d, comp_vals, prime)
            assert layout.shape == (problem.ambient, problem.parameters)
            rank = S._prefix_ranks(n, d, comp_vals, prime)[-1]
            assert rank == rank_mod_p(layout, prime)
            assert rank == rank_mod_p(
                jacobian_reference(n, d, comp_vals, weights, prime), prime)


# every (n, d) with n = 1..4 and d = 1..6, for K = 1 and 3
BUILD_SHAPES = [(n, d, k) for n in range(1, 5) for d in range(1, 7)
                for k in (1, 3)]


def _residues(rng, n, k, p):
    """k components of random residues mod p, a quarter of them 0, 1 or
    p - 1."""
    edge = (0, 1, p - 1)
    return [[edge[below(rng, 3)] if below(rng, 4) == 0 else below(rng, p)
             for _ in range(n * (n + 3) // 2)] for _ in range(k)]


class TestAllComponentBuild:
    """The one-pass build of every component against the per-component
    reference in ``tests/util.py``."""

    @pytest.mark.parametrize("prime", (7919,) + PRIMES)
    def test_layout_equals_reference(self, prime):
        # the layout is the blocks with M_1 subtracted, less their first
        # column (M_1 - M_1 = 0)
        rng = SplitMix64(prime % 10007)
        for n, d, k in BUILD_SHAPES + [(10, 4, 15)]:
            comp_vals = _residues(rng, n, k, prime)
            blocks = S._moment_blocks(
                n, d, S._moment_residues(n, d, comp_vals, prime), prime)
            assert blocks.dtype == np.int64
            blocks[:, :, 0] = (blocks[:, :, 0] - blocks[:, :1, 0]) % prime
            layout = blocks.reshape(len(blocks), -1)[:, 1:]
            assert np.array_equal(
                layout, terracini_reference(n, d, comp_vals, prime)), \
                (n, d, k)


class TestMomentResidues:
    """The int64 moment table, one order at a time, against the recursion
    on Python ints one component at a time."""

    @pytest.mark.parametrize("prime", PRIMES)
    def test_equals_python_ints(self, prime):
        rng = SplitMix64(prime % 10007)
        # every residue of the n = 3 components 0, 1 or p - 1
        edges = [[0] * 9, [1] * 9, [prime - 1] * 9]
        for n, d, comp_vals in (
                [(n, d, _residues(rng, n, 1, prime))
                 for n, d in ((1, 1), (1, 7), (2, 5), (5, 3))]
                + [(n, d, _residues(rng, n, k, prime))
                   for n, d, k in ((10, 4, 15), (12, 4, 20))]
                + [(3, 6, edges), (3, 6, edges[::-1])]):
            got = S._moment_residues(n, d, comp_vals, prime)
            assert got.dtype == np.int64
            assert got.shape == (comb(n + d, d), len(comp_vals))
            want = [moment_residues_reference(n, d, vals, prime)
                    for vals in comp_vals]
            assert got.T.tolist() == want, (n, d)

    @pytest.mark.parametrize("prime", PRIMES)
    def test_univariate_order_200(self, prime):
        # far beyond the orders the prime check admits: the int64 table is
        # exact at any order
        rng = SplitMix64(prime % 10007)
        comp_vals = _residues(rng, 1, 4, prime) + [[prime - 1, prime - 1]]
        got = S._moment_residues(1, 200, comp_vals, prime)
        assert got.T.tolist() == [moment_residues_reference(1, 200, vals,
                                                            prime)
                                  for vals in comp_vals]

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 7)
                                     for d in range(1, 7)] + [(12, 4)])
    def test_recursion_index_equals_enumeration(self, n, d):
        # as a set of (moment, parameter, source, coefficient), against
        # m_b = mu_i m_a + sum_j a_j sigma_ij m_{a-e_j}, a = b - e_i and i
        # the first nonzero coordinate of b, one moment at a time
        index = {a: r for r, a in enumerate(M.multi_indices(n, d))}
        want = set()
        for b, row in list(index.items())[1:]:
            i = next(i for i, v in enumerate(b) if v)
            a = M.lower_index(b, i)
            want.add((row, i, index[a], 1))
            want |= {(row, M.sigma_var_index(n, i, j),
                      index[M.lower_index(a, j)], a[j])
                     for j in range(n) if a[j]}
        got, terms, lo = set(), 0, 1
        for order, (start, end, params, srcs, coefs, starts) in enumerate(
                S._recursion_index(n, d), 1):
            assert (start, end) == (lo, comb(n + order, order))
            lo = end
            assert len(starts) == end - start and starts[0] == 0
            assert np.all(np.diff(starts) > 0)
            rows = start + np.searchsorted(starts, np.arange(len(params)),
                                           side="right") - 1
            got |= set(zip(rows.tolist(), params.tolist(), srcs.tolist(),
                           coefs[:, 0].tolist()))
            terms += len(params)
            assert not any(arr.flags.writeable
                           for arr in (params, srcs, coefs, starts))
        assert lo == len(index)
        assert terms == len(want) and got == want


class TestDimensionProperties:
    def test_univariate_nondefective(self):
        # min(d, 3k-1) for every univariate case, three seeds
        for seed in (1, 2, 3):
            for d in range(3, 21):
                for k in range(1, (d + 1) // 3 + 2):
                    dim = S.defect_row(S.SecantProblem(1, d, k), trials=1,
                                       seed=seed)[0].dim
                    assert dim == min(d, 3 * k - 1), (d, k, seed)

    def test_monotone_in_k_until_filling(self):
        dims = []
        for k in range(1, 6):
            p = S.SecantProblem(5, 3, k)
            dim = S.defect_row(p, trials=1, seed=9, prime=P31)[0].dim
            dims.append((dim, p.expected))
        for (d1, e1), (d2, _) in zip(dims, dims[1:]):
            assert d2 >= d1
            if d1 < e1:
                assert d2 > d1

    def test_bivariate_conjectured_nondefective(self):
        # equality with the expected dimension for n = 2, all d <= 10
        for d in range(3, 11):
            N = comb(d + 2, 2) - 1
            k = 1
            while 6 * k - 1 <= N + 3:
                p = S.SecantProblem(2, d, k)
                dim = S.defect_row(p, trials=2, seed=5, prime=P31)[0].dim
                assert dim == p.expected, (d, k)
                k += 1

    def test_formula_rank_agreement(self):
        for n in range(2, 11):
            for k in range(1, dim_formula_d3_max_k(n) + 1):
                dim = S.defect_row(S.SecantProblem(n, 3, k), trials=2,
                                   seed=6, prime=P31)[0].dim
                assert dim == S.dim_formula_d3(n, k), (n, k)


class TestVeroneseOracle:
    """At Sigma = 0 the layout is the Terracini matrix of the Veronese
    variety v_d(P^n) (tests/util.veronese_layout), whose secant dimensions
    are the Alexander-Hirschowitz theorem (Alexander and Hirschowitz, J.
    Algebraic Geom. 1995): min(N, k(n+1) - 1), one less at four
    exceptions, and at d = 2 those of symmetric matrices of rank <= k."""

    EXCEPTIONS = {(2, 4, 5), (3, 4, 9), (4, 3, 7), (4, 4, 14)}

    def expected(self, n, d, k):
        ambient = comb(n + d, d) - 1
        if d == 2:
            k = min(k, n + 1)
            return min(ambient, k * (n + 1) - 1 - comb(k, 2))
        return (min(ambient, k * (n + 1) - 1)
                - ((n, d, k) in self.EXCEPTIONS))

    @pytest.mark.parametrize("prime", [2097143, P31, S.DEFAULT_PRIME])
    def test_ranks_are_the_alexander_hirschowitz_dimensions(self, prime):
        # every k up to one past the fill, from one elimination per (n, d)
        checked = set()
        for n in range(1, 6):
            for d in range(2, 6):
                ambient = comb(n + d, d) - 1
                fill = n + 1 if d == 2 else -(-(ambient + 1) // (n + 1))
                rng = SplitMix64(derive_seed(10, n, d))
                means = rng.below_array(prime, (fill + 1) * n)
                layout = veronese_layout(
                    n, d, means.view(np.int64).reshape(fill + 1, n), prime)
                profile = rank_profile_mod_p(layout, prime)
                for k in range(1, fill + 2):
                    assert bisect_left(profile, k * (n + 1) - 1) == \
                        self.expected(n, d, k), (n, d, k)
                    checked.add((n, d, k))
        # each exception with its k - 1 and k + 1
        assert {(n, d, k + e) for n, d, k in self.EXCEPTIONS
                for e in (-1, 0, 1)} <= checked


class TestCertificates:
    def test_bit_for_bit_reproducibility(self):
        a = S.defect_row(S.SecantProblem(2, 4, 2), trials=3, seed=11,
                         prime=P31)
        b = S.defect_row(S.SecantProblem(2, 4, 2), trials=3, seed=11,
                         prime=P31)
        assert a == b
        assert a[1].to_json() == b[1].to_json()

    def test_certificate_fields(self):
        row, cert = S.defect_row(S.SecantProblem(1, 6, 2), trials=2, seed=12)
        assert cert.prime == S.DEFAULT_PRIME
        assert cert.prng == "splitmix64-v1"
        assert cert.reported == row.dim == max(cert.ranks)
        assert cert.degree_bound == row.dim * 6
        assert cert.failure_bound() < 1e-15


class TestCensus:
    def test_defective_only_filter(self):
        rows = S.census(3, [5], range(3, 7), defective_only=True,
                        trials=1, seed=11, prime=P31)
        assert [(r.n, r.k) for r in rows] == [(5, 3)]
        all_rows = S.census(3, [5], range(3, 7), defective_only=False,
                            trials=1, seed=11, prime=P31)
        assert [(r.n, r.k) for r in all_rows] == [(5, 3), (5, 4), (5, 5), (5, 6)]
        fills = [r for r in all_rows if r.k > 3]
        assert all(fills_ambient(r) and not r.is_defective() for r in fills)

    def test_row_shape(self):
        row, cert = S.defect_row(S.SecantProblem(6, 3, 4), trials=1, seed=11,
                                 prime=P31)
        assert astuple(row) == (6, 4, 3, 111, 83, 83, 82, 1, 29)
        assert row.par_minus_dim == row.par - row.dim
        assert row.delta == row.exp - row.dim

    @pytest.mark.parametrize("d,ns,ks,trials,prime", [
        (3, range(2, 8), range(1, 7), 2, P31),
        (4, [5, 6], range(3, 8), 3, 2097169),
        (3, [9], [3, 5], 1, S.DEFAULT_PRIME)])
    def test_rows_equal_secant_dimension(self, d, ns, ks, trials, prime):
        rows = S.census(d, ns, ks, defective_only=False, trials=trials,
                        seed=23, prime=prime)
        assert [(r.n, r.k) for r in rows] == [(n, k) for n in ns for k in ks]
        for row in rows:
            dim = S.defect_row(S.SecantProblem(row.n, d, row.k),
                               trials=trials, seed=23, prime=prime)[0].dim
            assert row.dim == dim, (row.n, row.k)

    @pytest.mark.parametrize("prime", PRIMES[1:])
    def test_points_are_the_below_stream(self, prime):
        # each trial's values are the calls of below on its own stream
        n, d, top, m = 3, 3, 2, 9
        for t, vals in enumerate(S._points(n, d, top, 3, 17, prime)):
            stream = SplitMix64(derive_seed(17, n, d, t))
            assert vals.tolist() == [[below(stream, prime) for _ in range(m)]
                                     for _ in range(top)], t

    def test_dim_point_is_a_census_prefix(self, monkeypatch):
        # both eliminate the same closed-form reduction of the layout: it
        # depends only on components 1 and 2, and each later component's
        # columns only on that component
        seen = []
        kernel = S.rank_profile_mod_p

        def keep(rows, p):
            seen.append(rows.copy())
            return kernel(rows, p)
        monkeypatch.setattr(S, "rank_profile_mod_p", keep)
        S.census(3, [4], range(1, 6), trials=2, seed=5, prime=P31)
        S.defect_row(S.SecantProblem(4, 3, 3), trials=2, seed=5, prime=P31)
        # less component 1's m rows and columns, and component 2's
        # n(n+1)/2 covariance columns with their pivot rows
        fixed = 4 * 7 // 2 + 4 * 5 // 2
        cols = S.SecantProblem(4, 3, 3).parameters - fixed
        assert len(seen) == 4
        for big, small in zip(seen[:2], seen[2:]):
            assert big.shape == (S.SecantProblem(4, 3, 5).ambient - fixed,
                                 S.SecantProblem(4, 3, 5).parameters - fixed)
            assert (big[:, :cols] == small).all()

    def test_one_elimination_per_n_and_trial(self, monkeypatch):
        calls = []
        kernel = S.rank_profile_mod_p

        def counted(rows, p):
            calls.append(rows.shape)
            return kernel(rows, p)
        monkeypatch.setattr(S, "rank_profile_mod_p", counted)
        rows = S.census(3, range(5, 11), range(3, 7), defective_only=True,
                        trials=1, seed=11)
        assert len(rows) == 15
        # one K = 6 layout per n, less the m = n(n+3)/2 rows and columns
        # of the first component's order-<=2 block and the n(n+1)/2 of
        # component 2's covariance pivots: N - m - n(n+1)/2 rows and
        # 6*(m+1) - 1 - m - n(n+1)/2 columns
        assert calls == [(comb(n + 3, 3) - 1 - n * (n + 3) // 2
                          - n * (n + 1) // 2,
                          5 * (n * (n + 3) // 2 + 1) - n * (n + 1) // 2)
                         for n in range(5, 11)]

    def test_kernel_works_on_a_view_of_the_blocks(self, monkeypatch):
        # the closed-form steps work in place on the moment blocks of the
        # moment differences: no copy of their (K-1)(m+1) columns
        built, calls = [], []
        build, kernel = S._moment_blocks, S.rank_profile_mod_p

        def kept(*args):
            built.append(build(*args))
            return built[-1]

        def counted(rows, p):
            calls.append(rows)
            return kernel(rows, p)
        monkeypatch.setattr(S, "_moment_blocks", kept)
        monkeypatch.setattr(S, "rank_profile_mod_p", counted)
        for d in (1, 3, 4):
            S.census(d, [3], range(1, 4), trials=2, seed=3, prime=P31)
        # d = 1 (like d = 2) leaves no rows below component 1's block, and
        # builds nothing; K = 3 leaves 2 * 10 columns, less component 2's
        # 6 covariance columns
        assert len(calls) == len(built) == 4
        for rows, blocks in zip(calls, built):
            assert rows.shape[1] == 14
            assert np.shares_memory(rows, blocks)

    def test_partials_index_built_once_per_n_and_d(self):
        S._partials_index.cache_clear()
        S.census(4, [2, 3], range(1, 4), trials=3, seed=3, prime=P31)
        info = S._partials_index.cache_info()
        assert (info.misses, info.hits) == (2, 4)
        assert not any(a.flags.writeable for a in S._partials_index(3, 4))

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 7)
                                     for d in range(1, 7)] + [(10, 4)])
    def test_partials_index_equals_enumeration(self, n, d):
        # as a set of (row, column, source, coefficient), against the
        # closed forms enumerated one moment at a time
        rows, cols, srcs, scales, which = S._partials_index(n, d)
        got = set(zip(rows.tolist(), cols.tolist(), srcs.tolist(),
                      scales[which].tolist()))
        index = {a: i for i, a in enumerate(M.multi_indices(n, d))}
        want = {(index[a] - 1, j + 1, index[b], c) for a in list(index)[1:]
                for j, c, b in partials_reference(a)}
        assert len(got) == len(rows) and got == want

    def test_one_moment_table_per_n_and_trial(self, monkeypatch):
        # every component of a layout comes from one moment table
        shapes = []
        table = S._moment_residues

        def counted(n, d, comp_vals, p):
            shapes.append(np.array(comp_vals, dtype=object).T[:n].shape)
            return table(n, d, comp_vals, p)
        monkeypatch.setattr(S, "_moment_residues", counted)
        S.census(3, range(5, 8), range(3, 7), trials=2, seed=11, prime=P31)
        # the means of the differences of the K = 6 components from
        # component 1: n coordinates of 5 columns
        assert shapes == [(n, 5) for n in range(5, 8) for _ in range(2)]

    def test_univariate_rows_never_defective(self):
        rows = S.census(3, [1], range(1, 4), defective_only=True,
                        trials=1, seed=11, prime=P31)
        assert rows == []

    def test_one_component_or_low_order_builds_nothing(self, monkeypatch):
        # component 1 alone has rank m = n(n+3)/2, or n at d = 1, and at
        # d <= 2 it fills the ambient space whatever K is: no moment table
        # and no elimination
        def unused(*args):
            raise AssertionError("built a table or ran the kernel")
        monkeypatch.setattr(S, "_moment_residues", unused)
        monkeypatch.setattr(S, "rank_profile_mod_p", unused)
        for n in range(1, 5):
            m = n * (n + 3) // 2
            for d in range(1, 6):
                rank = n if d == 1 else m
                assert S._prefix_ranks(n, d, [[1] * m], P31) == [rank]
                dim = S.defect_row(S.SecantProblem(n, d, 1), trials=2,
                                   seed=3, prime=P31)[0].dim
                assert dim == rank
                if d <= 2:
                    rows = S.census(d, [n], range(1, 4), defective_only=False,
                                    trials=1, seed=3, prime=P31)
                    assert [r.dim for r in rows] == [rank] * 3


def _edge_points(rng, n, k, p):
    """k components of _residues, and the same with component 2 equal to
    component 1 (Delta = 0), with the means of components 2.. equal to
    component 1's (Delta mu = 0), and with the first mean coordinate of
    component 2 equal to component 1's (Delta mu_2[0] = 0, so i0 > 0)."""
    comp_vals = _residues(rng, n, k, p)
    yield comp_vals
    if k > 1:
        yield [comp_vals[0], list(comp_vals[0])] + comp_vals[2:]
        yield [comp_vals[0]] + [comp_vals[0][:n] + vals[n:]
                                for vals in comp_vals[1:]]
        if n > 1:
            yield ([comp_vals[0], comp_vals[0][:1] + comp_vals[1][1:]]
                   + comp_vals[2:])


class TestSchurStep:
    """Component 1's block and component 2's covariance pivots, fixed in
    closed form before the kernel, leave the rank of every prefix of
    whole components as it is in the whole layout."""

    @pytest.mark.parametrize("prime", [29, 7919, P31, S.DEFAULT_PRIME])
    def test_profile_equals_full_layout_profile(self, prime):
        # the prefix ranks against the column rank profile of the whole
        # layout
        rng = SplitMix64(prime % 10007)
        for n in range(1, 5):
            m = n * (n + 3) // 2
            for d in range(1, 6):
                if prime <= factorial(d):
                    continue
                for k in (1, 2, 4):
                    comp_vals = _residues(rng, n, k, prime)
                    profile = rank_profile_mod_p(
                        terracini_reference(n, d, comp_vals, prime), prime)
                    want = [bisect_left(profile, j * (m + 1) - 1)
                            for j in range(1, k + 1)]
                    assert S._prefix_ranks(n, d, comp_vals, prime) == \
                        want, (n, d, k)

    @pytest.mark.parametrize("prime", [7, 29, 7919, P31, S.DEFAULT_PRIME])
    def test_symmetries_keep_prefix_ranks(self, prime):
        # the prefix ranks of the whole layout, by the textbook oracle, are
        # the same at the point, at the point deconvolved by component 1
        # (component 1 at the origin) and at that point rotated (component
        # 2's mean at e_i0), and _prefix_ranks gives them; the steps need
        # only p > 3, so d runs past p <= d! here
        rng = SplitMix64(prime % 10037)
        for n in range(1, 4):
            for d in range(1, 4 if prime == 7 else 7):
                for k in (1, 2, 4):
                    for comp_vals in _edge_points(rng, n, k, prime):
                        moved = deconvolved(comp_vals, prime)
                        turned = rotated(moved, n, prime) if k > 1 else moved
                        assert not any(moved[0])
                        if k > 1 and any(moved[1][:n]):
                            i0 = next(i for i in range(n) if moved[1][i])
                            assert turned[1][:n] == [int(i == i0)
                                                     for i in range(n)]
                        want = prefix_ranks_reference(n, d, comp_vals, prime)
                        for point in (moved, turned):
                            assert prefix_ranks_reference(
                                n, d, point, prime) == want, (n, d, k)
                        assert S._prefix_ranks(n, d, comp_vals, prime) == \
                            want, (n, d, k)

    @pytest.mark.parametrize("prime", [29, 7919, P31, S.DEFAULT_PRIME])
    def test_profile_for_any_later_columns(self, prime):
        # dropping component 2's covariance pivots needs only their form on
        # the rows of order 3, c in {1, 2, 3} at x_i x_j x_i0 and 0 on the
        # others: here every other entry is random, and every third later
        # column a combination of the columns before it, so the ranks have
        # gaps to get right
        rng = SplitMix64(prime % 10009)
        for n in range(1, 5):
            m, half = n * (n + 3) // 2, n * (n + 1) // 2
            # the rows of order >= 3, those of order 3 first
            index = {a: i - 1 - m
                     for i, a in enumerate(M.multi_indices(n, 5))}
            upper = [(x, y) for x in range(n) for y in range(x, n)]
            for d in range(3, 6):
                height = comb(n + d, d) - 1 - m
                for i0 in range(n):
                    cols = []
                    for j in range(3 * (m + 1)):
                        if n < j <= m:
                            # component 2's covariance column sigma_xy
                            col = [below(rng, prime) for _ in range(height)]
                            col[:comb(n + 2, 3)] = [0] * comb(n + 2, 3)
                            x, y = upper[j - n - 1]
                            exps = [int(x == t) + int(y == t) + int(i0 == t)
                                    for t in range(n)]
                            col[index[tuple(exps)]] = (
                                3 if x == y == i0 else
                                2 if i0 in (x, y) and x != y else 1)
                        elif j % 3 == 2 and j > m:
                            coefs = [below(rng, prime) for _ in cols]
                            col = [sum(c * v for c, v in zip(coefs, row))
                                   % prime for row in zip(*cols)]
                        else:
                            col = [below(rng, prime) for _ in range(height)]
                        cols.append(col)
                    mat = np.array(cols, dtype=np.int64).T.copy()
                    want = [rank_mod_p_oracle(
                        [row[:j * (m + 1)] for row in mat.tolist()], prime)
                        for j in (1, 2, 3)]
                    profile = rank_profile_mod_p(
                        S._drop_second(mat, n, d, i0, prime), prime)
                    assert [half + bisect_left(profile, j * (m + 1) - half)
                            for j in (1, 2, 3)] == want, (n, d, i0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_pivots_read_off_the_matrix(self, monkeypatch, n):
        # the matrix _prefix_ranks hands to _drop_second has each
        # covariance column sigma_xy of component 2 zero on the rows of
        # order 3 but for its pivot c m_{e_i0} = c at x_x x_y x_i0: 2
        # where i0 is one of x < y, 3 at x = y = i0, and 1 otherwise
        seen, drop = [], S._drop_second

        def spy(mat, *args):
            seen.append((mat.copy(), args))
            return drop(mat, *args)

        monkeypatch.setattr(S, "_drop_second", spy)
        m, d, p = n * (n + 3) // 2, 4, P31
        low = comb(n + 3, 3) - 1 - m
        upper = [(x, y) for x in range(n) for y in range(x, n)]
        rng = SplitMix64(n)
        for i0 in range(n):
            comp_vals = _residues(rng, n, 3, p)
            comp_vals[1][:i0] = comp_vals[0][:i0]
            comp_vals[1][i0] = (comp_vals[0][i0] + 1 + below(rng, p - 1)) % p
            S._prefix_ranks(n, d, comp_vals, p)
            mat, args = seen.pop()
            assert args == (n, d, i0, p)
            want = np.zeros((low, m - n), dtype=np.int64)
            rows = S._pivot_index(n, d, i0)[0]
            want[rows, np.arange(m - n)] = [
                3 if x == y == i0 else 2 if i0 in (x, y) and x != y else 1
                for x, y in upper]
            assert (mat[:low, n + 1:m + 1] == want).all(), i0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("prime", [7919, P31, S.DEFAULT_PRIME])
    def test_census_and_dim_equal_full_layout_rank(self, d, prime):
        # K = 1 too; d = 1 has no order-2 rows, d = 2 no rows below them
        for n in (1, 2, 3):
            for top in (1, 3):
                full = [layout.tolist() for layout in
                        layouts(n, d, top, 2, 31, prime)]
                rows = S.census(d, [n], range(1, top + 1),
                                defective_only=False, trials=2, seed=31,
                                prime=prime)
                assert [r.k for r in rows] == list(range(1, top + 1))
                for row in rows:
                    want = max(rank_mod_p_oracle(
                        [r[:row.par] for r in layout], prime)
                        for layout in full)
                    dim = S.defect_row(
                        S.SecantProblem(n, d, row.k), trials=2, seed=31,
                        prime=prime)[0].dim
                    assert row.dim == dim == want, (n, row.k)


class TestDimensionFormulaD3:
    def test_k1_is_variety_dimension(self):
        for n in range(2, 13):
            assert S.dim_formula_d3(n, 1) == n * (n + 3) // 2

    def test_table_value(self):
        assert S.dim_formula_d3(9, 4) == 181

    def test_integrality_guard(self):
        for n in range(2, 16):
            for k in range(1, 12):
                S.dim_formula_d3(n, k)  # must not raise

    def test_domain(self):
        with pytest.raises(ValueError):
            S.dim_formula_d3(1, 2)

    def test_equals_the_pivot_chain_bound(self):
        # the upper bound of the secant module docstring, wherever the
        # formula tracks the secants
        pairs = 0
        for n in range(2, 60):
            for k in range(1, dim_formula_d3_max_k(n) + 1):
                bound = (n * (n + 3) // 2
                         + sum(comb(n - j + 3, 2) for j in range(2, k + 1))
                         + min(comb(n - k + 3, 3), (k - 1) * (n - k + 1)))
                assert bound == S.dim_formula_d3(n, k), (n, k)
                pairs += 1
        assert pairs == 1273


class TestDefectIdentityD3:
    def test_k1_zero(self):
        assert all(S.defect_identity_d3(n, 1) == 0 for n in range(2, 12))

    def test_k2_always_two(self):
        assert all(S.defect_identity_d3(n, 2) == 2 for n in range(2, 15))

    def test_table_value(self):
        assert S.defect_identity_d3(6, 3) == 12

    def test_matches_expected_minus_formula_when_par_small(self):
        for n in range(3, 12):
            for k in range(1, 7):
                p = S.SecantProblem(n, 3, k)
                if p.parameters <= p.ambient:
                    assert S.defect_identity_d3(n, k) == \
                        p.parameters - S.dim_formula_d3(n, k)


class TestConjectureElevenDefect:
    def test_table_rows(self):
        assert S.conjecture_eleven_defect(8, 3) == 1
        assert S.conjecture_eleven_defect(10, 5) == 6
        assert S.conjecture_eleven_defect(12, 8) == 21

    def test_domain(self):
        with pytest.raises(ValueError):
            S.conjecture_eleven_defect(7, 3)
        with pytest.raises(ValueError):
            S.conjecture_eleven_defect(8, 2)


class TestDegreeFormulas:
    def test_two_component_univariate_values(self):
        assert [S.degree_formula_sec2_g1(d) for d in range(5, 11)] == \
            [9, 39, 105, 225, 420, 714]

    def test_zeros(self):
        assert [S.degree_formula_sec2_g1(d) for d in (2, 3, 4)] == [0, 0, 0]
        assert S.degree_formula_sec2_x(4) == 0
        assert S.degree_formula_sec3_x(6) == 0

    def test_general_surface_value(self):
        assert S.degree_formula_sec2_x(5) == 12

    def test_trisecant_value(self):
        assert S.degree_formula_sec3_x(9) == 2497

    def test_integrality_and_comparison(self):
        for d in range(4, 51):
            x = S.degree_formula_sec2_x(d)
            g = S.degree_formula_sec2_g1(d)
            assert x >= g  # the singular surface has lower secant degree
        for d in range(6, 51):
            S.degree_formula_sec3_x(d)  # integrality must not raise

    def test_domains(self):
        with pytest.raises(ValueError):
            S.degree_formula_sec2_g1(1)
        with pytest.raises(ValueError):
            S.degree_formula_sec2_x(3)
        with pytest.raises(ValueError):
            S.degree_formula_sec3_x(5)


class TestDefaultPrime:
    def test_is_a_62_bit_prime_exceeding_20_factorial(self):
        from gaussmoments.secant import is_prime
        assert is_prime(S.DEFAULT_PRIME)
        assert 2 ** 61 < S.DEFAULT_PRIME < 2 ** 62
        assert S.DEFAULT_PRIME > factorial(20)
