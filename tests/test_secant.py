"""Secant dimensions by modular Jacobian rank, and the closed formulas."""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from gaussmoments import moments as M
from gaussmoments import secant as S
from gaussmoments.linalg import rank_mod_p, rank_profile_mod_p
from gaussmoments.rng import SplitMix64
from util import (fills_ambient, jacobian_reference, layouts,
                  partials_reference, rand_mixture, rank_mod_p_oracle,
                  schur_reference, terracini_reference)

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
    def test_column_count(self):
        rng = SplitMix64(1)
        p = rand_mixture(rng, 3, 2)
        jac = S.secant_jacobian(S.SecantProblem(3, 3, 2), p, prime=P31)
        assert len(jac) == 19 and len(jac[0]) == 19

    def test_rank_17_at_random_points(self):
        dim, cert = S.secant_dimension(S.SecantProblem(3, 3, 2), trials=3,
                                       seed=7, prime=P31)
        assert dim == 17
        assert cert.ranks == (17, 17, 17)

    def test_single_component_is_smooth_chart(self):
        for n, d in ((2, 3), (3, 3), (4, 4), (5, 3)):
            dim, _ = S.secant_dimension(S.SecantProblem(n, d, 1), trials=1,
                                        seed=3, prime=P31)
            assert dim == n * (n + 3) // 2

    def test_prime_too_small(self):
        rng = SplitMix64(2)
        p = rand_mixture(rng, 1, 2)
        with pytest.raises(ValueError, match="must exceed"):
            S.secant_jacobian(S.SecantProblem(1, 4, 2), p, prime=23)
        with pytest.raises(ValueError, match="must exceed"):
            S.secant_dimension(S.SecantProblem(1, 4, 2), prime=23)

    def test_prime_too_large(self):
        rng = SplitMix64(2)
        p = rand_mixture(rng, 2, 2)
        for prime in (2 ** 62, 2 ** 64 - 59):
            with pytest.raises(ValueError, match="below 2\\^62"):
                S.secant_jacobian(S.SecantProblem(2, 3, 2), p, prime=prime)
            with pytest.raises(ValueError, match="below 2\\^62"):
                S.secant_dimension(S.SecantProblem(2, 3, 1), prime=prime)

    def test_composite_modulus(self):
        rng = SplitMix64(2)
        p = rand_mixture(rng, 2, 2)
        for prime in (10007 * 10009, 91, 1, 0, -7):
            with pytest.raises(ValueError, match="is not prime"):
                S.secant_jacobian(S.SecantProblem(2, 3, 2), p, prime=prime)
            with pytest.raises(ValueError, match="is not prime"):
                S.secant_dimension(S.SecantProblem(2, 3, 2), trials=1,
                                   prime=prime)
            with pytest.raises(ValueError, match="is not prime"):
                S.census(3, [2], [2], trials=1, prime=prime)

    def test_denominator_divisible_by_the_prime(self):
        point = M.MixtureParams(
            (M.GaussianParams((Fraction(3, 2 * P31),), (Fraction(1),)),),
            (Fraction(1),))
        with pytest.raises(ZeroDivisionError, match="vanishes mod p"):
            S.secant_jacobian(S.SecantProblem(1, 3, 1), point, prime=P31)

    def test_point_problem_mismatch(self):
        rng = SplitMix64(3)
        p = rand_mixture(rng, 2, 2)
        with pytest.raises(ValueError, match="does not match"):
            S.secant_jacobian(S.SecantProblem(3, 3, 2), p, prime=P31)


def _reduce(x: Fraction, p: int) -> int:
    return x.numerator * pow(x.denominator, -1, p) % p


def _symbolic_jacobian(problem: S.SecantProblem, point: M.MixtureParams,
                       p: int) -> list[list[int]]:
    """The Jacobian from the symbolic partials of ``moment_polynomials``,
    evaluated exactly at the point and reduced mod p: per component its
    weight times every partial, then the free weight columns as differences
    of component moments."""
    polys = M.moment_polynomials(problem.n, problem.d)
    names = M.parameter_ring(problem.n).vars
    values = [dict(zip(names, c.mean + c.cov_upper))
              for c in point.components]
    rows = []
    for idx in M.multi_indices(problem.n, problem.d, min_order=1):
        poly = polys[idx]
        row = [_reduce(lam * poly.differentiate(v).evaluate(vals), p)
               for lam, vals in zip(point.weights, values) for v in names]
        moms = [poly.evaluate(vals) for vals in values]
        row += [_reduce(m - moms[-1], p) for m in moms[:-1]]
        rows.append(row)
    return rows


class TestJacobianOracle:
    """``secant_jacobian`` against the symbolic partials of the moment
    polynomials, and the coefficient divisibility behind ``_check_prime``."""

    @pytest.mark.parametrize("n,d,k", [(1, 6, 3), (2, 4, 2), (3, 3, 3),
                                       (4, 3, 2)])
    @pytest.mark.parametrize("prime", [7919, P31])
    def test_equals_symbolic_partials(self, n, d, k, prime):
        problem = S.SecantProblem(n, d, k)
        rng = SplitMix64(100 * n + 10 * d + k)
        points = [rand_mixture(rng, n, k) for _ in range(2)]
        first = points[0].components[0]
        zero_mean = M.GaussianParams((Fraction(0),) + first.mean[1:],
                                     first.cov_upper)
        points.append(M.MixtureParams(
            (zero_mean,) + points[0].components[1:], points[0].weights))
        for point in points:
            assert S.secant_jacobian(problem, point, prime=prime) == \
                _symbolic_jacobian(problem, point, prime)

    @pytest.mark.parametrize("n,d", [(1, 10), (2, 6), (3, 5), (4, 4)])
    def test_coefficients_divide_d_factorial(self, n, d):
        # a prime above d! therefore leaves every coefficient nonzero
        names = M.parameter_ring(n).vars
        for poly in M.moment_polynomials(n, d).values():
            for q in [poly] + [poly.differentiate(v) for v in names]:
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
            comp_vals, weights = S._params_to_modular(point, prime)
            if not all(weights):
                continue
            checked += 1
            layout = terracini_reference(n, d, comp_vals, prime)
            assert layout.shape == (problem.ambient, problem.parameters)
            rank = rank_mod_p(layout, prime)
            assert rank == rank_mod_p(
                S.secant_jacobian(problem, point, prime=prime), prime)
            assert rank == len(S._layout_profile(n, d, comp_vals, prime))


# every (n, d) with n = 1..4 and d = 1..6, for K = 1 and 3
BUILD_SHAPES = [(n, d, k) for n in range(1, 5) for d in range(1, 7)
                for k in (1, 3)]


def _residues(rng, n, k, p):
    """k components of random residues mod p, a quarter of them 0, 1 or
    p - 1."""
    edge = (0, 1, p - 1)
    return [[edge[rng.below(3)] if rng.below(4) == 0 else rng.below(p)
             for _ in range(n * (n + 3) // 2)] for _ in range(k)]


class TestAllComponentBuild:
    """The one-pass build of every component against the per-component
    reference in ``tests/util.py``."""

    @pytest.mark.parametrize("prime", [7919, P31, S.DEFAULT_PRIME])
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

    @pytest.mark.parametrize("prime", [7919, P31, S.DEFAULT_PRIME])
    def test_jacobian_equals_reference(self, prime):
        rng = SplitMix64(prime % 10007)
        for n, d, k in BUILD_SHAPES + [(10, 4, 3)]:
            point = rand_mixture(rng, n, k)
            comp_vals, weights = S._params_to_modular(point, prime)
            assert S.secant_jacobian(S.SecantProblem(n, d, k), point,
                                     prime=prime) == \
                jacobian_reference(n, d, comp_vals, weights, prime), (n, d, k)


class TestDimensionProperties:
    def test_univariate_nondefective(self):
        # min(d, 3k-1) for every univariate case, three seeds
        for seed in (1, 2, 3):
            for d in range(3, 21):
                for k in range(1, (d + 1) // 3 + 2):
                    dim, _ = S.secant_dimension(S.SecantProblem(1, d, k),
                                                trials=1, seed=seed)
                    assert dim == min(d, 3 * k - 1), (d, k, seed)

    def test_monotone_in_k_until_filling(self):
        dims = []
        for k in range(1, 6):
            p = S.SecantProblem(5, 3, k)
            dim, _ = S.secant_dimension(p, trials=1, seed=9, prime=P31)
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
                dim, _ = S.secant_dimension(p, trials=2, seed=5, prime=P31)
                assert dim == p.expected, (d, k)
                k += 1

    def test_formula_rank_agreement(self):
        for n in range(2, 11):
            for k in range(1, S.dim_formula_d3_max_k(n) + 1):
                dim, _ = S.secant_dimension(S.SecantProblem(n, 3, k),
                                            trials=2, seed=6, prime=P31)
                assert dim == S.dim_formula_d3(n, k), (n, k)


class TestCertificates:
    def test_bit_for_bit_reproducibility(self):
        a = S.secant_dimension(S.SecantProblem(2, 4, 2), trials=3, seed=11,
                               prime=P31)
        b = S.secant_dimension(S.SecantProblem(2, 4, 2), trials=3, seed=11,
                               prime=P31)
        assert a == b
        assert a[1].to_json() == b[1].to_json()

    def test_certificate_fields(self):
        dim, cert = S.secant_dimension(S.SecantProblem(1, 6, 2), trials=2,
                                       seed=12)
        assert cert.prime == S.DEFAULT_PRIME
        assert cert.prng == "splitmix64-v1"
        assert cert.reported == dim == max(cert.ranks)
        assert cert.degree_bound == dim * 6
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
        assert row.astuple() == (6, 4, 3, 111, 83, 83, 82, 1, 29)
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
            dim, _ = S.secant_dimension(S.SecantProblem(row.n, d, row.k),
                                        trials=trials, seed=23, prime=prime)
            assert row.dim == dim, (row.n, row.k)

    def test_dim_point_is_a_census_prefix(self, monkeypatch):
        # both eliminate the Schur complement of component 1's block, whose
        # columns depend only on the layout columns above them
        seen = []
        kernel = S.rank_profile_mod_p

        def keep(rows, p):
            seen.append(rows.copy())
            return kernel(rows, p)
        monkeypatch.setattr(S, "rank_profile_mod_p", keep)
        S.census(3, [4], range(1, 6), trials=2, seed=5, prime=P31)
        S.secant_dimension(S.SecantProblem(4, 3, 3), trials=2, seed=5,
                           prime=P31)
        m = 4 * 7 // 2
        cols = S.SecantProblem(4, 3, 3).parameters - m
        assert len(seen) == 4
        for big, small in zip(seen[:2], seen[2:]):
            assert big.shape == (S.SecantProblem(4, 3, 5).ambient - m,
                                 S.SecantProblem(4, 3, 5).parameters - m)
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
        # of the first component's order-<=2 block: N - m rows and
        # 6*(m+1) - 1 - m columns
        assert calls == [(comb(n + 3, 3) - 1 - n * (n + 3) // 2,
                          5 * (n * (n + 3) // 2 + 1))
                         for n in range(5, 11)]

    def test_kernel_works_on_a_view_of_the_blocks(self, monkeypatch):
        # the Schur complement is formed in place on the moment blocks of
        # the moment differences: no copy of its (K-1)(m+1) columns
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
        assert len(calls) == len(built) == 6
        # d = 1 (like d = 2) leaves no rows below the block, and an empty
        # view shares no memory
        assert [rows.shape for rows in calls[:2]] == [(0, 20), (0, 20)]
        for rows, blocks in zip(calls[2:], built[2:]):
            assert rows.shape[1] == 20
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
        table = S.gaussian_moment_table

        def counted(mean, sigma, d, one):
            shapes.append(mean.shape)
            return table(mean, sigma, d, one)
        monkeypatch.setattr(S, "gaussian_moment_table", counted)
        S.census(3, range(5, 8), range(3, 7), trials=2, seed=11, prime=P31)
        # mean holds the n mean coordinates of all K = 6 components
        assert shapes == [(n, 6) for n in range(5, 8) for _ in range(2)]

    def test_univariate_rows_never_defective(self):
        rows = S.census(3, [1], range(1, 4), defective_only=True,
                        trials=1, seed=11, prime=P31)
        assert rows == []


def _edge_points(rng, n, k, p):
    """k components of _residues, and the same with component 2 equal to
    component 1 (Delta = 0) and with the means of components 2.. equal to
    component 1's (Delta mu = 0)."""
    comp_vals = _residues(rng, n, k, p)
    yield comp_vals
    if k > 1:
        yield [comp_vals[0], list(comp_vals[0])] + comp_vals[2:]
        yield [comp_vals[0]] + [comp_vals[0][:n] + vals[n:]
                                for vals in comp_vals[1:]]


class TestSchurStep:
    """Eliminating only the Schur complement of the first component's
    order-<=2 block gives the profile of the whole layout."""

    @pytest.mark.parametrize("prime", [29, 7919, P31, S.DEFAULT_PRIME])
    def test_profile_equals_full_layout_profile(self, prime):
        rng = SplitMix64(prime % 10007)
        for n in range(1, 5):
            for d in range(1, 6):
                if prime <= factorial(d):
                    continue
                for k in (1, 2, 4):
                    comp_vals = _residues(rng, n, k, prime)
                    want = rank_profile_mod_p(
                        terracini_reference(n, d, comp_vals, prime), prime)
                    assert S._layout_profile(n, d, comp_vals, prime) == \
                        want, (n, d, k)

    @pytest.mark.parametrize("prime", [29, 7919, P31, S.DEFAULT_PRIME])
    def test_schur_complement_equals_reference(self, prime):
        # entry for entry, against the general step formed in place on the
        # whole layout
        rng = SplitMix64(prime % 10037)
        for n in range(1, 5):
            m = n * (n + 3) // 2
            for d in range(1, 7):
                if prime <= factorial(d):
                    continue
                rows = comb(n + d, d) - 1 - (n if d == 1 else m)
                for k in (1, 2, 4):
                    for comp_vals in _edge_points(rng, n, k, prime):
                        got = S._schur_complement(n, d, comp_vals, prime)
                        want = schur_reference(terracini_reference(
                            n, d, comp_vals, prime), n, d, prime)
                        assert got.shape == want.shape == \
                            (rows, (k - 1) * (m + 1)), (n, d, k)
                        assert np.array_equal(got, want), (n, d, k)

    @pytest.mark.parametrize("prime", [29, 7919, P31, S.DEFAULT_PRIME])
    def test_profile_for_any_later_columns(self, prime):
        # the reference step needs only the form of the first m x m block:
        # here the later columns are random, and every third one a
        # combination of the columns before it, so the profile has gaps to
        # get right
        rng = SplitMix64(prime % 10009)
        for n in range(1, 5):
            m = n * (n + 3) // 2
            for d in range(2, 5):
                if prime <= factorial(d):
                    continue
                first = terracini_reference(
                    n, d, _residues(rng, n, 1, prime), prime)
                cols = first.T.tolist()
                for j in range(len(first) + 3):
                    if j % 3 == 2:
                        coefs = [rng.below(prime) for _ in cols]
                        cols.append([sum(c * x for c, x in zip(coefs, row))
                                     % prime for row in zip(*cols)])
                    else:
                        cols.append([rng.below(prime) for _ in first])
                layout = np.array(cols, dtype=np.int64).T.copy()
                want = rank_profile_mod_p(layout.copy(), prime)
                assert len(want) < len(cols) - 2
                schur = schur_reference(layout, n, d, prime)
                assert list(range(m)) + [m + j for j in rank_profile_mod_p(
                    schur, prime)] == want, (n, d)

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
                    dim, _ = S.secant_dimension(
                        S.SecantProblem(n, d, row.k), trials=2, seed=31,
                        prime=prime)
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
