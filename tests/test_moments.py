"""Moment generation, cumulant transforms, and their cross-oracles."""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from gaussmoments import moments as M
from gaussmoments.polyring import PolyRing
from gaussmoments.rng import SplitMix64
from util import (annihilates, free_weight_mixture, gd_minors_reference,
                  index_factorial, moment_count, rand_fraction, rand_gaussian,
                  rand_mixture, willink_kernel)


class TestMultiIndices:
    def test_graded_lex_order(self):
        assert M.multi_indices(2, 2) == [
            (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_min_order(self):
        assert M.multi_indices(2, 2, min_order=1)[0] == (0, 1)

    def test_count(self):
        assert len(M.multi_indices(3, 4)) == moment_count(3, 4) == comb(7, 4)


class TestMomentPolynomials:
    def test_univariate_low_orders(self):
        mp = M.moment_polynomials(1, 3)
        ring = mp[(2,)].ring
        mu, s = ring.var("mu1"), ring.var("s1_1")
        assert mp[(0,)] == ring.one()
        assert mp[(1,)] == mu
        assert mp[(2,)] == mu * mu + s
        assert mp[(3,)] == mu * mu * mu + (mu * s).scale(3)

    def test_trivariate_m111(self):
        mp = M.moment_polynomials(3, 3)
        ring = mp[(1, 1, 1)].ring
        v = {name: ring.var(name) for name in ring.vars}
        expected = (v["mu1"] * v["mu2"] * v["mu3"] + v["s1_2"] * v["mu3"]
                    + v["s1_3"] * v["mu2"] + v["s2_3"] * v["mu1"])
        assert mp[(1, 1, 1)] == expected

    def test_order_one_is_mean(self):
        mp = M.moment_polynomials(4, 2)
        ring = mp[(1, 0, 0, 0)].ring
        for i in range(4):
            idx = tuple(1 if j == i else 0 for j in range(4))
            assert mp[idx] == ring.var(f"mu{i + 1}")

    @pytest.mark.parametrize("n,d", [(1, 6), (1, 24), (2, 4), (3, 3)])
    def test_against_series_expansion(self, n, d):
        # independent oracle: expand the generating function
        # exp(sum t_i mu_i + 1/2 sum sigma_ij t_i t_j) as the sum of its
        # argument's powers over j!, j <= d (the j-th power has no term of
        # t-degree below j), and read coefficients
        tnames = [f"t{i}" for i in range(1, n + 1)]
        pring = M.parameter_ring(n)
        ring = PolyRing(tnames + list(pring.vars))
        width = len(ring.vars)

        def unit(pos, k=1):
            e = [0] * width
            e[pos] = k
            return e

        terms = {}
        for i in range(n):
            e = unit(i)
            e[n + i] = 1  # t_i * mu_i
            terms[tuple(e)] = Fraction(1)
        for i in range(n):
            for j in range(i, n):
                e = [0] * width
                e[i] += 1
                e[j] += 1
                e[n + M.sigma_var_index(n, i, j)] = 1
                terms[tuple(e)] = Fraction(1) if i != j else Fraction(1, 2)
        arg = ring.from_terms(terms)
        series, power = ring.one(), ring.one()
        for j in range(1, d + 1):
            power = power * arg
            series = series + power.scale(Fraction(1, factorial(j)))

        mp = M.moment_polynomials(n, d)
        collected = {idx: {} for idx in M.multi_indices(n, d)}
        for e, c in series.terms.items():
            tpart = e[:n]
            if sum(tpart) <= d and tpart in collected:
                collected[tpart][e[n:]] = c
        for idx in M.multi_indices(n, d):
            want = {e: c * index_factorial(idx)
                    for e, c in collected[idx].items()}
            assert dict(mp[idx].terms) == want, idx


class TestUnivariateMoments:
    def test_standard_normal(self):
        mv = M.univariate_moments(0, 1, 6)
        assert [mv[(i,)] for i in range(7)] == [1, 0, 1, 0, 3, 0, 15]

    def test_zero_variance_is_veronese(self):
        mu = Fraction(3, 2)
        mv = M.univariate_moments(mu, 0, 5)
        assert all(mv[(i,)] == mu ** i for i in range(6))

    def test_negative_order_rejected(self):
        g = M.GaussianParams((1,), (2,))
        p = M.MixtureParams((g,), (1,))
        for make in (lambda: M.univariate_moments(0, 1, -1),
                     lambda: M.mixture_moments(p, -1)):
            with pytest.raises(ValueError, match="at least 0"):
                make()

    def test_oracle_equivalence_up_to_24(self):
        rng = SplitMix64(314)
        mp = M.moment_polynomials(1, 24)
        for _ in range(20):
            mu, var = rand_fraction(rng), rand_fraction(rng)
            mv = M.univariate_moments(mu, var, 24)
            point = {"mu1": mu, "s1_1": var}
            for i in range(25):
                assert mv[(i,)] == mp[(i,)].evaluate(point)


def _display_rhs(lam, c1, c2):
    """The 19 right-hand sides of the 2-component trivariate order-3 system,
    transcribed literally from the displayed equations."""
    out = {}
    for c, w in ((c1, lam), (c2, 1 - lam)):
        mu = c.mean
        s = c.sigma
        eqs = {
            (1, 0, 0): mu[0],
            (0, 1, 0): mu[1],
            (0, 0, 1): mu[2],
            (2, 0, 0): mu[0] ** 2 + s(0, 0),
            (0, 2, 0): mu[1] ** 2 + s(1, 1),
            (0, 0, 2): mu[2] ** 2 + s(2, 2),
            (1, 1, 0): mu[0] * mu[1] + s(0, 1),
            (1, 0, 1): mu[0] * mu[2] + s(0, 2),
            (0, 1, 1): mu[1] * mu[2] + s(1, 2),
            (3, 0, 0): mu[0] ** 3 + 3 * s(0, 0) * mu[0],
            (0, 3, 0): mu[1] ** 3 + 3 * s(1, 1) * mu[1],
            (0, 0, 3): mu[2] ** 3 + 3 * s(2, 2) * mu[2],
            (2, 1, 0): mu[0] ** 2 * mu[1] + s(0, 0) * mu[1] + 2 * s(0, 1) * mu[0],
            (2, 0, 1): mu[0] ** 2 * mu[2] + s(0, 0) * mu[2] + 2 * s(0, 2) * mu[0],
            (1, 2, 0): mu[0] * mu[1] ** 2 + s(1, 1) * mu[0] + 2 * s(0, 1) * mu[1],
            (1, 0, 2): mu[0] * mu[2] ** 2 + s(2, 2) * mu[0] + 2 * s(0, 2) * mu[2],
            (0, 2, 1): mu[1] ** 2 * mu[2] + s(1, 1) * mu[2] + 2 * s(1, 2) * mu[1],
            (0, 1, 2): mu[1] * mu[2] ** 2 + s(2, 2) * mu[1] + 2 * s(1, 2) * mu[2],
            (1, 1, 1): (mu[0] * mu[1] * mu[2] + s(0, 1) * mu[2]
                        + s(0, 2) * mu[1] + s(1, 2) * mu[0]),
        }
        for idx, val in eqs.items():
            out[idx] = out.get(idx, 0) + w * val
    return out


class TestMixtureMoments:
    def test_k1_reduces_to_single_gaussian(self):
        rng = SplitMix64(21)
        g = rand_gaussian(rng, 2)
        p = M.MixtureParams((g,), (Fraction(1),))
        assert M.mixture_moments(p, 4).values == M.gaussian_moment_table(
            g.mean, g.sigma, 4, Fraction(1))

    def test_symmetric_two_point_measure(self):
        # equal weights at +-1 with zero variance: moments alternate 1, 0
        comps = (M.GaussianParams((Fraction(1),), (Fraction(0),)),
                 M.GaussianParams((Fraction(-1),), (Fraction(0),)))
        p = M.MixtureParams(comps, (Fraction(1, 2), Fraction(1, 2)))
        mv = M.mixture_moments(p, 6)
        assert [mv[(i,)] for i in range(7)] == [1, 0, 1, 0, 1, 0, 1]

    def test_trivariate_two_component_display(self):
        rng = SplitMix64(99)
        for _ in range(5):
            p = rand_mixture(rng, 3, 2)
            lam = p.weights[0]
            mv = M.mixture_moments(p, 3)
            rhs = _display_rhs(lam, p.components[0], p.components[1])
            assert mv[(0, 0, 0)] == 1
            for idx, val in rhs.items():
                assert mv[idx] == val, idx

    def test_weight_linearity(self):
        rng = SplitMix64(23)
        p = rand_mixture(rng, 2, 3)
        mv = M.mixture_moments(p, 3)
        parts = [M.mixture_moments(M.MixtureParams((c,), (1,)), 3)
                 for c in p.components]
        for idx in M.multi_indices(2, 3):
            assert mv[idx] == sum(w * q[idx]
                                  for w, q in zip(p.weights, parts))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            M.MixtureParams(
                (M.GaussianParams((0,), (1,)),
                 M.GaussianParams((0, 0), (1, 0, 1))),
                (Fraction(1, 2), Fraction(1, 2)))

    def test_weights_must_sum_to_one(self):
        g = M.GaussianParams((0,), (1,))
        with pytest.raises(ValueError, match="sum to 1"):
            M.MixtureParams((g, g), (Fraction(1, 2), Fraction(1, 3)))

    def test_from_free_weights(self):
        g = M.GaussianParams((0,), (1,))
        p = free_weight_mixture((g, g, g), (Fraction(1, 5), Fraction(2, 5)))
        assert p.weights == (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))


class TestCumulants:
    def test_single_gaussian_cumulants(self):
        rng = SplitMix64(44)
        g = rand_gaussian(rng, 3)
        cum = M.moments_to_cumulants(
            M.mixture_moments(M.MixtureParams((g,), (1,)), 4))
        for i in range(3):
            e = tuple(1 if j == i else 0 for j in range(3))
            assert cum[e] == g.mean[i]
            for j in range(i, 3):
                e2 = tuple((1 if t == i else 0) + (1 if t == j else 0)
                           for t in range(3))
                assert cum[e2] == g.sigma(i, j)
        for idx in M.multi_indices(3, 4, min_order=3):
            assert cum[idx] == 0

    def test_dirac_at_zero(self):
        mv = M.MomentVector(2, 3, {idx: Fraction(idx == (0, 0))
                                   for idx in M.multi_indices(2, 3)})
        cum = M.moments_to_cumulants(mv)
        assert all(v == 0 for v in cum.values.values())

    def test_zero_cumulants_give_dirac(self):
        cum = M.CumulantVector(2, 3, {idx: Fraction(0)
                                      for idx in M.multi_indices(2, 3, 1)})
        mv = M.cumulants_to_moments(cum)
        assert all(v == Fraction(idx == (0, 0))
                   for idx, v in mv.values.items())

    def test_mean_variance_cumulants_give_univariate_moments(self):
        mu, var = Fraction(-4, 3), Fraction(7, 2)
        values = {(1,): mu, (2,): var}
        for i in range(3, 9):
            values[(i,)] = Fraction(0)
        cum = M.CumulantVector(1, 8, values)
        assert M.cumulants_to_moments(cum) == M.univariate_moments(mu, var, 8)

    def test_round_trips(self):
        rng = SplitMix64(8)
        for n, d in ((1, 6), (2, 4), (3, 3)):
            p = rand_mixture(rng, n, 2)
            mv = M.mixture_moments(p, d)
            assert M.cumulants_to_moments(M.moments_to_cumulants(mv)) == mv
            # and the other direction, starting from an arbitrary vector
            vals = {idx: rand_fraction(rng) for idx in M.multi_indices(n, d)}
            vals[(0,) * n] = Fraction(1)
            mv2 = M.MomentVector(n, d, vals)
            assert M.cumulants_to_moments(M.moments_to_cumulants(mv2)) == mv2


class TestCumulantSympyOracle:
    """The moment-cumulant recursion against sympy's series of the log of
    the moment generating function, sum m_a t^|a| x^a / a!, in t."""

    @pytest.mark.parametrize("n,d", [(1, 5), (2, 5), (3, 5)])
    def test_log_of_the_mgf(self, n, d):
        sympy = pytest.importorskip("sympy")
        mv = M.mixture_moments(rand_mixture(SplitMix64(70 + n), n, 2), d)
        xs = sympy.symbols(f"x1:{n + 1}")
        t = sympy.Symbol("t")

        def monomial(a):
            return sympy.Mul(*(x ** k for x, k in zip(xs, a)))

        mgf = sympy.Add(*(
            sympy.Rational(v.numerator, v.denominator * index_factorial(a))
            * monomial(a) * t ** sum(a) for a, v in mv.items()))
        log = sympy.Poly(sympy.series(sympy.log(mgf), t, 0, d + 1)
                         .removeO().subs(t, 1), *xs)
        cum = M.moments_to_cumulants(mv)
        for a in M.multi_indices(n, d, min_order=1):
            want = log.coeff_monomial(monomial(a)) * index_factorial(a)
            assert cum[a] == Fraction(int(want.p), int(want.q)), a
        assert M.cumulants_to_moments(cum) == mv


class TestSigmaVarIndex:
    def test_names_the_parameter_ring_variable(self):
        for n in range(1, 7):
            names = M.parameter_ring(n).vars
            for i in range(n):
                for j in range(n):
                    lo, hi = sorted((i, j))
                    assert names[M.sigma_var_index(n, i, j)] == \
                        f"s{lo + 1}_{hi + 1}"

    def test_array_form_equals_scalar_form(self):
        # secant indexes its residue arrays with the array form
        for n in range(1, 13):
            i, j = np.indices((n, n)).reshape(2, -1)
            for a, b in ((i, j), (j, i)):
                got = M.sigma_var_index(n, a, b)
                assert got.dtype == a.dtype
                assert got.tolist() == [M.sigma_var_index(n, x, y)
                                        for x, y in zip(a.tolist(),
                                                        b.tolist())]
            for i0 in range(n):
                assert M.sigma_var_index(n, i0, np.arange(n)).tolist() == [
                    M.sigma_var_index(n, i0, y) for y in range(n)]


class TestMembershipCharacterizations:
    def test_three_characterizations_agree_on_members(self):
        # minors (n=1), Willink rank, and cumulant vanishing all certify the
        # same variety on the chart
        from gaussmoments.determinantal import (build_willink, evaluate,
                                                moment_point)
        from gaussmoments.linalg import rank_rational
        rng = SplitMix64(55)
        for n, d in ((1, 6), (2, 4), (3, 3)):
            g = rand_gaussian(rng, n)
            mv = M.mixture_moments(M.MixtureParams((g,), (1,)), d)
            mat = evaluate(build_willink(n, d), moment_point(mv))
            assert rank_rational(mat) == n + 1
            assert all(annihilates(mat, vec) for vec in willink_kernel(g))
            cum = M.moments_to_cumulants(mv)
            assert all(cum[idx] == 0
                       for idx in M.multi_indices(n, d, min_order=3))
            if n == 1:
                pt = {f"m{i}": mv[(i,)] for i in range(d + 1)}
                assert all(q.evaluate(pt) == 0
                           for q in gd_minors_reference(d).values())


class TestDegenerateMeanIdentity:
    def test_collapsed_first_coordinates(self):
        from gaussmoments.recovery import degenerate_mean_test
        rng = SplitMix64(66)
        for n in (1, 3):
            c1 = rand_gaussian(rng, n)
            c2 = rand_gaussian(rng, n)
            c2 = M.GaussianParams((c1.mean[0],) + c2.mean[1:], c2.cov_upper)
            p = M.MixtureParams((c1, c2), (Fraction(1, 3), Fraction(2, 3)))
            assert degenerate_mean_test(M.mixture_moments(p, 3))

    def test_generic_distinct_coordinates(self):
        from gaussmoments.recovery import degenerate_mean_test
        rng = SplitMix64(67)
        hits = 0
        for _ in range(5):
            p = rand_mixture(rng, 3, 2, distinct_first=True)
            if not degenerate_mean_test(M.mixture_moments(p, 3)):
                hits += 1
        assert hits == 5

    def test_single_gaussian_collapses(self):
        from gaussmoments.recovery import degenerate_mean_test
        rng = SplitMix64(68)
        g = rand_gaussian(rng, 2)
        assert degenerate_mean_test(
            M.mixture_moments(M.MixtureParams((g,), (1,)), 3))


class TestVectorsAndJson:
    def test_chart_violation(self):
        vals = {idx: Fraction(2) for idx in M.multi_indices(1, 2)}
        with pytest.raises(ValueError, match="chart violation"):
            M.MomentVector(1, 2, vals)

    def test_incomplete_support(self):
        with pytest.raises(ValueError, match="exactly"):
            M.MomentVector(1, 2, {(0,): Fraction(1)})

    def test_moment_vector_json_round_trip(self):
        rng = SplitMix64(70)
        mv = M.mixture_moments(rand_mixture(rng, 2, 2), 4)
        data = M.moment_vector_to_json(mv)
        assert data["values"][0] == {"idx": [0, 0], "num": 1, "den": 1}
        assert M.moment_vector_from_json(data) == mv

    def test_mixture_params_json_round_trip(self):
        rng = SplitMix64(71)
        p = rand_mixture(rng, 3, 2)
        assert M.mixture_params_from_json(M.mixture_params_to_json(p)) == p

    def test_empty_components_rejected(self):
        with pytest.raises(ValueError, match="empty components"):
            M.mixture_params_from_json({"n": 1, "k": 0, "components": []})

    def test_restrict_matches_marginal(self):
        rng = SplitMix64(72)
        p = rand_mixture(rng, 4, 2)
        mv = M.mixture_moments(p, 3)
        sub = mv.restrict((0, 2, 3))
        comps = []
        for c in p.components:
            mean = (c.mean[0], c.mean[2], c.mean[3])
            keep = (0, 2, 3)
            cov = tuple(c.sigma(keep[i], keep[j])
                        for i in range(3) for j in range(i, 3))
            comps.append(M.GaussianParams(mean, cov))
        want = M.mixture_moments(M.MixtureParams(tuple(comps), p.weights), 3)
        assert sub == want
