"""Exact two-component recovery from third moments."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmoments import moments as M
from gaussmoments import recovery as R
from gaussmoments.polyring import Polynomial, PolyRing
from gaussmoments.rng import SplitMix64
from util import (rand_fraction, rand_gaussian, rand_mixture, rand_poly,
                  recover_all_subsets, substitute_reference, to_sympy)


def make_instance(rng, n):
    p = rand_mixture(rng, n, 2, distinct_first=True)
    return p, M.mixture_moments(p, 3)


class TestRoundTrip:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exact_round_trip(self, n):
        rng = SplitMix64(100 + n)
        for _ in range(5):
            p, mv = make_instance(rng, n)
            res = R.recover(mv, p.components[0].mean[0],
                            p.components[1].mean[0])
            assert res == p
            assert M.mixture_moments(res, 3) == mv

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_vanishing_third_cumulant(self, n):
        # equal weights, first means 0 and 1, equal first variances: the
        # first coordinate's third cumulant is 0, so the moments satisfy the
        # collapsed-mean identity, and the mixture still comes back exactly
        rng = SplitMix64(520 + n)
        c1, c2 = rand_gaussian(rng, n), rand_gaussian(rng, n)
        c1 = M.GaussianParams((Fraction(0),) + c1.mean[1:], c1.cov_upper)
        c2 = M.GaussianParams((Fraction(1),) + c2.mean[1:],
                              c1.cov_upper[:1] + c2.cov_upper[1:])
        p = M.MixtureParams((c1, c2), (Fraction(1, 2), Fraction(1, 2)))
        mv = M.mixture_moments(p, 3)
        assert R.degenerate_mean_test(mv)
        assert R.recover(mv, 0, 1) == p

    def test_relabeling_invariance(self):
        # permuting coordinates 2..n of the input permutes the output
        rng = SplitMix64(200)
        p, mv = make_instance(rng, 5)
        perm = (0, 3, 1, 4, 2)
        vals = {}
        for idx in M.multi_indices(5, 3):
            src = tuple(idx[perm.index(t)] for t in range(5))
            vals[idx] = mv[src]
        permuted = M.MomentVector(5, 3, vals)
        res = R.recover(permuted, p.components[0].mean[0],
                        p.components[1].mean[0])
        for comp, orig in zip(res.components, p.components):
            assert comp.mean == tuple(orig.mean[perm[t]] for t in range(5))
            assert all(comp.sigma(i, j) == orig.sigma(perm[i], perm[j])
                       for i in range(5) for j in range(5))


def _mixtures(n):
    fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    gaussian = st.builds(M.GaussianParams, st.tuples(*[fractions] * n),
                         st.tuples(*[fractions] * (n * (n + 1) // 2)))
    weight = st.builds(Fraction, st.integers(1, 11), st.just(12))
    return st.builds(
        lambda c1, c2, w: M.MixtureParams((c1, c2), (w, 1 - w)),
        gaussian, gaussian, weight).filter(
            lambda p: p.components[0].mean[0] != p.components[1].mean[0])


class TestPropertyRoundTrip:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_returns_the_mixture_or_a_non_generic_error(self, n):
        # small drawn values often give non-generic moments (a fiber point
        # that is not unique, or the collapsed-mean identity); those may be
        # refused, but never called off the variety, and a result that is
        # returned is the mixture itself
        recovered = []

        @settings(max_examples=15, deadline=None, derandomize=True)
        @given(p=_mixtures(n))
        def round_trip(p):
            mv = M.mixture_moments(p, 3)
            try:
                res = R.recover(mv, p.components[0].mean[0],
                                p.components[1].mean[0])
            except R.RecoveryError as err:
                assert "secant variety" not in err.reason
                assert err.equation is None
                return
            assert res == p
            recovered.append(p)

        round_trip()
        assert len(recovered) >= 5


class TestFiberFreedom:
    def test_two_dimensional_fiber(self):
        # the same moment vector is recovered for a 2-parameter family of
        # fixed first coordinates; each recovery regenerates it exactly
        rng = SplitMix64(300)
        p, mv = make_instance(rng, 3)
        pairs = [(Fraction(5), Fraction(-3)), (Fraction(1, 2), Fraction(9, 4)),
                 (Fraction(-7, 3), Fraction(11, 6)), (Fraction(4), Fraction(13)),
                 (Fraction(-1), Fraction(-10, 7))]
        seen = set()
        for mu11, mu21 in pairs:
            res = R.recover(mv, mu11, mu21)
            assert M.mixture_moments(res, 3) == mv
            seen.add(res.weights)
        assert len(seen) == len(pairs)  # genuinely different fiber points


class TestSubsetConsistency:
    def test_overlapping_subsets_agree(self):
        rng = SplitMix64(400)
        p, mv = make_instance(rng, 4)
        mu11 = p.components[0].mean[0]
        mu21 = p.components[1].mean[0]
        a = R.recover_n3(R.RecoveryInput(mv.restrict((0, 1, 2)), mu11, mu21))
        b = R.recover_n3(R.RecoveryInput(mv.restrict((0, 1, 3)), mu11, mu21))
        assert a.weights == b.weights
        for t in range(2):
            assert a.components[t].mean[:2] == b.components[t].mean[:2]
            for pair in ((0, 0), (0, 1), (1, 1)):
                assert a.components[t].sigma(*pair) == \
                    b.components[t].sigma(*pair)

    def test_inconsistent_subsets_detected(self):
        rng = SplitMix64(401)
        p, mv = make_instance(rng, 4)
        # corrupt one pure coordinate-4 moment: subsets through position 3
        # recover different parameters or fail verification
        vals = dict(mv.values)
        vals[(0, 0, 0, 3)] = vals[(0, 0, 0, 3)] + 1
        bad = M.MomentVector(4, 3, vals)
        with pytest.raises(R.RecoveryError):
            R.recover(bad, p.components[0].mean[0], p.components[1].mean[0])


class TestSubsetPlan:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_equals_the_all_subsets_reference(self, n):
        # n = 4, 6, 8 have an odd n - 1, where the last subset overlaps
        rng = SplitMix64(700 + n)
        p, mv = make_instance(rng, n)
        mu11, mu21 = p.components[0].mean[0], p.components[1].mean[0]
        ref = recover_all_subsets(mv, mu11, mu21)
        assert M.mixture_moments(ref, 3) == mv
        assert R.recover(mv, mu11, mu21) == ref

    def test_one_n3_recovery_per_subset(self, monkeypatch):
        calls = []
        inner = R.recover_n3

        def counting(inp, *coords):
            calls.append(inp)
            return inner(inp, *coords)

        monkeypatch.setattr(R, "recover_n3", counting)
        rng = SplitMix64(710)
        for n in (3, 4, 5, 6, 7, 8):
            calls.clear()
            p, mv = make_instance(rng, n)
            res = R.recover(mv, p.components[0].mean[0],
                            p.components[1].mean[0])
            assert res == p
            assert len(calls) == n // 2  # ceil((n - 1) / 2)

    def test_cross_moment_read_only_by_the_closed_form(self):
        # m_{e2+e5} at n = 6: coordinates 2 and 5 share no subset of
        # {1,2,3}, {1,4,5}, {1,5,6}; the final check names a global equation
        rng = SplitMix64(720)
        p, mv = make_instance(rng, 6)
        vals = dict(mv.values)
        vals[(0, 1, 0, 0, 1, 0)] += 1
        with pytest.raises(R.RecoveryError) as err:
            R.recover(M.MomentVector(6, 3, vals), p.components[0].mean[0],
                      p.components[1].mean[0])
        assert "secant variety" in err.value.reason
        assert err.value.equation is not None
        assert len(err.value.equation) == 6


class TestSolveCovariances:
    """_solve_covariances returns the generating covariances, with Fractions
    and over Q[b2, b3]."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_cross_pairs_with_fractions(self, n):
        rng = SplitMix64(740 + n)
        for _ in range(3):
            p, mv = make_instance(rng, n)
            cross = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
            cov = tuple({(i, j): comp.sigma(i, j) for i in range(n)
                         for j in range(i, n) if (i, j) not in cross}
                        for comp in p.components)
            R._solve_covariances(mv, p.weights,
                                 tuple(list(c.mean) for c in p.components),
                                 cov, cross)
            for c, comp in zip(cov, p.components):
                assert c == {(i, j): comp.sigma(i, j) for i in range(n)
                             for j in range(i, n)}

    def test_n3_over_b2_b3(self):
        # the first component's means from the mean equations, as in
        # _eliminate; evaluated at the true (mu22, mu23), every covariance
        # is the generating one
        ring = PolyRing(("b2", "b3"))
        b = [ring.var("b2"), ring.var("b3")]
        rng = SplitMix64(750)
        for _ in range(3):
            p, mv = make_instance(rng, 3)
            lam = p.weights[0]
            e = [(0, 1, 0), (0, 0, 1)]
            mean = ([p.components[0].mean[0]]
                    + [(mv[e[t]] - b[t].scale(1 - lam)).scale(1 / lam)
                       for t in range(2)],
                    [p.components[1].mean[0]] + b)
            cov = ({}, {})
            pairs = [(i, j) for i in range(3) for j in range(i, 3)]
            R._solve_covariances(mv, p.weights, mean, cov, pairs)
            point = dict(zip(ring.vars, p.components[1].mean[1:]))
            for c, comp in zip(cov, p.components):
                for i, j in pairs:
                    got = c[i, j]
                    if isinstance(got, Polynomial):
                        got = got.evaluate(point)
                    assert got == comp.sigma(i, j)


class TestRejections:
    def test_degenerate_mean_rejected(self):
        rng = SplitMix64(500)
        c1 = rand_gaussian(rng, 3)
        c2 = rand_gaussian(rng, 3)
        c2 = M.GaussianParams((c1.mean[0],) + c2.mean[1:], c2.cov_upper)
        p = M.MixtureParams((c1, c2), (Fraction(1, 4), Fraction(3, 4)))
        mv = M.mixture_moments(p, 3)
        with pytest.raises(R.RecoveryError, match="collapsed-mean"):
            R.recover(mv, Fraction(0), Fraction(1))

    def test_equal_fixed_coordinates_rejected(self):
        rng = SplitMix64(501)
        _, mv = make_instance(rng, 3)
        with pytest.raises(R.RecoveryError, match="distinct"):
            R.recover(mv, Fraction(2), Fraction(2))

    def test_degenerate_weight_rejected(self):
        rng = SplitMix64(502)
        p, mv = make_instance(rng, 3)
        m100 = mv[(1, 0, 0)]
        with pytest.raises(R.RecoveryError, match="degenerate mixture weight"):
            R.recover(mv, Fraction(7), m100)

    def test_n2_not_exposed(self):
        # the n = 2 fiber has three points; uniqueness-based recovery would
        # be wrong there and the input type refuses it
        rng = SplitMix64(503)
        p = rand_mixture(rng, 2, 2, distinct_first=True)
        mv = M.mixture_moments(p, 3)
        with pytest.raises(R.RecoveryError, match="n >= 3"):
            R.RecoveryInput(mv, p.components[0].mean[0],
                            p.components[1].mean[0])

    def test_wrong_order_rejected(self):
        rng = SplitMix64(504)
        p = rand_mixture(rng, 3, 2, distinct_first=True)
        mv = M.mixture_moments(p, 4)
        with pytest.raises(R.RecoveryError, match="order exactly 3"):
            R.RecoveryInput(mv, p.components[0].mean[0],
                            p.components[1].mean[0])

    def test_final_system_identically_zero(self):
        with pytest.raises(R.RecoveryError,
                           match=r"final system for mu22 is identically zero"):
            R._unique_root([[], []], "mu22")

    def test_final_system_with_a_nonzero_constant(self):
        with pytest.raises(R.RecoveryError,
                           match=r"final system for mu23 has no solution; "
                           "the moment vector is not on the secant"):
            R._unique_root([[Fraction(1), Fraction(2)], [],
                            [Fraction(-3)]], "mu23")

    def test_off_variety_rejected_with_structured_error(self):
        rng = SplitMix64(505)
        p, mv = make_instance(rng, 3)
        mu11 = p.components[0].mean[0]
        mu21 = p.components[1].mean[0]
        # perturbing a residual-system coordinate: no common root
        vals = dict(mv.values)
        vals[(0, 1, 2)] = vals[(0, 1, 2)] + 1
        with pytest.raises(R.RecoveryError, match="not on the secant"):
            R.recover(M.MomentVector(3, 3, vals), mu11, mu21)
        # perturbing a coordinate used by a linear block: caught at the
        # final verification with the violated equation reported
        vals = dict(mv.values)
        vals[(1, 1, 1)] = vals[(1, 1, 1)] + 1
        with pytest.raises(R.RecoveryError) as err:
            R.recover(M.MomentVector(3, 3, vals), mu11, mu21)
        assert "secant" in str(err.value)


def sympy_coeffs(expr, var):
    """Ascending rational coefficient list of a sympy polynomial in var,
    without trailing zeros."""
    sympy = pytest.importorskip("sympy")
    out = [Fraction(int(c.p), int(c.q))
           for c in reversed(sympy.Poly(expr, var).all_coeffs())]
    while out and out[-1] == 0:
        out.pop()
    return out


class TestFinalSystemOracle:
    def test_unique_solution_by_resultants(self):
        # independent enumeration of the final bivariate system: the gcd of
        # the univariate residual with sympy's resultants of the coupled
        # equations and the residual in b3 must be linear (exactly one
        # common root), and likewise for the second unknown after
        # substitution
        sympy = pytest.importorskip("sympy")
        b2, b3 = sympy.symbols("b2 b3")
        rng = SplitMix64(600)
        for _ in range(10):
            p, mv = make_instance(rng, 3)
            inp = R.RecoveryInput(mv, p.components[0].mean[0],
                                  p.components[1].mean[0])
            st = R._eliminate(inp)
            cands = [R._univariate(st.e_b2, "b2")] + [
                sympy_coeffs(sympy.resultant(to_sympy(st.e_b3), to_sympy(q),
                                             b3), b2)
                for q in (st.e_mix1, st.e_mix2)]
            g = cands[0]
            for c in cands[1:]:
                if c:
                    g = R._gcd_lists(g, c)
            assert len(g) == 2  # degree 1: unique candidate for mu22
            b2_star = -g[0] / g[1]
            assert b2_star == p.components[1].mean[1]
            h = [R._univariate(substitute_reference(q, {"b2": b2_star}),
                               "b3")
                 for q in (st.e_b3, st.e_mix1, st.e_mix2)]
            g2 = h[0]
            for c in h[1:]:
                if c:
                    g2 = R._gcd_lists(g2, c)
            assert len(g2) == 2
            assert -g2[0] / g2[1] == p.components[1].mean[2]

    def test_cubic_residual_has_spurious_roots_pruned(self):
        # the univariate residual alone usually has degree 3 (the three-point
        # fiber of the bivariate subproblem); the coupled equations cut it
        # down to one
        rng = SplitMix64(601)
        degrees = []
        for _ in range(5):
            p, mv = make_instance(rng, 3)
            inp = R.RecoveryInput(mv, p.components[0].mean[0],
                                  p.components[1].mean[0])
            st = R._eliminate(inp)
            degrees.append(len(R._univariate(st.e_b2, "b2")) - 1)
        assert max(degrees) == 3


def eliminant_ratio(g, h):
    """sympy's resultant of g and h in x over R._eliminant(g, h, "x"), a
    rational constant, or None if both are zero."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    g_expr = sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * x ** i
                         for i, c in enumerate(g)))
    res = sympy.expand(sympy.resultant(g_expr, to_sympy(h), x))
    got = to_sympy(R._eliminant(g, h, "x"))
    if got == 0 or res == 0:
        assert got == res == 0
        return None
    ratio = sympy.cancel(res / got)
    assert ratio.is_Rational, ratio
    return Fraction(int(ratio.p), int(ratio.q))


def lc_powers(g, h):
    """+- lc(g)^deg h: the ratio of the resultant to the eliminant."""
    lc = g[-1] ** max((e[h.ring.var_index("x")] for e in h.terms),
                      default=0)
    return {lc, -lc}


class TestEliminant:
    """R._eliminant(g, h) is Res_x(g, h) / lc(g)^deg h up to sign: the
    ratio to sympy's resultant is +- lc(g)^deg h, and zero matches zero."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(min_value=-4, max_value=4,
                                 max_denominator=3), max_size=5),
           st.integers(0, 2 ** 64 - 1), st.sampled_from(["x", "none", "0"]))
    def test_ratio_to_the_resultant(self, g, seed, kind):
        while g and g[-1] == 0:
            g.pop()
        ring = PolyRing(["x", "y"])
        rng = SplitMix64(seed)
        h = rand_poly(ring, rng, max_terms=4)
        if kind == "none":
            h = substitute_reference(h, {"x": rand_fraction(rng)})
        elif kind == "0":
            h = ring.zero()
        ratio = eliminant_ratio(g, h)
        if ratio is not None:
            assert ratio in lc_powers(g, h)

    def test_degenerate_inputs(self):
        ring = PolyRing(["x", "y"])
        x, y = ring.var("x"), ring.var("y")
        h = x * y + ring.const(2)
        g = [Fraction(1), Fraction(0), Fraction(3)]
        # g or h zero
        assert R._eliminant([], h, "x").is_zero()
        assert R._eliminant(g, ring.zero(), "x").is_zero()
        # h without x: h^deg g
        assert R._eliminant(g, y + ring.one(), "x") == (y + ring.one()) ** 2
        # g a nonzero constant
        assert R._eliminant([Fraction(-5)], h, "x") == ring.one()
        for g_, h_ in (([], h), (g, y + ring.one()), ([Fraction(-5)], h)):
            ratio = eliminant_ratio(g_, h_)
            assert ratio is None or ratio in lc_powers(g_, h_)

    def test_product_over_the_roots(self):
        # g = 2(x - 1)(x - 2)(x + 3): the eliminant is h(1) h(2) h(-3)
        ring = PolyRing(["x", "y"])
        x, y = ring.var("x"), ring.var("y")
        g = [Fraction(12), Fraction(-14), Fraction(0), Fraction(2)]
        h = x * x * y - x + ring.const(Fraction(1, 2))
        want = ring.one()
        for root in (1, 2, -3):
            want = want * substitute_reference(h, {"x": root})
        assert R._eliminant(g, h, "x") == want


class TestSympyOracle:
    def test_sylvester_resultant(self):
        # the eliminant of a random g in x alone and a random h in x, y
        # against sympy's Sylvester resultant
        ring = PolyRing(["x", "y"])
        rng = SplitMix64(800)
        for _ in range(30):
            g = R._univariate(substitute_reference(
                rand_poly(ring, rng), {"y": rand_fraction(rng)}), "x")
            h = rand_poly(ring, rng)
            ratio = eliminant_ratio(g, h)
            assert ratio is None or ratio in lc_powers(g, h)
