"""Exact polynomial and truncated-series arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussmoments.polyring import (PolyRing, exact_div, is_prime, series_exp,
                                   series_log)
from gaussmoments.rng import SplitMix64
from util import (exact_div_reference, mul_reference, rand_fraction,
                  rand_poly, substitute_reference, to_sympy)

XYZ = PolyRing(["x", "y", "z"])


def xyz():
    return XYZ.var("x"), XYZ.var("y"), XYZ.var("z")


class TestAdd:
    def test_cancellation(self):
        x, y, _ = xyz()
        assert (x + y) + (x - y) == x.scale(2)

    def test_identity(self):
        x, y, z = xyz()
        p = y * y * z - x * z * z
        assert p + XYZ.zero() == p

    def test_truncation_kills_high_terms(self):
        x, y, z = xyz()
        p = XYZ.from_terms({(0, 2, 1): 1, (1, 0, 2): -1}, trunc=2)
        assert p.is_zero()  # both terms have degree 3 > 2
        q = p + x * z * z
        assert q.is_zero() and q.trunc == 2

    def test_variable_mismatch(self):
        other = PolyRing(["x", "y"])
        with pytest.raises(ValueError, match="variable-list mismatch"):
            XYZ.var("x") + other.var("x")


class TestMul:
    def test_difference_of_squares(self):
        ring = PolyRing(["t"])
        t = ring.var("t")
        one = ring.one()
        assert (one + t) * (one - t) == one - t * t

    def test_truncated_square(self):
        ring = PolyRing(["t"])
        t = ring.var("t", trunc=1)
        assert (t * t).is_zero()

    def test_by_variable(self):
        x, y, z = xyz()
        p = y * y * z - x * z * z
        assert p * z == XYZ.from_terms({(0, 2, 2): 1, (1, 0, 3): -1})


class TestDifferentiate:
    def test_partial(self):
        x, y, z = xyz()
        p = y * y * z - x * z * z
        assert p.differentiate("x") == -(z * z)

    def test_constant(self):
        assert XYZ.const(7).differentiate("x").is_zero()

    def test_moment_matrix_minor_partial(self):
        # the minor of the 3x6 moment matrix on columns (4,5,6) expands to
        # 3 m2 m4 m6 - 3 m2 m5^2 - 4 m3^2 m6 + 9 m3 m4 m5 - 5 m4^3 (by hand);
        # its m4-partial is 3 m2 m6 + 9 m3 m5 - 15 m4^2
        from gaussmoments.determinantal import gd_minor_columns, gd_minors
        idx = gd_minor_columns(6).index((4, 5, 6))
        minor = gd_minors(6)[idx]
        ring = minor.ring
        m = {v: ring.var(v) for v in ring.vars}
        expected = (m["m2"] * m["m6"].scale(3) + m["m3"] * m["m5"].scale(9)
                    - (m["m4"] * m["m4"]).scale(15))
        assert minor.differentiate("m4") == expected

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            XYZ.var("x").differentiate("w")


class TestEvaluate:
    def test_point(self):
        x, y, z = xyz()
        p = y * y * z - x * z * z
        assert p.evaluate({"x": -1, "y": 2, "z": 1}) == 5

    def test_all_zeros_gives_constant_term(self):
        x, y, z = xyz()
        p = x * y + XYZ.const(Fraction(7, 3))
        assert p.evaluate({"x": 0, "y": 0, "z": 0}) == Fraction(7, 3)

    def test_missing_assignment(self):
        with pytest.raises(ValueError, match="missing assignment"):
            XYZ.var("x").evaluate({"x": 1, "y": 2})

    def test_ring_homomorphism(self):
        rng = SplitMix64(42)
        for _ in range(50):
            a = rand_poly(XYZ, rng)
            b = rand_poly(XYZ, rng)
            pt = {"x": Fraction(rng.below(7) - 3), "y": Fraction(rng.below(7) - 3),
                  "z": Fraction(rng.below(7) - 3)}
            assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
            assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


class TestSeriesExp:
    def test_classical(self):
        ring = PolyRing(["t"])
        t = ring.var("t", trunc=3)
        assert series_exp(t) == ring.from_terms(
            {(0,): 1, (1,): 1, (2,): Fraction(1, 2), (3,): Fraction(1, 6)})

    def test_exp_zero(self):
        ring = PolyRing(["t"])
        assert series_exp(ring.zero(trunc=5)) == ring.one()

    def test_gaussian_mgf_coefficients(self):
        # exp(mu t + sg t^2 / 2): the t^2 coefficient is (mu^2 + sg)/2 and
        # the t^3 coefficient is mu^3/6 + sg*mu/2, i.e. m2 and m3 over 2!, 3!
        ring = PolyRing(["t", "mu", "sg"])
        arg = ring.from_terms({(1, 1, 0): 1, (2, 0, 1): Fraction(1, 2)},
                              trunc=9)
        e = series_exp(arg)
        assert e.coefficient((2, 2, 0)) == Fraction(1, 2)
        assert e.coefficient((2, 0, 1)) == Fraction(1, 2)
        assert e.coefficient((3, 3, 0)) == Fraction(1, 6)
        assert e.coefficient((3, 1, 1)) == Fraction(1, 2)

    def test_requires_zero_constant_term(self):
        ring = PolyRing(["t"])
        with pytest.raises(ValueError, match="zero constant term"):
            series_exp(ring.one(trunc=4))

    def test_requires_truncation(self):
        ring = PolyRing(["t"])
        with pytest.raises(ValueError, match="truncation"):
            series_exp(ring.var("t"))


class TestSeriesLog:
    def test_log_one(self):
        ring = PolyRing(["t"])
        assert series_log(ring.one(trunc=4)).is_zero()

    def test_log_exp_identity(self):
        ring = PolyRing(["t", "u"])
        rng = SplitMix64(7)
        for _ in range(20):
            q = rand_poly(ring, rng, max_terms=4, max_exp=3, trunc=6)
            q = q - ring.const(q.constant_term(), trunc=6)
            assert series_log(series_exp(q)) == q
            p = series_exp(q)
            assert series_exp(series_log(p)) == p

    def test_gaussian_log_mgf_is_quadratic(self):
        # all cumulants of order >= 3 of a Gaussian vanish
        from gaussmoments.moments import univariate_moments
        mu, var = Fraction(3, 4), Fraction(-2, 5)
        mv = univariate_moments(mu, var, 4)
        ring = PolyRing(["t"])
        series = ring.from_terms(
            {(i,): mv[(i,)] / __import__("math").factorial(i)
             for i in range(5)}, trunc=4)
        assert series_log(series) == ring.from_terms(
            {(1,): mu, (2,): var / 2}, trunc=4)

    def test_requires_constant_one(self):
        ring = PolyRing(["t"])
        with pytest.raises(ValueError, match="constant term 1"):
            series_log(ring.var("t", trunc=3))


class TestRingAxioms:
    def test_axioms_random(self):
        rng = SplitMix64(99)
        for _ in range(100):
            a = rand_poly(XYZ, rng)
            b = rand_poly(XYZ, rng)
            c = rand_poly(XYZ, rng)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)

    def test_truncation_invariant_after_ops(self):
        ring = PolyRing(["x", "y"])
        rng = SplitMix64(5)
        for _ in range(50):
            a = rand_poly(ring, rng, trunc=4)
            b = rand_poly(ring, rng, trunc=4)
            for p in (a + b, a * b, a - b, a.differentiate("x")):
                assert all(sum(e) <= 4 for e in p.terms)


class TestText:
    def test_zero_and_constants(self):
        assert str(XYZ.zero()) == "0"
        assert str(XYZ.const(1)) == "1"
        assert str(XYZ.const(Fraction(-3, 7))) == "-3/7"

    def test_graded_lex_leading_first(self):
        x, y, z = xyz()
        p = y * y * z - x * z * z
        assert str(p) == "-x*z^2 + y^2*z"

    def test_coefficient_formatting(self):
        x, y, _ = xyz()
        p = x.scale(Fraction(1, 2)) - y.scale(3) + XYZ.const(1)
        assert str(p) == "1/2*x - 3*y + 1"


class TestSubstitute:
    def test_full_substitution(self):
        x, y, z = xyz()
        p = x * x + y
        q = p.substitute({"x": y + XYZ.const(1), "y": XYZ.const(2)})
        assert q == y * y + y.scale(2) + XYZ.const(3)

    def test_partial_substitution(self):
        x, y, z = xyz()
        p = x * y + z
        assert p.substitute({"y": XYZ.const(5)}) == x.scale(5) + z


SEEDS = st.integers(0, 2 ** 64 - 1)
TRUNCS = st.one_of(st.none(), st.integers(0, 6))


def assert_same(got, want):
    assert got.terms == want.terms and got.trunc == want.trunc


def outcome(f, *args):
    """f(*args), or the type of the exception it raised."""
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


class TestMulOracle:
    @settings(max_examples=150, deadline=None)
    @given(SEEDS, TRUNCS, TRUNCS)
    def test_equals_reference(self, seed, ta, tb):
        rng = SplitMix64(seed)
        a = rand_poly(XYZ, rng, trunc=ta)
        b = rand_poly(XYZ, rng, trunc=tb)
        assert_same(a * b, mul_reference(a, b))
        # (a + b)(a - b): the cross terms cancel
        assert_same((a + b) * (a - b), mul_reference(a + b, a - b))


def without(p, names):
    """p with every term's exponent of the named variables set to 0."""
    drop = [p.ring.var_index(v) for v in names]
    return p.ring.from_terms(
        {tuple(0 if i in drop else k for i, k in enumerate(e)): c
         for e, c in p.terms.items()}, trunc=p.trunc)


# what a variable of XYZ maps to: nothing, a scalar, a variable (so that
# terms cancel), or a polynomial truncated at the given bound
VALUE_KINDS = st.one_of(st.none(), st.just("scalar"),
                        st.sampled_from(XYZ.vars).map(lambda v: ("var", v)),
                        TRUNCS.map(lambda t: ("poly", t)))


class TestSubstituteOracle:
    @settings(max_examples=300, deadline=None)
    @given(SEEDS, TRUNCS, st.lists(VALUE_KINDS, min_size=3, max_size=3),
           st.sets(st.sampled_from(XYZ.vars), max_size=3))
    def test_equals_reference(self, seed, trunc, kinds, absent):
        rng = SplitMix64(seed)
        p = without(rand_poly(XYZ, rng, trunc=trunc), absent)
        mapping = {}
        for name, kind in zip(XYZ.vars, kinds):
            if kind == "scalar":
                mapping[name] = rand_fraction(rng)  # 0 now and then
            elif kind is not None and kind[0] == "var":
                mapping[name] = XYZ.var(kind[1])
            elif kind is not None:
                mapping[name] = rand_poly(XYZ, rng, max_terms=3, max_exp=2,
                                          trunc=kind[1])
        got = p.substitute(mapping)
        assert_same(got, substitute_reference(p, mapping))
        if not any(e[XYZ.var_index(v)] for v in mapping for e in p.terms):
            assert got is p

    def test_cancellation_leaves_no_zero_terms(self):
        x, y, z = xyz()
        assert (x * z - y * z).substitute({"x": y}).terms == {}
        assert (x + y).substitute({"x": z - y}).terms == {(0, 0, 1): 1}

    def test_truncated_value_truncates_the_result(self):
        x, y, z = xyz()
        p = x * y + z * z * z
        q = p.substitute({"x": XYZ.var("y", trunc=2)})
        assert q.trunc == 2 and q == y * y
        r = p.substitute({"y": XYZ.var("z", trunc=1)})
        assert r.trunc == 1 and r.is_zero()
        # a truncated value of a variable that does not occur is ignored
        assert z.substitute({"x": XYZ.var("y", trunc=0)}) is z

    @pytest.mark.parametrize("substitute", [
        lambda p, m: p.substitute(m), substitute_reference])
    def test_unknown_variable(self, substitute):
        p = XYZ.var("x") + XYZ.const(1)
        with pytest.raises(ValueError, match="unknown variable 'w'"):
            substitute(p, {"w": 1})

    @pytest.mark.parametrize("substitute", [
        lambda p, m: p.substitute(m), substitute_reference])
    def test_ring_mismatch_even_where_the_variable_is_absent(self,
                                                             substitute):
        other = PolyRing(["x", "y"])
        p = XYZ.var("y") + XYZ.const(1)
        with pytest.raises(ValueError, match="variable-list mismatch"):
            substitute(p, {"x": other.var("x")})


class TestExactDivOracle:
    @settings(max_examples=150, deadline=None)
    @given(SEEDS)
    def test_product_divides(self, seed):
        rng = SplitMix64(seed)
        q = rand_poly(XYZ, rng, max_terms=4)
        d = rand_poly(XYZ, rng, max_terms=3)
        assume(not d.is_zero())
        assert exact_div(q * d, d) == q == exact_div_reference(q * d, d)

    @settings(max_examples=150, deadline=None)
    @given(SEEDS)
    def test_inexact_raises(self, seed):
        # r != 0 has lower total degree than d, so d does not divide q*d + r
        rng = SplitMix64(seed)
        q = rand_poly(XYZ, rng, max_terms=4)
        d = rand_poly(XYZ, rng, max_terms=3) + XYZ.var("x")
        r = rand_poly(XYZ, rng, max_terms=3)
        r = XYZ.from_terms({e: c for e, c in r.terms.items()
                            if sum(e) < d.total_degree()})
        if r.is_zero():
            r = XYZ.one()
        for div in (exact_div, exact_div_reference):
            with pytest.raises(ValueError, match="inexact"):
                div(q * d + r, d)

    @settings(max_examples=200, deadline=None)
    @given(SEEDS, TRUNCS, TRUNCS, TRUNCS)
    def test_truncated_operands_as_the_reference(self, seed, tq, tn, td):
        # num may have terms above the bound of d, and then the first
        # subtraction drops them
        rng = SplitMix64(seed)
        d = rand_poly(XYZ, rng, max_terms=3)
        num = XYZ.from_terms((rand_poly(XYZ, rng, max_terms=4, trunc=tq)
                              * d).terms, trunc=tn)
        d = XYZ.from_terms(d.terms, trunc=td)
        want = outcome(exact_div_reference, num, d)
        got = outcome(exact_div, num, d)
        if isinstance(want, type):
            assert got is want
        else:
            assert_same(got, want)

    @pytest.mark.parametrize("div", [exact_div, exact_div_reference])
    def test_division_by_zero(self, div):
        with pytest.raises(ZeroDivisionError):
            div(XYZ.var("x"), XYZ.zero())


class TestSeriesSympyOracle:
    """series_exp(P) and series_log(1 + Q) against sympy's expansion of
    exp(P(t x)) and log(1 + Q(t x)) to order t^(T+1), at t = 1."""

    @staticmethod
    def expected(fn, p):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        scaled = to_sympy(p).subs({sympy.Symbol(v): t * sympy.Symbol(v)
                                   for v in p.ring.vars}, simultaneous=True)
        return sympy.series(fn(scaled), t, 0, p.trunc + 1).removeO().subs(t, 1)

    @staticmethod
    def random_series(seed):
        """A random polynomial in x, y with zero constant term, truncated
        at a random T in 1..5."""
        rng = SplitMix64(seed)
        ring = PolyRing(["x", "y"])
        trunc = rng.below(5) + 1
        p = rand_poly(ring, rng, max_terms=4, max_exp=2, trunc=trunc)
        return p - ring.const(p.constant_term(), trunc=trunc)

    @pytest.mark.parametrize("seed", range(950, 958))
    def test_series_exp(self, seed):
        sympy = pytest.importorskip("sympy")
        p = self.random_series(seed)
        got = to_sympy(series_exp(p))
        assert sympy.expand(got - self.expected(sympy.exp, p)) == 0

    @pytest.mark.parametrize("seed", range(960, 968))
    def test_series_log(self, seed):
        sympy = pytest.importorskip("sympy")
        q = self.random_series(seed)
        got = to_sympy(series_log(q + q.ring.one(q.trunc)))
        expected = self.expected(lambda u: sympy.log(1 + u), q)
        assert sympy.expand(got - expected) == 0


class TestExactDiv:
    def test_roundtrip(self):
        rng = SplitMix64(11)
        for _ in range(30):
            a = rand_poly(XYZ, rng, max_terms=4)
            b = rand_poly(XYZ, rng, max_terms=3)
            if b.is_zero():
                continue
            assert exact_div(a * b, b) == a

    def test_inexact_raises(self):
        x, y, _ = xyz()
        with pytest.raises(ValueError, match="inexact"):
            exact_div(x * x + y, x)


class TestPrimeField:
    """The primality test that admits a modulus for the modular rank."""

    def test_is_prime_known_values(self):
        assert is_prime(2) and is_prime(2 ** 31 - 1) and is_prime(2 ** 62 - 57)
        assert not is_prime(1) and not is_prime(2 ** 62 - 59)
