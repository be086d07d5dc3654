"""Exact polynomial arithmetic; exp and log of truncated power series, as
the moment-cumulant recursion computes them; and the test-only exact
division that the Bareiss determinant oracle rests on."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaussmoments import moments as M
from gaussmoments.polyring import PolyRing, det
from gaussmoments.rng import SplitMix64
from gaussmoments.secant import is_prime
from util import (below, exact_div_reference, gd_minors_reference,
                  index_factorial, mul_reference, partial, poly_det_reference,
                  rand_fraction, rand_poly, substitute_reference, to_sympy)

XYZ = PolyRing(["x", "y", "z"])


def xyz():
    return XYZ.var("x"), XYZ.var("y"), XYZ.var("z")


def truncated(p, bound):
    """p without its terms of total degree above bound."""
    return p.ring.from_terms({e: c for e, c in p.terms.items()
                              if sum(e) <= bound})


def _series_values(p, bound, min_order):
    """a! times the coefficient of x^a in p, for every a of order
    min_order..bound, plus p's terms outside that range (which the vector
    types reject)."""
    n = len(p.ring.vars)
    values = {e: c * index_factorial(e) for e, c in p.terms.items()}
    for a in M.multi_indices(n, bound, min_order):
        values.setdefault(a, 0)
    return n, values


def _series(ring, vector):
    return ring.from_terms({a: v / index_factorial(a)
                            for a, v in vector.values.items()})


def series_exp(p, bound):
    """exp(p) up to total degree bound, for p with no constant term and no
    term above the bound: the moments of the cumulants a! p_a."""
    n, values = _series_values(p, bound, 1)
    return _series(p.ring, M.cumulants_to_moments(
        M.CumulantVector(n, bound, values)))


def series_log(p, bound):
    """log(p) up to total degree bound, for p with constant term 1 and no
    term above the bound: the cumulants of the moments a! p_a."""
    n, values = _series_values(p, bound, 0)
    return _series(p.ring, M.moments_to_cumulants(
        M.MomentVector(n, bound, values)))


class TestAdd:
    def test_cancellation(self):
        x, y, _ = xyz()
        assert (x + y) + (x - y) == x.scale(2)

    def test_identity(self):
        x, y, z = xyz()
        p = y * y * z - x * z * z
        assert p + XYZ.zero() == p

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

    def test_by_variable(self):
        x, y, z = xyz()
        p = y * y * z - x * z * z
        assert p * z == XYZ.from_terms({(0, 2, 2): 1, (1, 0, 3): -1})


class TestDifferentiate:
    """The term-by-term partial of tests/util, the oracle that the closed
    partials of secant are checked against."""

    def test_partial(self):
        x, y, z = xyz()
        p = y * y * z - x * z * z
        assert partial(p, "x") == -(z * z)

    def test_constant(self):
        assert partial(XYZ.const(7), "x").is_zero()

    def test_moment_matrix_minor_partial(self):
        # the minor of the 3x6 moment matrix on columns (4,5,6) expands to
        # 3 m2 m4 m6 - 3 m2 m5^2 - 4 m3^2 m6 + 9 m3 m4 m5 - 5 m4^3 (by hand);
        # its m4-partial is 3 m2 m6 + 9 m3 m5 - 15 m4^2
        minor = gd_minors_reference(6)[4, 5, 6]
        ring = minor.ring
        m = {v: ring.var(v) for v in ring.vars}
        assert minor == ((m["m2"] * m["m4"] * m["m6"]).scale(3)
                         - (m["m2"] * m["m5"] * m["m5"]).scale(3)
                         - (m["m3"] * m["m3"] * m["m6"]).scale(4)
                         + (m["m3"] * m["m4"] * m["m5"]).scale(9)
                         - (m["m4"] * m["m4"] * m["m4"]).scale(5))
        expected = (m["m2"] * m["m6"].scale(3) + m["m3"] * m["m5"].scale(9)
                    - (m["m4"] * m["m4"]).scale(15))
        assert partial(minor, "m4") == expected

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            partial(XYZ.var("x"), "w")


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
            pt = {v: Fraction(below(rng, 7) - 3) for v in ("x", "y", "z")}
            assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
            assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


class TestSeriesExp:
    def test_classical(self):
        ring = PolyRing(["t"])
        t = ring.var("t")
        assert series_exp(t, 3) == ring.from_terms(
            {(0,): 1, (1,): 1, (2,): Fraction(1, 2), (3,): Fraction(1, 6)})

    def test_exp_zero(self):
        ring = PolyRing(["t"])
        assert series_exp(ring.zero(), 5) == ring.one()

    def test_gaussian_mgf_coefficients(self):
        # exp(mu t + sg t^2 / 2): the t^2 coefficient is (mu^2 + sg)/2 and
        # the t^3 coefficient is mu^3/6 + sg*mu/2, i.e. m2 and m3 over 2!, 3!
        ring = PolyRing(["t"])
        rng = SplitMix64(12)
        for _ in range(10):
            mu, sg = rand_fraction(rng), rand_fraction(rng)
            e = series_exp(ring.from_terms({(1,): mu, (2,): sg / 2}), 9)
            assert e.terms.get((2,), 0) == (mu * mu + sg) / 2
            assert e.terms.get((3,), 0) == mu ** 3 / 6 + sg * mu / 2

    def test_requires_zero_constant_term(self):
        # a cumulant vector has no entry of order 0
        ring = PolyRing(["t"])
        with pytest.raises(ValueError, match="orders 1..d exactly"):
            series_exp(ring.one(), 4)


class TestSeriesLog:
    def test_log_one(self):
        ring = PolyRing(["t"])
        assert series_log(ring.one(), 4).is_zero()

    def test_log_exp_identity(self):
        ring = PolyRing(["t", "u"])
        rng = SplitMix64(7)
        for _ in range(20):
            q = truncated(rand_poly(ring, rng, max_terms=4, max_exp=3), 6)
            q = q - ring.const(q.constant_term())
            assert series_log(series_exp(q, 6), 6) == q
            p = series_exp(q, 6)
            assert series_exp(series_log(p, 6), 6) == p

    def test_gaussian_log_mgf_is_quadratic(self):
        # all cumulants of order >= 3 of a Gaussian vanish
        mu, var = Fraction(3, 4), Fraction(-2, 5)
        mv = M.univariate_moments(mu, var, 4)
        ring = PolyRing(["t"])
        series = ring.from_terms(
            {(i,): mv[(i,)] / index_factorial((i,)) for i in range(5)})
        assert series_log(series, 4) == ring.from_terms(
            {(1,): mu, (2,): var / 2})

    def test_requires_constant_one(self):
        # the chart of a moment vector: order-zero moment 1
        ring = PolyRing(["t"])
        with pytest.raises(ValueError, match="order-zero moment must be 1"):
            series_log(ring.var("t"), 3)


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


class TestSubstitute:
    """substitute_reference, the substitution the recovery tests use as an
    oracle."""

    def test_full_substitution(self):
        x, y, z = xyz()
        p = x * x + y
        q = substitute_reference(p, {"x": y + XYZ.const(1),
                                     "y": XYZ.const(2)})
        assert q == y * y + y.scale(2) + XYZ.const(3)

    def test_partial_substitution(self):
        x, y, z = xyz()
        p = x * y + z
        assert substitute_reference(p, {"y": XYZ.const(5)}) == x.scale(5) + z


SEEDS = st.integers(0, 2 ** 64 - 1)


class TestMulOracle:
    @settings(max_examples=150, deadline=None)
    @given(SEEDS)
    def test_equals_reference(self, seed):
        rng = SplitMix64(seed)
        a = rand_poly(XYZ, rng)
        b = rand_poly(XYZ, rng)
        assert (a * b).terms == mul_reference(a, b).terms
        # (a + b)(a - b): the cross terms cancel
        assert ((a + b) * (a - b)).terms == mul_reference(a + b, a - b).terms


class TestSubstituteOracle:
    def test_cancellation_leaves_no_zero_terms(self):
        x, y, z = xyz()
        assert substitute_reference(x * z - y * z, {"x": y}).terms == {}
        assert substitute_reference(x + y, {"x": z - y}).terms == {
            (0, 0, 1): 1}

    @pytest.mark.parametrize("substitute", [substitute_reference])
    def test_unknown_variable(self, substitute):
        p = XYZ.var("x") + XYZ.const(1)
        with pytest.raises(ValueError, match="unknown variable 'w'"):
            substitute(p, {"w": 1})

    @pytest.mark.parametrize("substitute", [substitute_reference])
    def test_ring_mismatch_even_where_the_variable_is_absent(self,
                                                             substitute):
        other = PolyRing(["x", "y"])
        p = XYZ.var("y") + XYZ.const(1)
        with pytest.raises(ValueError, match="variable-list mismatch"):
            substitute(p, {"x": other.var("x")})


class TestExactDivOracle:
    """exact_div_reference, the division of the test-only Bareiss
    determinant (util.poly_det_reference)."""

    @settings(max_examples=150, deadline=None)
    @given(SEEDS)
    def test_product_divides(self, seed):
        rng = SplitMix64(seed)
        q = rand_poly(XYZ, rng, max_terms=4)
        d = rand_poly(XYZ, rng, max_terms=3)
        assume(not d.is_zero())
        assert exact_div_reference(q * d, d) == q

    @settings(max_examples=150, deadline=None)
    @given(SEEDS)
    @example(23_532_373_568_691_272)  # draws d = 0
    @example(398_388_291_152_534)  # draws d = 3/4
    def test_inexact_raises(self, seed):
        # r != 0 has lower total degree than d, so d does not divide q*d + r
        rng = SplitMix64(seed)
        q = rand_poly(XYZ, rng, max_terms=4)
        d = rand_poly(XYZ, rng, max_terms=3) + XYZ.var("x")
        # rand_poly may draw -x or -x + c, and a constant divides everything
        assume(any(map(sum, d.terms)))
        r = rand_poly(XYZ, rng, max_terms=3)
        r = XYZ.from_terms({e: c for e, c in r.terms.items()
                            if sum(e) < max(map(sum, d.terms))})
        if r.is_zero():
            r = XYZ.one()
        with pytest.raises(ValueError, match="inexact"):
            exact_div_reference(q * d + r, d)

    @pytest.mark.parametrize("div", [exact_div_reference])
    def test_division_by_zero(self, div):
        with pytest.raises(ZeroDivisionError):
            div(XYZ.var("x"), XYZ.zero())


class TestDet:
    """polyring.det, the Leibniz sum, against the Bareiss oracle."""

    def test_empty_matrix(self):
        assert det([]) == 1

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_against_bareiss(self, size):
        rng = SplitMix64(900 + size)
        for _ in range(5):
            rows = [[rand_poly(XYZ, rng, max_terms=3, max_exp=2)
                     for _ in range(size)] for _ in range(size)]
            assert det(rows) == poly_det_reference(rows)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_fraction_entries(self, size):
        # the same sum on numbers, as ``check --method gd`` runs it
        rng = SplitMix64(910 + size)
        for _ in range(5):
            rows = [[rand_fraction(rng) for _ in range(size)]
                    for _ in range(size)]
            got = det(rows)
            assert type(got) is Fraction
            assert got == poly_det_reference(
                [[XYZ.const(x) for x in row] for row in rows]).constant_term()


class TestSeriesSympyOracle:
    """series_exp(P) and series_log(1 + Q), that is the moment-cumulant
    recursion both ways, against sympy's expansion of exp(P(t x)) and
    log(1 + Q(t x)) to order t^(T+1), at t = 1."""

    @staticmethod
    def expected(fn, p, bound):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        scaled = to_sympy(p).subs({sympy.Symbol(v): t * sympy.Symbol(v)
                                   for v in p.ring.vars}, simultaneous=True)
        return sympy.series(fn(scaled), t, 0, bound + 1).removeO().subs(t, 1)

    @staticmethod
    def random_series(seed):
        """A random polynomial in 1 to 3 variables with zero constant term
        and no term above a random T in 1..5, and T."""
        rng = SplitMix64(seed)
        ring = PolyRing(["x", "y", "z"][:below(rng, 3) + 1])
        bound = below(rng, 5) + 1
        p = truncated(rand_poly(ring, rng, max_terms=4, max_exp=2), bound)
        return p - ring.const(p.constant_term()), bound

    @pytest.mark.parametrize("seed", range(950, 958))
    def test_series_exp(self, seed):
        sympy = pytest.importorskip("sympy")
        p, bound = self.random_series(seed)
        got = to_sympy(series_exp(p, bound))
        assert sympy.expand(got - self.expected(sympy.exp, p, bound)) == 0

    @pytest.mark.parametrize("seed", range(960, 968))
    def test_series_log(self, seed):
        sympy = pytest.importorskip("sympy")
        q, bound = self.random_series(seed)
        got = to_sympy(series_log(q + q.ring.one(), bound))
        expected = self.expected(lambda u: sympy.log(1 + u), q, bound)
        assert sympy.expand(got - expected) == 0


class TestExactDiv:
    def test_roundtrip(self):
        rng = SplitMix64(11)
        for _ in range(30):
            a = rand_poly(XYZ, rng, max_terms=4)
            b = rand_poly(XYZ, rng, max_terms=3)
            if b.is_zero():
                continue
            assert exact_div_reference(a * b, b) == a

    def test_inexact_raises(self):
        x, y, _ = xyz()
        with pytest.raises(ValueError, match="inexact"):
            exact_div_reference(x * x + y, x)


class TestPrimeField:
    """The primality test that admits a modulus for the modular rank."""

    def test_is_prime_known_values(self):
        assert is_prime(2) and is_prime(2 ** 31 - 1) and is_prime(2 ** 62 - 57)
        assert not is_prime(1) and not is_prime(2 ** 62 - 59)
