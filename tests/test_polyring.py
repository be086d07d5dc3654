"""Exact polynomial and truncated-series arithmetic."""

from fractions import Fraction

import pytest

from gaussmoments.polyring import (PolyRing, exact_div, is_prime, series_exp,
                                   series_log)
from gaussmoments.rng import SplitMix64
from util import rand_poly

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
