"""Exact sparse multivariate polynomial arithmetic.

A polynomial is a map from exponent tuples to nonzero coefficients, tied to a
ring that fixes the ordered variable list.  Coefficients are rationals,
represented by ``fractions.Fraction`` (always in lowest terms with positive
denominator); ints are coerced to ``Fraction`` where a polynomial is built.
The package uses it for the symbolic moment polynomials
(``moments.moment_polynomials``) and for the recovery's arithmetic over
Q[b2, b3]; a polynomial is evaluated exactly, never printed.

There is no floating point anywhere in this module.

Polynomials are immutable values; all operations are pure functions, so
instances can be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import prod
from operator import add
from typing import Iterable, Mapping, Union

Exponent = tuple[int, ...]
ScalarLike = Union[int, Fraction]

_ZERO = Fraction(0)


def _coerce(c: ScalarLike) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def _accumulate(out: dict, shift: Exponent, c: Fraction, terms) -> None:
    """out += c * x^shift * (the (exponent, coefficient) pairs of terms),
    summing Fractions only; a sum may reach zero and stays in ``out``."""
    get = out.get
    for e, v in terms:
        t = tuple(map(add, shift, e))
        old = get(t)
        out[t] = c * v if old is None else old + c * v


def _nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


class PolyRing:
    """A polynomial ring over the rationals: an ordered tuple of variable names."""

    def __init__(self, variables: Iterable[str]):
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")
        self._index = {v: i for i, v in enumerate(self.vars)}
        self._zero_exp = (0,) * len(self.vars)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.vars == self.vars

    def __hash__(self):
        return hash(self.vars)

    def __repr__(self):  # pragma: no cover
        return f"PolyRing({list(self.vars)})"

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: ScalarLike) -> "Polynomial":
        return self.monomial(self._zero_exp, c)

    def var(self, name: str) -> "Polynomial":
        i = self.var_index(name)
        e = list(self._zero_exp)
        e[i] = 1
        return Polynomial(self, {tuple(e): Fraction(1)})

    def monomial(self, exponent: Exponent, c: ScalarLike = 1) -> "Polynomial":
        if len(exponent) != len(self.vars):
            raise ValueError("exponent length does not match variable count")
        c = _coerce(c)
        return Polynomial(self, {tuple(exponent): c} if c else {})

    def from_terms(self, terms: Mapping[Exponent, ScalarLike]) -> "Polynomial":
        clean = {}
        for e, c in terms.items():
            if c:
                clean[tuple(e)] = _coerce(c)
        return Polynomial(self, clean)


class Polynomial:
    """Immutable sparse polynomial."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get(self.ring._zero_exp, _ZERO)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.ring.vars != other.ring.vars:
            raise ValueError("variable-list mismatch between polynomial operands")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_compatible(other)
        out: dict = {}
        terms = list(other.terms.items())
        for ea, ca in self.terms.items():
            _accumulate(out, ea, ca, terms)
        return Polynomial(self.ring, _nonzero(out))

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c: ScalarLike) -> "Polynomial":
        c = _coerce(c)
        if not c:
            return Polynomial(self.ring, {})
        return Polynomial(self.ring, {e: v * c for e, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if self.ring._zero_exp in self.terms or not self.terms:
                return self == self.ring.const(other)
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Mapping[str, ScalarLike]) -> Fraction:
        """Exact evaluation; ``point`` must assign every ring variable."""
        vals = []
        for v in self.ring.vars:
            if v not in point:
                raise ValueError(f"missing assignment for variable {v!r}")
            vals.append(_coerce(point[v]))
        acc = _ZERO
        for e, c in self.terms.items():
            t = c
            for i, k in enumerate(e):
                if k:
                    t = t * vals[i] ** k
            acc = acc + t
        return acc


def det(rows):
    """Determinant of a square matrix: the Leibniz sum of k! signed
    products, with no division (1 for the 0 x 0 matrix).  It uses only +,
    - and *, so the entries may be Fractions or polynomials of one ring.
    The matrices here are at most 3 x 3."""
    out = 0
    for perm in permutations(range(len(rows))):
        term = prod(rows[r][i] for r, i in enumerate(perm))
        odd = sum(a > b for a, b in combinations(perm, 2)) % 2
        out = out - term if odd else out + term
    return out
