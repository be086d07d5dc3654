"""Exact sparse multivariate polynomial and truncated power-series arithmetic.

A polynomial is a map from exponent tuples to nonzero coefficients, tied to a
ring that fixes the ordered variable list.  Coefficients are rationals,
represented by ``fractions.Fraction`` (always in lowest terms with positive
denominator); ints are coerced to ``Fraction`` where a polynomial is built.

There is no floating point anywhere in this module.  Term order for
iteration and text serialization is graded lexicographic (total degree
first, then lexicographic with the first variable most significant), which
makes all output deterministic.

A polynomial may carry a truncation bound T: terms of total degree > T are
discarded on construction and after every operation, which turns the ring
into the quotient by the (T+1)st power of the maximal ideal.  That is the
representation used for truncated power series, and it is what
:func:`series_exp` and :func:`series_log` operate on.

Polynomials are immutable values; all operations are pure functions, so
instances can be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Union

Exponent = tuple[int, ...]
ScalarLike = Union[int, Fraction]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10**24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_ZERO = Fraction(0)


def _coerce(c: ScalarLike) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def grlex_key(e: Exponent):
    """Sort key realizing the graded lexicographic order (ascending)."""
    return (sum(e), e)


def _graded(terms: dict) -> list:
    """(exponent, coefficient, total degree) for each term."""
    return [(e, c, sum(e)) for e, c in terms.items()]


def _accumulate(out: dict, shift: Exponent, c: Fraction, graded: list,
                room: int | None) -> None:
    """out += c * x^shift * (the graded terms of degree <= room), summing
    Fractions only; a sum may reach zero and stays in ``out``."""
    get = out.get
    for e, v, deg in graded:
        if room is not None and deg > room:
            continue
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

    def zero(self, trunc: int | None = None) -> "Polynomial":
        return Polynomial(self, {}, trunc)

    def one(self, trunc: int | None = None) -> "Polynomial":
        return self.const(1, trunc)

    def const(self, c: ScalarLike, trunc: int | None = None) -> "Polynomial":
        return self.monomial(self._zero_exp, c, trunc)

    def var(self, name: str, trunc: int | None = None) -> "Polynomial":
        i = self.var_index(name)
        e = list(self._zero_exp)
        e[i] = 1
        return Polynomial(self, {tuple(e): Fraction(1)}, trunc)

    def monomial(self, exponent: Exponent, c: ScalarLike = 1,
                 trunc: int | None = None) -> "Polynomial":
        if len(exponent) != len(self.vars):
            raise ValueError("exponent length does not match variable count")
        c = _coerce(c)
        return Polynomial(self, {tuple(exponent): c} if c else {}, trunc)

    def from_terms(self, terms: Mapping[Exponent, ScalarLike],
                   trunc: int | None = None) -> "Polynomial":
        clean = {}
        for e, c in terms.items():
            if c:
                clean[tuple(e)] = _coerce(c)
        return Polynomial(self, clean, trunc)


class Polynomial:
    """Immutable sparse polynomial, optionally truncated at total degree T."""

    __slots__ = ("ring", "terms", "trunc")

    def __init__(self, ring: PolyRing, terms: dict, trunc: int | None = None):
        if trunc is not None:
            terms = {e: c for e, c in terms.items() if sum(e) <= trunc}
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = self.ring.var_index(name)
        return max((e[i] for e in self.terms), default=-1)

    def coefficient(self, exponent: Exponent) -> Fraction:
        return self.terms.get(tuple(exponent), _ZERO)

    def constant_term(self) -> Fraction:
        return self.terms.get(self.ring._zero_exp, _ZERO)

    def sorted_terms(self, reverse: bool = True):
        """Terms in graded-lex order; ``reverse=True`` puts the leading term first."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]),
                      reverse=reverse)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.ring.vars != other.ring.vars:
            raise ValueError("variable-list mismatch between polynomial operands")

    @staticmethod
    def _merge_trunc(a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

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
        return Polynomial(self.ring, out, self._merge_trunc(self.trunc, other.trunc))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()},
                          self.trunc)

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
        trunc = self._merge_trunc(self.trunc, other.trunc)
        out: dict = {}
        graded = _graded(other.terms)
        for ea, ca in self.terms.items():
            _accumulate(out, ea, ca, graded,
                        None if trunc is None else trunc - sum(ea))
        return Polynomial(self.ring, _nonzero(out), trunc)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c: ScalarLike) -> "Polynomial":
        c = _coerce(c)
        if not c:
            return Polynomial(self.ring, {}, self.trunc)
        return Polynomial(self.ring, {e: v * c for e, v in self.terms.items()},
                          self.trunc)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one(self.trunc)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if self.ring._zero_exp in self.terms or not self.terms:
                return self == self.ring.const(other)
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None

    # -- calculus and evaluation -------------------------------------------

    def differentiate(self, name: str) -> "Polynomial":
        """Formal partial derivative; the truncation bound is preserved."""
        i = self.ring.var_index(name)
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                d = list(e)
                d[i] = k - 1
                out[tuple(d)] = c * k
        return Polynomial(self.ring, out, self.trunc)

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

    def substitute(self, mapping: Mapping[str, "Polynomial | ScalarLike"]) -> "Polynomial":
        """Substitute polynomials (or scalars) for a subset of the variables.

        Substituted polynomials must live in the same ring.  Variables not in
        ``mapping`` are left alone.  The result is truncated at the least of
        ``self.trunc`` and the bounds of those substituted polynomials whose
        variable occurs in some term; if no substituted variable occurs in
        any term, the result is ``self``.
        """
        ring = self.ring
        subs: dict[int, Polynomial | Fraction] = {}
        for name, val in mapping.items():
            i = ring.var_index(name)
            if isinstance(val, Polynomial):
                self._check_compatible(val)
                subs[i] = val
            else:
                subs[i] = _coerce(val)
        live = [i for i in subs if any(e[i] for e in self.terms)]
        if not live:
            return self
        trunc = self.trunc
        for i in live:
            if isinstance(subs[i], Polynomial):
                trunc = self._merge_trunc(trunc, subs[i].trunc)
        # powers of the substituted polynomials in a term -> their product
        factors: dict[tuple, list] = {}
        out: dict = {}
        for e, c in self.terms.items():
            rest = list(e)
            powers = []
            for i in live:
                k = e[i]
                if k:
                    rest[i] = 0
                    val = subs[i]
                    if isinstance(val, Polynomial):
                        powers.append((i, k))
                    else:
                        c = c * val ** k
            room = None if trunc is None else trunc - sum(rest)
            if not c or (room is not None and room < 0):
                continue
            if not powers:
                t = tuple(rest)
                old = out.get(t)
                out[t] = c if old is None else old + c
                continue
            key = tuple(powers)
            graded = factors.get(key)
            if graded is None:
                factor = None
                for i, k in powers:
                    q = subs[i] if k == 1 else subs[i] ** k
                    factor = q if factor is None else factor * q
                graded = factors[key] = _graded(factor.terms)
            _accumulate(out, rest, c, graded, room)
        return Polynomial(ring, _nonzero(out), trunc)

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        """Canonical text form: graded-lex order, ``coeff*var^e`` syntax."""
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.ring.vars, e) if k)
            neg = c < 0
            a = -c if neg else c
            if not mono:
                body = str(a)
            elif a == 1:
                body = mono
            else:
                body = f"{a}*{mono}"
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self):  # pragma: no cover
        t = f", trunc={self.trunc}" if self.trunc is not None else ""
        return f"<Polynomial {self}{t}>"


# -- truncated power series ------------------------------------------------


def series_exp(p: Polynomial) -> Polynomial:
    """exp of a truncated series: sum of p^j / j! for j = 0..T.

    Requires a zero constant term and a truncation bound T.
    """
    if p.trunc is None:
        raise ValueError("series_exp requires a truncation bound")
    if p.constant_term():
        raise ValueError("series_exp requires a zero constant term")
    acc = p.ring.one(p.trunc)
    term = p.ring.one(p.trunc)
    for j in range(1, p.trunc + 1):
        term = (term * p).scale(Fraction(1, j))
        if term.is_zero():
            break
        acc = acc + term
    return acc


def series_log(p: Polynomial) -> Polynomial:
    """log of a truncated series: sum of (-1)^(j+1) (p-1)^j / j for j = 1..T.

    Requires constant term 1 and a truncation bound T.
    """
    if p.trunc is None:
        raise ValueError("series_log requires a truncation bound")
    if p.constant_term() != 1:
        raise ValueError("series_log requires constant term 1")
    q = p - p.ring.one(p.trunc)
    acc = p.ring.zero(p.trunc)
    power = p.ring.one(p.trunc)
    for j in range(1, p.trunc + 1):
        power = power * q
        if power.is_zero():
            break
        term = power.scale(Fraction(1, j))
        acc = acc + term if j % 2 else acc - term
    return acc


def exact_div(num: Polynomial, den: Polynomial) -> Polynomial:
    """Exact polynomial division: returns q with num = q * den.

    Raises ``ValueError`` if den does not divide num and
    ``ZeroDivisionError`` if den is zero.  Used by fraction-free
    elimination, where divisibility is guaranteed; works with any monomial
    order, here grlex.  The remainder is one dict from which c * x^e * den
    is subtracted term by term.  As a truncated difference would, the first
    subtraction also drops the terms of num above the smaller bound of the
    two operands.
    """
    num._check_compatible(den)
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    den_lead, den_lc = max(den.terms.items(), key=lambda t: grlex_key(t[0]))
    trunc = num._merge_trunc(num.trunc, den.trunc)
    cut = trunc is not None and trunc != num.trunc
    rem = dict(num.terms)
    q_terms: dict = {}
    while rem:
        lead = max(rem, key=grlex_key)
        e = tuple(a - b for a, b in zip(lead, den_lead))
        if any(k < 0 for k in e):
            raise ValueError("inexact polynomial division")
        c = rem[lead] / den_lc
        q_terms[e] = c
        for ed, cd in den.terms.items():
            t = tuple(map(add, ed, e))
            if trunc is not None and sum(t) > trunc:
                continue
            v = rem.get(t)
            v = -(c * cd) if v is None else v - c * cd
            if v:
                rem[t] = v
            else:
                rem.pop(t, None)
        if cut:
            rem = {t: v for t, v in rem.items() if sum(t) <= trunc}
            cut = False
    return num.ring.from_terms(q_terms)
