"""Moments of Gaussians and Gaussian mixtures, exactly.

Moments are indexed by multi-indices (i_1, ..., i_n) of total order <= d and
are generated by one recursion, the multivariate form of the three-term
recursion m_i = mu*m_{i-1} + (i-1)*var*m_{i-2}:

    m_{a+e_i} = mu_i m_a + sum_j a_j sigma_ij m_{a-e_j}.

It runs on Fractions for exact moments and on Polynomials for the symbolic
moment polynomials; the secant Jacobian runs it in residues mod p.  The
recovery equations need only the third moments, which ``recovery._third``
writes out in closed form.  Mixture moments are the weighted sum of
component moments.

All values are rationals in the affine chart where the order-zero moment is 1.
Cumulants are the coefficients of the log of the moment generating function,
times a!.  Differentiating M = exp(K) gives d_i M = (d_i K) M, and so the
moment-cumulant recursion

    m_{b+e_i} = sum_{c <= b} binom(b, c) kappa_{c+e_i} m_{b-c},

with binom(b, c) the product of the binomials binom(b_j, c_j).  It runs in
graded-lex order both ways, from cumulants to moments and, solved for its
c = b term kappa_{b+e_i}, from moments to cumulants.  A single Gaussian is
characterized by the vanishing of every cumulant of order 3..d.

Multi-index enumeration is graded lexicographic (total order ascending, then
tuple-lexicographic with the first index most significant), fixed so that
serialized output is reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

from .polyring import PolyRing, _coerce

Index = tuple[int, ...]


# -- multi-index bookkeeping -------------------------------------------------


@lru_cache(maxsize=None)
def _multi_indices_cached(n: int, d: int, min_order: int) -> tuple[Index, ...]:
    out: list[Index] = []

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    for order in range(min_order, d + 1):
        rec([], order, n)
    return tuple(out)


def multi_indices(n: int, d: int, min_order: int = 0) -> list[Index]:
    """All multi-indices with min_order <= total order <= d, graded-lex."""
    if n < 1:
        raise ValueError("multi_indices requires n >= 1")
    return list(_multi_indices_cached(n, d, min_order))


# -- parameter and vector types ----------------------------------------------


@dataclass(frozen=True)
class GaussianParams:
    """Mean vector and symmetric covariance, stored as the upper triangle.

    No positive-definiteness is required: the varieties are Zariski closures
    and the parameters range over all of affine space.
    """

    mean: tuple[Fraction, ...]
    cov_upper: tuple[Fraction, ...]  # row-major (i, j) with i <= j, 0-based

    def __post_init__(self):
        n = len(self.mean)
        if n < 1:
            raise ValueError("mean must have at least one entry")
        if len(self.cov_upper) != n * (n + 1) // 2:
            raise ValueError("covariance upper triangle has wrong length")
        object.__setattr__(self, "mean", tuple(_coerce(x) for x in self.mean))
        object.__setattr__(self, "cov_upper",
                           tuple(_coerce(x) for x in self.cov_upper))

    @property
    def n(self) -> int:
        return len(self.mean)

    def sigma(self, i: int, j: int) -> Fraction:
        """Covariance entry, 0-based indices in any order."""
        return self.cov_upper[sigma_var_index(self.n, i, j) - self.n]


@dataclass(frozen=True)
class MixtureParams:
    """k Gaussian components with rational weights summing to one."""

    components: tuple[GaussianParams, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "weights",
                           tuple(_coerce(w) for w in self.weights))
        if len(self.components) != len(self.weights):
            raise ValueError("one weight per component required")
        if not self.components:
            raise ValueError("empty components list")
        n = self.components[0].n
        if any(c.n != n for c in self.components):
            raise ValueError("dimension mismatch among components")
        if sum(self.weights) != 1:
            raise ValueError("weights must sum to 1 exactly")

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def n(self) -> int:
        return self.components[0].n


@dataclass(frozen=True)
class MomentVector:
    """All moments of order <= d in the affine chart m_{0...0} = 1."""

    n: int
    d: int
    values: dict  # Index -> Fraction

    def __post_init__(self):
        if self.d < 0:
            raise ValueError(f"moment order d must be at least 0, not {self.d}")
        idxs = multi_indices(self.n, self.d)
        if set(self.values) != set(idxs):
            raise ValueError(
                f"moment vector must have exactly {len(idxs)} entries "
                f"(orders 0..{self.d})")
        vals = {i: _coerce(self.values[i]) for i in idxs}
        if vals[(0,) * self.n] != 1:
            raise ValueError("chart violation: the order-zero moment must be 1")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, idx: Index) -> Fraction:
        return self.values[tuple(idx)]

    def items(self):
        for idx in multi_indices(self.n, self.d):
            yield idx, self.values[idx]

    def restrict(self, positions: tuple[int, ...]) -> "MomentVector":
        """Moments of the marginal on the given 0-based coordinate subset."""
        if len(set(positions)) != len(positions):
            raise ValueError("restriction positions must be distinct")
        sub_n = len(positions)
        out = {}
        for sub in multi_indices(sub_n, self.d):
            full = [0] * self.n
            for t, pos in enumerate(positions):
                full[pos] = sub[t]
            out[sub] = self.values[tuple(full)]
        return MomentVector(sub_n, self.d, out)


@dataclass(frozen=True)
class CumulantVector:
    """Cumulants of order 1..d; for a single Gaussian, orders 3..d vanish."""

    n: int
    d: int
    values: dict  # Index -> Fraction, total order >= 1

    def __post_init__(self):
        idxs = multi_indices(self.n, self.d, min_order=1)
        if set(self.values) != set(idxs):
            raise ValueError("cumulant vector must cover orders 1..d exactly")
        object.__setattr__(
            self, "values", {i: _coerce(self.values[i]) for i in idxs})

    def __getitem__(self, idx: Index) -> Fraction:
        return self.values[tuple(idx)]


# -- the moment recursion -------------------------------------------------------


def gaussian_moment_table(mean, sigma, d: int, one) -> dict:
    """Every moment m_a of order <= d of one Gaussian, by the recursion
    m_{b+e_i} = mean_i m_b + sum_j b_j sigma(i, j) m_{b-e_j}.

    ``mean`` is a sequence, ``sigma`` a callable on 0-based index pairs and
    ``one`` the order-zero moment.  Only ``+``, ``*`` and small-int scalars
    are used, so entries may be Fractions, ints or Polynomials.  The result
    maps each multi-index to its moment in graded-lex order.  (The secant
    Jacobian runs the same recursion in residues mod p, on all components
    at once: ``secant._moment_residues``.)
    """
    n = len(mean)
    table = {}
    for a in multi_indices(n, d):
        i = next((i for i, v in enumerate(a) if v), None)
        if i is None:
            table[a] = one
            continue
        b = lower_index(a, i)
        acc = mean[i] * table[b]
        for j, v in enumerate(b):
            if v:
                acc = acc + v * sigma(i, j) * table[lower_index(b, j)]
        table[a] = acc
    return table


def lower_index(a: Index, i: int) -> Index:
    """The multi-index a - e_i."""
    return a[:i] + (a[i] - 1,) + a[i + 1:]


# -- operations ---------------------------------------------------------------


def parameter_ring(n: int) -> PolyRing:
    """Q[mu_1..mu_n, sigma_ij (i <= j)] with the fixed variable order."""
    names = [f"mu{i}" for i in range(1, n + 1)]
    names += [f"s{i}_{j}" for i in range(1, n + 1) for j in range(i, n + 1)]
    return PolyRing(names)


def sigma_var_index(n: int, i, j):
    """Position of sigma_ij = sigma_ji in the parameter ring, 0-based.  It
    is the upper-triangle position of (min, max) after the n means, and
    works elementwise when i and j are int arrays."""
    lo = (i + j - abs(i - j)) // 2
    hi = (i + j + abs(i - j)) // 2
    return n + lo * n - lo * (lo - 1) // 2 + (hi - lo)


@lru_cache(maxsize=None)
def moment_polynomials(n: int, d: int) -> dict:
    """Each moment of order <= d as a polynomial in mean/covariance entries:
    the moment table over the variables of :func:`parameter_ring`.
    The returned mapping is cached and shared; do not mutate it.
    """
    if n < 1 or d < 1:
        raise ValueError("moment_polynomials requires n >= 1 and d >= 1")
    ring = parameter_ring(n)
    mean = [ring.var(v) for v in ring.vars[:n]]
    return gaussian_moment_table(
        mean, lambda i, j: ring.var(ring.vars[sigma_var_index(n, i, j)]), d,
        ring.one())


def mixture_moments(params: MixtureParams, d: int) -> MomentVector:
    """Exact moments of order <= d of the mixture: the weighted sum of the
    component moment tables."""
    values = dict.fromkeys(multi_indices(params.n, d), Fraction(0))
    for w, comp in zip(params.weights, params.components):
        table = gaussian_moment_table(comp.mean, comp.sigma, d, Fraction(1))
        for idx, v in table.items():
            values[idx] += w * v
    return MomentVector(params.n, d, values)


def univariate_moments(mu, var, d: int) -> MomentVector:
    """Moments of N(mu, var) on the line: the n = 1 moment table, i.e. the
    three-term recursion m_i = mu*m_{i-1} + (i-1)*var*m_{i-2}, which is
    exactly the column-(1,2,i) minor relation of the moment matrix.
    O(d) arithmetic."""
    var = _coerce(var)
    return MomentVector(1, d, gaussian_moment_table(
        (_coerce(mu),), lambda i, j: var, d, Fraction(1)))


def _recursion_terms(a: Index):
    """The terms of the moment-cumulant recursion for m_a, a of order >= 1:
    (binom(b, c), c + e_i, b - c) for each c <= b, with i the first nonzero
    coordinate of a and b = a - e_i.  The term c = b is (1, a, 0)."""
    i = next(i for i, v in enumerate(a) if v)
    b = lower_index(a, i)
    for c in product(*(range(v + 1) for v in b)):
        coef = 1
        for bj, cj in zip(b, c):
            coef *= comb(bj, cj)
        yield (coef, c[:i] + (c[i] + 1,) + c[i + 1:],
               tuple(bj - cj for bj, cj in zip(b, c)))


def moments_to_cumulants(m: MomentVector) -> CumulantVector:
    """Cumulants by the moment-cumulant recursion, solved for kappa_a."""
    mv, kappa = m.values, {}
    for a in multi_indices(m.n, m.d, min_order=1):
        kappa[a] = mv[a] - sum(coef * kappa[k] * mv[r]
                               for coef, k, r in _recursion_terms(a) if k != a)
    return CumulantVector(m.n, m.d, kappa)


def cumulants_to_moments(c: CumulantVector) -> MomentVector:
    """Moments by the moment-cumulant recursion."""
    kappa, m = c.values, {(0,) * c.n: Fraction(1)}
    for a in multi_indices(c.n, c.d, min_order=1):
        m[a] = sum(coef * kappa[k] * m[r] for coef, k, r in _recursion_terms(a))
    return MomentVector(c.n, c.d, m)


# -- JSON shapes ---------------------------------------------------------------


def _vector_json(n: int, d: int, items) -> dict:
    """The JSON shape of moment and cumulant vectors, from the (index,
    value) pairs in graded-lex order."""
    return {
        "n": n,
        "d": d,
        "values": [
            {"idx": list(idx), "num": v.numerator, "den": v.denominator}
            for idx, v in items
        ],
    }


def moment_vector_to_json(m: MomentVector) -> dict:
    return _vector_json(m.n, m.d, m.items())


def _json_object(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise ValueError(f"{what} must be a JSON object")
    return x


def _json_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a JSON list")
    return x


# a decimal exponent, as Fraction reads one ('1e5', '2.5E-3'): Fraction
# expands it into an exact power of ten, so a short text can take minutes
DECIMAL_EXPONENT = re.compile(r"[\d.][eE]")


def _json_rational(x, what: str) -> Fraction:
    text = str(x)
    if DECIMAL_EXPONENT.search(text):
        raise ValueError(f"{what} {text!r} has a decimal exponent; write it "
                         "as a/b or as a decimal")
    return Fraction(text)


def _json_int(x, what: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{what} must be an integer, not {x!r}")
    return x


def moment_vector_from_json(data) -> MomentVector:
    data = _json_object(data, "a moment vector")
    n, d = _json_int(data.get("n"), "n"), _json_int(data.get("d"), "d")
    if n < 1:
        raise ValueError(f"n must be at least 1, not {n}")
    if d < 1:
        raise ValueError(f"d must be at least 1, not {d}")
    values = {}
    for entry in _json_list(data.get("values"), "values"):
        entry = _json_object(entry, "each values entry")
        idx = tuple(_json_int(i, "idx entry")
                    for i in _json_list(entry.get("idx"), "idx"))
        if len(idx) != n:
            raise ValueError(f"idx {list(idx)} must have length n = {n}")
        if idx in values:
            raise ValueError(f"duplicate idx {list(idx)}")
        num = _json_int(entry.get("num"), "num")
        den = _json_int(entry.get("den"), "den")
        if den == 0:
            raise ValueError(f"den is 0 at idx {list(idx)}")
        values[idx] = Fraction(num, den)
    return MomentVector(n, d, values)


def cumulant_vector_to_json(c: CumulantVector) -> dict:
    # __post_init__ keys the values in graded-lex order
    return _vector_json(c.n, c.d, c.values.items())


def mixture_params_to_json(p: MixtureParams) -> dict:
    return {
        "n": p.n,
        "k": p.k,
        "components": [
            {
                "weight": str(w),
                "mean": [str(x) for x in c.mean],
                "cov": [str(x) for x in c.cov_upper],
            }
            for w, c in zip(p.weights, p.components)
        ],
    }


def mixture_params_from_json(data) -> MixtureParams:
    """Mixture parameters from JSON.  The top-level ``n`` and ``k`` are
    optional; when present they must be integers that match the
    components."""
    data = _json_object(data, "mixture parameters")
    declared = {key: _json_int(data[key], key) for key in ("n", "k")
                if key in data}
    comps = []
    weights = []
    raw = _json_list(data.get("components", []), "components")
    if not raw:
        raise ValueError("empty components list")
    for pos, entry in enumerate(raw):
        entry = _json_object(entry, "each components entry")
        for key in ("weight", "mean", "cov"):
            if key not in entry:
                raise ValueError(f"components[{pos}] has no {key!r} key")
        weights.append(_json_rational(entry["weight"], "weight"))
        comps.append(GaussianParams(
            tuple(_json_rational(x, "mean entry")
                  for x in _json_list(entry["mean"], "mean")),
            tuple(_json_rational(x, "cov entry")
                  for x in _json_list(entry["cov"], "cov")),
        ))
    params = MixtureParams(tuple(comps), tuple(weights))
    if declared.get("n", params.n) != params.n:
        raise ValueError(f"n = {declared['n']}, but the components have "
                         f"dimension {params.n}")
    if declared.get("k", params.k) != params.k:
        raise ValueError(f"k = {declared['k']}, but there are {params.k} "
                         "components")
    return params
