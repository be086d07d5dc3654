"""Moments of Gaussians and Gaussian mixtures, exactly.

Moments are indexed by multi-indices (i_1, ..., i_n) of total order <= d and
are generated in three independent ways that the test suite plays against
each other:

* symbolically, as polynomials in the mean and covariance entries, by
  extracting t-coefficients from the moment generating function
  exp(sum t_i mu_i) * exp(1/2 sum sigma_ij t_i t_j);
* numerically for mixtures, as the weighted sum of component moments; and
* for n = 1, by the three-term recursion m_i = mu*m_{i-1} + (i-1)*var*m_{i-2},
  which costs O(d) ring operations.

All values are rationals in the affine chart where the order-zero moment is 1.
Cumulant vectors are obtained through log of the moment generating function
and back through exp; a single Gaussian is characterized by the vanishing of
every cumulant of order 3..d.

Multi-index enumeration is graded lexicographic (total order ascending, then
tuple-lexicographic with the first index most significant), fixed so that
serialized output is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .polyring import PolyRing, series_exp, series_log

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


def index_factorial(idx: Index) -> int:
    f = 1
    for i in idx:
        f *= factorial(i)
    return f


def moment_count(n: int, d: int) -> int:
    """Number of moments of order <= d, i.e. N + 1 = binom(n+d, d)."""
    return comb(n + d, d)


# -- parameter and vector types ----------------------------------------------


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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
        if len(self.cov_upper) != n * (n + 1) // 2:
            raise ValueError("covariance upper triangle has wrong length")
        object.__setattr__(self, "mean", tuple(_frac(x) for x in self.mean))
        object.__setattr__(self, "cov_upper",
                           tuple(_frac(x) for x in self.cov_upper))

    @property
    def n(self) -> int:
        return len(self.mean)

    def sigma(self, i: int, j: int) -> Fraction:
        """Covariance entry, 0-based indices in any order."""
        if i > j:
            i, j = j, i
        n = self.n
        return self.cov_upper[i * n - i * (i - 1) // 2 + (j - i)]


@dataclass(frozen=True)
class MixtureParams:
    """k Gaussian components with rational weights summing to one."""

    components: tuple[GaussianParams, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "weights",
                           tuple(_frac(w) for w in self.weights))
        if len(self.components) != len(self.weights):
            raise ValueError("one weight per component required")
        if not self.components:
            raise ValueError("empty components list")
        n = self.components[0].n
        if any(c.n != n for c in self.components):
            raise ValueError("dimension mismatch among components")
        if sum(self.weights) != 1:
            raise ValueError("weights must sum to 1 exactly")

    @classmethod
    def from_free_weights(cls, components, free_weights) -> "MixtureParams":
        """Construct from k-1 free weights; the last is 1 minus their sum."""
        free = [_frac(w) for w in free_weights]
        return cls(tuple(components), tuple(free + [1 - sum(free)]))

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
        idxs = multi_indices(self.n, self.d)
        if set(self.values) != set(idxs):
            raise ValueError(
                f"moment vector must have exactly {len(idxs)} entries "
                f"(orders 0..{self.d})")
        vals = {i: _frac(self.values[i]) for i in idxs}
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
            self, "values", {i: _frac(self.values[i]) for i in idxs})

    def __getitem__(self, idx: Index) -> Fraction:
        return self.values[tuple(idx)]

    def max_nonzero_order(self) -> int:
        return max((sum(i) for i, v in self.values.items() if v != 0),
                   default=0)


# -- the pairing expansion of a single Gaussian moment ------------------------


def _pair_patterns(idx: Index):
    """All (k, q) splittings of the multi-index into singletons and pairs.

    Yields (coeff, k, q) with coeff the integer multinomial weight, k a dict
    position -> singleton count, q a dict (a, b), a <= b -> pair count.  These
    are exactly the terms of the t-coefficient of the Gaussian moment
    generating function, scaled by i_1! ... i_n!.
    """
    supp = [a for a, v in enumerate(idx) if v]
    pairs = [(a, b) for t, a in enumerate(supp) for b in supp[t:]]

    def rec(p: int, rem: dict, q: dict):
        if p == len(pairs):
            coeff = Fraction(index_factorial(idx))
            for a, r in rem.items():
                coeff /= factorial(r)
            for (a, b), m in q.items():
                coeff /= factorial(m)
                if a == b:
                    coeff /= 2 ** m
            assert coeff.denominator == 1
            yield int(coeff), dict(rem), dict(q)
            return
        a, b = pairs[p]
        top = rem[a] // 2 if a == b else min(rem[a], rem[b])
        for m in range(top + 1):
            if m:
                q[(a, b)] = m
                rem[a] -= 2 * m if a == b else m
                if a != b:
                    rem[b] -= m
            yield from rec(p + 1, rem, q)
            if m:
                rem[a] += 2 * m if a == b else m
                if a != b:
                    rem[b] += m
                del q[(a, b)]

    yield from rec(0, {a: idx[a] for a in supp}, {})


def gaussian_moment_expr(idx: Index, mean, sigma, zero):
    """The moment m_idx as an expression in given mean/covariance entries.

    ``mean`` is a sequence, ``sigma`` a callable on 0-based index pairs.
    Entries may be Fractions or ring elements supporting + and *; ``zero`` is
    the additive identity to start from.  Used both for exact numeric moments
    and, in the recovery module, with polynomial-valued parameters.
    """
    acc = zero
    for coeff, k, q in _pair_patterns(idx):
        term = None
        for a, e in k.items():
            for _ in range(e):
                term = mean[a] if term is None else term * mean[a]
        for (a, b), e in q.items():
            s = sigma(a, b)
            for _ in range(e):
                term = s if term is None else term * s
        acc = acc + (coeff if term is None else coeff * term)
    return acc


def gaussian_moment(params: GaussianParams, idx: Index) -> Fraction:
    return gaussian_moment_expr(idx, params.mean, params.sigma, Fraction(0))


# -- operations ---------------------------------------------------------------


def parameter_ring(n: int) -> PolyRing:
    """Q[mu_1..mu_n, sigma_ij (i <= j)] with the fixed variable order."""
    names = [f"mu{i}" for i in range(1, n + 1)]
    names += [f"s{i}_{j}" for i in range(1, n + 1) for j in range(i, n + 1)]
    return PolyRing(names)


def sigma_var_index(n: int, i: int, j: int) -> int:
    """Position of sigma_ij in the parameter ring, 0-based i <= j."""
    if i > j:
        i, j = j, i
    return n + i * n - i * (i - 1) // 2 + (j - i)


@lru_cache(maxsize=None)
def moment_polynomials(n: int, d: int) -> dict:
    """Each moment of order <= d as a polynomial in mean/covariance entries.

    Coefficients come from expanding the moment generating function to total
    degree d in the t's and scaling the coefficient of t^idx by idx!.
    The returned mapping is cached and shared; do not mutate it.
    """
    if n < 1 or d < 1:
        raise ValueError("moment_polynomials requires n >= 1 and d >= 1")
    ring = parameter_ring(n)
    width = len(ring.vars)
    out = {}
    for idx in multi_indices(n, d):
        terms = {}
        for coeff, k, q in _pair_patterns(idx):
            e = [0] * width
            for a, v in k.items():
                e[a] = v
            for (a, b), v in q.items():
                e[sigma_var_index(n, a, b)] = v
            terms[tuple(e)] = Fraction(coeff)
        out[idx] = ring.from_terms(terms)
    return out


def mixture_moments(params: MixtureParams, d: int) -> MomentVector:
    """Exact moments of order <= d of the mixture: the weighted sum of the
    component moments."""
    values = {}
    for idx in multi_indices(params.n, d):
        acc = Fraction(0)
        for w, comp in zip(params.weights, params.components):
            acc += w * gaussian_moment(comp, idx)
        values[idx] = acc
    return MomentVector(params.n, d, values)


def gaussian_moments(params: GaussianParams, d: int) -> MomentVector:
    """Moments of a single Gaussian (the k = 1 mixture)."""
    return mixture_moments(MixtureParams((params,), (Fraction(1),)), d)


def univariate_moments(mu, var, d: int) -> MomentVector:
    """Moments of N(mu, var) on the line by the three-term recursion
    m_i = mu*m_{i-1} + (i-1)*var*m_{i-2}, which is exactly the column-(1,2,i)
    minor relation of the moment matrix.  O(d) arithmetic."""
    mu, var = _frac(mu), _frac(var)
    vals = [Fraction(1)]
    if d >= 1:
        vals.append(mu)
    for i in range(2, d + 1):
        vals.append(mu * vals[i - 1] + (i - 1) * var * vals[i - 2])
    return MomentVector(1, d, {(i,): v for i, v in enumerate(vals)})


def _t_ring(n: int, d: int) -> PolyRing:
    return PolyRing([f"t{i}" for i in range(1, n + 1)])


def moments_to_cumulants(m: MomentVector) -> CumulantVector:
    """Cumulants via log of the moment generating function."""
    ring = _t_ring(m.n, m.d)
    series = ring.from_terms(
        {idx: v / index_factorial(idx) for idx, v in m.values.items()},
        trunc=m.d)
    logk = series_log(series)
    values = {idx: logk.coefficient(idx) * index_factorial(idx)
              for idx in multi_indices(m.n, m.d, min_order=1)}
    return CumulantVector(m.n, m.d, values)


def cumulants_to_moments(c: CumulantVector) -> MomentVector:
    """Moments via exp of the cumulant generating function."""
    ring = _t_ring(c.n, c.d)
    series = ring.from_terms(
        {idx: v / index_factorial(idx) for idx, v in c.values.items()},
        trunc=c.d)
    expm = series_exp(series)
    values = {idx: expm.coefficient(idx) * index_factorial(idx)
              for idx in multi_indices(c.n, c.d)}
    return MomentVector(c.n, c.d, values)


# -- JSON shapes ---------------------------------------------------------------


def moment_vector_to_json(m: MomentVector) -> dict:
    return {
        "n": m.n,
        "d": m.d,
        "values": [
            {"idx": list(idx), "num": v.numerator, "den": v.denominator}
            for idx, v in m.items()
        ],
    }


def _json_object(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise ValueError(f"{what} must be a JSON object")
    return x


def _json_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a JSON list")
    return x


def _json_int(x, what: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{what} must be an integer, not {x!r}")
    return x


def moment_vector_from_json(data) -> MomentVector:
    data = _json_object(data, "a moment vector")
    n, d = _json_int(data.get("n"), "n"), _json_int(data.get("d"), "d")
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
    values = []
    for idx in multi_indices(c.n, c.d, min_order=1):
        v = c.values[idx]
        values.append({"idx": list(idx), "num": v.numerator,
                       "den": v.denominator})
    return {"n": c.n, "d": c.d, "values": values}


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
    comps = []
    weights = []
    raw = _json_list(_json_object(data, "mixture parameters")
                     .get("components", []), "components")
    if not raw:
        raise ValueError("empty components list")
    for entry in raw:
        entry = _json_object(entry, "each components entry")
        weights.append(Fraction(str(entry["weight"])))
        comps.append(GaussianParams(
            tuple(Fraction(str(x)) for x in _json_list(entry["mean"], "mean")),
            tuple(Fraction(str(x)) for x in _json_list(entry["cov"], "cov")),
        ))
    return MixtureParams(tuple(comps), tuple(weights))
