"""Shared helpers for the test suite: seeded random rationals, parameters
and polynomials (SplitMix64-backed so runs are reproducible)."""

from fractions import Fraction

from gaussmoments.moments import GaussianParams, MixtureParams
from gaussmoments.rng import SplitMix64


def rand_fraction(rng: SplitMix64, span: int = 5, max_den: int = 4) -> Fraction:
    num = rng.below(2 * span + 1) - span
    den = rng.below(max_den) + 1
    return Fraction(num, den)


def rand_nonzero_fraction(rng: SplitMix64, span: int = 5) -> Fraction:
    while True:
        x = rand_fraction(rng, span)
        if x != 0:
            return x


def rand_gaussian(rng: SplitMix64, n: int) -> GaussianParams:
    mean = tuple(rand_fraction(rng) for _ in range(n))
    cov = tuple(rand_fraction(rng) for _ in range(n * (n + 1) // 2))
    return GaussianParams(mean, cov)


def rand_mixture(rng: SplitMix64, n: int, k: int,
                 distinct_first: bool = False) -> MixtureParams:
    comps = [rand_gaussian(rng, n) for _ in range(k)]
    if distinct_first:
        while len({c.mean[0] for c in comps}) < k:
            comps = [rand_gaussian(rng, n) for _ in range(k)]
    weights = [Fraction(rng.below(5) + 1, 12) for _ in range(k - 1)]
    weights.append(1 - sum(weights))
    return MixtureParams(tuple(comps), tuple(weights))


def rand_poly(ring, rng: SplitMix64, max_terms: int = 6, max_exp: int = 3,
              trunc=None):
    terms = {}
    nvars = len(ring.vars)
    for _ in range(rng.below(max_terms) + 1):
        e = tuple(rng.below(max_exp + 1) for _ in range(nvars))
        terms[e] = rand_fraction(rng)
    return ring.from_terms(terms, trunc=trunc)


def rank_mod_p_oracle(rows, p: int) -> int:
    """Rank over GF(p) by textbook row echelon form with Python ints: the
    reference that linalg.rank_mod_p is checked against."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        for i in range(rank + 1, len(m)):
            f = m[i][col] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank
