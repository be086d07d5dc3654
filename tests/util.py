"""Shared helpers for the test suite: seeded random rationals, parameters
and polynomials (SplitMix64-backed so runs are reproducible), and the
reference implementations that fast paths are checked against."""

from fractions import Fraction
from math import comb, factorial

import numpy as np

from gaussmoments import recovery
from gaussmoments.linalg import _sub_matmul
from gaussmoments.moments import (GaussianParams, MixtureParams,
                                  gaussian_moment_table, lower_index,
                                  multi_indices, sigma_var_index)
from gaussmoments.polyring import Polynomial, grlex_key
from gaussmoments.rng import SplitMix64
from gaussmoments.secant import _points, _unit_columns


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


def rand_poly(ring, rng: SplitMix64, max_terms: int = 6, max_exp: int = 3):
    terms = {}
    nvars = len(ring.vars)
    for _ in range(rng.below(max_terms) + 1):
        e = tuple(rng.below(max_exp + 1) for _ in range(nvars))
        terms[e] = rand_fraction(rng)
    return ring.from_terms(terms)


def free_weight_mixture(components, free_weights) -> MixtureParams:
    """A mixture from k-1 free weights; the last is 1 minus their sum."""
    free = [Fraction(w) for w in free_weights]
    return MixtureParams(tuple(components), tuple(free + [1 - sum(free)]))


def moment_count(n: int, d: int) -> int:
    """Number of moments of order <= d, i.e. N + 1 = binom(n+d, d)."""
    return comb(n + d, d)


def index_factorial(idx) -> int:
    """a! = a_1! ... a_n! for a multi-index a."""
    f = 1
    for i in idx:
        f *= factorial(i)
    return f


def fills_ambient(row) -> bool:
    """Whether a census row's secant variety fills its ambient space."""
    return row.dim == row.N


def mul_reference(a: Polynomial, b: Polynomial) -> Polynomial:
    """Polynomial product with a zero test after every term product: the
    reference that Polynomial.__mul__ is checked against."""
    a._check_compatible(b)
    out: dict = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return Polynomial(a.ring, out)


def substitute_reference(p: Polynomial, mapping) -> Polynomial:
    """Substitution term by term, one monomial and one power product per
    term, summed as polynomials: the oracle that the recovery tests check
    the library's evaluations and coefficient reads against."""
    ring = p.ring
    subs: dict[int, Polynomial] = {}
    for name, val in mapping.items():
        i = ring.var_index(name)
        if isinstance(val, Polynomial):
            p._check_compatible(val)
            subs[i] = val
        else:
            subs[i] = ring.const(val)
    out = ring.zero()
    for e, c in p.terms.items():
        rest = list(e)
        factor = None
        for i, q in subs.items():
            k = e[i]
            if k:
                rest[i] = 0
                qk = q ** k
                factor = qk if factor is None else factor * qk
        term = ring.monomial(tuple(rest), c)
        out = out + (term * factor if factor is not None else term)
    return out


def exact_div_reference(num: Polynomial, den: Polynomial) -> Polynomial:
    """Exact division that rebuilds the remainder as a polynomial after every
    quotient term, in grlex order.  Raises ``ValueError`` if den does not
    divide num and ``ZeroDivisionError`` if den is zero."""
    num._check_compatible(den)
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    ring = num.ring
    den_lead, den_lc = max(den.terms.items(), key=lambda t: grlex_key(t[0]))
    rem = num
    q_terms: dict = {}
    while not rem.is_zero():
        lead, lc = max(rem.terms.items(), key=lambda t: grlex_key(t[0]))
        e = tuple(a - b for a, b in zip(lead, den_lead))
        if any(k < 0 for k in e):
            raise ValueError("inexact polynomial division")
        c = lc / den_lc
        q_terms[e] = c
        rem = rem - den * ring.monomial(e, c)
    return ring.from_terms(q_terms)


def poly_det_reference(rows) -> Polynomial:
    """Determinant of a square matrix of polynomials by fraction-free
    Bareiss elimination: intermediate entries are minors, so each division
    by the previous pivot is exact (:func:`exact_div_reference`).  The
    oracle that determinantal.hb_minors is checked against."""
    n = len(rows)
    if n == 0:
        raise ValueError("determinant of an empty matrix")
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    ring = rows[0][0].ring
    m = [list(r) for r in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if m[k][k].is_zero():
            piv = next((i for i in range(k + 1, n) if not m[i][k].is_zero()),
                       None)
            if piv is None:
                return ring.zero()
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = (exact_div_reference(num, prev) if prev is not None
                           else num)
            m[i][k] = ring.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def to_sympy(p):
    """A polynomial as a sympy expression in symbols named after the
    variables of its ring (for the sympy oracle tests)."""
    import sympy
    xs = [sympy.Symbol(v) for v in p.ring.vars]
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(x ** k for x, k in zip(xs, e)))
                       for e, c in p.terms.items()))


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


def recover_all_subsets(m, mu11, mu21) -> MixtureParams:
    """Recovery for n >= 4 by running the n = 3 recovery on every subset
    {1, i, j} and requiring exact agreement on every shared parameter: the
    reference that recovery.recover is checked against."""
    n = m.n
    lam = None
    mean1 = {0: Fraction(mu11)}
    mean2 = {0: Fraction(mu21)}
    cov1, cov2 = {}, {}

    def put(store, key, value):
        assert store.setdefault(key, value) == value, f"subsets disagree {key}"

    for i in range(1, n):
        for j in range(i + 1, n):
            inp = recovery.RecoveryInput(m.restrict((0, i, j)), mu11, mu21)
            res = recovery.recover_n3(inp)
            c1, c2 = res.components
            w = res.weights[0]
            assert lam is None or lam == w, "subsets disagree on the weight"
            lam = w
            for pos, t in ((i, 1), (j, 2)):
                put(mean1, pos, c1.mean[t])
                put(mean2, pos, c2.mean[t])
            local = (0, i, j)
            for a in range(3):
                for b in range(a, 3):
                    key = (local[a], local[b])
                    put(cov1, key, c1.sigma(a, b))
                    put(cov2, key, c2.sigma(a, b))

    upper1 = tuple(cov1[(i, j)] for i in range(n) for j in range(i, n))
    upper2 = tuple(cov2[(i, j)] for i in range(n) for j in range(i, n))
    return MixtureParams(
        (GaussianParams(tuple(mean1[i] for i in range(n)), upper1),
         GaussianParams(tuple(mean2[i] for i in range(n)), upper2)),
        (lam, 1 - lam))


def partials_reference(a):
    """Each nonzero partial of m_a as (parameter position, c, b), meaning
    dm_a/dparameter = c * m_b, enumerated one moment at a time from the
    closed forms in secant's module docstring: the reference that
    secant._partials_index is checked against."""
    n = len(a)
    for i in range(n):
        if a[i]:
            b = lower_index(a, i)
            yield i, a[i], b
            for j in range(i, n):
                if b[j]:
                    yield (sigma_var_index(n, i, j),
                           a[i] * b[j] // (2 if i == j else 1),
                           lower_index(b, j))


def component_blocks_reference(n: int, d: int, comp_vals, p: int):
    """For each component in turn, (A, M) mod p as int64 arrays: A is the
    N x m matrix of the partials of its moments of order 1..d in its
    m = n(n+3)/2 (mu, sigma) coordinates, M the vector of those moments.
    One moment table per component, with Python ints: the reference that
    secant's all-components build is checked against."""
    index = {a: i for i, a in enumerate(multi_indices(n, d))}
    rows, cols, coefs, srcs = np.array(
        [(index[a] - 1, j, c, index[b]) for a in list(index)[1:]
         for j, c, b in partials_reference(a)], dtype=np.intp).T
    coefs, srcs = coefs.tolist(), srcs.tolist()
    for vals in comp_vals:
        table = [v % p for v in gaussian_moment_table(
            vals[:n], lambda i, j: vals[sigma_var_index(n, i, j)], d,
            1).values()]
        partials = np.zeros((len(index) - 1, n * (n + 3) // 2),
                            dtype=np.int64)
        partials[rows, cols] = [c * table[s] % p
                                for c, s in zip(coefs, srcs)]
        yield partials, np.array(table[1:], dtype=np.int64)


def terracini_reference(n: int, d: int, comp_vals, p: int):
    """The layout [A_1 | M_2 - M_1, A_2 | ... | M_K - M_1, A_K] mod p,
    assembled component by component from component_blocks_reference."""
    m = n * (n + 3) // 2
    blocks = list(component_blocks_reference(n, d, comp_vals, p))
    layout = [blocks[0][0]]
    for partials, moments in blocks[1:]:
        layout += [((moments - blocks[0][1]) % p)[:, None], partials]
    out = np.hstack(layout)
    assert out.shape[1] == len(comp_vals) * (m + 1) - 1
    return out


def layouts(n: int, d: int, top: int, trials: int, seed: int, prime: int):
    """Per trial, the layout (terracini_reference) of ``top`` components at
    the random point that secant's census and dim draw for it."""
    for comp_vals in _points(n, d, top, trials, seed, prime):
        yield terracini_reference(n, d, comp_vals, prime)


def schur_reference(layout, n: int, d: int, p: int):
    """The Schur complement S = D - C T^-1 B of the layout [[T, B], [C, D]],
    T its first block of moments of order <= 2, formed in place on a
    layout with any later columns: the oracle for secant._schur_complement.
    Returns the view of the later columns' rows of order >= 3.

    T^-1 B = P^T [B1; B2 - X P1^T B1] with P the permutation of the rows'
    unit entries (secant._unit_columns), so B2 is overwritten by
    B2 - X P1^T B1, and D by S = D - (C P^T) B'."""
    cols = _unit_columns(n, d)
    top = len(cols)
    b = layout[:top, top:]
    _sub_matmul(b[n:], layout[n:top, cols[:n]], b[:n], p)
    _sub_matmul(layout[top:, top:], layout[top:, cols], b, p)
    return layout[top:, n * (n + 3) // 2:]


def jacobian_reference(n: int, d: int, comp_vals, weights, p: int):
    """The mixture Jacobian [lambda_1 A_1 | ... | lambda_K A_K | M_1 - M_K
    | ... | M_{K-1} - M_K] mod p as lists of Python ints, component by
    component from component_blocks_reference."""
    blocks = list(component_blocks_reference(n, d, comp_vals, p))
    last = blocks[-1][1]
    cols = [partials.astype(object) * lam % p
            for (partials, _), lam in zip(blocks, weights)]
    cols += [((moments - last) % p).astype(object)[:, None]
             for _, moments in blocks[:-1]]
    return np.hstack(cols).tolist()
