"""Shared helpers for the test suite: seeded random rationals, parameters
and polynomials (SplitMix64-backed so runs are reproducible), and the
reference implementations that fast paths are checked against."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

import numpy as np

from gaussmoments import recovery
from gaussmoments.determinantal import build_gd
from gaussmoments.moments import (GaussianParams, MixtureParams,
                                  gaussian_moment_table, lower_index,
                                  multi_indices, sigma_var_index)
from gaussmoments.polyring import Polynomial, PolyRing
from gaussmoments.rng import SplitMix64
from gaussmoments.secant import (_moment_blocks, _moment_residues, _points,
                                 dim_formula_d3)

# primes at the limb boundaries of the modular kernel: for 1, 2 and 3 limbs
# the largest prime (full 21-bit limbs) and the smallest above the boundary
PRIMES = (2, 7, 2097143, 2097169, 2 ** 31 - 1, 4398046511093, 4398046511119,
          2 ** 62 - 57)


def below(rng: SplitMix64, n: int) -> int:
    """A uniform integer in [0, n) by rejection sampling (no modulo bias):
    the scalar draw, one output of the stream at a time, that
    SplitMix64.below_array makes ``count`` at a time."""
    if n <= 0:
        raise ValueError("below() requires n >= 1")
    limit = (1 << 64) - (1 << 64) % n
    while True:
        x = rng.next_u64()
        if x < limit:
            return x % n


def rand_fraction(rng: SplitMix64, span: int = 5, max_den: int = 4) -> Fraction:
    num = below(rng, 2 * span + 1) - span
    den = below(rng, max_den) + 1
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
    weights = [Fraction(below(rng, 5) + 1, 12) for _ in range(k - 1)]
    weights.append(1 - sum(weights))
    return MixtureParams(tuple(comps), tuple(weights))


def rand_poly(ring, rng: SplitMix64, max_terms: int = 6, max_exp: int = 3):
    terms = {}
    nvars = len(ring.vars)
    for _ in range(below(rng, max_terms) + 1):
        e = tuple(below(rng, max_exp + 1) for _ in range(nvars))
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


def power(p: Polynomial, k: int) -> Polynomial:
    """p^k as k repeated products; Polynomial has no power operator."""
    out = p.ring.one()
    for _ in range(k):
        out = out * p
    return out


def partial(p: Polynomial, name: str) -> Polynomial:
    """The formal partial derivative of p in the variable ``name``, term
    by term."""
    i = p.ring.var_index(name)
    return p.ring.from_terms({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                              for e, c in p.terms.items() if e[i]})


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
                qk = power(q, k)
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
    grlex = lambda term: (sum(term[0]), term[0])  # total degree, then lex
    den_lead, den_lc = max(den.terms.items(), key=grlex)
    rem = num
    q_terms: dict = {}
    while not rem.is_zero():
        lead, lc = max(rem.terms.items(), key=grlex)
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


def hb_minors_reference(d: int) -> tuple[Polynomial, ...]:
    """The maximal minors of the banded parametrization matrix from their
    continuant recurrence h_i = y h_{i-1} - (i-1) x z h_{i-2}, b_i =
    z^(d-i) h_i, by polynomial products: the oracle of the closed form in
    determinantal.hb_minors."""
    ring = PolyRing(["x", "y", "z"])
    x, y, z = ring.var("x"), ring.var("y"), ring.var("z")
    h = [ring.one(), y]
    for i in range(2, d + 1):
        h.append(y * h[i - 1] - (x * z).scale(i - 1) * h[i - 2])
    return tuple(power(z, d - i) * h[i] for i in range(d + 1))


def polynomial_rows(ring: PolyRing, rows) -> list[list[Polynomial]]:
    """A layout of determinantal (rows of (coefficient, variable) entries)
    as rows of polynomials of ``ring``, for the symbolic references."""
    return [[ring.var(v).scale(c) if c else ring.zero() for c, v in row]
            for row in rows]


def moment_ring(d: int) -> PolyRing:
    """Q[m0..md], the ring of the moment matrix's (build_gd) entries."""
    return PolyRing([f"m{i}" for i in range(d + 1)])


@lru_cache(maxsize=None)
def gd_minors_reference(d: int) -> dict:
    """Each 3x3 minor of the moment matrix (build_gd) as a cubic, keyed by
    its 1-based column triple, in lexicographic order: Bareiss
    (poly_det_reference) on the matrix's rows."""
    rows = polynomial_rows(moment_ring(d), build_gd(d))
    return {tuple(c + 1 for c in cols):
            poly_det_reference([[row[c] for c in cols] for row in rows])
            for cols in combinations(range(d), 3)}


def gd_witness_reference(values):
    """The first column triple whose minor (gd_minors_reference) is nonzero
    at the point m0..md ``values``, or None: the oracle of the witness of
    ``check --method gd``."""
    point = {f"m{i}": v for i, v in enumerate(values)}
    return next((cols for cols, q in
                 gd_minors_reference(len(values) - 1).items()
                 if q.evaluate(point)), None)


def gd_jacobian_reference(d: int, values) -> list[list[Fraction]]:
    """The Jacobian of the 3x3 minors of the moment matrix (build_gd) at
    the point m0..md ``values``, one row per column triple in lexicographic
    order.  By Jacobi's formula the partial of a minor in m_v is the sum of
    its cofactors times the coefficients of m_v in its linear entries."""
    g = polynomial_rows(moment_ring(d), build_gd(d))
    point = {f"m{i}": v for i, v in enumerate(values)}
    a = [[e.evaluate(point) for e in row] for row in g]
    rows = []
    for cols in combinations(range(d), 3):
        row = [Fraction(0)] * (d + 1)
        for r in range(3):
            r1, r2 = (r + 1) % 3, (r + 2) % 3
            for i, c in enumerate(cols):
                c1, c2 = cols[(i + 1) % 3], cols[(i + 2) % 3]
                cof = a[r1][c1] * a[r2][c2] - a[r1][c2] * a[r2][c1]
                for e, coef in g[r][c].terms.items():
                    row[e.index(1)] += coef * cof
        rows.append(row)
    return rows


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


def willink_kernel(g: GaussianParams) -> list[list[Fraction]]:
    """The n vectors (mu_i, -e_i, Sigma e_i), i = 1..n, which annihilate
    the Willink matrix of the moments of g."""
    n = g.n
    return [[g.mean[i]] + [Fraction(-(j == i)) for j in range(n)]
            + [g.sigma(j, i) for j in range(n)] for i in range(n)]


def annihilates(matrix, vec) -> bool:
    """Whether the matrix times the column vector is zero."""
    return all(sum(a * b for a, b in zip(row, vec)) == 0 for row in matrix)


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


def moment_residues_reference(n: int, d: int, vals, p: int) -> list[int]:
    """Every moment of order <= d of one component, its residues (mu,
    sigma) ``vals``, from gaussian_moment_table on Python ints, reduced
    mod p: the reference that secant._moment_residues is checked
    against."""
    return [v % p for v in gaussian_moment_table(
        vals[:n], lambda i, j: vals[sigma_var_index(n, i, j)], d, 1).values()]


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
        table = moment_residues_reference(n, d, vals, p)
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
        yield terracini_reference(n, d, comp_vals.tolist(), prime)


def prefix_ranks_reference(n: int, d: int, comp_vals, p: int) -> list[int]:
    """The rank mod p of the layout (terracini_reference) of components
    1..k, for k = 1..K, each by rank_mod_p_oracle: the reference that
    secant._prefix_ranks is checked against."""
    m = n * (n + 3) // 2
    layout = terracini_reference(n, d, comp_vals, p).tolist()
    return [rank_mod_p_oracle([row[:k * (m + 1) - 1] for row in layout], p)
            for k in range(1, len(comp_vals) + 1)]


def deconvolved(comp_vals, p: int):
    """Each component's values less component 1's, mod p: the point whose
    moments are those of ``comp_vals`` convolved with N(-mu_1, -Sigma_1),
    with component 1 at the origin."""
    return [[(x - y) % p for x, y in zip(vals, comp_vals[0])]
            for vals in comp_vals]


def inverse_mod_p(matrix, p: int):
    """The inverse mod p of a square matrix of Python ints, by Gauss-Jordan
    on [matrix | I]."""
    n = len(matrix)
    rows = [[x % p for x in row] + [int(i == j) for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [x * inv % p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def rotated(comp_vals, n: int, p: int):
    """Each component (mu, Sigma) mapped to (B mu, B Sigma B^T) mod p, with
    B the inverse of E, the identity with column i0 replaced by component
    2's mean, i0 its first nonzero coordinate: the point of the Gaussians
    in the coordinates y = Bx, where component 2's mean is e_i0.  The point
    is returned as it is when that mean is 0.  Full matrix products with
    Python ints."""
    mean = comp_vals[1][:n]
    heads = [i for i in range(n) if mean[i] % p]
    if not heads:
        return [list(vals) for vals in comp_vals]
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        e[i][heads[0]] = mean[i]
    b = inverse_mod_p(e, p)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    out = []
    for vals in comp_vals:
        sigma = [[vals[sigma_var_index(n, i, j)] for j in range(n)]
                 for i in range(n)]
        bs = [[sum(b[i][t] * sigma[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        out.append([sum(b[i][t] * vals[t] for t in range(n)) % p
                    for i in range(n)]
                   + [sum(bs[i][t] * b[j][t] for t in range(n)) % p
                      for i, j in upper])
    return out


def residue(x: Fraction, p: int) -> int:
    """x mod p; the denominator must be prime to p."""
    return x.numerator * pow(x.denominator, -1, p) % p


def params_to_modular(point: MixtureParams, p: int):
    """A rational mixture point mod p: each component's residues (mean,
    then covariance upper triangle), and the weights' residues."""
    comp_vals = [[residue(x, p) for x in comp.mean + comp.cov_upper]
                 for comp in point.components]
    return comp_vals, [residue(w, p) for w in point.weights]


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


def dim_formula_d3_max_k(n: int) -> int:
    """Largest K for which the d=3 dimension formula still tracks secant
    dimensions: the formula must stay within the ambient dimension and in
    its increasing range (the cubic dips again after the secants fill, which
    happens for n = 2 already at k = 3)."""
    ambient = comb(n + 3, 3) - 1
    k = 1
    prev = dim_formula_d3(n, 1)
    while True:
        nxt = dim_formula_d3(n, k + 1)
        if nxt <= prev or nxt > ambient:
            return k
        k += 1
        prev = nxt


def veronese_layout(n: int, d: int, means, p: int):
    """The layout of the module docstring of secant at Sigma = 0, as an
    int64 array: [A_1 | M_2 - M_1, A_2 | ... | M_K - M_1, A_K] with each
    A_l its n mean columns only.  ``means`` holds each component's mean
    residues.  At Sigma = 0 the moments are m_a = mu^a, so this is the
    Terracini matrix of the Veronese variety v_d(P^n) at K points, and the
    columns of the first k components are its first k(n+1) - 1."""
    vals = np.zeros((len(means), n * (n + 3) // 2), dtype=np.int64)
    vals[:, :n] = means
    blocks = _moment_blocks(n, d, _moment_residues(n, d, vals, p), p)
    blocks = blocks[:, :, :n + 1]
    blocks[:, 1:, 0] = (blocks[:, 1:, 0] - blocks[:, :1, 0]) % p
    return blocks.reshape(len(blocks), -1)[:, 1:]
