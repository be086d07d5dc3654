"""Exact recovery of a two-component Gaussian mixture from third moments.

Fixing distinct first mean coordinates mu11 and mu21 pins down a point of
the two-dimensional fiber; the remaining 17 parameters are then determined
uniquely and rationally.  The elimination follows the structure of the
moment equations:

1. the mixture weight comes from the first-coordinate mean equation;
2. the two remaining first-component mean coordinates are eliminated
   linearly;
3. all 12 covariance entries occur linearly.  With the means written as
   polynomials in the two unknown mean coordinates b2, b3 of the second
   component, each pair (sigma1_ij, sigma2_ij) solves a 2x2 block of
   m_{e_i+e_j} and m_{e_1+e_i+e_j} whose matrix is constant, of nonzero
   determinant c*lambda*(1-lambda)*(mu21 - mu11), c = 1, 2 or 3, so each
   covariance is a polynomial in Q[b2, b3] (``_solve_covariances``);
4. what remains is a system of four polynomial equations in b2 and b3, the
   residuals of m030, m003, m021 and m012.  The residual of m003 is a
   polynomial g in b3 alone, so b3 leaves each coupled equation h
   through the determinant of multiplication by h on Q[b2][b3]/(g), a
   matrix of at most 3 x 3 (see ``_eliminant``).  Intersecting these
   eliminants with the residual of m030, a polynomial in b2 alone, by a
   polynomial gcd leaves a linear factor, i.e. a unique rational solution.
   Its coordinate b2 makes the coefficients of the residuals in b3
   rational, and their gcd gives b3 in the same way.

Every recovered mixture is verified once, by ``recover``, against all
binom(n+3, 3) moment equations, and only a mixture that reproduces every
moment is returned.  The subset recoveries are not verified on their own:
each solves all the moment equations of its subset.
Inputs that are off the secant variety, or degenerate, are rejected with a
structured error instead of being fitted approximately.  Equal first mean
coordinates force m300 = 3*m100*m200 - 2*m100^3, the collapsed-mean
identity; so does any mixture whose first coordinate has third cumulant 0,
and such a mixture may still be recovered.  The identity is therefore
tested only after a recovery has failed, to explain the failure.

For every n >= 3, the n = 3 recovery runs on ceil((n-1)/2) coordinate
subsets that cover every coordinate (at n = 3, the one subset {1, 2, 3}),
and the covariances across subsets come from the same solver as step 3,
with Fractions (see ``recover``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .moments import (GaussianParams, MixtureParams, MomentVector,
                      mixture_moments, multi_indices)
from .polyring import Polynomial, PolyRing, det

Index = tuple[int, ...]


class RecoveryError(ValueError):
    """Recovery failed for a structural reason (bad input, off-variety
    moments, or a non-generic configuration)."""

    def __init__(self, reason: str, equation: Index | None = None):
        self.reason = reason
        self.equation = equation
        msg = reason if equation is None else f"{reason} (equation {equation})"
        super().__init__(msg)


@dataclass(frozen=True)
class RecoveryInput:
    """Moments of order <= 3 in the chart, plus the fixed distinct first
    coordinates of the two mean vectors."""

    m: MomentVector
    mu11: Fraction
    mu21: Fraction

    def __post_init__(self):
        object.__setattr__(self, "mu11", Fraction(self.mu11))
        object.__setattr__(self, "mu21", Fraction(self.mu21))
        if self.m.n < 3:
            raise RecoveryError("recovery needs n >= 3 (the n = 2 fiber has "
                                "three points, not one)")
        if self.m.d != 3:
            raise RecoveryError("recovery uses moments of order exactly 3")
        if self.mu11 == self.mu21:
            raise RecoveryError("the fixed first coordinates must be distinct")


def degenerate_mean_test(m: MomentVector) -> bool:
    """True iff m300 = 3*m100*m200 - 2*m100^3 holds exactly (the collapsed
    first-mean-coordinate identity)."""
    if m.d < 3:
        raise ValueError("the degenerate-mean test needs d >= 3")
    e1 = lambda v: tuple([v] + [0] * (m.n - 1))
    m1, m2, m3 = m[e1(1)], m[e1(2)], m[e1(3)]
    return m3 == 3 * m1 * m2 - 2 * m1 ** 3


# -- the covariance blocks -----------------------------------------------------

def _third(w, mean, cov, i: int, j: int, k: int):
    """The mixture's moment E[x_i x_j x_k]: the weighted sum over both
    components of mu_i mu_j mu_k + mu_i s_jk + mu_j s_ik + mu_k s_ij
    (Isserlis), with cov[t] keyed by (a, b), a <= b."""
    out = 0
    for wt, mu, s in zip(w, mean, cov):
        sig = lambda a, b: s[min(a, b), max(a, b)]
        out = out + wt * (mu[i] * mu[j] * mu[k] + mu[i] * sig(j, k)
                          + mu[j] * sig(i, k) + mu[k] * sig(i, j))
    return out


def _solve_covariances(m: MomentVector, w, mean, cov, pairs) -> None:
    """Solve, in order, the pair (sigma1_ij, sigma2_ij) of each 0-based
    (i, j) in ``pairs`` into cov[0] and cov[1].  Means and covariances may
    be Fractions or polynomials; the weights w and the first mean
    coordinates a0, b0 are Fractions.

    With the pair set to 0, r1 = m_{e_i+e_j} - sum_t w_t mu_ti mu_tj is
    w0 s + w1 t, and r2, the defect of m_{e_0+e_i+e_j}, is
    c (w0 a0 s + w1 b0 t), where the pair occurs c = 1 + [i = 0] + [j = 0]
    times.  So the block is constant, of determinant c w0 w1 (b0 - a0),
    nonzero because RecoveryInput and the weight step exclude a0 = b0 and
    w0 in {0, 1}.  r2 reads the pairs (0, i) and (0, j): ``pairs`` lists
    them first, or ``cov`` holds them already.
    """
    e = lambda *coords: tuple(coords.count(x) for x in range(m.n))
    a0, b0 = mean[0][0], mean[1][0]
    for i, j in pairs:
        for s in cov:
            s[i, j] = 0
        r1 = (m[e(i, j)] - w[0] * mean[0][i] * mean[0][j]
              - w[1] * mean[1][i] * mean[1][j])
        r2 = ((m[e(0, i, j)] - _third(w, mean, cov, 0, i, j))
              * Fraction(1, 1 + (i == 0) + (j == 0)))
        cov[0][i, j] = (b0 * r1 - r2) * (1 / (w[0] * (b0 - a0)))
        cov[1][i, j] = (r2 - a0 * r1) * (1 / (w[1] * (b0 - a0)))


# -- the n = 3 core -------------------------------------------------------------

def _coeffs_in(p: Polynomial, var: str) -> list[Polynomial]:
    """Coefficients of p as a polynomial in one variable, ascending."""
    ring = p.ring
    i = ring.var_index(var)
    deg = max((e[i] for e in p.terms), default=0)
    buckets: list[dict] = [{} for _ in range(deg + 1)]
    for e, c in p.terms.items():
        stripped = list(e)
        k = stripped[i]
        stripped[i] = 0
        buckets[k][tuple(stripped)] = c
    return [ring.from_terms(b) for b in buckets]


def _trimmed(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _univariate(p: Polynomial, var: str) -> list[Fraction]:
    """Fraction coefficient list (ascending) of a polynomial in ``var``
    alone."""
    return _trimmed([c.constant_term() for c in _coeffs_in(p, var)])


def _eliminant(g: list[Fraction], h: Polynomial, var: str) -> Polynomial:
    """The determinant of multiplication by h on Q[rest][var]/(g), in the
    basis 1, var, ..., var^(k-1), k = deg g: the product of h over the roots
    of g (with multiplicity), which is Res_var(g, h) / lc(g)^deg h.

    g is a coefficient list (ascending, as from :func:`_univariate`), so
    var^m mod g has rational coefficients, each matrix entry is a rational
    combination of h's coefficients in var, and the determinant is a
    Leibniz sum of k! products with no division.  Degenerate inputs follow
    the Sylvester resultant: zero if g or h is zero, h^k if h does not
    involve var, and 1 if g is a nonzero constant.
    """
    ring = h.ring
    if not g or h.is_zero():
        return ring.zero()
    k = len(g) - 1
    if k == 0:
        return ring.one()
    hc = _coeffs_in(h, var)
    # reduced[m]: the coefficients of var^m mod g, for m < k + deg h
    reduced = [[Fraction(r == m) for r in range(k)] for m in range(k)]
    for _ in range(len(hc) - 1):
        prev = reduced[-1]
        top = prev[-1] / g[k]
        reduced.append([(prev[r - 1] if r else 0) - top * g[r]
                        for r in range(k)])
    # column i is h * var^i mod g
    matrix = [[sum((c.scale(reduced[i + j][r])
                    for j, c in enumerate(hc) if reduced[i + j][r]),
                   ring.zero())
               for i in range(k)] for r in range(k)]
    return det(matrix)


def _gcd_lists(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd of univariate rational coefficient lists (Euclid)."""
    a, b = list(a), list(b)
    while b:
        # a mod b
        while len(a) >= len(b):
            if a[-1] == 0:
                a.pop()
                continue
            f = a[-1] / b[-1]
            off = len(a) - len(b)
            for i in range(len(b)):
                a[off + i] -= f * b[i]
            a.pop()
        a, b = b, a
        while b and b[-1] == 0:
            b.pop()
    lead = a[-1] if a else Fraction(1)
    return [c / lead for c in a]


def _unique_root(candidates: list[list[Fraction]], what: str) -> Fraction:
    """Common root of the candidate polynomials; must be a single simple one."""
    cands = [c for c in candidates if c]
    if not cands:
        raise RecoveryError(f"final system for {what} is identically zero; "
                            "moments are non-generic")
    if any(len(c) == 1 for c in cands):
        raise RecoveryError(f"final system for {what} has no solution; the "
                            "moment vector is not on the secant variety")
    g = cands[0]
    for c in cands[1:]:
        g = _gcd_lists(g, c)
    if len(g) == 1:
        raise RecoveryError(f"final system for {what} has no common solution; "
                            "the moment vector is not on the secant variety")
    if len(g) != 2:
        raise RecoveryError(
            f"final system for {what} does not have a unique solution "
            f"(gcd degree {len(g) - 1})")
    return -g[0] / g[1]


@dataclass(frozen=True)
class _Eliminated:
    """State after the linear eliminations: only (b2, b3) = (mu22, mu23)
    remain unknown."""

    lam: Fraction
    mean: tuple[list, list]   # the two mean vectors, over Q[b2, b3]
    cov: tuple[dict, dict]    # (i, j) -> covariance, over Q[b2, b3]
    e_b2: Polynomial          # residual of m030, univariate in b2
    e_b3: Polynomial          # residual of m003, univariate in b3
    e_mix1: Polynomial        # residual of m021
    e_mix2: Polynomial        # residual of m012


def _eliminate(inp: RecoveryInput) -> _Eliminated:
    """Steps 1-3: weight, first-component means, and all covariances."""
    m = inp.m
    if m.n != 3:
        raise RecoveryError("recover_n3 needs a trivariate moment vector")
    a1, b1 = inp.mu11, inp.mu21

    lam = (m[(1, 0, 0)] - b1) / (a1 - b1)
    if lam == 0 or lam == 1:
        raise RecoveryError(
            "degenerate mixture weight for the chosen first coordinates")

    ring = PolyRing(("b2", "b3"))
    b2, b3 = ring.var("b2"), ring.var("b3")

    # eliminate the first component's remaining mean coordinates
    a2 = ring.const(m[(0, 1, 0)] / lam) - b2.scale((1 - lam) / lam)
    a3 = ring.const(m[(0, 0, 1)] / lam) - b3.scale((1 - lam) / lam)

    w = (lam, 1 - lam)
    mean = ([a1, a2, a3], [b1, b2, b3])
    cov: tuple[dict, dict] = ({}, {})
    _solve_covariances(m, w, mean, cov,
                       [(i, j) for i in range(3) for j in range(i, 3)])
    residual = lambda i, j, k: (_third(w, mean, cov, i, j, k)
                                - m[tuple((i, j, k).count(x)
                                          for x in range(3))])
    return _Eliminated(lam, mean, cov, residual(1, 1, 1), residual(2, 2, 2),
                       residual(1, 1, 2), residual(1, 2, 2))


def recover_n3(inp: RecoveryInput,
               coords: tuple[int, int, int] = (0, 1, 2)) -> MixtureParams:
    """Exact recovery for n = 3 from the 19 moment equations, the step that
    :func:`recover` runs on each coordinate subset.  ``coords`` are the
    0-based coordinates of a larger mixture that the three stand for; error
    messages name the unknowns by them.

    The result is not checked against the moments: each of the subset's
    19 moment equations of order 1 to 3 enters the elimination, and the
    chart fixes the 20th, m000 = 1, so a unique root satisfies them all.
    :func:`recover` checks the whole mixture once."""
    st = _eliminate(inp)

    g = _univariate(st.e_b3, "b3")
    res1 = _eliminant(g, st.e_mix1, "b3")
    res2 = _eliminant(g, st.e_mix2, "b3")
    b2_star = _unique_root(
        [_univariate(q, "b2") for q in (st.e_b2, res1, res2)],
        f"mu2{coords[1] + 1}")

    # the coefficients in b3 involve b2 alone
    at_b2 = {"b2": b2_star, "b3": 0}
    b3_star = _unique_root(
        [_trimmed([c.evaluate(at_b2) for c in _coeffs_in(q, "b3")])
         for q in (st.e_b3, st.e_mix1, st.e_mix2)], f"mu2{coords[2] + 1}")

    point = {"b2": b2_star, "b3": b3_star}
    at = lambda x: x.evaluate(point) if isinstance(x, Polynomial) else x
    return MixtureParams(tuple(
        GaussianParams(tuple(at(x) for x in st.mean[t]),
                       tuple(at(st.cov[t][i, j]) for i in range(3)
                             for j in range(i, 3)))
        for t in (0, 1)), (st.lam, 1 - st.lam))


def _recover(inp: RecoveryInput) -> MixtureParams:
    m, n = inp.m, inp.m.n
    a1, b1 = inp.mu11, inp.mu21
    mean = ([a1] * n, [b1] * n)
    cov: tuple[dict, dict] = ({}, {})
    for i in sorted({*range(1, n - 1, 2), n - 2}):
        local = (0, i, i + 1)
        sub = recover_n3(RecoveryInput(m.restrict(local), a1, b1), local)
        for c, comp in enumerate(sub.components):
            for s in range(3):
                mean[c][local[s]] = comp.mean[s]
                for t in range(s, 3):
                    cov[c][local[s], local[t]] = comp.sigma(s, t)

    w = sub.weights
    _solve_covariances(m, w, mean, cov,
                       [(i, j) for i in range(1, n) for j in range(i + 1, n)
                        if (i, j) not in cov[0]])

    params = MixtureParams(tuple(
        GaussianParams(tuple(mean[c]), tuple(cov[c][i, j] for i in range(n)
                                             for j in range(i, n)))
        for c in (0, 1)), w)
    # the one check of the moment equations
    regen = mixture_moments(params, m.d)
    for idx in multi_indices(m.n, m.d):
        if regen[idx] != m[idx]:
            raise RecoveryError(
                "recovered parameters do not reproduce the moments; the "
                "input is not on the secant variety", equation=idx)
    return params


def recover(m: MomentVector, mu11, mu21) -> MixtureParams:
    """Recover the two-component mixture behind a third-order moment vector
    of dimension n >= 3, given the two (distinct) first mean coordinates.

    The n = 3 recovery runs on the subsets {1, i, i+1}, i = 2, 4, ... (the
    last one is {1, n-1, n} when n - 1 is odd; at n = 3 the one subset is
    {1, 2, 3}), which give the weight, every mean and every in-subset
    covariance.  Each other pair (sigma1_ij, sigma2_ij) solves the block of
    m_{e_i+e_j} and m_{e_1+e_i+e_j}, with constant matrix
    [[lam, 1-lam], [lam*mu11, (1-lam)*mu21]] of determinant
    lam*(1-lam)*(mu21-mu11) != 0 (``_solve_covariances``).  The mixture so
    built is checked once, against all binom(n+3, 3) moment equations, and
    returned only if every one holds; an off-variety error names the first
    equation of the whole moment vector that fails.  A failure on moments
    that satisfy the collapsed-mean identity is reported as that: the
    identity, not the step that failed, explains it."""
    inp = RecoveryInput(m, mu11, mu21)
    try:
        return _recover(inp)
    except RecoveryError as err:
        if degenerate_mean_test(m):
            raise RecoveryError(
                "moments satisfy the collapsed-mean identity m300 = "
                "3*m100*m200 - 2*m100^3, as when the first mean coordinates "
                "coincide, and no mixture with the fixed first coordinates "
                "was recovered") from err
        raise
