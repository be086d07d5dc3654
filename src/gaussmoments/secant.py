"""Dimensions and defects of secant varieties of Gaussian moment varieties.

The dimension of the k-th secant variety equals the generic rank of the
Jacobian of the mixture parametrization, computed here exactly over a prime
field at seeded random points.  Each entry is a Gaussian moment or one of
its partials.  The moments come from the recursion
m_{a+e_i} = mu_i m_a + sum_j a_j sigma_ij m_{a-e_j} (see
:func:`moments.gaussian_moment_table`), run in int64 residues mod p, one
order at a time for all moments of that order and all components at once
(:func:`_moment_residues`); the partials then have closed forms:

* dm_a/dmu_i = a_i m_{a-e_i};
* dm_a/dsigma_ij = a_i a_j m_{a-e_i-e_j} for i < j;
* dm_a/dsigma_ii = a_i (a_i - 1)/2 m_{a-2e_i}.

Let A_l be the N x m matrix of the partials of component l's moments of
order 1..d in its m = n(n+3)/2 coordinates (mu, sigma), and M_l the vector
of those moments.  The Jacobian of the mixture sum_l lambda_l M_l, with the
last weight eliminated (lambda_k = 1 - sum), is
[lambda_1 A_1 | ... | lambda_k A_k | M_1 - M_k | ... | M_{k-1} - M_k]
(built by ``jacobian_reference`` in ``tests/util.py``, which the tests check
the layout's rank against); its column count is exactly the parameter count
k*n*(n+3)/2 + k - 1.

Ranks are computed from the layout
[A_1 | M_2 - M_1, A_2 | ... | M_k - M_1, A_k] instead, which has no
weights.  Where every weight is nonzero it has the same column space as the
mixture Jacobian: weights only scale the A-blocks, and
M_l - M_k = (M_l - M_1) - (M_k - M_1).  So the two have the same rank
there, and the same generic rank (Terracini's lemma: dim Sec_k is the
dimension of the span of k tangent spaces).  The first k components of the
layout fill its first k*(m+1) - 1 columns, so the layout of K components
holds the one of every k <= K as a column prefix.  The component values of
a trial come from one stream, derive_seed(seed, n, d, trial), drawn one
component after another, so they do not depend on k, and one elimination
gives the rank of every prefix of whole components: :func:`census` and
:func:`defect_row` both do one elimination per (n, trial)
(:func:`_prefix_ranks`).  No layout is formed.

Two symmetries of Gaussians fix part of the layout in closed form before
that elimination.  Each acts on the layout by a row operation (an
invertible linear map of the moment vector) and by column operations inside
each component's block (an invertible change of that component's
coordinates (mu, Sigma)).  Neither changes the rank of any prefix of whole
components, and both maps have integer polynomial entries, so they hold mod
every prime.  Nor does subtracting multiples of a column from later
columns, which is how the unit pivots they expose take their rows.

* Convolution.  The moments of N(mu + nu, Sigma + T) are those of
  N(mu, Sigma) under a map that is unipotent by order, with entries
  C(a, b) m_{a-b}(nu, T).  With (nu, T) = (-mu_1, -Sigma_1) each component
  l moves to Delta_l = v_l - v_1, and the column M_l - M_1 to the moments
  of Delta_l, since those of the origin vanish in every order >= 1.
  Component 1's partials at the origin are unit vectors: 1 in the row of
  x_i for mu_i, and of x_i x_j for sigma_ij.  They take the rows of order
  <= 2, and what is left is the rows of order >= 3 of the moment blocks of
  the Delta_l, l >= 2 (:func:`_moment_blocks`).
* A linear change of coordinates x -> Bx maps N(mu, Sigma) to
  N(B mu, B Sigma B^T), and the moments of each order by a linear map,
  invertible with B.  :func:`_rotate` takes the B that maps component 2's
  mean difference to e_i0.  Then each covariance column sigma_ij of
  component 2 has one nonzero entry of order 3, c in {1, 2, 3} at
  x_i x_j x_i0, and these pivots, units for every p > 3, take their rows
  and columns (:func:`_drop_second`).  Where that mean difference is 0 the
  step is skipped.

So the kernel eliminates 165 x 275 of the 285 x 395 layout of the n = 10
row of the order-3 census, and 880 x 869 of the 1000 x 989 one at n = 10,
K = 15 and order 4.

A reported dimension is a certified lower bound for the generic rank; by
Schwartz-Zippel it equals the generic rank with probability at least
1 - r*d/p per trial, which the attached certificate records.

The closed-form dimension, defect and degree formulas from the d=3 and d=4
censuses live here as exact integer evaluations.

At d = 3 the same symmetries bound every prefix rank from above (a
finding; the code does not use it).  With B mapping the mean differences
of components 2..k (k <= n + 1) to e_0..e_(k-2), component j's covariance
pivots take the C(n-j+3, 2) cubics whose least variable is x_(j-2); on the
C(n-k+3, 3) cubics left only (k-1)(n-k+1) mean columns are nonzero.  So
dim Sec_k <= n(n+3)/2 + sum_{j=2..k} C(n-j+3, 2) + min(C(n-k+3, 3),
(k-1)(n-k+1)), which :func:`dim_formula_d3` equals wherever it tracks the
secants, and which Hochster and Laksov's theorem on generic forms (Comm.
Algebra 1987) says is reached; README.md has the argument.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

# rank_mod_p stays importable here: bench/spans.py wraps secant.rank_mod_p
from .linalg import (PRIME_LIMIT, _fold, _limb_product,  # noqa: F401
                     _product, _scale, _shifts, _sub_matmul, rank_mod_p,
                     rank_profile_mod_p)
from .moments import multi_indices, sigma_var_index
from .rng import PRNG_NAME, SplitMix64, derive_seed

# Fixed 62-bit default prime (2^62 - 57).  It exceeds 20!, so the rule
# p > d! of _check_prime admits it at every order that rule allows (d <= 20).
# The rule keeps every coefficient of a moment polynomial and of its
# partials nonzero mod p: each divides d!.  A rank mod any prime is a lower
# bound for the generic rank, and the closed-form steps of _prefix_ranks
# need only p > 3.  At this size the Schwartz-Zippel bound dim*d/p of a
# trial is below 2^-40 while dim*d < 2^22.
DEFAULT_PRIME = 4611686018427387847
DEFAULT_TRIALS = 3
DEFAULT_SEED = 2016


@dataclass(frozen=True)
class SecantProblem:
    """The triple (n, d, k): k-mixtures of n-dimensional Gaussians, moments
    of order <= d."""

    n: int
    d: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.k < 1:
            raise ValueError("n, d, k must be positive")

    @property
    def ambient(self) -> int:
        """N = binom(n+d, d) - 1."""
        return comb(self.n + self.d, self.d) - 1

    @property
    def parameters(self) -> int:
        """par = k*n*(n+3)/2 + k - 1."""
        return self.k * self.n * (self.n + 3) // 2 + self.k - 1

    @property
    def expected(self) -> int:
        """The parameter-count upper bound min(N, par)."""
        return min(self.ambient, self.parameters)


@dataclass(frozen=True)
class RankCertificate:
    """Record of one seeded rank experiment.

    ``reported`` (the max over trials) is an exact lower bound for the
    generic rank; per trial it equals the generic rank except with
    probability at most degree_bound / prime.
    """

    prime: int
    seed: int
    trials: int
    prng: str
    ranks: tuple[int, ...]
    reported: int
    degree_bound: int

    def failure_bound(self) -> Fraction:
        return Fraction(self.degree_bound, self.prime)

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "seed": self.seed,
            "trials": self.trials,
            "prng": self.prng,
            "ranks": list(self.ranks),
            "reported": self.reported,
            "degree_bound": self.degree_bound,
            "failure_bound": f"{self.degree_bound}/{self.prime}",
        }


@dataclass(frozen=True)
class DefectRow:
    """One census row, with the column layout of the defect tables."""

    n: int
    k: int
    d: int
    par: int
    N: int
    exp: int
    dim: int
    delta: int
    par_minus_dim: int

    COLUMNS = ("n", "k", "d", "par", "N", "exp", "dim", "delta", "par_minus_dim")

    def is_defective(self) -> bool:
        return self.delta > 0


# -- Jacobian machinery --------------------------------------------------------


def _frozen(*arrays) -> tuple:
    """The arrays, made read-only, as cached arrays shared by callers are."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _grlex_positions(exps, d: int):
    """The position in the graded-lex order of :func:`multi_indices` of
    each multi-index of order <= d, a row of the int array ``exps``.

    Before a = (a_1..a_n) come all multi-indices of order below |a|, and
    those of order |a| that are lex smaller.  Those after it are lex larger:
    they agree with a before some coordinate i > 1 and are larger there, so
    their tail from i on has order below s_i = a_i + ... + a_n.  There are
    C(s + v - 1, v) tails in v = n - i + 1 variables of order below s.  So
    the position is C(|a| + n, n) - 1, the count of order <= |a| less one,
    less the sum of those counts over i.
    """
    n = exps.shape[1]
    # fewer[s, v]: the multi-indices in v variables of order below s
    fewer = np.array([[comb(s + v - 1, v) if s else 0 for v in range(n + 1)]
                      for s in range(d + 2)], dtype=np.intp)
    tails = np.cumsum(exps[:, ::-1], axis=1)[:, ::-1]
    return (fewer[tails[:, 0] + 1, n] - 1
            - fewer[tails[:, 1:], np.arange(n - 1, 0, -1)].sum(axis=1))


@lru_cache(maxsize=32)
def _partials_index(n: int, d: int):
    """Where :func:`_moment_blocks` puts each nonzero partial c * m_b, as
    read-only intp arrays: its row (the moment differentiated, less 1), its
    column in a component's block (1 + parameter position), the graded-lex
    position of b, and which of the distinct coefficients ``scales`` c is.
    They do not depend on the point, so they are built once per (n, d).

    The closed forms of the module docstring are, for each parameter, a
    coefficient c(a) and a lowering e of the multi-index, b = a - e: a_i
    and e_i for mu_i, a_i a_j and e_i + e_j for sigma_ij with i < j, and
    a_i (a_i - 1)/2 and 2 e_i for sigma_ii.  The partial is nonzero where
    c(a) is, so they are read off the table of exponents of the moments
    of order 1..d, one column of coefficients per parameter.
    """
    exps = np.array(multi_indices(n, d, min_order=1), dtype=np.intp)
    i, j = np.triu_indices(n)
    diagonal = (i == j).astype(np.intp)
    coefs = np.hstack([exps, exps[:, i] * (exps[:, j] - diagonal)
                       // (1 + diagonal)])
    unit = np.eye(n, dtype=np.intp)
    lowering = np.vstack([unit, unit[i] + unit[j]])
    rows, params = np.nonzero(coefs)
    srcs = _grlex_positions(exps[rows] - lowering[params], d)
    scales, which = np.unique(coefs[rows, params], return_inverse=True)
    return _frozen(rows, params + 1, srcs, scales, which)


@lru_cache(maxsize=32)
def _recursion_index(n: int, d: int):
    """The terms of the moment recursion, per order t = 1..d, as tuples
    (lo, hi, params, srcs, coefs, starts) of two ints and read-only intp
    arrays: the moments of order t are rows lo..hi-1 of the graded-lex
    table, and its terms, moment by moment, are coefs * (parameter
    ``params``) * (moment at row ``srcs``), with coefs a column and the
    terms of row lo + r starting at ``starts[r]``.  They do not depend on
    the point, so they are built once per (n, d).

    With i the first nonzero coordinate of b and a = b - e_i, the
    recursion m_b = mu_i m_a + sum_j a_j sigma_ij m_{a-e_j} has the term
    of mu_i and one term for each j with a_j > 0, all j >= i: at most
    n + 1 terms, from moments of orders t - 1 and t - 2.
    """
    exps = np.array(multi_indices(n, d, min_order=1), dtype=np.intp)
    first = (exps > 0).argmax(axis=1)
    a = exps.copy()
    a[np.arange(len(a)), first] -= 1
    # column 0 of a moment's terms is that of mu_i, column 1 + j that of
    # sigma_ij; np.nonzero lists them row by row
    rows, cols = np.nonzero(np.hstack([np.ones((len(a), 1), np.intp), a]))
    i, j = first[rows], cols - 1
    sigma = cols > 0
    # j = -1 on the terms of mu_i gives values that np.where drops
    params = np.where(sigma, sigma_var_index(n, i, j), i)
    coefs = np.where(sigma, a[rows, j], 1)
    srcs = a[rows]
    srcs[np.flatnonzero(sigma), j[sigma]] -= 1
    srcs = _grlex_positions(srcs, d)
    # where each moment's terms start, and the end of the last
    firsts = np.searchsorted(rows, np.arange(len(exps) + 1))
    out = []
    for t in range(1, d + 1):
        lo, hi = comb(n + t - 1, n), comb(n + t, n)
        t0, t1 = firsts[lo - 1], firsts[hi - 1]
        out.append((lo, hi, *_frozen(params[t0:t1], srcs[t0:t1],
                                     coefs[t0:t1, None],
                                     firsts[lo - 1:hi - 1] - t0)))
    return tuple(out)


def _moment_residues(n: int, d: int, comp_vals, p: int):
    """Every moment of order 0..d of each component mod p, as an int64
    array: one row per moment, in graded-lex order, and one column per
    component.  ``comp_vals`` holds each component's residues (mu, sigma).

    The table is built one order at a time, each order in one step over
    all its moments and components: the terms of the recursion
    (:func:`_recursion_index`) are gathered, multiplied by
    :func:`linalg._limb_product`, scaled by their coefficients, summed per
    moment and folded mod p once.  For a moment, V = sum of c * (a limb
    product) over its at most n + 1 terms, with c <= d, so
    V/p < 3 (n + 1) d 2^21.  f has at most n + 7 roundings of relative
    error 2^-53 (six of the limb product, the coefficient, and n sums over
    the terms), all on non-negative values, so
    |f - V/p| < (n + 7) 2^-53 V/p < 3 d (n + 1) (n + 7) 2^-32.  That is
    below 2^-6 for every d <= 20 and n <= 1000, and below 1, as
    :func:`linalg._fold` needs, up to n = 8000, where a table of order
    d >= 2 already has over 3 * 10^7 rows.
    """
    y = np.array(comp_vals, dtype=np.int64).T
    shifts = _shifts(y, p)
    table = np.empty((comb(n + d, d), y.shape[1]), dtype=np.int64)
    table[0] = 1
    for lo, hi, params, srcs, coefs, starts in _recursion_index(n, d):
        v, f = _limb_product(table[srcs], [s[params] for s in shifts], p)
        v *= coefs
        f *= coefs
        table[lo:hi] = _fold(np.add.reduceat(v, starts),
                             np.add.reduceat(f, starts), p)
    return table


def _moment_blocks(n: int, d: int, moments, p: int):
    """The N x K x (m+1) int64 array B of residues mod p built from a
    table of moments of :func:`_moment_residues` with K columns:
    B[:, l, 0] is the l-th column's moments of order 1..d, and B[:, l, 1:]
    their partials in the m = n(n+3)/2 (mu, sigma) coordinates, c * m_b
    (:func:`_partials_index`).

    The partials are gathered, in one index assignment, from the table
    times each distinct c (:func:`linalg._scale`; c <= d^2).
    """
    m = n * (n + 3) // 2
    rows, cols, srcs, scales, which = _partials_index(n, d)
    scaled = np.stack([_scale(moments, c, p) for c in scales])
    blocks = np.zeros((len(moments) - 1, moments.shape[1], m + 1),
                      dtype=np.int64)
    blocks[:, :, 0] = moments[1:]
    blocks[rows, :, cols] = scaled[which, srcs]
    return blocks


def _rotate(delta, n: int, i0: int, p: int) -> None:
    """Each row (mu, sigma) of the int64 residues ``delta`` <- (B mu,
    B Sigma B^T), in place, for the B that maps row 0's mean u to e_i0,
    u[i0] != 0: B = E^-1, E the identity with column i0 replaced by u.

    E = I + (u - e_i0) e_i0^T, so by Sherman-Morrison B = I - w e_i0^T
    with w = (u - e_i0) / u[i0].  With a = Sigma e_i0, s = Sigma[i0, i0]
    and b = a - s w, B mu = mu - mu[i0] w and
    (B Sigma B^T)_ij = Sigma_ij - w_i b_j - a_i w_j.
    """
    u = delta[0, :n].tolist()
    inv = pow(u[i0], -1, p)
    u[i0] -= 1
    w = np.array([x * inv % p for x in u], dtype=np.int64)
    a = delta[:, sigma_var_index(n, i0, np.arange(n))]
    b = (a - _product(a[:, i0:i0 + 1], w, p)) % p
    delta[:, :n] = (delta[:, :n] - _product(delta[:, i0:i0 + 1], w, p)) % p
    # in chunks of the upper triangle, which bound the temporaries at
    # large n
    i, j = np.triu_indices(n)
    for s in range(0, len(i), 1 << 16):
        rows, cols = i[s:s + (1 << 16)], j[s:s + (1 << 16)]
        sigma = delta[:, n + s:n + s + len(rows)]
        sigma[:] = (sigma - _product(b[:, cols], w[rows], p)
                    - _product(a[:, rows], w[cols], p)) % p


@lru_cache(maxsize=32)
def _pivot_index(n: int, d: int, i0: int):
    """Where :func:`_drop_second` finds and moves what it drops, as
    read-only intp arrays.  For each covariance coordinate sigma_ij of
    component 2, in parameter order, ``rows`` is the row of x_i x_j x_i0
    among the moments of order >= 3.  The rows ``src`` are the first
    n(n+1)/2 rows that are not dropped, and ``dst`` the dropped rows below
    them.  They do not depend on the point, so they are built once per
    (n, d, i0).
    """
    i, j = np.triu_indices(n)
    unit = np.eye(n, dtype=np.intp)
    rows = (_grlex_positions(unit[i] + unit[j] + unit[i0], d)
            - 1 - n * (n + 3) // 2)
    below = rows >= len(i)
    kept = np.ones(len(i), dtype=bool)
    kept[rows[~below]] = False
    return _frozen(rows, np.flatnonzero(kept), rows[below])


def _drop_second(mat, n: int, d: int, i0: int, p: int):
    """The view of ``mat`` left to eliminate once component 2's covariance
    columns and their pivot rows are dropped; ``mat`` holds the rows of
    order >= 3 of the later components' moment blocks, component 2 first,
    at a point where component 2's mean is e_i0 (:func:`_rotate`).

    Each covariance column sigma_ij of component 2 is then zero on the
    rows of order 3 but for c m_{e_i0} = c in {1, 2, 3} at x_i x_j x_i0
    (:func:`_pivot_index`), read off the matrix.  Subtracting
    (entry / c) times that row from each row of order >= 4 zeroes the
    column below it, and keeps every column dependency; then subtracting
    multiples of the column from the later ones clears its row.  The
    column and the row thus add n(n+1)/2 to the rank of every prefix that
    holds component 2, and are dropped.

    So no array is copied whole: component 2's moment and mean columns
    move to the last n + 1 of its covariance columns, the kept rows among
    the first n(n+1)/2 to dropped rows below them, and the result is a
    view of ``mat`` without its first n(n+1)/2 rows and columns.
    """
    m, half = n * (n + 3) // 2, n * (n + 1) // 2
    rows, src, dst = _pivot_index(n, d, i0)
    low = comb(n + 3, 3) - 1 - m  # the first row of order >= 4
    if low < len(mat):
        pivots = mat[rows, np.arange(n + 1, m + 1)]
        inverses = np.array([pow(int(c), -1, p) for c in pivots],
                            dtype=np.int64)
        entries = _product(mat[low:, n + 1:m + 1], inverses, p)
    mat[:, half:m + 1] = mat[:, :n + 1]
    if low < len(mat):
        _sub_matmul(mat[low:, half:], entries, mat[rows, half:], p)
    mat[dst] = mat[src]
    return mat[half:, half:]


def _prefix_ranks(n: int, d: int, comp_vals, p: int) -> list[int]:
    """The rank mod p of the layout of components 1..k of ``comp_vals``
    (the module docstring), for k = 1..K, from one elimination.

    Component 1's columns take the rows of order <= 2, and at d >= 3 the
    kernel eliminates the rows of order >= 3 of the moment blocks of the
    differences Delta_l = v_l - v_1, l >= 2 (:func:`_moment_blocks`), less
    component 2's covariance columns and their pivot rows
    (:func:`_drop_second`) after :func:`_rotate` has made its mean
    difference e_i0, i0 its first nonzero coordinate.  Where the mean
    difference is 0 the rotation and the drop are skipped.  At K = 1 or
    d <= 2 component 1 fills the rank, m = n(n+3)/2 or, at d = 1, n:
    no table is built.
    """
    m, top = n * (n + 3) // 2, len(comp_vals)
    if top == 1 or d < 3:
        return [min(m, comb(n + d, d) - 1)] * top
    vals = np.asarray(comp_vals, dtype=np.int64)
    delta = (vals[1:] - vals[0]) % p
    heads = np.flatnonzero(delta[0, :n])
    if heads.size:
        _rotate(delta, n, int(heads[0]), p)
    blocks = _moment_blocks(n, d, _moment_residues(n, d, delta, p), p)
    mat = blocks.reshape(len(blocks), -1)[m:]
    fixed = m
    if heads.size:
        mat = _drop_second(mat, n, d, int(heads[0]), p)
        fixed += n * (n + 1) // 2
    profile = rank_profile_mod_p(mat, p)
    # components 2..j+1 fill j blocks of m + 1 columns, less those fixed
    return [m] + [fixed + bisect_left(profile, j * (m + 1) + m - fixed)
                  for j in range(1, top)]


def _shown(value) -> str:
    """str(value) for a message, cut to its first 20 characters and its
    length when it is longer than 40, so that an error stays one short
    line."""
    text = str(value)
    if len(text) <= 40:
        return text
    return f"{text[:20]}... ({len(text)} characters)"


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


def _check_prime(d: int, prime: int) -> None:
    """The modulus must be a prime below 2^62, the rank kernel's range, and
    above d!, so that no coefficient of a moment polynomial or of its
    partials vanishes mod p (each divides d!).  The messages name the
    values as the command-line options do, which report them unchanged."""
    if prime >= PRIME_LIMIT:
        raise ValueError(f"--prime {_shown(prime)} must be below 2^62")
    if not is_prime(prime):
        raise ValueError(f"--prime {prime} is not prime")
    if d > 20:  # 21! > 2^62 > prime, and d! is not formed
        raise ValueError(f"--prime {prime} must exceed d!, which is above "
                         f"2^62 for --d {_shown(d)}")
    if prime <= factorial(d):
        raise ValueError(f"--prime {prime} must exceed d! = {factorial(d)}")


def _points(n: int, d: int, top: int, trials: int, seed: int, prime: int):
    """Per trial, the values of ``top`` components at a random point, as
    an int64 array with one row per component: they come from the stream
    derive_seed(seed, n, d, trial), drawn one component after another, so
    the first k components do not depend on ``top``."""
    if trials < 1:
        raise ValueError("at least one trial required")
    _check_prime(d, prime)
    m = n * (n + 3) // 2
    for t in range(trials):
        rng = SplitMix64(derive_seed(seed, n, d, t))
        yield rng.below_array(prime, top * m).view(np.int64).reshape(top, m)


def _certified(problem: SecantProblem, ranks: tuple[int, ...], seed: int,
               prime: int) -> tuple[DefectRow, RankCertificate]:
    dim = max(ranks)
    if dim > problem.expected:
        raise AssertionError(
            f"computed rank {dim} exceeds the expected dimension "
            f"{problem.expected}; this is an implementation bug")
    # Each layout entry is a partial of a moment of order <= d, of degree
    # <= d - 1 in the component's (mu, Sigma), or a difference of two such
    # moments, of degree <= d.  So a dim x dim minor has degree <= dim*d,
    # and by Schwartz-Zippel one that is a nonzero polynomial over GF(prime)
    # vanishes at a uniformly random point with probability at most
    # dim*d / prime.  At points with every weight nonzero the mixture
    # Jacobian has the layout's rank, so the generic ranks agree.
    cert = RankCertificate(prime=prime, seed=seed, trials=len(ranks),
                           prng=PRNG_NAME, ranks=ranks, reported=dim,
                           degree_bound=dim * problem.d)
    row = DefectRow(
        n=problem.n, k=problem.k, d=problem.d,
        par=problem.parameters, N=problem.ambient, exp=problem.expected,
        dim=dim, delta=problem.expected - dim,
        par_minus_dim=problem.parameters - dim)
    return row, cert


def _rows(n: int, d: int, ks, trials: int, seed: int, prime: int):
    """(DefectRow, RankCertificate) for each k in ``ks``, ascending and
    distinct, from one elimination per trial at the largest k: the rank of
    a k's layout is that of the prefix of its first k components
    (:func:`_prefix_ranks`)."""
    problems = [SecantProblem(n, d, k) for k in ks]
    if not problems:
        return
    ranks = [_prefix_ranks(n, d, comp_vals, prime) for comp_vals in
             _points(n, d, problems[-1].k, trials, seed, prime)]
    for problem in problems:
        yield _certified(problem, tuple(r[problem.k - 1] for r in ranks),
                         seed, prime)


def defect_row(problem: SecantProblem, trials: int = DEFAULT_TRIALS,
               seed: int = DEFAULT_SEED,
               prime: int = DEFAULT_PRIME) -> tuple[DefectRow, RankCertificate]:
    """The row of the k-th secant variety, whose dimension is the max
    Jacobian rank over seeded random prime-field points, with a
    reproducible certificate."""
    return next(_rows(problem.n, problem.d, [problem.k], trials, seed, prime))


def census(d: int, n_values, k_values, defective_only: bool = True,
           trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
           prime: int = DEFAULT_PRIME) -> list[DefectRow]:
    """One DefectRow per (n, k) in the given ranges, merged in (n, k) order.

    With ``defective_only`` rows with zero defect (in particular all rows
    that fill the ambient space) are dropped, matching the published tables.
    Each n costs one elimination per trial, at the largest k; every row
    equals what :func:`defect_row` gives at the same seed, prime and trials.
    """
    ks = sorted(set(k_values))
    return [row for n in sorted(set(n_values))
            for row, _ in _rows(n, d, ks, trials, seed, prime)
            if row.is_defective() or not defective_only]


# -- closed-form formulas --------------------------------------------------------


def dim_formula_d3(n: int, k: int) -> int:
    """Conjectured dimension of the k-th secant at d = 3:
    (1/6) k [k^2 - 3(n+4)k + 3n(n+6) + 23] - (n+2)."""
    if n < 2 or k < 1:
        raise ValueError("the d=3 dimension formula needs n >= 2, k >= 1")
    num = k * (k * k - 3 * (n + 4) * k + 3 * n * (n + 6) + 23)
    if num % 6:
        raise ArithmeticError(f"formula value not divisible by 6 at (n={n}, k={k})")
    return num // 6 - (n + 2)


def defect_identity_d3(n: int, k: int) -> int:
    """The rewritten identity for (parameters) - (dimension) at d = 3:
    (1/2)(k-1)(k-2) n - (1/6)(k-1)(k^2 - 11k + 6)."""
    num = 3 * (k - 1) * (k - 2) * n - (k - 1) * (k * k - 11 * k + 6)
    if num % 6:
        raise ArithmeticError(f"defect identity not integral at (n={n}, k={k})")
    return num // 6


def conjecture_eleven_defect(n: int, r: int) -> int:
    """Conjectured (n+r)-defect binom(r-1, 2) of the d = 4 moment variety."""
    if n < 8 or r < 3:
        raise ValueError("the d=4 defect pattern needs n >= 8 and r >= 3")
    return comb(r - 1, 2)


def _exact_quotient(num: int, den: int, what: str) -> int:
    if num % den:
        raise ArithmeticError(f"{what} is not an integer")
    return num // den


def degree_formula_sec2_g1(d: int) -> int:
    """Degree of the secant of two-component univariate mixtures:
    (d+7)(d-4)(d-3)(d-2)/8.  Zero for d in {2, 3, 4}; 9 at d = 5 (Pearson)."""
    if d < 2:
        raise ValueError("degree formula needs d >= 2")
    return _exact_quotient((d + 7) * (d - 4) * (d - 3) * (d - 2), 8,
                           "secant degree")


def degree_formula_sec2_x(d: int) -> int:
    """Degree of the secant of a general surface with the same matrix format:
    (d-4)(d-3)(d^2+5d-2)/8."""
    if d < 4:
        raise ValueError("general-surface degree formula needs d >= 4")
    return _exact_quotient((d - 4) * (d - 3) * (d * d + 5 * d - 2), 8,
                           "secant degree")


def degree_formula_sec3_x(d: int) -> int:
    """Trisecant degree of a general surface:
    (d-6)(d^5+3d^4-57d^3-43d^2+752d-512)/48."""
    if d < 6:
        raise ValueError("trisecant degree formula needs d >= 6")
    return _exact_quotient(
        (d - 6) * (d ** 5 + 3 * d ** 4 - 57 * d ** 3 - 43 * d ** 2
                   + 752 * d - 512), 48, "trisecant degree")


DEG_SEC2_G1_VERIFIED_MAX = 11  # largest d with the degree checked numerically
