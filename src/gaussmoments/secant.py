"""Dimensions and defects of secant varieties of Gaussian moment varieties.

The dimension of the k-th secant variety equals the generic rank of the
Jacobian of the mixture parametrization, computed here exactly over a prime
field at seeded random points.  Each entry is a Gaussian moment or one of
its partials.  The moments come from the recursion
m_{a+e_i} = mu_i m_a + sum_j a_j sigma_ij m_{a-e_j} (see
:func:`moments.gaussian_moment_table`), run once for all components, on
object arrays that hold one exact int per component, and reduced mod p;
the partials then have closed forms:

* dm_a/dmu_i = a_i m_{a-e_i};
* dm_a/dsigma_ij = a_i a_j m_{a-e_i-e_j} for i < j;
* dm_a/dsigma_ii = a_i (a_i - 1)/2 m_{a-2e_i}.

Let A_l be the N x m matrix of the partials of component l's moments of
order 1..d in its m = n(n+3)/2 coordinates (mu, sigma), and M_l the vector
of those moments.  The Jacobian of the mixture sum_l lambda_l M_l, with the
last weight eliminated (lambda_k = 1 - sum), is
[lambda_1 A_1 | ... | lambda_k A_k | M_1 - M_k | ... | M_{k-1} - M_k]
(:func:`secant_jacobian`); its column count is exactly the parameter count
k*n*(n+3)/2 + k - 1.

Ranks are computed from the layout
[A_1 | A_2, M_2 - M_1 | ... | A_k, M_k - M_1] instead, which has no
weights.  Where every weight is nonzero it has the same column space as the
mixture Jacobian: weights only scale the A-blocks, and
M_l - M_k = (M_l - M_1) - (M_k - M_1).  So the two have the same rank
there, and the same generic rank (Terracini's lemma: dim Sec_k is the
dimension of the span of k tangent spaces).  The first k components of the layout fill
its first k*(m+1) - 1 columns, so the layout of K components holds the one
of every k <= K as a column prefix.  The component values of a trial come
from one stream, derive_seed(seed, n, d, trial), drawn one component after
another, so they do not depend on k, and one elimination's column rank
profile gives the rank for every k <= K: :func:`census` does one
elimination per (n, trial).  That elimination starts below the first
component's block of moments of order <= 2, which is invertible in closed
form: only the Schur complement of that block is eliminated
(:func:`_layout_profile` says why the profile is preserved), and
:func:`secant_dimension` does the same.

A reported dimension is a certified lower bound for the generic rank; by
Schwartz-Zippel it equals the generic rank with probability at least
1 - r*d/p per trial, which the attached certificate records.

The closed-form dimension, defect and degree formulas from the d=3 and d=4
censuses live here as exact integer evaluations.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

# rank_mod_p stays importable here: bench/spans.py wraps secant.rank_mod_p
from .linalg import (PRIME_LIMIT, _fold, _sub_matmul, rank_mod_p,  # noqa: F401
                     rank_profile_mod_p)
from .moments import (Index, MixtureParams, gaussian_moment_table,
                      lower_index, multi_indices, sigma_var_index)
from .polyring import is_prime
from .rng import PRNG_NAME, SplitMix64, derive_seed

# Fixed 62-bit default prime (2^62 - 57).  Every nonzero coefficient of a
# moment polynomial m_a, and of its partials, divides a_1! ... a_n! and so
# d!; a prime above d! reduces none of them to 0.  This one exceeds 20!, for
# every order d <= 20 used in rank runs, and Schwartz-Zippel failure is
# negligible.
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

    def astuple(self) -> tuple[int, ...]:
        return (self.n, self.k, self.d, self.par, self.N, self.exp, self.dim,
                self.delta, self.par_minus_dim)

    def is_defective(self) -> bool:
        return self.delta > 0


# -- Jacobian machinery --------------------------------------------------------


def _partials(a: Index):
    """Each nonzero partial of m_a as (parameter position, c, b), meaning
    dm_a/dparameter = c * m_b: the closed forms in the module docstring."""
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


def _moment_residues(n: int, d: int, comp_vals, p: int):
    """Every moment of order 0..d of each component mod p, as an int64
    array: one row per moment, in graded-lex order, and one column per
    component.  One moment table serves all K components: its entries are
    object arrays of K exact ints."""
    vals = np.array(comp_vals, dtype=object).T
    table = gaussian_moment_table(
        vals[:n], lambda i, j: vals[sigma_var_index(n, i, j)], d, 1)
    moments = np.empty((len(table), len(comp_vals)), dtype=object)
    for i, v in enumerate(table.values()):
        moments[i] = v
    return (moments % p).astype(np.int64)


@lru_cache(maxsize=32)
def _partials_index(n: int, d: int):
    """Where :func:`_moment_blocks` puts each nonzero partial c * m_b, as
    read-only intp arrays: its row (the moment differentiated, less 1), its
    column in a component's block (1 + parameter position), the graded-lex
    position of b, and which of the distinct coefficients ``scales`` c is.
    They do not depend on the point, so they are built once per (n, d)."""
    # a moment's position in the graded-lex table; order 0 is position 0,
    # so the moments of order 1..d (the rows) sit at positions 1..N
    index = {a: i for i, a in enumerate(multi_indices(n, d))}
    rows, cols, coefs, srcs = np.array(
        [(index[a] - 1, j + 1, c, index[b]) for a in list(index)[1:]
         for j, c, b in _partials(a)], dtype=np.intp).T
    scales, which = np.unique(coefs, return_inverse=True)
    out = rows, cols, srcs, scales, which
    for arr in out:
        arr.flags.writeable = False
    return out


def _moment_blocks(n: int, d: int, comp_vals, p: int):
    """All K components at once, as an N x K x (m+1) int64 array B of
    residues mod p: B[:, l, 0] is M_l, the moments of order 1..d of
    component l, and B[:, l, 1:] is A_l, their partials in its
    m = n(n+3)/2 (mu, sigma) coordinates.

    Each nonzero partial is c * m_b for a small int c (:func:`_partials`),
    so the partials are gathered, in one index assignment, from the
    moments of :func:`_moment_residues` times each distinct c.
    """
    m = n * (n + 3) // 2
    moments = _moment_residues(n, d, comp_vals, p)
    rows, cols, srcs, scales, which = _partials_index(n, d)
    # c * x mod p for x < p: the int64 product wraps, and its quotient
    # estimate x * (c/p) < c is off by far less than the 1 _fold allows
    scaled = np.stack([_fold(c * moments, moments * (c / p), p)
                       for c in scales])
    blocks = np.zeros((len(moments) - 1, len(comp_vals), m + 1),
                      dtype=np.int64)
    blocks[:, :, 0] = moments[1:]
    blocks[rows, :, cols] = scaled[which, srcs]
    return blocks


def _terracini_mod_p(n: int, d: int, comp_vals, p: int):
    """The layout [A_1 | A_2, M_2 - M_1 | ... | A_K, M_K - M_1] mod p of the
    module docstring, an int64 array: its first k components fill the first
    k*(m+1) - 1 columns.  It is a view of :func:`_moment_blocks` with M_1
    subtracted, less its first column (M_1 - M_1 = 0)."""
    blocks = _moment_blocks(n, d, comp_vals, p)
    moments = blocks[:, :, 0]
    moments[:] = (moments - moments[:, :1]) % p
    return blocks.reshape(len(blocks), -1)[:, 1:]


def _unit_columns(n: int, d: int) -> list[int]:
    """For each moment of order 1..min(d, 2), in graded-lex order, the
    coordinate in which its partial is 1: mu_i for x_i, and sigma_ij for
    x_i x_j."""
    cols = []
    for a in multi_indices(n, min(d, 2), min_order=1):
        pos = [i for i in range(n) for _ in range(a[i])]
        cols.append(pos[0] if len(pos) == 1 else sigma_var_index(n, *pos))
    return cols


def _layout_profile(layout, n: int, d: int, p: int) -> list[int]:
    """Column rank profile mod p of a layout from :func:`_terracini_mod_p`,
    eliminating only the Schur complement of its first m x m block; the
    layout is overwritten.

    The first m rows, the moments of order 1..min(d, 2), meet the first m
    columns, component 1's partials in mu and (for d >= 2) sigma, in
    T = [[P1, 0], [X, P2]]: the row of x_i has a 1 in column mu_i, that of
    x_i x_j a 1 in column sigma_ij (:func:`_unit_columns`), and X holds the
    order-2 rows' mean partials mu_j and 2 mu_i.  So T is invertible at
    every point and every prime.  With L = [[T, B], [C, D]], subtracting
    C T^-1 times the first m rows from the others changes no dependency
    among the columns, and then subtracting the first m columns times
    T^-1 B from the later ones adds to each column a combination of
    earlier ones.  Neither step changes the column rank profile, and they
    leave [[T, 0], [0, S]] with S = D - C T^-1 B.  So the profile is
    0..m-1 followed by m + the profile of S.

    S is formed in place on the layout.  With P = diag(P1, P2),
    T^-1 B = [P1^T B1; P2^T (B2 - X P1^T B1)] = P^T B' for
    B' = [B1; B2 - X P1^T B1].  B2 is overwritten by B2 - X P1^T B1, and D
    by S = D - (C P^T) B'.  X P1^T and C P^T are the columns of X and C in
    the order of the rows' unit entries, taken from the index maps and not
    from matrix values, so each update is one _sub_matmul.  At d = 1, T is
    the identity on the mu columns, X, B2 and S have no rows, and the
    profile is 0..n-1.
    """
    cols = _unit_columns(n, d)
    m = len(cols)
    b = layout[:m, m:]
    _sub_matmul(b[n:], layout[n:m, cols[:n]], b[:n], p)
    _sub_matmul(layout[m:, m:], layout[m:, cols], b, p)
    return list(range(m)) + [m + j for j in
                             rank_profile_mod_p(layout[m:, m:], p)]


def _shown(value) -> str:
    """str(value) for a message, cut to its first 20 characters and its
    length when it is longer than 40, so that an error stays one short
    line."""
    text = str(value)
    if len(text) <= 40:
        return text
    return f"{text[:20]}... ({len(text)} characters)"


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


def _params_to_modular(point: MixtureParams, p: int):
    def red(x: Fraction) -> int:
        den = x.denominator % p
        if den == 0:
            raise ZeroDivisionError("parameter denominator vanishes mod p")
        return x.numerator % p * pow(den, p - 2, p) % p

    comp_vals = [
        [red(x) for x in comp.mean] + [red(x) for x in comp.cov_upper]
        for comp in point.components
    ]
    weights = [red(w) for w in point.weights]
    return comp_vals, weights


def secant_jacobian(problem: SecantProblem, point: MixtureParams,
                    prime: int = DEFAULT_PRIME) -> list[list[int]]:
    """The N x par Jacobian of the mixture parametrization at the point,
    over GF(prime): per component its weight times its partials, then for
    each free weight the difference between its component's moments and the
    last component's.  The prime must exceed d! and be below 2^62."""
    _check_prime(problem.d, prime)
    if point.n != problem.n or point.k != problem.k:
        raise ValueError("parameter point does not match the problem")
    comp_vals, weights = _params_to_modular(point, prime)
    # object arrays: a weight times a residue overflows int64
    blocks = _moment_blocks(problem.n, problem.d, comp_vals,
                            prime).astype(object)
    moments = blocks[:, :, 0]
    partials = blocks[:, :, 1:] * np.array(weights, dtype=object)[:, None]
    return np.hstack([partials.reshape(len(blocks), -1) % prime,
                      (moments[:, :-1] - moments[:, -1:]) % prime]).tolist()


def _layouts(n: int, d: int, top: int, trials: int, seed: int, prime: int):
    """Per trial, the layout of ``top`` components at a random point: their
    values come from the stream derive_seed(seed, n, d, trial), drawn one
    component after another, so the first k components do not depend on
    ``top``."""
    if trials < 1:
        raise ValueError("at least one trial required")
    _check_prime(d, prime)
    m = n * (n + 3) // 2
    for t in range(trials):
        rng = SplitMix64(derive_seed(seed, n, d, t))
        comp_vals = [[rng.below(prime) for _ in range(m)]
                     for _ in range(top)]
        yield _terracini_mod_p(n, d, comp_vals, prime)


def _certified(problem: SecantProblem, ranks: tuple[int, ...], seed: int,
               prime: int) -> tuple[int, RankCertificate]:
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
    return dim, cert


def _defect_row(problem: SecantProblem, dim: int) -> DefectRow:
    return DefectRow(
        n=problem.n, k=problem.k, d=problem.d,
        par=problem.parameters, N=problem.ambient, exp=problem.expected,
        dim=dim, delta=problem.expected - dim,
        par_minus_dim=problem.parameters - dim)


def secant_dimension(problem: SecantProblem, trials: int = DEFAULT_TRIALS,
                     seed: int = DEFAULT_SEED,
                     prime: int = DEFAULT_PRIME) -> tuple[int, RankCertificate]:
    """Dimension of the k-th secant variety as the max Jacobian rank over
    seeded random prime-field points, with a reproducible certificate."""
    n, d = problem.n, problem.d
    ranks = tuple(len(_layout_profile(layout, n, d, prime)) for layout in
                  _layouts(n, d, problem.k, trials, seed, prime))
    return _certified(problem, ranks, seed, prime)


def defect_row(problem: SecantProblem, trials: int = DEFAULT_TRIALS,
               seed: int = DEFAULT_SEED,
               prime: int = DEFAULT_PRIME) -> tuple[DefectRow, RankCertificate]:
    dim, cert = secant_dimension(problem, trials=trials, seed=seed, prime=prime)
    return _defect_row(problem, dim), cert


def census(d: int, n_values, k_values, defective_only: bool = True,
           trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
           prime: int = DEFAULT_PRIME) -> list[DefectRow]:
    """One DefectRow per (n, k) in the given ranges, merged in (n, k) order.

    ``k_values`` is either an iterable of k, or a mapping n -> iterable of k.
    With ``defective_only`` rows with zero defect (in particular all rows
    that fill the ambient space) are dropped, matching the published tables.
    Each n costs one elimination per trial, at the largest k; every row
    equals what :func:`defect_row` gives at the same seed, prime and trials.
    """
    rows = []
    for n in sorted(set(n_values)):
        ks = k_values[n] if isinstance(k_values, dict) else k_values
        problems = [SecantProblem(n, d, k) for k in sorted(set(ks))]
        if not problems:
            continue
        # the rank of a problem's layout is that of its column prefix
        profiles = [_layout_profile(layout, n, d, prime) for layout in
                    _layouts(n, d, problems[-1].k, trials, seed, prime)]
        for problem in problems:
            ranks = tuple(bisect_left(profile, problem.parameters)
                          for profile in profiles)
            dim, _ = _certified(problem, ranks, seed, prime)
            row = _defect_row(problem, dim)
            if defective_only and not row.is_defective():
                continue
            rows.append(row)
    return rows


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
