"""Determinantal representations of Gaussian moment varieties.

Three matrix families, each of whose entries is a coefficient times one
variable:

* the 3 x d moment matrix of the univariate moment surface, whose 3x3
  minors cut out the surface in P^d; in the chart m_0 = 1 its columns 1
  and 2 are independent, so ``check --method gd`` computes only the d - 2
  minors through them, the residuals of the three-term moment recursion;
* the d x (d+1) banded matrix in x, y, z whose maximal minors parametrize
  the same surface (substituting x = -var, y = mean, z = 1 turns them into
  the univariate moments), together with the structural facts about those
  minors that drive the surface nondefectivity argument (the minors come
  from their continuant recurrence, the homogenized three-term moment
  recursion, as maps from exponents of (x, y, z) to integer coefficients);
  and
* the Willink moment matrix for n-dimensional Gaussians, whose rank-(n+1)
  locus is the affine moment variety and whose explicit kernel vectors carry
  the mean and covariance.

Each builder returns its matrix as a layout: a tuple of rows of
(coefficient, variable name) entries, where a coefficient of 0 marks a
structural zero (whose name is None).  :func:`csv_text` prints a layout,
and :func:`evaluate` gives its matrix of Fractions at a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .moments import MomentVector, lower_index, multi_indices

_ZERO = (0, None)


def csv_text(rows) -> str:
    """One line per row, each entry's text in double quotes: a layout
    entry (c, v) as 0, v or c*v, a number as str prints it."""
    return "".join(",".join(f'"{_entry_text(e)}"' for e in row) + "\n"
                   for row in rows)


def _entry_text(entry) -> str:
    if not isinstance(entry, tuple):
        return str(entry)
    c, v = entry
    return "0" if not c else v if c == 1 else f"{c}*{v}"


def evaluate(rows, point) -> list[list[Fraction]]:
    """The matrix of a layout at ``point``, a map from variable names to
    Fractions."""
    return [[c * point[v] if c else Fraction(0) for c, v in row]
            for row in rows]


def moment_variable(idx) -> str:
    """The name of the moment m_idx in every layout: m3 on the line, and
    m1_0_2 for n = 3."""
    return "m" + "_".join(str(i) for i in idx)


def moment_point(m: MomentVector) -> dict:
    """The moment vector as a point: each moment's name to its value."""
    return {moment_variable(idx): v for idx, v in m.items()}


# -- the 3 x d univariate moment matrix ---------------------------------------


def build_gd(d: int) -> tuple:
    """The 3 x d matrix with rows (0, m0, 2m1, ..., (d-1)m_{d-2}),
    (m0..m_{d-1}), (m1..m_d)."""
    if d < 3:
        raise ValueError("the moment matrix needs d >= 3")
    m = [moment_variable((i,)) for i in range(d + 1)]
    top = (_ZERO,) + tuple((j, m[j - 1]) for j in range(1, d))
    return top, tuple((1, v) for v in m[:-1]), tuple((1, v) for v in m[1:])


# -- the banded d x (d+1) parametrization matrix -------------------------------


def build_hilbert_burch(d: int) -> tuple:
    """The d x (d+1) matrix in x, y, z with diagonal y, superdiagonal z and
    subdiagonal x, 2x, ..., (d-1)x."""
    if d < 2:
        raise ValueError("the parametrization matrix needs d >= 2")
    rows = []
    for i in range(d):
        row = [_ZERO] * (d + 1)
        if i >= 1:
            row[i - 1] = (i, "x")
        row[i] = (1, "y")
        row[i + 1] = (1, "z")
        rows.append(tuple(row))
    return tuple(rows)


def hb_minors(d: int) -> tuple[dict, ...]:
    """The d+1 maximal minors b_0..b_d, each as its terms: a map from the
    exponents (a, b, c) of x^a y^b z^c to an int coefficient.  b_i deletes
    column i and is monic with leading term y^i z^(d-i).

    Deleting column i leaves a block lower-triangular matrix: the leading
    i x i tridiagonal block, whose determinant is the continuant
    h_0 = 1, h_1 = y, h_i = y h_{i-1} - (i-1) x z h_{i-2}, and a triangular
    block with diagonal z.  So b_i = z^(d-i) h_i, written term by term from
    the closed form of the continuant, the homogenized Hermite polynomial

        h_i = sum_k (-1)^k i! / (k! (i-2k)! 2^k) (xz)^k y^(i-2k).

    Its coefficients are integers: i! / (k! (i-2k)! 2^k) counts the ways
    to pick k disjoint pairs from i positions.  At (x, y, z) = (-var, mu, 1)
    the sign (-1)^k cancels and b_i is sum_k (count) var^k mu^(i-2k), the
    i-th moment of N(mu, var).
    """
    if d < 2:
        raise ValueError("the parametrization matrix needs d >= 2")
    minors = []
    for i in range(d + 1):
        terms = {}
        c = 1
        for k in range(i // 2 + 1):
            terms[k, i - 2 * k, d - i + k] = c
            # the ratio of consecutive coefficients; the quotient is exact
            c = -c * (i - 2 * k) * (i - 2 * k - 1) // (2 * (k + 1))
        minors.append(terms)
    return tuple(minors)


@dataclass(frozen=True)
class StructuralReport:
    """The three structural facts about the maximal minors used in the
    nondefectivity proof."""

    d: int
    monomials_disjoint: bool   # no monomial occurs in two different minors
    no_y2_factor: bool         # y^2 divides none of the minors
    lowest_terms_ok: bool      # lowest terms at (1:0:0) follow the z-pattern


def _lowest_part_at_base_point(terms: dict) -> dict:
    """Terms of lowest total (y,z)-degree after setting x = 1, keyed by
    their (y, z) exponents."""
    best = None
    part: dict = {}
    for (_, y, z), c in terms.items():
        deg = y + z
        if best is None or deg < best:
            best = deg
            part = {(y, z): c}
        elif deg == best:
            part[y, z] = part.get((y, z), 0) + c
    return {k: v for k, v in part.items() if v != 0}


def hb_structural_checks(d: int) -> StructuralReport:
    """Check the three facts: monomial-disjointness, no y^2 factor, and the
    lowest-degree terms z^d, yz^{d-1}, z^{d-1}, yz^{d-2}, ... at (1:0:0)."""
    if d < 3:
        raise ValueError("structural checks need d >= 3")
    minors = hb_minors(d)

    seen: set = set()
    disjoint = True
    for q in minors:
        for e in q:
            if e in seen:
                disjoint = False
            seen.add(e)

    no_y2 = all(min(y for _, y, _ in q) < 2 for q in minors)

    lowest_ok = True
    for i, q in enumerate(minors):
        part = _lowest_part_at_base_point(q)
        if i % 2 == 0:
            expected = (0, d - i // 2)
        else:
            expected = (1, d - (i + 1) // 2)
        if set(part) != {expected}:
            lowest_ok = False

    return StructuralReport(d, disjoint, no_y2, lowest_ok)


# -- the Willink matrix ---------------------------------------------------------


def build_willink(n: int, d: int) -> tuple:
    """The binom(n+d-1, d-1) x (2n+1) moment matrix, symbolic in the moment
    coordinates: row u, for each u with |u| <= d-1, is
    (m_u, m_{u+e_1}, ..., m_{u+e_n}, u_1 m_{u-e_1}, ..., u_n m_{u-e_n}).
    Any d >= 0 is taken: ``check --method willink`` ranks the matrix at
    every order, the one row of d = 1 included.
    """
    name = {idx: moment_variable(idx) for idx in multi_indices(n, d)}
    rows = []
    for u in multi_indices(n, d - 1):
        row = [(1, name[u])]
        row += [(1, name[u[:i] + (u[i] + 1,) + u[i + 1:]]) for i in range(n)]
        row += [(u[i], name[lower_index(u, i)]) if u[i] else _ZERO
                for i in range(n)]
        rows.append(tuple(row))
    return tuple(rows)
