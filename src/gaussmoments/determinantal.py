"""Determinantal representations of Gaussian moment varieties.

Three matrix families, each with linear-form entries and each returned as
its tuple of rows:

* the 3 x d moment matrix of the univariate moment surface, whose 3x3
  minors cut out the surface in P^d: ``check --method gd`` evaluates the
  matrix at a moment vector and tests each minor as a number (criterion 8
  ranks the Jacobian of the minors on the singular line by
  ``gd_jacobian_reference`` in ``tests/util.py``);
* the d x (d+1) banded matrix in x, y, z whose maximal minors parametrize
  the same surface (substituting x = -var, y = mean, z = 1 turns them into
  the univariate moments), together with the structural facts about those
  minors that drive the surface nondefectivity argument (the minors come
  from their continuant recurrence, the homogenized three-term moment
  recursion); and
* the Willink moment matrix for n-dimensional Gaussians, whose rank-(n+1)
  locus is the affine moment variety and whose explicit kernel vectors carry
  the mean and covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .moments import MomentVector, multi_indices
from .polyring import Polynomial, PolyRing


def csv_text(rows) -> str:
    """One line per row, each entry's text in double quotes."""
    return "".join(",".join(f'"{e}"' for e in row) + "\n" for row in rows)


# -- the 3 x d univariate moment matrix ---------------------------------------


def moment_ring(d: int) -> PolyRing:
    return PolyRing([f"m{i}" for i in range(d + 1)])


def build_gd(d: int) -> tuple:
    """The 3 x d matrix with rows (0, m0, 2m1, ..., (d-1)m_{d-2}),
    (m0..m_{d-1}), (m1..m_d)."""
    if d < 3:
        raise ValueError("the moment matrix needs d >= 3")
    ring = moment_ring(d)
    m = [ring.var(f"m{i}") for i in range(d + 1)]
    zero = ring.zero()
    top = [zero] + [m[j - 1].scale(j) for j in range(1, d)]
    mid = [m[j] for j in range(d)]
    bot = [m[j + 1] for j in range(d)]
    return tuple(top), tuple(mid), tuple(bot)


# -- the banded d x (d+1) parametrization matrix -------------------------------


def build_hilbert_burch(d: int) -> tuple:
    """The d x (d+1) matrix in x, y, z with diagonal y, superdiagonal z and
    subdiagonal x, 2x, ..., (d-1)x."""
    if d < 2:
        raise ValueError("the parametrization matrix needs d >= 2")
    ring = PolyRing(["x", "y", "z"])
    x, y, z = ring.var("x"), ring.var("y"), ring.var("z")
    zero = ring.zero()
    rows = []
    for i in range(d):
        row = [zero] * (d + 1)
        if i >= 1:
            row[i - 1] = x.scale(i)
        row[i] = y
        row[i + 1] = z
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def hb_minors(d: int) -> tuple[Polynomial, ...]:
    """The d+1 maximal minors b_0..b_d; b_i deletes column i and is monic
    with leading term y^i z^(d-i).

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
    ring = PolyRing(["x", "y", "z"])
    minors = []
    for i in range(d + 1):
        terms = {}
        c = 1
        for k in range(i // 2 + 1):
            terms[k, i - 2 * k, d - i + k] = c
            # the ratio of consecutive coefficients; the quotient is exact
            c = -c * (i - 2 * k) * (i - 2 * k - 1) // (2 * (k + 1))
        minors.append(ring.from_terms(terms))
    return tuple(minors)


@dataclass(frozen=True)
class StructuralReport:
    """The three structural facts about the maximal minors used in the
    nondefectivity proof."""

    d: int
    monomials_disjoint: bool   # no monomial occurs in two different minors
    no_y2_factor: bool         # y^2 divides none of the minors
    lowest_terms_ok: bool      # lowest terms at (1:0:0) follow the z-pattern


def _lowest_part_at_base_point(p: Polynomial) -> dict:
    """Terms of lowest total (y,z)-degree after setting x = 1."""
    iy = p.ring.var_index("y")
    iz = p.ring.var_index("z")
    best = None
    part: dict = {}
    for e, c in p.terms.items():
        key = (e[iy], e[iz])
        deg = key[0] + key[1]
        if best is None or deg < best:
            best = deg
            part = {key: c}
        elif deg == best:
            part[key] = part.get(key, 0) + c
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
        for e in q.terms:
            if e in seen:
                disjoint = False
            seen.add(e)

    iy = minors[0].ring.var_index("y")
    no_y2 = all(min(e[iy] for e in q.terms) < 2 for q in minors)

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


def _willink_entry_rows(n: int, d: int):
    """Row layout: for u with |u| <= d-1 yield the 2n+1 (index, factor)
    column entries; factor 0 marks a structural zero."""
    rows = []
    for u in multi_indices(n, d - 1):
        cols = [(u, 1)]
        for i in range(n):
            up = list(u)
            up[i] += 1
            cols.append((tuple(up), 1))
        for i in range(n):
            if u[i] == 0:
                cols.append((u, 0))
            else:
                um = list(u)
                um[i] -= 1
                cols.append((tuple(um), u[i]))
        rows.append((u, cols))
    return rows


def willink_variable(idx) -> str:
    if len(idx) == 1:
        return f"m{idx[0]}"
    return "m" + "_".join(str(i) for i in idx)


def build_willink(n: int, d: int) -> tuple:
    """The binom(n+d-1, d-1) x (2n+1) moment matrix, symbolic in the moment
    coordinates: row u is
    (m_u, m_{u+e_1}, ..., m_{u+e_n}, u_1 m_{u-e_1}, ..., u_n m_{u-e_n}).
    """
    if n < 1 or d < 2:
        raise ValueError("the Willink matrix needs n >= 1 and d >= 2")
    names = [willink_variable(idx) for idx in multi_indices(n, d)]
    ring = PolyRing(names)
    return tuple(
        tuple(ring.var(willink_variable(idx)).scale(f) if f else ring.zero()
              for idx, f in cols)
        for _, cols in _willink_entry_rows(n, d))


def willink_numeric(n: int, d: int, m: MomentVector) -> list[list[Fraction]]:
    """The Willink matrix at a moment vector of dimension n and order >= d."""
    if m.n != n or m.d < d:
        raise ValueError("moment vector does not match (n, d)")
    layout = _willink_entry_rows(n, d)
    return [[m[idx] * f if f else Fraction(0) for idx, f in cols]
            for _, cols in layout]

