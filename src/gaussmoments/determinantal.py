"""Determinantal representations of Gaussian moment varieties.

Three matrix families, each with linear-form entries:

* the 3 x d moment matrix of the univariate moment surface, whose 3x3
  minors cut out the surface in P^d and whose Jacobian detects the singular
  line at infinity;
* the d x (d+1) banded matrix in x, y, z whose maximal minors parametrize
  the same surface (substituting x = -var, y = mean, z = 1 turns them into
  the univariate moments), together with the structural facts about those
  minors that drive the surface nondefectivity argument (the minors come
  from their continuant recurrence, the homogenized three-term moment
  recursion); and
* the Willink moment matrix for n-dimensional Gaussians, whose rank-(n+1)
  locus is the affine moment variety and whose explicit kernel vectors carry
  the mean and covariance.

Also here: the diagonal intersection pairing on the divisor class group of
the blown-up surface, basis (L, E_p, E_z, F_1..F_s), and the hyperplane class
in that basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from .linalg import rank_rational
from .moments import GaussianParams, MomentVector, multi_indices
from .polyring import Polynomial, PolyRing, det


@dataclass(frozen=True)
class LinearMatrix:
    """A matrix whose entries are polynomials of total degree <= 1."""

    ring: PolyRing
    entries: tuple  # tuple of tuples of Polynomial

    def __post_init__(self):
        for row in self.entries:
            for e in row:
                if e.total_degree() > 1:
                    raise ValueError("matrix entry of degree > 1")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def csv_text(rows) -> str:
    """One line per row, each entry's text in double quotes."""
    return "".join(",".join(f'"{e}"' for e in row) + "\n" for row in rows)


# -- the 3 x d univariate moment matrix ---------------------------------------


def moment_ring(d: int) -> PolyRing:
    return PolyRing([f"m{i}" for i in range(d + 1)])


def build_gd(d: int) -> LinearMatrix:
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
    return LinearMatrix(ring, (tuple(top), tuple(mid), tuple(bot)))


def gd_minor_columns(d: int) -> list[tuple[int, int, int]]:
    """Column triples (1-based) in lexicographic order."""
    return [tuple(c + 1 for c in t) for t in combinations(range(d), 3)]


@lru_cache(maxsize=None)
def gd_minors(d: int) -> tuple[Polynomial, ...]:
    """All binom(d, 3) 3x3 minors of the moment matrix, as cubics."""
    g = build_gd(d)
    out = []
    for cols in combinations(range(d), 3):
        sub = [[g.entries[r][c] for c in cols] for r in range(3)]
        out.append(det(sub, g.ring))
    return tuple(out)


@lru_cache(maxsize=None)
def _gd_minor_gradients(d: int) -> tuple:
    ring = moment_ring(d)
    return tuple(
        tuple(q.differentiate(v) for v in ring.vars) for q in gd_minors(d))


def gd_jacobian_rank(d: int, values) -> int:
    """Rank of the Jacobian of the 3x3 minors at a point of A^{d+1}."""
    values = [Fraction(v) for v in values]
    if len(values) != d + 1:
        raise ValueError(f"expected {d + 1} coordinates m0..m{d}")
    ring = moment_ring(d)
    point = dict(zip(ring.vars, values))
    rows = [[g.evaluate(point) for g in grad]
            for grad in _gd_minor_gradients(d)]
    return rank_rational(rows)


def singular_locus_rank(d: int, values) -> int:
    """Jacobian rank at a point of the line m0 = ... = m_{d-2} = 0.

    The point must actually lie on that line (and not be the origin); the
    returned rank is at most d - 3, strictly below the surface codimension.
    """
    values = [Fraction(v) for v in values]
    if len(values) != d + 1:
        raise ValueError(f"expected {d + 1} coordinates m0..m{d}")
    if any(values[i] != 0 for i in range(d - 1)):
        raise ValueError("point is not on the singular line: m0..m_{d-2} must vanish")
    if values[d - 1] == 0 and values[d] == 0:
        raise ValueError("the last two coordinates must not both vanish")
    return gd_jacobian_rank(d, values)


def gd_surface_degree(d: int) -> int:
    """Degree of the univariate moment surface in P^d (formula constant)."""
    return comb(d, 2)


# -- the banded d x (d+1) parametrization matrix -------------------------------


def build_hilbert_burch(d: int) -> LinearMatrix:
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
    return LinearMatrix(ring, tuple(rows))


@lru_cache(maxsize=None)
def hb_minors(d: int) -> tuple[Polynomial, ...]:
    """The d+1 maximal minors b_0..b_d; b_i deletes column i and is monic
    with leading term y^i z^(d-i).

    Deleting column i leaves a block lower-triangular matrix: the leading
    i x i tridiagonal block, whose determinant is the continuant
    h_0 = 1, h_1 = y, h_i = y h_{i-1} - (i-1) x z h_{i-2}, and a triangular
    block with diagonal z.  So b_i = z^(d-i) h_i.
    """
    if d < 2:
        raise ValueError("the parametrization matrix needs d >= 2")
    ring = PolyRing(["x", "y", "z"])
    x, y, z = ring.var("x"), ring.var("y"), ring.var("z")
    h = [ring.one(), y]
    for i in range(2, d + 1):
        h.append(y * h[i - 1] - (x * z).scale(i - 1) * h[i - 2])
    return tuple(z ** (d - i) * h[i] for i in range(d + 1))


@dataclass(frozen=True)
class StructuralReport:
    """The three structural facts about the maximal minors used in the
    nondefectivity proof."""

    d: int
    monomials_disjoint: bool   # no monomial occurs in two different minors
    no_y2_factor: bool         # y^2 divides none of the minors
    lowest_terms_ok: bool      # lowest terms at (1:0:0) follow the z-pattern

    def all_ok(self) -> bool:
        return (self.monomials_disjoint and self.no_y2_factor
                and self.lowest_terms_ok)


def _lowest_part_at_base_point(p: Polynomial) -> dict:
    """Terms of lowest total (y,z)-degree after setting x = 1."""
    ix = p.ring.var_index("x")
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


def hb_substituted_moments(d: int, mu, var) -> list[Fraction]:
    """The minors at (x, y, z) = (-var, mu, 1): the moments of N(mu, var)."""
    point = {"x": -Fraction(var), "y": Fraction(mu), "z": Fraction(1)}
    return [q.evaluate(point) for q in hb_minors(d)]


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


def build_willink(n: int, d: int) -> LinearMatrix:
    """The binom(n+d-1, d-1) x (2n+1) moment matrix, symbolic in the moment
    coordinates: row u is
    (m_u, m_{u+e_1}, ..., m_{u+e_n}, u_1 m_{u-e_1}, ..., u_n m_{u-e_n}).
    """
    if n < 1 or d < 2:
        raise ValueError("the Willink matrix needs n >= 1 and d >= 2")
    names = [willink_variable(idx) for idx in multi_indices(n, d)]
    ring = PolyRing(names)
    rows = tuple(
        tuple(ring.var(willink_variable(idx)).scale(f) if f else ring.zero()
              for idx, f in cols)
        for _, cols in _willink_entry_rows(n, d))
    return LinearMatrix(ring, rows)


def willink_numeric(n: int, d: int, m: MomentVector) -> list[list[Fraction]]:
    """The Willink matrix at a moment vector of dimension n and order >= d."""
    if m.n != n or m.d < d:
        raise ValueError("moment vector does not match (n, d)")
    layout = _willink_entry_rows(n, d)
    return [[m[idx] * f if f else Fraction(0) for idx, f in cols]
            for _, cols in layout]


@dataclass(frozen=True)
class WillinkResult:
    rank: int
    is_member: bool
    kernel_ok: bool | None


def willink_membership(n: int, d: int, m: MomentVector,
                       params: GaussianParams | None = None) -> WillinkResult:
    """Membership in the affine moment variety by Willink rank.

    The rank is computed exactly over the rationals; membership means rank
    <= n+1.  When the generating parameters are supplied, additionally checks
    that the n kernel vectors (mu_i, -e_i, sigma_{1i}..sigma_{ni}) annihilate
    the matrix.
    """
    mat = willink_numeric(n, d, m)
    rank = rank_rational(mat)
    kernel_ok = None
    if params is not None:
        if params.n != n:
            raise ValueError("parameter dimension mismatch")
        kernel_ok = True
        for i in range(n):
            vec = [params.mean[i]]
            vec += [Fraction(-1) if j == i else Fraction(0) for j in range(n)]
            vec += [params.sigma(j, i) for j in range(n)]
            for row in mat:
                if sum(a * b for a, b in zip(row, vec)) != 0:
                    kernel_ok = False
                    break
            if not kernel_ok:
                break
    return WillinkResult(rank, rank <= n + 1, kernel_ok)


# -- divisor classes on the blown-up surface -----------------------------------


@dataclass(frozen=True)
class DivisorClass:
    """Integer coefficients on the basis L, E_p, E_z, F_1, ..., F_s."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 3:
            raise ValueError("basis must contain at least L, E_p, E_z")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def s(self) -> int:
        return len(self.coeffs) - 3


def intersection_pairing(a: DivisorClass, b: DivisorClass) -> int:
    """The diagonal form diag(1, -1, ..., -1) on the divisor basis."""
    if len(a.coeffs) != len(b.coeffs):
        raise ValueError("divisor classes over different bases")
    return a.coeffs[0] * b.coeffs[0] - sum(
        x * y for x, y in zip(a.coeffs[1:], b.coeffs[1:]))


def hd_class(d: int, c: list[int]) -> DivisorClass:
    """The hyperplane class: dL - ceil(d/2) E_p - floor(d/2) E_z - sum c_i F_i.

    The c_i are inputs (positive integers); their exact values play no role
    in the pairing arguments.
    """
    if d < 2:
        raise ValueError("hyperplane class needs d >= 2")
    if any(ci <= 0 for ci in c):
        raise ValueError("exceptional multiplicities must be positive")
    return DivisorClass((d, -((d + 1) // 2), -(d // 2), *(-ci for ci in c)))
