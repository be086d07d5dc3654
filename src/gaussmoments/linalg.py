"""Exact matrix kernels: integer/rational rank, and prime-field rank and
column rank profile.

One elimination strategy per coefficient domain:

* fraction-free (Bareiss) elimination over the integers for rational
  matrices (rows are scaled integer vectors, so no coefficient blow-up from
  fractions); and
* blocked Gaussian elimination over GF(p), for every prime p < 2^62, on an
  int64 array of residues.  The columns split in half recursively down to
  blocks of at most _BASE_WIDTH columns, and each block is eliminated in
  rounds: up to a block's width of its rows by Gauss-Jordan with Python
  ints, then every other row by one matrix product.  So all other work is
  matrix products mod p, computed with float64 BLAS, and they are exact:
  residues are split into limbs of at most 21 bits, so a limb product is
  below 2^42, and no float64 product sums more than 2048 of them, so every
  value BLAS forms is an integer below 2^53, which float64 represents
  exactly whatever the order of summation.  The limb products are
  recombined in int64; the one float64 quotient estimate there is within 1
  of the true quotient (proved in ``_sub_matmul`` and ``_fold``) and is
  corrected with exact wrapping integer arithmetic.

No result depends on floating-point rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np


def _rows_to_int(rows) -> list[list[int]]:
    out = []
    for row in rows:
        fr = [x if isinstance(x, Fraction) else Fraction(x) for x in row]
        scale = lcm(*(f.denominator for f in fr)) if fr else 1
        out.append([int(f * scale) for f in fr])
    return out


def rank_rational(rows) -> int:
    """Exact rank of a matrix with int/Fraction entries (Bareiss over Z)."""
    m = _rows_to_int(rows)
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        if rank == n_rows:
            break
        piv = next((i for i in range(rank, n_rows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        row_p = m[rank]
        for i in range(rank + 1, n_rows):
            row_i = m[i]
            head = row_i[col]
            # every remaining row is rescaled by the pivot; this keeps the
            # divisions by the previous pivot exact (fraction-free invariant)
            m[i] = [(row_i[j] * pivot - head * row_p[j]) // prev
                    for j in range(n_cols)]
        prev = pivot
        rank += 1
    return rank


# -- rank over GF(p) ----------------------------------------------------------

# Primes below this bound are supported: residues fit in int64 with a spare
# bit, so the differences _fold forms, which lie in [-p, 2p), are exact int64
# values.
PRIME_LIMIT = 1 << 62

# Residues are split into limbs of at most 21 bits, so a limb product is
# below 2^42 and a float64 dot product of at most 2^(53-42) = 2048 of them is
# an integer below 2^53: every partial sum is an exact float64, whatever order
# BLAS adds in.
_MAX_LIMB_BITS = 21
_EXACT_TERMS = 1 << (53 - 2 * _MAX_LIMB_BITS)

# Column blocks at most this wide go to the base case; wider ones are split
# in half, so all other work is matmuls.
_BASE_WIDTH = 8

# Columns of the right operand per matmul tile: bounds the limb copies of it
# (limbs^2 words per entry) and the temporaries of the result.
_TILE = 64


def _limbs(p: int) -> tuple[int, int]:
    """(count, width): residues mod p as `count` limbs of `width` bits, with
    count <= 3 and width <= 21 for p < 2^62, and p > 2^(count*(width-1))."""
    bits = max(1, (p - 1).bit_length())
    count = -(-bits // _MAX_LIMB_BITS)
    return count, -(-bits // count)


def _fold(v, f, p: int):
    """V mod p, from v = V mod 2^64 (wrapped int64) and a float64 estimate f
    of V/p with |f - V/p| < 1, for V >= 0.

    floor(f) is then within 1 of floor(V/p), so V - floor(f)*p lies in
    [-p, 2p).  That range is inside int64 because p < 2^62, so the wrapping
    int64 difference is exact, and two corrections by p bring it into
    [0, p): one by :func:`_add_p_if_negative`, then the unsigned minimum
    of v and v - p, where v - p wraps above v for v < p.
    """
    v -= f.astype(np.int64) * p
    _add_p_if_negative(v, p)
    u = v.view(np.uint64)
    np.minimum(u, u - p, out=u)
    return v


def _add_p_if_negative(v, p: int) -> None:
    """v <- v + p in place where v < 0, for an int64 array v >= -p and
    p < 2^62.  As uint64 a negative v is at least 2^63 and v + p wraps
    below it, while v >= 0 gives v + p < 2^63 above it: so the unsigned
    minimum of the two, two passes over v, is the corrected value."""
    u = v.view(np.uint64)
    np.minimum(u, u + p, out=u)


def _shift(y, bits: int, p: int):
    """y * 2^bits mod p for residues y and bits <= 42.  The estimate
    fl(fl(y) * fl(2^bits / p)) has three roundings of relative error 2^-53
    on a quotient below 2^42, so its error is below 2^-9."""
    return _fold(y << bits, y * (float(1 << bits) / p), p)


def _sub_matmul(c, x, y, p: int) -> None:
    """c <- (c - x @ y) mod p in place, for int64 arrays of residues.

    With x_i the limbs of x and y^(i) = 2^(width*i) y mod p,
    x @ y = V = sum_j 2^(width*j) Q_j mod p, Q_j = sum_i x_i @ limb_j(y^(i)).
    Each Q_j is one float64 matmul over limbs, exact once its inner
    dimension is chunked to at most _EXACT_TERMS.

    V mod p is folded from the estimate f = sum_j Q_j * fl(2^(width*j) / p).
    Q_j < 2^(11 + 2 width), so V < 2^(12 + width*(count+1)), and
    p > 2^(count*(width-1)) gives V/p < 2^(12 + width + count) <= 2^36.  Each
    term of f has at most four roundings (constant, product, two additions)
    of relative error 2^-53 and all terms are non-negative, so
    |f - V/p| < 4.01 * 2^-53 * 2^36 < 2^-14: the error _fold needs below 1.
    """
    count, width = _limbs(p)
    mask = (1 << width) - 1
    scales = [float(1 << (width * j)) / p for j in range(count)]
    step = _EXACT_TERMS // count
    for s in range(0, x.shape[1], step):
        xs = np.concatenate([(x[:, s:s + step] >> (width * i)) & mask
                             for i in range(count)], axis=1, dtype=np.float64)
        for t in range(0, y.shape[1], _TILE):
            yt = y[s:s + step, t:t + _TILE]
            shifted = [yt] + [_shift(yt, width * i, p)
                              for i in range(1, count)]
            v = f = None
            for j in range(count):
                ys = np.concatenate([(y_i >> (width * j)) & mask
                                     for y_i in shifted],
                                    axis=0, dtype=np.float64)
                q = xs @ ys
                term = q.astype(np.int64)
                term <<= width * j
                q *= scales[j]
                if v is None:
                    v, f = term, q
                else:
                    v += term
                    f += q
            ct = c[:, t:t + _TILE]
            ct -= _fold(v, f, p)
            _add_p_if_negative(ct, p)


def _eliminate(a, c0: int, c1: int, p: int, need_g: bool) -> list[int]:
    """Column rank profile of columns c0..c1-1 of the row block a (int64
    residues), in place: the columns, in increasing order, that are not in
    the span of the columns before them in c0..c1-1.

    Whole rows of a are moved so that a[:k] are the pivot rows, k the
    rank: rows whose entries in the profile columns form an invertible
    matrix (:func:`_eliminate_narrow` says which rows it takes).  Columns
    outside c0..c1-1
    are only permuted; inside, a is scratch, except that with need_g
    a[k:, c0:c0+k] ends holding G, the matrix with
    a[k:, c0:c1] = G @ a[:k, c0:c1] mod p for the entries as they were on
    entry.

    Wider blocks split in half by columns, as in the recursive rank-profile
    eliminations of Jeannerod, Pernet and Storjohann (JSC 2013): G1 of the
    left half updates the right half of the remaining rows, and the two G's
    combine as G = [G1_rest - G2 @ G1_pivots2 | G2].  The profile is that of
    the left half, then that of the right half of the updated rows.
    """
    h = a.shape[0]
    if h == 0:
        return []
    if c1 - c0 <= _BASE_WIDTH:
        return _eliminate_narrow(a, c0, c1, p, need_g)
    mid = (c0 + c1) // 2
    left = _eliminate(a, c0, mid, p, True)
    k1 = len(left)
    rest = a[k1:]
    if k1 and len(rest):
        _sub_matmul(rest[:, mid:c1], rest[:, c0:c0 + k1], a[:k1, mid:c1], p)
    right = _eliminate(rest, mid, c1, p, need_g)
    k2 = len(right)
    low = rest[k2:]
    if need_g and k2 and len(low):
        g2 = low[:, mid:mid + k2].copy()
        if k1:
            _sub_matmul(low[:, c0:c0 + k1], g2, rest[:k2, c0:c0 + k1], p)
        low[:, c0 + k1:c0 + k1 + k2] = g2
    return left + right


def _eliminate_narrow(a, c0: int, c1: int, p: int,
                      need_g: bool) -> list[int]:
    """The base case of _eliminate: the block's w columns in rounds, on a
    slab that holds the block and then w columns tracking G.

    A round takes up to w of the rows still nonzero on the block, spread
    evenly over them (sparse rows tend to sit together), and runs
    Gauss-Jordan on them with Python ints (:func:`_gauss_jordan`).  That
    gives the round's pivot columns J and its pivot rows P, reduced to
    inv @ P with inv the inverse of P on J.  One _sub_matmul subtracts from
    every other nonzero row its entries on J times the reduced rows: that
    is the row's residual, zero on every pivot column so far, and its G on
    the tracking columns.  If every column of the block is now a pivot,
    the block is done with no check: P on the pivot columns is invertible,
    so each residual is zero.  Otherwise the next round runs on the rows
    whose residual is nonzero, until none is left.

    The block's profile is the union of the rounds' J.  The rows of a round
    are row-equivalent to [P; residuals], and J, the profile of the round's
    candidate rows, is also the profile of P.  Every column of P is thus a
    combination of the columns of J before it, so a combination of P's rows
    that vanishes on J before column c vanishes before c.  Since the
    residuals vanish on J, the rank of the columns before c is the number
    of J before c plus the residuals' rank there.

    Invariant: every row of the slab is (entry row) - D @ (entry pivot
    rows), with D in the tracking columns.  A new pivot row t gets -1 in
    tracking column t, so subtracting a multiple of it from the other rows
    updates their D as well; at the end the non-pivot rows are zero on the
    block and D is G.  Last, the pivot rows move to the top, in pivot order.
    """
    h, w = a.shape[0], c1 - c0
    slab = np.zeros((h, 2 * w), dtype=np.int64)
    slab[:, :w] = a[:, c0:c1]
    width = 2 * w if need_g else w
    pivots, pivot_rows = [], []
    live = np.flatnonzero(slab[:, :w].any(axis=1))
    while live.size:
        take = min(w, live.size)
        pick = np.arange(take) * live.size // take
        cand = live[pick]
        rows = slab[cand].tolist()
        found = _gauss_jordan(rows, w, len(pivots), p)
        slab[cand] = rows
        pivots += [j for j, _ in found]
        pivot_rows += [int(cand[r]) for _, r in found]
        others = np.delete(live, pick)
        if not others.size or len(pivots) == w and not need_g:
            break
        # the reduced pivot rows are the identity on the new pivot columns
        # and zero on the earlier ones, so the others end zero on both
        update = slab[others, :width]
        _sub_matmul(update, update[:, [j for j, _ in found]],
                    np.array([rows[r][:width] for _, r in found],
                             dtype=np.int64), p)
        slab[others, :width] = update
        if len(pivots) == w:
            break
        live = others[update[:, :w].any(axis=1)]
    k = len(pivots)
    # pivot row t to position t; the rows it displaces fill the vacancies
    if pivot_rows != list(range(k)):
        taken = set(pivot_rows)
        src = pivot_rows + [t for t in range(k) if t not in taken]
        dst = list(range(k)) + [r for r in pivot_rows if r >= k]
        a[dst] = a[src]
        slab[dst] = slab[src]
    if need_g and k:
        a[k:, c0:c0 + k] = slab[k:, w:w + k]
    return sorted(c0 + j for j in pivots)


def _gauss_jordan(rows: list, w: int, k: int, p: int) -> list:
    """Gauss-Jordan elimination over GF(p), in place, of rows of Python ints
    on their first w columns, the block; the rest are tracking columns.
    Returns the new pivots as (column, row) in column order; the i-th of
    them, pivot k + i of the block, gets -1 in tracking column w + k + i
    before it is used, and ends with 1 in its column and 0 in the other
    pivot columns, as every other row does."""
    found, used = [], set()
    for j in range(w):
        r = next((r for r, row in enumerate(rows) if row[j] and r not in used),
                 None)
        if r is None:
            continue
        # every row not yet used is zero before column j
        piv = rows[r]
        piv[w + k + len(found)] = p - 1
        inv = pow(piv[j], -1, p)
        piv[j:] = [x * inv % p for x in piv[j:]]
        for s, row in enumerate(rows):
            f = row[j]
            if f and s != r:
                row[j:] = [(x - f * y) % p for x, y in zip(row[j:], piv[j:])]
        found.append((j, r))
        used.add(r)
    return found


def rank_profile_mod_p(rows, p: int) -> list[int]:
    """Column rank profile over GF(p) of an integer matrix, for a prime
    2 <= p < 2^62, by the exact blocked elimination described in the module
    docstring: the increasing list of columns j that are not in the span of
    columns 0..j-1.  So the rank of the first c columns is the number of
    profile entries below c, and the rank of the matrix is its length.

    ``rows`` is a sequence of integer rows or a 2-D numpy array.  An int64
    array is reduced mod p and eliminated in place, so its contents are
    destroyed; any other input is copied into one, a row at a time.
    """
    if not 2 <= p < PRIME_LIMIT:
        raise ValueError(f"prime {p} out of range: need 2 <= p < 2^62")
    if isinstance(rows, np.ndarray) and rows.dtype == np.int64:
        a = rows
        np.remainder(a, p, out=a)
    else:
        rows = list(rows)
        a = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=np.int64)
        for i, row in enumerate(rows):
            a[i] = [int(x) % p for x in row]
    if a.ndim != 2:
        raise ValueError("rank of a non-matrix")
    return _eliminate(a, 0, a.shape[1], p, False)


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p): the length of :func:`rank_profile_mod_p`, with the
    same inputs, range and in-place behaviour."""
    return len(rank_profile_mod_p(rows, p))

