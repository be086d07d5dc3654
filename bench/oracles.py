"""Oracles for the benchmark, computed apart from the program.

Nothing here imports ``gaussmoments``.  The defect tables are the paper's
published rows; the formulas are re-implemented from the paper; the
third-order mixture moments come from the closed-form Gaussian moment
formula.  Each ``check_*`` function returns a list of problems, empty when
the program's output is right.

Source: C. Amendola, K. Ranestad and B. Sturmfels, "Algebraic identifiability
of Gaussian mixtures", arXiv:1612.01129 (2016).  Table 1 lists the defective
secant varieties of the order-3 moment varieties for n = 5..10; Table 2 lists
those of the order-4 moment varieties for n = 8..12.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

COLUMNS = ("n", "k", "d", "par", "N", "exp", "dim", "delta", "par_minus_dim")

# arXiv:1612.01129, Table 1 (d = 3), columns as in COLUMNS.
TABLE1 = (
    (5, 3, 3, 62, 55, 55, 51, 4, 11),
    (6, 3, 3, 83, 83, 83, 71, 12, 12),
    (6, 4, 3, 111, 83, 83, 82, 1, 29),
    (7, 3, 3, 107, 119, 107, 94, 13, 13),
    (7, 4, 3, 143, 119, 119, 111, 8, 32),
    (8, 3, 3, 134, 164, 134, 120, 14, 14),
    (8, 4, 3, 179, 164, 164, 144, 20, 35),
    (8, 5, 3, 224, 164, 164, 160, 4, 64),
    (9, 3, 3, 164, 219, 164, 149, 15, 15),
    (9, 4, 3, 219, 219, 219, 181, 38, 38),
    (9, 5, 3, 274, 219, 219, 204, 15, 70),
    (10, 3, 3, 197, 285, 197, 181, 16, 16),
    (10, 4, 3, 263, 285, 263, 222, 41, 41),
    (10, 5, 3, 329, 285, 285, 253, 32, 76),
    (10, 6, 3, 395, 285, 285, 275, 10, 120),
)

# arXiv:1612.01129, Table 2 (d = 4), columns as in COLUMNS.
TABLE2 = (
    (8, 11, 4, 494, 494, 494, 493, 1, 1),
    (9, 12, 4, 659, 714, 659, 658, 1, 1),
    (9, 13, 4, 714, 714, 714, 711, 3, 3),
    (10, 13, 4, 857, 1000, 857, 856, 1, 1),
    (10, 14, 4, 923, 1000, 923, 920, 3, 3),
    (10, 15, 4, 989, 1000, 989, 983, 6, 6),
    (11, 14, 4, 1091, 1364, 1091, 1090, 1, 1),
    (11, 15, 4, 1169, 1364, 1169, 1166, 3, 3),
    (11, 16, 4, 1247, 1364, 1247, 1241, 6, 6),
    (11, 17, 4, 1325, 1364, 1325, 1315, 10, 10),
    (12, 15, 4, 1364, 1819, 1364, 1363, 1, 1),
    (12, 16, 4, 1455, 1819, 1455, 1452, 3, 3),
    (12, 17, 4, 1546, 1819, 1546, 1540, 6, 6),
    (12, 18, 4, 1637, 1819, 1637, 1627, 10, 10),
    (12, 19, 4, 1728, 1819, 1728, 1713, 15, 15),
    (12, 20, 4, 1819, 1819, 1819, 1798, 21, 21),
)


# -- formulas from the paper -----------------------------------------------------


def parameter_count(n: int, k: int) -> int:
    """k*n*(n+3)/2 + k - 1: k means, k covariances and k-1 free weights."""
    return k * n * (n + 3) // 2 + k - 1


def ambient_dimension(n: int, d: int) -> int:
    """binom(n+d, d) - 1 moments of order 1..d."""
    return comb(n + d, d) - 1


def dim_d3(n: int, k: int) -> int:
    """The paper's closed-form dimension at d = 3:
    (1/6) k [k^2 - 3(n+4)k + 3n(n+6) + 23] - (n+2)."""
    num = k * (k * k - 3 * (n + 4) * k + 3 * n * (n + 6) + 23)
    if num % 6:
        raise ArithmeticError(f"d = 3 dimension not integral at n={n}, k={k}")
    return num // 6 - (n + 2)


def defect_d4(n: int, k: int) -> int:
    """The paper's d = 4 pattern: the (n+r)-th secant has defect
    binom(r-1, 2), for the Table 2 range n >= 8, r = k - n >= 3."""
    return comb(k - n - 1, 2)


# -- census rows -----------------------------------------------------------------


def parse_census_csv(text: str) -> tuple[dict, list[tuple[int, ...]]]:
    """The CLI's csv census output: '# key=value' header lines, the column
    line, then one row per line."""
    config: dict = {}
    lines = [line for line in text.splitlines() if line]
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition("=")
        config[key] = value
    if not lines or tuple(lines[0].split(",")) != COLUMNS:
        raise ValueError("missing or wrong census column line")
    rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    return config, rows


def _row_formula_problems(row: tuple[int, ...]) -> list[str]:
    n, k, d, par, big_n, exp, dim, delta, par_minus_dim = row
    out = []
    if par != parameter_count(n, k):
        out.append(f"par {par} != {parameter_count(n, k)} at n={n}, k={k}")
    if big_n != ambient_dimension(n, d):
        out.append(f"N {big_n} != {ambient_dimension(n, d)} at n={n}, d={d}")
    if exp != min(par, big_n):
        out.append(f"exp {exp} != min(par, N) at n={n}, k={k}")
    if delta != exp - dim or par_minus_dim != par - dim:
        out.append(f"defect columns inconsistent with dim at n={n}, k={k}")
    if d == 3 and dim != dim_d3(n, k):
        out.append(f"dim {dim} != closed form {dim_d3(n, k)} at n={n}, k={k}")
    if d == 4 and delta != defect_d4(n, k):
        out.append(f"defect {delta} != binom(r-1, 2) at n={n}, k={k}")
    return out


def check_census(text: str, table, d: int, n: int, ks, config: dict) -> list[str]:
    """Census output for one n: exactly the paper's rows for that n with k in
    ``ks``, consistent with the closed forms, and the echoed config."""
    try:
        echoed, rows = parse_census_csv(text)
    except ValueError as exc:
        return [f"unparsable census output: {exc}"]
    problems = [f"config {key}={echoed.get(key)!r}, expected {value!r}"
                for key, value in config.items() if echoed.get(key) != value]
    expected = [r for r in table if r[0] == n and r[1] in ks and r[2] == d]
    if rows != expected:
        problems.append(f"rows {rows} != paper rows {expected}")
    for row in rows:
        problems.extend(_row_formula_problems(row))
    return problems


# -- structural facts -------------------------------------------------------------

STRUCTURAL_COLUMNS = ("d", "monomials_disjoint", "no_y2_factor",
                      "lowest_terms_ok")


def check_structural(text: str, ds) -> list[str]:
    """Every d in ``ds``, in order, with all three facts true."""
    lines = [line for line in text.splitlines() if line]
    if not lines or tuple(lines[0].split(",")) != STRUCTURAL_COLUMNS:
        return ["missing or wrong structural column line"]
    expected = [f"{d},True,True,True" for d in ds]
    if lines[1:] != expected:
        return [f"structural rows {lines[1:]} != {expected}"]
    return []


# -- mixtures and their third-order moments ----------------------------------------


def exponents(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent vectors of length n and total degree <= d."""
    if n == 0:
        return [()]
    return [(a,) + rest for a in range(d + 1)
            for rest in exponents(n - 1, d - a)]


def _expand(e: tuple[int, ...]) -> list[int]:
    return [i for i, a in enumerate(e) for _ in range(a)]


def gaussian_moment3(mean, cov, e) -> Fraction:
    """E[prod x_i^e_i] for a Gaussian, total degree <= 3, by
    E[x_i x_j x_k] = mu_i mu_j mu_k + mu_i S_jk + mu_j S_ik + mu_k S_ij and
    its order-0..2 counterparts.  ``cov`` is the full symmetric matrix."""
    idx = _expand(e)
    if len(idx) == 0:
        return Fraction(1)
    if len(idx) == 1:
        return mean[idx[0]]
    if len(idx) == 2:
        i, j = idx
        return mean[i] * mean[j] + cov[i][j]
    if len(idx) == 3:
        i, j, k = idx
        return (mean[i] * mean[j] * mean[k] + mean[i] * cov[j][k]
                + mean[j] * cov[i][k] + mean[k] * cov[i][j])
    raise ValueError("only moments of order <= 3")


def full_cov(upper, n: int) -> list[list[Fraction]]:
    """Symmetric matrix from the row-major upper triangle."""
    cov = [[Fraction(0)] * n for _ in range(n)]
    pos = 0
    for i in range(n):
        for j in range(i, n):
            cov[i][j] = cov[j][i] = upper[pos]
            pos += 1
    return cov


def mixture_moments3(mixture: dict) -> dict:
    """Moments of order <= 3 of a mixture {weights, means, covs (upper)}:
    the weighted sum of the component moments."""
    n = len(mixture["means"][0])
    covs = [full_cov(c, n) for c in mixture["covs"]]
    return {e: sum(w * gaussian_moment3(mu, cov, e)
                   for w, mu, cov in zip(mixture["weights"],
                                         mixture["means"], covs))
            for e in exponents(n, 3)}


def random_mixture(rng, n: int) -> dict:
    """Two Gaussians with small random rational parameters.  The components
    differ in every mean coordinate and the weight lies strictly between 0
    and 1, which the recovery's genericity conditions ask for."""
    def frac(span=5, max_den=4):
        return Fraction(rng.randint(-span, span), rng.randint(1, max_den))

    while True:
        means = [[frac() for _ in range(n)] for _ in range(2)]
        if all(a != b for a, b in zip(*means)):
            break
    covs = [[frac() for _ in range(n * (n + 1) // 2)] for _ in range(2)]
    lam = Fraction(rng.randint(1, 11), 12)
    return {"weights": [lam, 1 - lam], "means": means, "covs": covs}


def moments_json(n: int, moments: dict) -> dict:
    """The CLI's moment-vector JSON shape."""
    return {"n": n, "d": 3, "values": [
        {"idx": list(e), "num": v.numerator, "den": v.denominator}
        for e, v in sorted(moments.items())]}


def push_off(moments: dict, e: tuple[int, ...]) -> dict:
    """The moment vector with moment ``e`` raised by 1.  Used with a moment
    x_i^2 x_j that enters the recovery only through one residual equation,
    so the point stays on the secant variety only if 1 happens to equal
    that equation's value at another root of the rest of the system."""
    out = dict(moments)
    out[e] += 1
    return out


def check_recovered(stdout: str, mixture: dict) -> list[str]:
    """The recover output must be the generating parameters, exactly, with
    residual 0."""
    try:
        data = json.loads(stdout)
        params = data["params"]
        got = {
            "weights": [Fraction(c["weight"]) for c in params["components"]],
            "means": [[Fraction(x) for x in c["mean"]]
                      for c in params["components"]],
            "covs": [[Fraction(x) for x in c["cov"]]
                     for c in params["components"]],
        }
        residual = data["residual"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable recover output: {exc!r}"]
    problems = []
    for key in ("weights", "means", "covs"):
        if got[key] != mixture[key]:
            problems.append(f"recovered {key} {got[key]} != {mixture[key]}")
    if residual != "0":
        problems.append(f"residual {residual!r} != '0'")
    return problems


def check_rejected(code: int, stdout: str, stderr: str) -> list[str]:
    """An off-variety input: exit 1, empty stdout, one-line error."""
    problems = []
    if code != 1:
        problems.append(f"exit code {code}, expected 1")
    if stdout:
        problems.append("stdout not empty on rejection")
    lines = stderr.splitlines()
    if len(lines) != 1 or not lines[0].startswith("error: "):
        problems.append(f"stderr is not one error line: {stderr!r}")
    return problems
