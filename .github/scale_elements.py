"""The elements of the workflow's scale steps, each built in one place.

`rows(case)` returns (family, n, rows) for a case name, rows being the n x n
matrix as lists of ints or Fractions; `element_json(case)` returns
(family, n, the CLI's --element JSON). A step imports them with
`PYTHONPATH=src:.github`.
"""

import json
from fractions import Fraction

from orbitcharts.liealg import build_classical
from orbitcharts.rng import SplitMix64


def _upper(family, n, d=None):
    """The strictly upper-triangular basis elements of so(n) or sp(n); with
    ``d``, only those that commute with diag(d)."""
    return [b for b in build_classical(family, n).basis
            if all(not b.at(i, j) for i in range(n) for j in range(i + 1))
            and (d is None or all(b.at(i, j) * (d[i] - d[j]) == 0
                                  for i in range(n) for j in range(n)))]


def _diagonal(d):
    n = len(d)
    return [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _inverse(m):
    """The inverse of the square matrix m by Gauss-Jordan elimination in
    Fractions, or None when m is singular."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        pr = next((r for r in range(c, n) if aug[r][c]), None)
        if pr is None:
            return None
        aug[c], aug[pr] = aug[pr], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _cayley(family, n, kind):
    """g m g^-1 for g = (I - A)^-1 (I + A), the Cayley transform of A in
    so(n) or sp(n), which preserves the form: a dense element of the orbit
    of m. A is the sum c_i b_i over the basis, one SplitMix64(5).randint(-1,
    1) per c_i, redrawn until I - A is invertible; g^-1 = (I + A)^-1 (I -
    A). With k = n // 2, m is diag(k, ..., 1, (0), -1, ..., -k)
    ("diagonal"), the sum of the strictly upper basis elements
    ("nilpotent"), or diag(1, ..., 1, (0), -1, ..., -1) plus the strictly
    upper basis elements that commute with it ("mixed")."""
    algebra = build_classical(family, n)
    k = n // 2
    if kind == "diagonal":
        m = _diagonal(list(range(k, 0, -1)) + [0] * (n % 2) + list(range(-1, -k - 1, -1)))
    else:
        d = [0] * n if kind == "nilpotent" else [1] * k + [0] * (n % 2) + [-1] * k
        upper = _upper(family, n, None if kind == "nilpotent" else d)
        m = [[(d[i] if i == j else 0) + sum(b.at(i, j) for b in upper) for j in range(n)]
             for i in range(n)]
    rng = SplitMix64(5)
    while True:
        coords = [rng.randint(-1, 1) for _ in algebra.basis]
        a = [[sum(c * b.at(i, j) for c, b in zip(coords, algebra.basis)) for j in range(n)]
             for i in range(n)]
        minus = [[int(i == j) - a[i][j] for j in range(n)] for i in range(n)]
        plus = [[int(i == j) + a[i][j] for j in range(n)] for i in range(n)]
        inverse = _inverse(minus)
        if inverse is not None:
            g, g_inv = _mul(inverse, plus), _mul(_inverse(plus), minus)
            return family, n, _mul(_mul(g, m), g_inv)


def rows(case):
    if case in ("sl12-nilpotent", "sl14-nilpotent"):
        # the regular nilpotent: ones just above the diagonal
        family, n = "sl", int(case[2:4])
        return family, n, [[int(j == i + 1) for j in range(n)] for i in range(n)]
    if case == "sl14-nilpotent-5432":
        # Jordan blocks of sizes 5, 4, 3 and 2 down the diagonal: an
        # odd grading, so the slice u2 is smaller than u
        n, ends = 14, (4, 8, 11)
        return "sl", n, [[int(j == i + 1 and i not in ends) for j in range(n)] for i in range(n)]
    if case in ("sl10-diagonal", "sl12-diagonal", "sl16-diagonal"):
        # diag(n - 1, n - 3, ..., 1 - n); for sl16, class_id[0] =
        # -(15^2 + 13^2 + ... + 1^2) = -680
        n = int(case[2:4])
        return "sl", n, _diagonal([n - 1 - 2 * i for i in range(n)])
    if case == "sl12-diagonal-1-11":
        # diag(1, ..., 1, -11)
        n = 12
        return "sl", n, _diagonal([1] * (n - 1) + [1 - n])
    if case == "sl10-mixed":
        # diag(2, 2, 2, 2, 2, -2, -2, -2, -2, -2) plus ones at (0, 1),
        # (1, 2), (2, 3) and (5, 6): a three-factor chart with a slice
        n = 10
        m = _diagonal([2] * 5 + [-2] * 5)
        for i, j in ((0, 1), (1, 2), (2, 3), (5, 6)):
            m[i][j] = 1
        return "sl", n, m
    if case in ("so12-mixed", "sp12-mixed"):
        # x_s = diag(3, 3, 3, 1, 0, 0, 0, 0, -1, -3, -3, -3) plus the
        # strictly upper basis elements that commute with it (5 in
        # so12, 7 in sp12): a Levi center on so/sp and an inner chart
        # in an so/sp Levi
        family, n = case[:2], 12
        d = [3, 3, 3, 1, 0, 0, 0, 0, -1, -3, -3, -3]
        upper = _upper(family, n, d)
        return family, n, [[(d[i] if i == j else 0) + sum(b.at(i, j) for b in upper)
                            for j in range(n)] for i in range(n)]
    if case in ("sp12-diagonal", "so12-diagonal"):
        # diag(6, ..., 1, -1, ..., -6): a slice-less chart on so/sp
        n = 12
        return case[:2], n, _diagonal([6 - i if i < 6 else 5 - i for i in range(n)])
    if case in ("sl8-conjugated", "sl8-conjugated-mixed"):
        # u m u^-1, u the unit upper-bidiagonal matrix of ones, u^-1 =
        # ((-1)^(j-i) for j >= i). sl8-conjugated: m = diag(7, 5, ..., -7),
        # dense operands and a witness that is not diagonal.
        # sl8-conjugated-mixed: m = diag(3, 3, 1, 1, -1, -1, -3, -3) + E_01
        # + E_45, a mixed chart whose x_s, witness zero piece and Levi
        # center are not diagonal, so no torus draw
        n = 8
        if case == "sl8-conjugated":
            m = _diagonal([7 - 2 * i for i in range(n)])
        else:
            m = _diagonal([3, 3, 1, 1, -1, -1, -3, -3])
            m[0][1] = m[4][5] = 1
        inv = [[(-1) ** (j - i) if j >= i else 0 for j in range(n)] for i in range(n)]
        um = [[m[i][j] + (m[i + 1][j] if i + 1 < n else 0) for j in range(n)]
              for i in range(n)]
        return "sl", n, [[sum(um[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                         for i in range(n)]
    if case == "sl12-companion":
        # ones below the diagonal; last column (1, 1, 0, ..., 0) for t^12 - t - 1
        n = 12
        return "sl", n, [[int(i == j + 1 or (j == n - 1 and i < 2)) for j in range(n)]
                         for i in range(n)]
    if case in ("sp8-nilpotent", "so8-nilpotent"):
        # the sum of the strictly upper-triangular basis elements of sp8 or so8
        family, n = case[:2], 8
        upper = _upper(family, n)
        return family, n, [[sum(b.at(i, j) for b in upper) for j in range(n)]
                           for i in range(n)]
    if case in [f"{family}8-cayley-{kind}" for family in ("so", "sp")
                for kind in ("diagonal", "nilpotent", "mixed")]:
        # dense so8 and sp8 elements of each kind: the Cayley conjugates of
        # `_cayley`, whose gradings are not diagonal, so their chart factors
        # have dense bases
        return _cayley(case[:2], 8, case.rsplit("-", 1)[1])
    raise ValueError(f"unknown case {case!r}")


def element_json(case):
    family, n, m = rows(case)
    return family, n, json.dumps({"matrix": [[str(v) for v in row] for row in m]})
