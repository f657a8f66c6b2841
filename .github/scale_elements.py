"""The elements of the workflow's scale steps, each built in one place.

`rows(case)` returns (family, n, rows) for a case name, rows being the n x n
matrix as lists of ints or Fractions; `element_json(case)` returns
(family, n, the CLI's --element JSON). A step imports them with
`PYTHONPATH=src:.github`.
"""

import json

from orbitcharts.liealg import build_classical


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
    raise ValueError(f"unknown case {case!r}")


def element_json(case):
    family, n, m = rows(case)
    return family, n, json.dumps({"matrix": [[str(v) for v in row] for row in m]})
