"""Shared builders for the test suite."""

from fractions import Fraction

import pytest

from orbitcharts.linalg import RatMatrix
from orbitcharts.liealg import build_classical


def partitions(n):
    """All partitions of n, largest part first, in deterministic order."""
    if n == 0:
        yield []
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                yield [first] + rest


def nontrivial_partitions(n):
    """Partitions with a part >= 2 (the all-ones partition gives the zero matrix)."""
    return [p for p in partitions(n) if p[0] >= 2]


def jordan_nilpotent(n, partition):
    """Block nilpotent with superdiagonal ones per part, parts laid out in order."""
    rows = [[0] * n for _ in range(n)]
    pos = 0
    for size in partition:
        for k in range(size - 1):
            rows[pos + k][pos + k + 1] = 1
        pos += size
    return RatMatrix.from_rows(rows)


def compositions(n):
    """All ordered compositions of n, deterministic order."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def unit_bidiagonal(entries, upper=True):
    """(u, u^-1) for u = I + N, N carrying ``entries`` just above (or below)
    the diagonal; u^-1 = sum_k (-N)^k."""
    n = len(entries) + 1
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, c in enumerate(entries):
        if upper:
            rows[i][i + 1] = c
        else:
            rows[i + 1][i] = c
    u = RatMatrix.from_rows(rows)
    step = RatMatrix.identity(n) - u
    inverse, term = RatMatrix.identity(n), RatMatrix.identity(n)
    for _ in range(n - 1):
        term = term * step
        inverse = inverse + term
    return u, inverse


def diag_matrix(values):
    n = len(values)
    return RatMatrix.from_rows(
        [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def elem(n, i, j, value=1):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = value
    return RatMatrix.from_rows(rows)


def draw_choice(rng, seq):
    """One entry of ``seq``, by one draw from a SplitMix64."""
    return seq[rng.randint(0, len(seq) - 1)]


def draw_fraction(rng, lo, hi, denominators=(1, 2, 3)):
    """num / den with num in [lo, hi] drawn first, then den from
    ``denominators``."""
    num = rng.randint(lo, hi)
    return Fraction(num, draw_choice(rng, denominators))


def matrix_power(m, k):
    """m^k for a square RatMatrix m and k >= 0, by k repeated products."""
    result = RatMatrix.identity(m.rows)
    for _ in range(k):
        result = result * m
    return result


def sl(n):
    return build_classical("sl", n)


def element(algebra, rows):
    return algebra.element_from_matrix(RatMatrix.from_rows(rows))


@pytest.fixture(scope="session")
def sl2():
    return build_classical("sl", 2)


@pytest.fixture(scope="session")
def sl3():
    return build_classical("sl", 3)


@pytest.fixture(scope="session")
def sl4():
    return build_classical("sl", 4)
