"""Shared builders and Fraction reference implementations for the test suite."""

import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest

from cayley import (  # the tests import these from conftest too
    CAYLEY_KINDS,
    cayley_base,
    cayley_conjugate,
    cayley_element,
    diag_matrix,
    upper_basis,
)
from orbitcharts.linalg import Polynomial, RatMatrix, _as_fraction, rank
from orbitcharts.liealg import LieAlgebra, build_classical, centralizer_basis
from orbitcharts.rng import SplitMix64
from orbitcharts.verify import _RankFrame


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


def block_levi(n, composition):
    """The block-diagonal Levi s(gl_c1 x gl_c2 x ...) of sl(n) for the
    composition (c1, c2, ...) of n: the centralizer of the traceless
    diagonal element with entry n k - sum_j j c_j on each row of block k."""
    shift = sum(k * c for k, c in enumerate(composition))
    values = [n * k - shift for k, c in enumerate(composition) for _ in range(c)]
    return centralizer_basis(sl(n).element_from_matrix(diag_matrix(values)))


def same_span(a, b):
    """Whether the `LieAlgebra`s ``a`` and ``b`` span one subspace of gl_n."""
    return (a.ambient_size == b.ambient_size and a.dim == b.dim
            and all(a.contains_matrix(m) for m in b.basis))


def spy_everywhere(monkeypatch, fn, record=lambda first: first):
    """The list, filled from now on, of ``record`` of the first argument of
    every call of ``fn``, taken before the call (a copy, say, of rows that
    ``fn`` changes in place): each orbitcharts module that holds ``fn``
    under its name, as modules import each other's functions, gets a spy
    that records it."""
    calls = []

    def spy(first, *args, **kwargs):
        calls.append(record(first))
        return fn(first, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "orbitcharts" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, spy)
    return calls


def fraction_spy(monkeypatch):
    """The list, filled from now on, of the arguments of every `Fraction`
    built."""
    new = Fraction.__dict__["__new__"].__func__
    built = []

    def spy(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(spy))
    return built


def element_spy(monkeypatch):
    """The list, filled from now on, of the coordinates of every
    `LieAlgebra.element` call."""
    element = LieAlgebra.element
    calls = []

    def spy(algebra, coords):
        calls.append(coords)
        return element(algebra, coords)

    monkeypatch.setattr(LieAlgebra, "element", spy)
    return calls


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


def elem(n, i, j, value=1):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = value
    return RatMatrix.from_rows(rows)


def mixed_corpus():
    """sl3-sl5, so5, so6 and sp4 diagonals plus a nilpotent inside their
    centralizer: superdiagonal ones in repeated-eigenvalue blocks (for so and
    sp, E_01 with the partner entry the form requires)."""
    cases = []
    for family, values, entries in (
            ("sl", [1, 1, -2], [(0, 1, 1)]),
            ("sl", [1, 1, -1, -1], [(0, 1, 1)]),
            ("sl", [1, 1, -1, -1], [(0, 1, 1), (2, 3, 1)]),
            ("sl", [1, 1, 1, -3], [(0, 1, 1), (1, 2, 1)]),
            ("sl", [1, 1, 0, -1, -1], [(0, 1, 1), (3, 4, 1)]),
            ("sl", [2, 2, 2, -3, -3], [(0, 1, 1), (1, 2, 1)]),
            ("so", [1, 1, 0, -1, -1], [(0, 1, 1), (3, 4, -1)]),
            ("so", [1, 1, 1, -1, -1, -1], [(0, 1, 1), (4, 5, -1)]),
            ("sp", [1, 1, -1, -1], [(0, 1, 1), (2, 3, -1)])):
        n = len(values)
        label = ",".join(map(str, values)) + "+" + ",".join(f"E{i}{j}" for i, j, _ in entries)
        cases.append(pytest.param(family, n, values, entries, id=f"{family}{n}-{label}"))
    return cases


def mixed_element(family, n, values, entries):
    algebra = build_classical(family, n)
    m = diag_matrix(values)
    for i, j, v in entries:
        m = m + elem(n, i, j, v)
    return algebra, algebra.element_from_matrix(m)


def companion(n, low):
    """The companion matrix of t^n + sum_k low[k] t^k: ones below the
    diagonal, -low in the last column."""
    rows = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    for k, c in enumerate(low):
        rows[k][n - 1] = -c
    return RatMatrix.from_rows(rows)


def power_walk_corpus(n):
    """n x n matrices for the power walk: conjugated nilpotents of every
    Jordan type (the regular one has m^(n-1) != 0), the zero matrix, and
    traceless non-nilpotents whose power ranks stay positive: companions of
    t^n - c and t^n - c t, whose characteristic polynomials differ from
    t^n in one coefficient, a conjugate of each companion of t^n - c, and
    J (+) diag(1, -1) for a Jordan block J."""
    rng = SplitMix64(900 + n)
    corpus = [RatMatrix.zeros(n, n)]
    for part in nontrivial_partitions(n):
        u, u_inv = unit_bidiagonal([rng.randint(-2, 2) for _ in range(n - 1)])
        corpus.append(u * jordan_nilpotent(n, part) * u_inv)
    for c in (1, -3, Fraction(1, 2)):
        corpus.append(companion(n, [-c]))
        if n > 2:
            corpus.append(companion(n, [0, -c]))
    if n > 2:
        corpus.append(jordan_nilpotent(n, [n - 2, 1, 1]) + diag_matrix([0] * (n - 2) + [1, -1]))
    for c in (1, -3, Fraction(1, 2)):
        u, u_inv = unit_bidiagonal([rng.randint(-2, 2) for _ in range(n - 1)], upper=False)
        corpus.append(u * companion(n, [-c]) * u_inv)
    return corpus


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


# ---------------------------------------------------------------------------
# Fraction references for the integer polynomial layer
# ---------------------------------------------------------------------------


def fraction_mul(a, b):
    """The product of two row lists of Fractions; zero entries of a add no
    terms."""
    return [[sum((x * y for x, y in zip(row, col) if x), Fraction(0)) for col in zip(*b)]
            for row in a]


def fraction_char_poly(rows):
    """Coefficients (lowest degree first) of the characteristic polynomial of
    the square Fraction row list ``rows``: Faddeev-LeVerrier in Fractions,
    M_k = A (M_(k-1) + c_(n-k+1) I) and c_(n-k) = -tr(M_k) / k."""
    n = len(rows)
    ak, cs = [[Fraction(0)] * n for _ in range(n)], [Fraction(1)]
    for k in range(1, n + 1):
        shifted = [[x + cs[-1] if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(ak)]
        ak = fraction_mul(rows, shifted)
        cs.append(-sum(ak[i][i] for i in range(n)) / k)
    return tuple(reversed(cs))


def fraction_exp(rows):
    """sum_k A^k / k! for the nilpotent square Fraction row list ``rows`` of
    A: the terms k = 0 .. n-1, since A^n = 0."""
    n = len(rows)
    term = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    total = term
    for k in range(1, n):
        term = [[x / k for x in row] for row in fraction_mul(term, rows)]
        total = [[x + y for x, y in zip(r, t)] for r, t in zip(total, term)]
    return total


def fraction_horner(coefficients, rows):
    """p(A) for p given by its Fraction ``coefficients`` (lowest degree
    first) and A the square Fraction row list ``rows``, by Horner's rule."""
    n = len(rows)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(coefficients):
        acc = [[x + c if i == j else x for j, x in enumerate(row)]
               for i, row in enumerate(fraction_mul(acc, rows))]
    return acc


def poly_add(a, b):
    """a + b for `Polynomial` values."""
    x, y = a.coefficients, b.coefficients
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for i, c in enumerate(y):
        out[i] += c
    return Polynomial(tuple(out))


def poly_scale(p, c):
    """c p for a `Polynomial` p and a rational c."""
    return Polynomial(tuple(a * c for a in p.coefficients))


def poly_sub(a, b):
    """a - b for `Polynomial` values."""
    return poly_add(a, poly_scale(b, -1))


def poly_mul(*factors):
    """The product of `Polynomial` factors; 1 when there are none."""
    out = (Fraction(1),)
    for p in factors:
        prod = [Fraction(0)] * (len(out) + len(p.coefficients) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p.coefficients):
                prod[i + j] += a * b
        out = prod
    return Polynomial(tuple(out))


def monic(p):
    """The nonzero `Polynomial` p divided by its leading coefficient."""
    return poly_scale(p, 1 / p.coefficients[-1])


def poly_divmod(a, b):
    """(q, r) with a = q b + r and deg r < deg b: long division of
    `Polynomial` values in Fractions."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coefficients)
    blead = b.coefficients[-1]
    db = b.degree
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and any(rem):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) - 1 < db:
            break
        shift = len(rem) - 1 - db
        factor = rem[-1] / blead
        quot[shift] = factor
        for i, c in enumerate(b.coefficients):
            rem[shift + i] -= factor * c
        rem.pop()
    return Polynomial(tuple(quot)), Polynomial(tuple(rem))


def fraction_squarefree_part(p):
    """p / gcd(p, p'), monic, by the Euclidean algorithm in Fractions."""
    a, b = p, p.derivative()
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    q, r = poly_divmod(p, a)
    assert r.is_zero()
    return monic(q)


# ---------------------------------------------------------------------------
# The Jacobian rank in the g^-1 frame
# ---------------------------------------------------------------------------


# The rank frame with no column order and no plain block: `verify._jacobian_rank`
# ranks the rows of `charts._core_brackets` as they are, every block conjugated.
UNFRAMED = _RankFrame(None, frozenset())


def g_inverse_frame_rank(chart, vp):
    """The rank of the chart's differential at the value pass ``vp`` from
    its columns conjugated by g^-1, in parameter order: [S_f^-1 b S_f, core]
    for each basis element b of factor f, with S_f the product of the later
    factors' exponentials, then the slice elements. The reference for the
    frame and row order of `verify._jacobian_rank`."""
    n = chart.algebra.ambient_size
    rows = []
    for f, basis in enumerate(chart.factors):
        suffix = suffix_inv = RatMatrix.identity(n)
        for _, exp_a, exp_neg in vp.series[f + 1:]:
            suffix, suffix_inv = suffix * exp_a, exp_neg * suffix_inv
        for b in basis:
            y = suffix_inv * b * suffix
            rows.append(y * vp.core - vp.core * y)
    rows += chart.slice_basis
    return rank(RatMatrix.from_rows([r.entries for r in rows])) if rows else 0


@dataclass(frozen=True)
class DualNumber:
    """a + b*eps with eps^2 = 0: exact forward derivatives of polynomial
    maps, the reference that chart derivatives are checked against."""

    value: Fraction
    epsilon: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "value", _as_fraction(self.value))
        object.__setattr__(self, "epsilon", _as_fraction(self.epsilon))

    @staticmethod
    def _coerce(other):
        if isinstance(other, DualNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return DualNumber(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualNumber(self.value + o.value, self.epsilon + o.epsilon)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualNumber(self.value - o.value, self.epsilon - o.epsilon)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualNumber(o.value - self.value, o.epsilon - self.epsilon)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualNumber(self.value * o.value,
                          self.value * o.epsilon + self.epsilon * o.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.value:
            raise ZeroDivisionError("dual division by a pure-epsilon number")
        inv = 1 / o.value
        return DualNumber(self.value * inv,
                          (self.epsilon * o.value - self.value * o.epsilon) * inv * inv)

    def __neg__(self):
        return DualNumber(-self.value, -self.epsilon)

    def __bool__(self):
        return bool(self.value) or bool(self.epsilon)


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
