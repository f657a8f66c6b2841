"""Exact linear algebra over arbitrary-precision rationals.

No floating point appears anywhere. A `RatMatrix` stores integer numerators
over one shared positive denominator in lowest terms: the gcd of the
denominator and all numerators is 1, and the zero matrix has denominator 1.
So equal matrices have equal storage, and the denominator is the lcm of the
reduced entry denominators. Fractions appear at the API boundary only, and
results that are integers by construction come out as ints: the roots of
`integer_roots` and the primitive vectors of `kernel_basis`.
Entries given to `RatMatrix`, coefficients of `Polynomial` and the scalar of
`RatMatrix.scale` are coerced once by one rule: a value whose type is
exactly `Fraction` is kept as it is, a `float` is refused with `TypeError`
(its binary value is rarely the rational that was meant; pass a string such
as "1/10" instead), a string goes through `parse_rational`, and anything
else (an int, a Fraction subclass) goes through `Fraction(x)`, except that
`scale` takes an int as it is. `RatMatrix.entries` and `RatMatrix.at` give
exact Fractions back.
Every matrix product (`*`, `char_poly`, the power walk `_powers`,
`Polynomial.evaluate_matrix`, chart evaluation) runs one integer product
loop, `_accumulate`, on numerators. The nonzero entries of the left factor
drive it, and the sparse pairs of a row of the right factor are built only
when a nonzero first reaches that row; `_product` fills one buffer with it.
A matrix keeps its sparse form, `RatMatrix.support` (its den and nonzero
(position, numerator) pairs), once read, and `_lincomb` sums such forms.
`commutator` is the one bracket of two matrices, and it picks its loop:
when the sparser factor b has at most n nonzeros, `_support_bracket` adds
and subtracts whole rows and columns of the other factor m, one of each per
nonzero of b, in O(n nnz(b)) where the product loop walks all n^2 entries
of m; otherwise two `_accumulate` calls fill one buffer with both halves,
signs +1 and -1. Either way it normalizes once. Every matrix elimination
(`rank`, `det`, `kernel_basis`, `solve_linear`, `VectorSpan`, `_span_rank`)
runs one fraction-free loop, `_bareiss`, on integer rows to control
coefficient growth; it skips the rows whose entry in the pivot column is
zero and scales them lazily. `_span_rank` takes integer rows and divides
each by its content, the gcd of its entries, before it eliminates them.
Every solve after it runs one integer back-substitution,
`_back_substitute`, and every kernel basis is read off echelon rows by one
reader, `_echelon_kernel`, so a rank and a kernel of one matrix can share
one elimination (`_echelon`). The polynomial layer runs on integers too,
and eliminates nothing: `char_poly` is Faddeev-LeVerrier on the numerators,
`Polynomial.evaluate_matrix` is integer Horner, and `squarefree_part`
divides by a gcd from a primitive pseudo-remainder sequence,
`_pseudo_divmod`. Integer roots of a squarefree polynomial are Newton lifts
(Hensel) of its roots modulo the least modulus at which the derivative is a
unit at each of them, not found by factoring. Every function is pure and
deterministic: rerunning on equal inputs gives bit-identical results.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class NotNilpotentError(ValueError):
    """A matrix required to be nilpotent is not."""


# What `Fraction` reads on Python 3.10, minus exponents: a sign, digits
# with an optional "/q" or decimal part, and surrounding whitespace. Later
# versions also read underscores ("1_0") and spaces around "/".
_RATIONAL_LITERAL = re.compile(r"\s*[-+]?(?=\d|\.\d)\d*(?:/\d+|\.\d*)?\s*")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", "p" or a decimal such as "0.1" into a Fraction.

    One grammar on every supported Python (`_RATIONAL_LITERAL`). Exponent
    notation ("1e5") is refused: its cost is not bounded by the length of
    the string.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    if _RATIONAL_LITERAL.fullmatch(text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            pass
    raise ValueError(f"invalid rational literal {text!r}")


def _as_fraction(x) -> Fraction:
    """The coercion rule of the module docstring, for one value."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"floating-point value {x!r}: pass an int, a Fraction or "
                        f"a rational string")
    if isinstance(x, str):
        return parse_rational(x)
    return Fraction(x)


_EXACT = {Fraction}


def _as_fractions(values) -> tuple:
    """Tuple of exact Fractions; an all-Fraction tuple is returned as is."""
    values = tuple(values)
    if set(map(type, values)) <= _EXACT:
        return values
    return tuple(map(_as_fraction, values))


def _integers_over(values) -> tuple:
    """(ints, d) for rationals ``values``: d the lcm of their denominators,
    ints their multiples by d. The gcd of d and ints is 1."""
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def rational_str(value: Fraction) -> str:
    """Canonical serialization of an exact Fraction, in lowest terms: "p/q",
    or just "p" when the denominator is 1. An integer past the interpreter's
    digit limit for int-to-str conversion is written through `Decimal`,
    which converts it exactly and has no such limit."""
    try:
        return str(value)
    except ValueError:
        num, den = str(Decimal(value.numerator)), str(Decimal(value.denominator))
        return num if den == "1" else f"{num}/{den}"


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


class RatMatrix:
    """Immutable dense matrix of rationals, row-major.

    Stored as the integer numerators ``nums`` over the shared denominator
    ``den``, in lowest terms (see the module docstring), so ``==`` and
    ``hash`` compare storage directly. ``support``, the sparse form, is
    kept in a private slot once read; ``==``, ``hash`` and pickling do not
    see it.
    """

    __slots__ = ("rows", "cols", "nums", "den", "_sparse")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        ents = _as_fractions(entries)
        if len(ents) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ents)}")
        nums, den = _integers_over(ents)
        _fill(self, rows, cols, tuple(nums), den)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("RatMatrix is immutable")

    def __reduce__(self):
        return _matrix, (self.rows, self.cols, self.nums, self.den)

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence]) -> "RatMatrix":
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if nrows else 0
        flat = []
        for row in rows_data:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return _matrix(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        nums = [0] * (n * n)
        nums[::n + 1] = [1] * n
        return _matrix(n, n, nums)

    @property
    def entries(self) -> tuple:
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    def at(self, i: int, j: int) -> Fraction:
        return Fraction(self.nums[i * self.cols + j], self.den)

    @property
    def support(self) -> tuple:
        """(den, nonzero (position, numerator) pairs), position the
        row-major index: the sparse form `_lincomb` sums and
        `_support_bracket` brackets, formed on first read and kept."""
        try:
            return self._sparse
        except AttributeError:
            sparse = self.den, tuple((p, v) for p, v in enumerate(self.nums) if v)
            object.__setattr__(self, "_sparse", sparse)
            return sparse

    def row_lists(self) -> list:
        c = self.cols
        entries = self.entries
        return [list(entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.nums))

    def __repr__(self):
        return f"RatMatrix({self.rows}, {self.cols}, {self.entries!r})"

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._plus(other, -1)

    def _plus(self, other: "RatMatrix", sign: int) -> "RatMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return _matrix(self.rows, self.cols,
                       [x * fa + y * fb for x, y in zip(self.nums, other.nums)], den)

    def __neg__(self) -> "RatMatrix":
        return _matrix(self.rows, self.cols, [-x for x in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            return _product(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "RatMatrix":
        c = c if type(c) is int else _as_fraction(c)
        p = c.numerator
        return _matrix(self.rows, self.cols, [x * p for x in self.nums],
                       self.den * c.denominator)

    def transpose(self) -> "RatMatrix":
        r, c, nums = self.rows, self.cols, self.nums
        return _matrix(c, r, [nums[i * c + j] for j in range(c) for i in range(r)], self.den)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return Fraction(sum(self.nums[::self.cols + 1]), self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)


def _fill(m: RatMatrix, rows: int, cols: int, nums: tuple, den: int) -> None:
    setattr_ = object.__setattr__
    setattr_(m, "rows", rows)
    setattr_(m, "cols", cols)
    setattr_(m, "nums", nums)
    setattr_(m, "den", den)


def _matrix(rows: int, cols: int, nums, den: int = 1) -> RatMatrix:
    """The matrix of the integer numerators ``nums`` over ``den`` > 0,
    brought to lowest terms."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    m = object.__new__(RatMatrix)
    _fill(m, rows, cols, tuple(nums), den)
    return m


def _accumulate(out: list, a: RatMatrix, b: RatMatrix, sign: int) -> None:
    """out += sign * (numerators of a) (numerators of b): the one integer
    product loop.

    The nonzero entries of a drive it: each a_ik adds sign * a_ik * (row k
    of b) into the row-major buffer ``out`` of a.rows x b.cols integers.
    The nonzero (column, value) pairs of a row of b are built when a
    nonzero of a first reaches that row, and reused after that.
    """
    inner, cols, bnums = a.cols, b.cols, b.nums
    brows = [None] * inner
    for p, aik in enumerate(a.nums):
        if aik:
            i, k = divmod(p, inner)
            brow = brows[k]
            if brow is None:
                start = k * cols
                brow = brows[k] = [(j, v) for j, v in
                                   enumerate(bnums[start:start + cols]) if v]
            aik *= sign
            base = i * cols
            for j, v in brow:
                out[base + j] += aik * v


def _product(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """a b: one `_accumulate` call, driven by the nonzeros of a, over the
    denominator a.den * b.den. `commutator` fills its one buffer the same
    way."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = [0] * (a.rows * b.cols)
    _accumulate(out, a, b, 1)
    return _matrix(a.rows, b.cols, out, a.den * b.den)


def _powers(m: RatMatrix) -> list:
    """m, m^2, ..., m^K of the square m, each `_product` of the one before
    and m: the walk stops at the first zero power or at m^n (K = n), so the
    last power is zero exactly when m is nilpotent."""
    powers = [m]
    while not powers[-1].is_zero() and len(powers) < m.rows:
        powers.append(_product(powers[-1], m))
    return powers


def _is_diagonal(m: RatMatrix) -> bool:
    """Whether the square ``m`` has no more nonzero numerators than its diagonal."""
    nums, diagonal = m.nums, m.nums[::m.rows + 1]
    return len(nums) - nums.count(0) == len(diagonal) - diagonal.count(0)


def _lincomb(coeffs: Sequence[Fraction], supports: Sequence, rows: int,
             cols: int) -> RatMatrix:
    """sum c_i M_i, each M_i given by its sparse form (den, pairs), the
    `RatMatrix.support` of a matrix or a structure-constant row of
    `liealg`: one pass over the nonzero terms, in integers over one common
    denominator."""
    terms = [(c, s) for c, s in zip(coeffs, supports) if c]
    den = math.lcm(*(c.denominator * d for c, (d, _) in terms))
    acc = [0] * (rows * cols)
    for c, (d, pairs) in terms:
        f = c.numerator * (den // (c.denominator * d))
        for p, v in pairs:
            acc[p] += f * v
    return _matrix(rows, cols, acc, den)


def commutator(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """[a, b] = a b - b a for n x n matrices, over a.den * b.den, normalized
    once: the one bracket of two matrices, which picks its loop.

    When the sparser factor has at most n nonzeros, `_support_bracket`
    brackets from its `support` in O(n nnz), with the sign flipped when b
    is the sparser, as [a, b] = -[b, a]; ties go to a. Otherwise two
    `_accumulate` calls, signs +1 and -1, fill one buffer: past n
    nonzeros the product loop is the cheaper. Both give the same matrix.
    """
    n = a.rows
    if not n == a.cols == b.rows == b.cols:
        raise ValueError(f"cannot bracket {a.rows}x{a.cols} with {b.rows}x{b.cols}")
    size = n * n
    nnz_a, nnz_b = size - a.nums.count(0), size - b.nums.count(0)
    if nnz_a <= n and nnz_a <= nnz_b:
        return _support_bracket(a.support, b, 1)
    if nnz_b <= n:
        return _support_bracket(b.support, a, -1)
    out = [0] * size
    _accumulate(out, a, b, 1)
    _accumulate(out, b, a, -1)
    return _matrix(n, n, out, a.den * b.den)


def _support_bracket(support: tuple, m: RatMatrix, sign: int) -> RatMatrix:
    """sign [b, m] = sign (b m - m b) for the n x n matrix b given by its
    `RatMatrix.support` (d, pairs) and the n x n matrix m, over d * m.den,
    normalized once: `commutator`'s loop when b is its sparser factor.

    Each pair (p = i n + k, v) adds v (row k of m) to row i, the term of
    b m, and subtracts v (column i of m) from column k, the term of m b,
    each as one whole-slice update. So it costs O(n nnz(b)), where the
    product loop walks all n^2 numerators of m to meet the nonzeros of b;
    it gives the same matrix.
    """
    d, pairs = support
    n, nums = m.rows, m.nums
    out = [0] * (n * n)
    for p, v in pairs:
        i, k = divmod(p, n)
        v *= sign
        row = i * n
        out[row:row + n] = [x + v * y for x, y in zip(out[row:row + n], nums[k * n:k * n + n])]
        out[k::n] = [x - v * y for x, y in zip(out[k::n], nums[i::n])]
    return _matrix(n, n, out, d * m.den)


def matrix_to_json(m: RatMatrix) -> list:
    return [[rational_str(x) for x in row] for row in m.row_lists()]


def matrix_from_json(data) -> RatMatrix:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ValueError("matrix JSON must be a nonempty array of arrays")
    rows = [[parse_rational(x) for x in row] for row in data]
    return RatMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# Fraction-free elimination (Bareiss)
# ---------------------------------------------------------------------------


def _int_rows(m: RatMatrix) -> list:
    """The rows of den * m, the numerators, as fresh lists of ints."""
    c, nums = m.cols, m.nums
    return [list(nums[i * c:(i + 1) * c]) for i in range(m.rows)]


def _bareiss(rows: list) -> tuple:
    """In-place fraction-free echelon form.

    Returns (rows, pivot_columns, swap_count). With pivots p_0 = 1, p_1, ...
    step k replaces each row v below the pivot row w by
    (v * p_(k+1) - v_c * w) / p_k, whose entries are minors of the input.
    A row with v_c = 0 is only scaled by p_(k+1) / p_k, and over steps
    a..b-1 those factors telescope to p_b / p_a. So such a row is skipped,
    and each row keeps its level, the step its stored values are current
    to (zeros stay zero, so the pivot search may read stale rows). A row of
    level a that becomes the pivot row at step k is brought up to date as
    v * p_k / p_a; one with v_c != 0 takes the step and its catch-up at
    once, (v * p_(k+1) - v_c * w) / p_a. Each division is exact, since it
    yields a minor. Swaps carry the level with the row, and the rows left
    below the last pivot are zero: the result is that of scaling every row
    at every step.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    piv_cols = []
    pivots = [1]
    levels = [0] * m
    r = 0
    swaps = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            levels[r], levels[pr] = levels[pr], levels[r]
            swaps += 1
        row_r = rows[r]
        if levels[r] != r:
            prev, old = pivots[r], pivots[levels[r]]
            row_r[c:] = [x * prev // old for x in row_r[c:]]
        piv = row_r[c]
        tail = row_r[c:]
        for i in range(r + 1, m):
            row_i = rows[i]
            ric = row_i[c]
            if ric:
                div = pivots[levels[i]]
                row_i[c:] = [(x * piv - ric * y) // div for x, y in zip(row_i[c:], tail)]
                levels[i] = r + 1
        pivots.append(piv)
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    return rows, piv_cols, swaps


def _echelon(m: RatMatrix) -> tuple:
    """(rows, pivot_columns, cols) of the `_bareiss` echelon form of the
    integer rows of ``m``: the rank is the pivot count, and
    `_echelon_kernel(*_echelon(m))` reads the kernel from the same rows."""
    ech, piv, _ = _bareiss(_int_rows(m))
    return ech, piv, m.cols


def rank(m: RatMatrix) -> int:
    """Rank over the rationals by fraction-free elimination."""
    return len(_echelon(m)[1])


def primitive_integer_vector(vec: Sequence[int]) -> tuple:
    """The nonzero integer vector ``vec`` divided by the gcd of its entries,
    signed so that its leading nonzero entry is positive: a tuple of ints."""
    g = math.gcd(*vec)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec)


def kernel_basis(m: RatMatrix) -> list:
    """Basis of the right kernel of ``m``.

    One vector per free column: the integer vector `_back_substitute`
    solves, made primitive (`primitive_integer_vector`), so each is a tuple
    of ints, coprime, with positive leading entry, and no Fraction is built.
    Deterministic; count equals cols - rank.
    """
    return _int_kernel_basis(_int_rows(m), m.cols)


def _int_kernel_basis(rows: list, ncols: int) -> list:
    """`kernel_basis` of integer rows of length ``ncols`` (eliminated in
    place): Bareiss, then `_echelon_kernel`."""
    return _echelon_kernel(*_bareiss(rows)[:2], ncols)


def _echelon_kernel(ech: list, piv: list, ncols: int) -> list:
    """The kernel basis of the `_bareiss` echelon rows ``ech`` of length
    ``ncols``, pivot columns ``piv``: per free column, `_back_substitute`,
    primitive form. The rows are only read."""
    pivset = set(piv)
    return [primitive_integer_vector(_back_substitute(ech, piv, f, ncols))
            for f in range(ncols) if f not in pivset]


def _back_substitute(ech: list, piv: list, f: int, ncols: int) -> list:
    """The integer kernel vector x of the `_bareiss` echelon rows ``ech``
    whose only nonzero free entry is x_f, for a free column f.

    The back-substitution stays in integers. With t pivot columns before f,
    x_f starts at the t-th Bareiss pivot, which is the determinant of the
    t x t pivot minor; by Cramer's rule every entry solved is then an
    integer, so each division is exact.
    """
    t = sum(1 for c in piv if c < f)
    x = [0] * ncols
    x[f] = ech[t - 1][piv[t - 1]] if t else 1
    for idx in range(t - 1, -1, -1):
        c = piv[idx]
        row = ech[idx]
        s = 0
        for j in range(c + 1, f + 1):
            if x[j]:
                s += row[j] * x[j]
        x[c], rem = divmod(-s, row[c])
        if rem:
            raise ArithmeticError("inexact division in fraction-free back-substitution")
    return x


def det(m: RatMatrix) -> Fraction:
    """Exact determinant (Bareiss). det of the empty 0x0 matrix is 1."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return ONE
    ech, piv, swaps = _bareiss(_int_rows(m))
    if len(piv) < n:
        return ZERO
    value = Fraction(ech[n - 1][n - 1], m.den ** n)
    return -value if swaps % 2 else value


def solve_linear(m: RatMatrix, rhs: Sequence[Fraction]):
    """One solution of m x = rhs, or None if inconsistent.

    Free variables are set to zero, so the result is the deterministic
    minimal-support solution of the row-reduced system. [m | rhs] is
    eliminated; the system is inconsistent when its last pivot is the rhs
    column n, and otherwise that column is free: its kernel vector v gives
    x = -v[:n] / v[n].
    """
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length mismatch")
    n = m.cols
    rhs_ints, d = _integers_over(_as_fractions(rhs))
    den = math.lcm(m.den, d)
    fm, fr = den // m.den, den // d
    rows = [[x * fm for x in row] + [b * fr] for row, b in zip(_int_rows(m), rhs_ints)]
    ech, piv, _ = _bareiss(rows)
    if piv and piv[-1] == n:
        return None
    v = _back_substitute(ech, piv, n, n + 1)
    return tuple(Fraction(-x, v[n]) for x in v[:n])


def mat_vec(m: RatMatrix, v: Sequence[Fraction]) -> tuple:
    if len(v) != m.cols:
        raise ValueError("vector length mismatch")
    return (m * RatMatrix(len(v), 1, v)).entries


def vstack(mats: Sequence[RatMatrix]) -> RatMatrix:
    if not mats:
        raise ValueError("nothing to stack")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column mismatch in stack")
    den = math.lcm(*(m.den for m in mats))
    nums = [x * (den // m.den) for m in mats for x in m.nums]
    return _matrix(sum(m.rows for m in mats), cols, nums, den)


def _span_rank(rows: Sequence[Sequence[int]]) -> int:
    """Dimension of the span of the integer vectors ``rows``, such as the
    numerators of same-shape matrices, one flattened matrix per row
    (scaling a row by its denominator keeps the rank). Each row is divided
    by its content, the gcd of its entries, which keeps the rank and the
    minors `_bareiss` forms small, and one `_bareiss` eliminates them."""
    primitive = []
    for row in rows:
        g = math.gcd(*row)
        primitive.append([x // g for x in row] if g > 1 else list(row))
    return len(_bareiss(primitive)[1])


def _vector_ints(v) -> tuple:
    """(ints, d) with ints / d the rational vector ``v``; a `RatMatrix` is
    read as its row-major entries."""
    if isinstance(v, RatMatrix):
        return v.nums, v.den
    return _integers_over(v)


class VectorSpan:
    """Span of independent row vectors, with exact coordinate solving.

    A vector is a sequence of rationals or a `RatMatrix`, read as its
    row-major entries. The integer rows of [vectors | I] are brought to the
    echelon form [U | T] by `_bareiss`. Each row of U is the combination of
    the vectors that the same row of T lists, and a pivot at or past
    ``length`` means the vectors are dependent. Each row is kept under its
    pivot column, in increasing column order, as its pivot and the nonzero
    (index, value) pairs of its U and T parts. Coordinates are solved by
    one walk, `sparse_coords_of`, over only the rows whose pivot column the
    vector reaches.
    """

    def __init__(self, vectors: Sequence, length: int | None = None):
        vectors = [_vector_ints(v) for v in vectors]
        if vectors:
            length = len(vectors[0][0])
        elif length is None:
            raise ValueError("empty span needs an explicit ambient length")
        self.length = length
        m = len(vectors)
        rows = [list(ints) + [d if j == i else 0 for j in range(m)]
                for i, (ints, d) in enumerate(vectors)]
        ech, piv, _ = _bareiss(rows)
        if piv and piv[-1] >= length:
            raise ValueError("vectors are linearly dependent")
        self._dim = m
        self._rows = {c: (row[c],
                          [(j, y) for j, y in enumerate(row[:length]) if y],
                          [(i, t) for i, t in enumerate(row[length:]) if t])
                      for c, row in zip(piv, ech)}

    def coords_of(self, vector):
        """Coordinates in the original vectors, or None if outside the span:
        `sparse_coords_of` on the nonzero entries of ``vector``, as a
        dense tuple of Fractions."""
        ints, scale = _vector_ints(vector)
        if len(ints) != self.length:
            raise ValueError("vector length mismatch")
        solved = self.sparse_coords_of({j: x for j, x in enumerate(ints) if x}, scale)
        if solved is None:
            return None
        pairs, s = solved
        coords = [ZERO] * self._dim
        for i, x in pairs:
            coords[i] = Fraction(x, s)
        return tuple(coords)

    def sparse_coords_of(self, residual: dict, scale: int):
        """Sparse coordinates of the vector {index: numerator} / ``scale``
        (``scale`` > 0): (pairs, s) with the coordinates' nonzero numerators
        as sorted (index, numerator) pairs over one denominator s > 0, or
        None if the vector is outside the span. ``residual`` is consumed.

        In integers: the residual r starts as the given numerators, the
        coordinate numerators C at 0 and their denominator s at ``scale``.
        Each pivot clears r at its column c: with g = gcd(r_c, pivot),
        signed like the pivot, and f = pivot/g > 0, r becomes
        f r - (r_c/g) U_row, C becomes f C + (r_c/g) T_row and s becomes
        f s, which keeps s * vector = C . vectors + r. Only the pivots that the
        residual reaches are visited: its nonzero columns wait in a heap,
        fill-in from an echelon row (which is zero left of its pivot
        column) joins the heap, and the smallest column is taken next. A
        nonzero residual at a column that is not a pivot column ends the
        walk: every row still to come is zero at that column, so no
        combination of the vectors can clear it.
        """
        rows = self._rows
        heap = list(residual)
        heapq.heapify(heap)
        coords = {}
        while heap:
            c = heapq.heappop(heap)
            rc = residual[c]
            if not rc:
                continue
            row = rows.get(c)
            if row is None:
                return None
            pivot, u_support, t_support = row
            g = math.gcd(rc, pivot)
            if pivot < 0:
                g = -g
            f, q = pivot // g, rc // g
            if f != 1:
                for j in residual:
                    residual[j] *= f
                for i in coords:
                    coords[i] *= f
                scale *= f
            for j, y in u_support:
                if j in residual:
                    residual[j] -= q * y
                else:
                    residual[j] = -q * y
                    heapq.heappush(heap, j)
            for i, t in t_support:
                coords[i] = coords.get(i, 0) + q * t
        return sorted((i, x) for i, x in coords.items() if x), scale


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial over the rationals, lowest-degree coefficient first.

    The zero polynomial has an empty coefficient tuple; otherwise the leading
    coefficient is nonzero.
    """

    coefficients: tuple

    def __post_init__(self):
        coeffs = _as_fractions(self.coefficients)
        end = len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        object.__setattr__(self, "coefficients", coeffs[:end])

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coefficients) if i))

    def __call__(self, x):
        """Horner evaluation at x, any scalar of a ring containing the rationals."""
        result = ZERO
        for c in reversed(self.coefficients):
            result = result * x + c
        return result

    def evaluate_matrix(self, m: RatMatrix) -> RatMatrix:
        """p(m) by integer Horner: for m = N / d and p = sum P_k t^k / D,
        S <- S N + P_k d^(deg+1-k) I from the top coefficient down, each
        product one `_accumulate` call, gives p(m) = S / (D d^(deg+1))."""
        if m.rows != m.cols:
            raise ValueError("polynomial of a non-square matrix")
        n = m.rows
        ints, den = _integers_over(self.coefficients)
        big, acc, scale = _matrix(n, n, m.nums), [0] * (n * n), 1
        for c in reversed(ints):
            scale *= m.den
            acc = list(_product(_matrix(n, n, acc), big).nums)
            acc[::n + 1] = [x + c * scale for x in acc[::n + 1]]
        return _matrix(n, n, acc, den * scale)


def _pseudo_divmod(a: list, b: list) -> tuple:
    """(q, r, s) with s a = q b + r and deg r < deg b, for integer
    coefficient lists (lowest degree first), b without a zero leading
    coefficient; r is trimmed. The running remainder and q are scaled by
    lead(b) only when lead(b) does not divide the remainder's leading
    coefficient, so s is a power of lead(b), and s = 1 when b divides a in
    Z[t], as it does when b is primitive and divides a over Q (Gauss)."""
    lead, db = b[-1], len(b) - 1
    r, q, s = list(a), [0] * max(len(a) - db, 0), 1
    for shift in range(len(q) - 1, -1, -1):
        if r[shift + db] % lead:
            r, q, s = [x * lead for x in r], [x * lead for x in q], s * lead
        f = q[shift] = r[shift + db] // lead
        for i, y in enumerate(b):
            r[shift + i] -= f * y
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return q, r, s


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'), monic: same roots as p, each simple.

    P is p with its denominators cleared. gcd(P, P') is the last nonzero term
    of the primitive pseudo-remainder sequence, each remainder with its
    content divided out (Knuth, TAOCP vol. 2, 4.6.1), and P / gcd is exact.
    """
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    ints, _ = _integers_over(p.coefficients)
    a, b = ints, [i * c for i, c in enumerate(ints) if i]
    while b:
        g = math.gcd(*b)
        b = [x // g for x in b]
        a, b = b, _pseudo_divmod(a, b)[1]
    q, r, s = _pseudo_divmod(ints, a)
    if r or s != 1:
        raise ArithmeticError("gcd does not divide its polynomial")
    return Polynomial(tuple(Fraction(c, q[-1]) for c in q))


def _horner(ints: Sequence[int], x: int) -> int:
    """The integer polynomial ``ints`` (lowest degree first) at x."""
    value = 0
    for c in reversed(ints):
        value = value * x + c
    return value


def integer_roots(p: Polynomial) -> list:
    """All integer roots of ``p``, in increasing order: its squarefree part,
    with denominators cleared, goes to `_squarefree_integer_roots`."""
    if p.is_zero():
        raise ValueError("every integer is a root of the zero polynomial")
    ints, _ = _integers_over(squarefree_part(p).coefficients)
    return _squarefree_integer_roots(ints)


def _squarefree_integer_roots(ints: list) -> list:
    """All integer roots, in increasing order, of the nonzero integer
    polynomial P = ``ints`` (lowest degree first), which has no repeated root.

    Found by Hensel lifting, without factoring anything. q is the least
    modulus >= 2 at which P'(x) is a unit mod q at every root x of P mod q.
    Such a q exists: P is squarefree, so its discriminant is not 0, and
    every prime dividing neither lead(P) nor the discriminant qualifies,
    since modulo it P keeps its degree and has only simple roots. q need not
    be prime and may divide lead(P): Newton's step x - P(x) / P'(x) needs
    only that P'(x) is a unit, and then lifts each root mod q to exactly one
    root modulo q^2, q^4, .... An integer root r satisfies
    |r| <= B = 1 + max |a_i| // |lead(P)| (Cauchy), so once the modulus M
    exceeds 2B, r is the lift taken in (-M/2, M/2]; each such lift is kept
    when it is an exact root.
    """
    deriv = [i * c for i, c in enumerate(ints) if i]
    q = 1
    while True:
        q += 1
        reduced, residues = [c % q for c in ints], []
        for x in range(q):
            if not _horner(reduced, x) % q:
                if math.gcd(_horner(deriv, x), q) != 1:
                    break  # q is dropped at its first root where P' is not a unit
                residues.append(x)
        else:
            break
    bound = 1 + max(map(abs, ints[:-1]), default=0) // abs(ints[-1])
    roots = []
    for x in residues:
        modulus = q
        while modulus <= 2 * bound:
            modulus *= modulus
            x = (x - _horner(ints, x) * pow(_horner(deriv, x), -1, modulus)) % modulus
        if 2 * x > modulus:
            x -= modulus
        if not _horner(ints, x):
            roots.append(x)
    return sorted(roots)


def char_poly(m: RatMatrix) -> Polynomial:
    """Characteristic polynomial, monic, via the Faddeev-LeVerrier recursion
    on the integer matrix N = den m: with c_n = 1 and M_0 = 0, M_k =
    N (M_(k-1) + c_(n-k+1) I) by one `_accumulate` call, and c_(n-k) =
    -tr(M_k) / k divides exactly. Coefficient k of char_poly(m) is
    c_k den^(k-n)."""
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    big, ak, cs = _matrix(n, n, m.nums), [0] * (n * n), [1]
    for k in range(1, n + 1):
        ak[::n + 1] = [x + cs[-1] for x in ak[::n + 1]]
        ak = list(_product(big, _matrix(n, n, ak)).nums)
        cs.append(-sum(ak[::n + 1]) // k)
    return Polynomial(tuple(Fraction(c, m.den ** k) for k, c in enumerate(cs))[::-1])


def is_semisimple_matrix(m: RatMatrix) -> bool:
    """True iff the minimal polynomial is squarefree (diagonalizable over the closure)."""
    q = squarefree_part(char_poly(m))
    return q.evaluate_matrix(m).is_zero()
