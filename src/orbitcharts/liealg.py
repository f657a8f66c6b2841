"""Classical matrix Lie algebras, subalgebras, and their basic operators.

A `LieAlgebra` is an ordered basis of ambient n x n rational matrices that
is linearly independent and closed under the commutator; both conditions
are checked at construction. The closure check computes the coordinates of
every [b_i, b_j] without a dense matrix: the bracket is formed from the
basis supports, multiplying only the entries (r, k) and (k, c) that meet,
and solved by a walk over the echelon rows of the independence check's
`VectorSpan` that visits only the pivot columns the bracket, or the fill-in
of earlier steps, reaches, in increasing order. An echelon row is zero left
of its pivot column, so a nonzero residual at a column that is not a pivot
column can be cleared by no row still to come: the bracket leaves the span.
The coordinates are kept as sparse structure constants, the nonzero
entries of each ad(b_i) in the sparse form of `RatMatrix.support`, from
which `ad_matrix` assembles ad x in one pass (`linalg._lincomb`), and
`matrix_of` builds the matrix of exact coordinates in one pass over the
basis matrices' own supports. It is the one path from coordinates to a
matrix: `element` calls it, and so do c(x), the center of
a Levi and the scanned graded pieces, on the primitive integer vectors of
a kernel basis, which stay ints from the elimination to the matrix. A
`LieAlgebra` is built only where something brackets inside it: the
classical algebras and the Levi c(x_s) (the mixed chart recurses into it,
and the witness search takes its center, which `center_basis` reads off
the integer rows of the structure constants with no ad matrix formed).
Every other subspace, c(x), the Levi's center and the graded pieces among
them, is held as n x n matrices, and every fact about it is read from a
kernel basis, a commutator or a rank. An element keeps four facts once
read: ``ad``, the matrix of ad x; ``char_poly``, the characteristic
polynomial of x; ``orbit_dim``, rank(ad x); and ``centralizer``, c(x) as
the matrices of a kernel basis of ad x. The last two read one echelon
form of ad x (`linalg._echelon`): the rank is its pivot count, and the
kernel is back-substituted from the same rows (`linalg._echelon_kernel`)
when c(x) is read. ``is_nilpotent()`` reads
``char_poly``: x is nilpotent exactly
when char_poly(x) = t^n (Cayley-Hamilton), so no power of x is walked.

Basis conventions (frozen, since chart coordinates refer to basis indices):

* sl(n): elementary matrices E_ij, i != j, in lexicographic (i, j) order,
  followed by the diagonal differences E_kk - E_(k+1)(k+1).
* so(n): annihilator of the split symmetric form S (ones on the
  antidiagonal), one integer basis element per pair of entries the form
  ties together, ordered by the later entry of the pair in row-major order
  (`_form_annihilator_basis`). The split form is used so that nonzero
  nilpotents and integer gradings exist over the rationals.
* sp(n), n even: same construction for the split antidiagonal symplectic
  form (+1 in the top half, -1 in the bottom half).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional, Sequence

from .linalg import (
    ZERO,
    Polynomial,
    RatMatrix,
    VectorSpan,
    _as_fractions,
    _echelon,
    _echelon_kernel,
    _int_kernel_basis,
    _lincomb,
    _matrix,
    char_poly,
    matrix_to_json,
)


class NotInAlgebraError(ValueError):
    """A matrix does not lie in the span of the algebra's basis."""


class LieAlgebra:
    """Bracket-closed matrix Lie algebra with a fixed ordered basis."""

    def __init__(self, basis: Sequence[RatMatrix], label: str,
                 ambient_size: Optional[int] = None, family: Optional[str] = None):
        basis = tuple(basis)
        if basis:
            ambient_size = basis[0].rows
        elif ambient_size is None:
            raise ValueError("an empty algebra needs an explicit ambient size")
        for b in basis:
            if b.rows != ambient_size or b.cols != ambient_size:
                raise ValueError("basis matrices must share the ambient size")
        self.basis = basis
        self.label = label
        self.ambient_size = ambient_size
        self.family = family
        try:
            self._span = VectorSpan(basis, length=ambient_size * ambient_size)
        except ValueError as exc:
            raise ValueError(f"{label}: basis is linearly dependent") from exc
        self._structure = self._validate_closure()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _validate_closure(self) -> tuple:
        """Check [b_i, b_j] stays in the span; return the structure constants.

        Entry i is ad(b_i) in the sparse form of `RatMatrix.support`, its
        nonzero entries listed at p = row * dim + col, the row-major
        position: the column of b_j holds the coordinates of [b_i, b_j].

        Each bracket is formed from the basis matrices' supports, in
        integers over d_i * d_j: an entry (r, k) of one factor is
        multiplied only with row k of the other.
        `VectorSpan.sparse_coords_of` solves it on the span built for the
        independence check, visiting only the pivot columns the bracket or
        its fill-in reaches. A nonzero residual at a
        column that is not a pivot column can be cleared by no remaining
        echelon row, since each is zero left of its pivot column, so the
        bracket leaves the span and the basis is refused.
        """
        n, m = self.ambient_size, self.dim
        supports = [b.support for b in self.basis]
        # entry (r, k) of b_i as (r * n, k, value), and the rows of b_i
        entries = [[(p - p % n, p % n, v) for p, v in pairs] for _, pairs in supports]
        by_row = []
        for _, pairs in supports:
            rows = {}
            for p, v in pairs:
                rows.setdefault(p // n, []).append((p % n, v))
            by_row.append(rows)
        table = [[] for _ in range(m)]
        for i in range(m):
            di, ei, ri = supports[i][0], entries[i], by_row[i]
            for j in range(i + 1, m):
                ej, rj = entries[j], by_row[j]
                bracket = {}
                for rn, k, v in ei:
                    for c, w in rj.get(k, ()):
                        bracket[rn + c] = bracket.get(rn + c, 0) + v * w
                for rn, k, v in ej:
                    for c, w in ri.get(k, ()):
                        bracket[rn + c] = bracket.get(rn + c, 0) - v * w
                solved = self._span.sparse_coords_of(bracket, di * supports[j][0])
                if solved is None:
                    raise ValueError(
                        f"{self.label}: basis is not bracket-closed "
                        f"([b_{i}, b_{j}] leaves the span)"
                    )
                coords, s = solved
                for k, x in coords:
                    table[i].append((k * m + j, x, s))
                    table[j].append((k * m + i, -x, s))
        ad_supports = []
        for ad_entries in table:
            # d is the lcm of the reduced denominators, as in `_integers_over`
            d = math.lcm(*(s // math.gcd(x, s) for _, x, s in ad_entries))
            ad_supports.append((d, tuple((p, x * d // s) for p, x, s in ad_entries)))
        return tuple(ad_supports)

    def coords_of_matrix(self, matrix: RatMatrix):
        if matrix.rows != self.ambient_size or matrix.cols != self.ambient_size:
            return None
        return self._span.coords_of(matrix)

    def contains_matrix(self, matrix: RatMatrix) -> bool:
        return self.coords_of_matrix(matrix) is not None

    def matrix_of(self, coords: Sequence) -> RatMatrix:
        """The matrix sum c_i b_i of the exact coordinates ``coords`` (ints
        or Fractions, one per basis element): one `_lincomb` pass over the
        basis supports, in integers, with no `LieElement` and, for int
        coordinates, no Fraction built."""
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        n = self.ambient_size
        return _lincomb(coords, [b.support for b in self.basis], n, n)

    def element(self, coords: Sequence) -> "LieElement":
        coords = _as_fractions(coords)
        return LieElement(self, coords, self.matrix_of(coords))

    def element_from_matrix(self, matrix: RatMatrix) -> "LieElement":
        coords = self.coords_of_matrix(matrix)
        if coords is None:
            raise NotInAlgebraError(f"matrix does not lie in {self.label}")
        return LieElement(self, coords, matrix)

    def zero_element(self) -> "LieElement":
        return self.element((ZERO,) * self.dim)

    def same_span(self, other: "LieAlgebra") -> bool:
        if self.ambient_size != other.ambient_size or self.dim != other.dim:
            return False
        return all(self.contains_matrix(b) for b in other.basis)

    def __repr__(self):
        return f"LieAlgebra({self.label!r}, dim={self.dim}, ambient={self.ambient_size})"


@dataclass(frozen=True)
class LieElement:
    """Element of a LieAlgebra: coordinates plus the cached ambient matrix. Four
    facts are kept once read: ``ad``, ``char_poly``, ``orbit_dim`` and
    ``centralizer``, c(x) as a tuple of n x n matrices. The last two share
    one elimination of ad x: the rank is its pivot count, and the kernel is
    back-substituted from its rows only when c(x) is read, so a rank alone
    costs no kernel. ``is_nilpotent()`` reads ``char_poly``
    (char_poly(x) = t^n)."""

    algebra: LieAlgebra
    coords: tuple
    matrix: RatMatrix

    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    def is_nilpotent(self) -> bool:
        """Whether char_poly(x) = t^n, which holds exactly when x^n = 0
        (Cayley-Hamilton); it reads ``char_poly`` and walks no power of x."""
        return not any(self.char_poly.coefficients[:-1])

    @cached_property
    def ad(self) -> RatMatrix:
        """ad x, the matrix of z -> [x, z] (`ad_matrix`)."""
        return ad_matrix(self)

    @cached_property
    def char_poly(self) -> Polynomial:
        """The characteristic polynomial of the ambient matrix of x."""
        return char_poly(self.matrix)

    @cached_property
    def _ad_echelon(self) -> tuple:
        """The one elimination of ad x (`linalg._echelon`): its echelon rows,
        pivot columns and column count, read by ``orbit_dim`` and
        ``centralizer``."""
        return _echelon(self.ad)

    @cached_property
    def orbit_dim(self) -> int:
        """rank(ad x) = dim g - dim c(x), the dimension of the orbit of x:
        the pivot count of the echelon of ad x."""
        return len(self._ad_echelon[1])

    @cached_property
    def centralizer(self) -> tuple:
        """c(x) as n x n matrices: `matrix_of` of each primitive integer
        kernel vector that `_echelon_kernel` reads off the echelon of ad x."""
        return tuple(map(self.algebra.matrix_of, _echelon_kernel(*self._ad_echelon)))


def ad_matrix(x: LieElement) -> RatMatrix:
    """Matrix of z -> [x, z] in the basis of the algebra of x."""
    m = x.algebra.dim
    return _lincomb(x.coords, x.algebra._structure, m, m)


def subalgebra_from_coords(algebra: LieAlgebra, coord_vectors: Sequence[Sequence[Fraction]],
                           label: str) -> LieAlgebra:
    mats = [algebra.matrix_of(v) for v in coord_vectors]
    return LieAlgebra(mats, label, ambient_size=algebra.ambient_size)


def centralizer_basis(x: LieElement) -> LieAlgebra:
    """Centralizer of x in its algebra: the subalgebra on the matrices
    ``x.centralizer``."""
    return LieAlgebra(x.centralizer, f"centralizer in {x.algebra.label}", x.algebra.ambient_size)


def center_basis(algebra: LieAlgebra) -> tuple:
    """Center of ``algebra`` as matrices: intersection of the kernels of all ad b_i.

    The kernel is taken of the nonzero rows of the structure constants,
    each ad b_i scaled to integers by its own denominator. Scaling rows
    keeps the kernel and the pivot columns, and each kernel vector is fixed
    by them, so the basis is that of the stacked ad b_i.
    """
    m = algebra.dim
    rows = {}
    for i, (_, pairs) in enumerate(algebra._structure):
        for p, x in pairs:
            rows.setdefault((i, p // m), [0] * m)[p % m] = x
    return tuple(map(algebra.matrix_of, _int_kernel_basis(list(rows.values()), m)))


def trace_form_gram(basis: Sequence[RatMatrix]) -> RatMatrix:
    """Gram matrix of the trace form tr(ab) on square matrices of one size.

    With b_i = N_i / d_i, L = lcm(d_i) and s_i = L / d_i, tr(b_i b_j) is
    s_i s_j tr(N_i N_j) / L^2, so the Gram is one matrix over L^2."""
    if any(b.rows != b.cols or b.rows != basis[0].rows for b in basis):
        raise ValueError("trace form needs square matrices of one size")
    lcm = math.lcm(*(b.den for b in basis))
    scales = [lcm // b.den for b in basis]
    # tr(N_i N_j) is the dot product of N_i with the transpose of N_j
    transposed = [b.transpose().nums for b in basis]
    return _matrix(len(basis), len(basis), [si * sj * sum(map(mul, bi.nums, tj))
                                            for bi, si in zip(basis, scales)
                                            for tj, sj in zip(transposed, scales)], lcm * lcm)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _elementary(n: int, i: int, j: int) -> RatMatrix:
    nums = [0] * (n * n)
    nums[i * n + j] = 1
    return _matrix(n, n, nums)


def _form_annihilator_basis(n: int, pairing) -> list:
    """Integer basis of the A with A^T S + S A = 0, for the antidiagonal
    form S whose row i has the sign ``pairing(i)`` (+1 or -1).

    The condition ties entry (r, c) to entry (n-1-c, n-1-r): at flat
    row-major indices p <= q it reads pairing(p_r) A_p + pairing(p_c) A_q = 0,
    with (p_r, p_c) the row and column of p. A pair p < q gives
    E_p - pairing(p_r) pairing(p_c) E_q; an antidiagonal entry (p = q) is
    its own basis element when pairing(p_r) + pairing(p_c) = 0 (sp) and is
    zero otherwise (so). Elements come in increasing q, the order of the
    free columns when the kernel of the constraint matrix is extracted.
    """
    basis = []
    for q in range(n * n):
        pr, pc = n - 1 - q % n, n - 1 - q // n
        p = pr * n + pc
        nums = [0] * (n * n)
        if p < q:
            nums[p], nums[q] = 1, -pairing(pr) * pairing(pc)
        elif p == q and pairing(pr) + pairing(pc) == 0:
            nums[q] = 1
        else:
            continue
        basis.append(_matrix(n, n, nums))
    return basis


_CLASSICAL_CACHE: dict = {}


def _check_size(family: str, n: int) -> None:
    """Raise ValueError, with the reason, unless family is sl, so or sp
    and n is a size `build_classical` supports for it."""
    if family not in ("sl", "so", "sp"):
        raise ValueError(f"unsupported family {family!r}")
    if family == "sl" and n < 2:
        raise ValueError("sl(n) needs n >= 2")
    if family == "so" and n < 3:
        raise ValueError("so(n) needs n >= 3")
    if family == "sp" and (n < 2 or n % 2):
        raise ValueError("sp(n) needs even n >= 2")


def build_classical(family: str, n: int) -> LieAlgebra:
    """sl(n), so(n) or sp(n) over the rationals, with the documented basis order."""
    key = (family, n)
    if key in _CLASSICAL_CACHE:
        return _CLASSICAL_CACHE[key]
    _check_size(family, n)
    if family == "sl":
        basis = [_elementary(n, i, j) for i in range(n) for j in range(n) if i != j]
        basis += [_elementary(n, k, k) - _elementary(n, k + 1, k + 1) for k in range(n - 1)]
        expected = n * n - 1
    elif family == "so":
        basis = _form_annihilator_basis(n, lambda i: 1)
        expected = n * (n - 1) // 2
    else:
        half = n // 2
        basis = _form_annihilator_basis(n, lambda i: 1 if i < half else -1)
        expected = n * (n + 1) // 2
    algebra = LieAlgebra(basis, f"{family}{n}", family=family)
    if algebra.dim != expected:
        raise AssertionError(f"{family}{n}: dimension {algebra.dim} != {expected}")
    _CLASSICAL_CACHE[key] = algebra
    return algebra


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def element_to_json(x: LieElement) -> dict:
    return {"algebra_label": x.algebra.label, "matrix": matrix_to_json(x.matrix)}
