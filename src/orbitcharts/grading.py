"""Integer gradings by ad of a grading element, and parabolic data.

g(i) is the eigenspace of ad h for the integer eigenvalue i. Candidate
weights come from the natural representation: g is an ad h-stable subspace
of gl_n, so every eigenvalue of ad h on g is a difference l_i - l_j of
eigenvalues of the n x n matrix h. When the characteristic polynomial of h
(degree n) splits over the rationals, the integer differences of its roots
are therefore every possible weight; they are read off the numerator
matrix of h (`_rational_eigenvalues`). When it does not split, the scan
falls back to every integer root of the characteristic polynomial of ad h
(degree dim g). Either way the scan is complete; the grading is accepted
only when the eigenspaces fill the whole algebra.

When ad h is diagonal (`linalg._is_diagonal`), as for a diagonal h in the
standard bases of `build_classical` and in the centralizer of a diagonal
element, every basis element is a weight vector. The pieces are then read
off the diagonal, with no weight scan, no kernel and no characteristic
polynomial, and they are the ones the scan would return (see `grading_by`).
Otherwise each eigenspace is a kernel computed on integer rows: the
numerators of ad h are read once, and weight i only shifts the diagonal.
Either way the pieces are then certified element by element (h x - x h =
i x for each x in g(i), as n x n matrices); with the dimension count and
the closure of g, the Jacobi identity gives [g(i), g(j)] in g(i + j) for
every pair of pieces.

`semisimple_for_levi` realizes the witness statement behind the charts: a
semisimple integer element z, central in the given Levi, whose full
centralizer is exactly that Levi. The search is a verify-and-retry loop
over integer coordinates in the center (first the all-ones vector, then
seeded random draws), since over the rationals a verified random witness
replaces the generic-element existence argument that holds over large
fields. Every draw lies in the Levi and commutes with it by construction,
so a draw is rejected only for being zero, not semisimple, having a
centralizer larger than the Levi, or having a non-integer ad-spectrum. In
the split classical algebras (`build_classical`) a witness exists only
when every element of the Levi's center has rational eigenvalues, so a
center whose basis fails this is rejected before any draw; when the
budget runs out, the error counts the rejected draws by reason.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .liealg import LieAlgebra, LieElement, center_basis
from .linalg import (
    RatMatrix,
    _int_kernel_basis,
    _int_rows,
    _is_diagonal,
    _lincomb,
    _matrix,
    _squarefree_integer_roots,
    char_poly,
    commutator,
    integer_roots,
    is_semisimple_matrix,
    matrix_to_json,
    squarefree_part,
)
from .rng import SplitMix64


class NonIntegerSpectrumError(ValueError):
    """ad of the grading element is not diagonalizable with integer eigenvalues."""


class WitnessNotFoundError(RuntimeError):
    """No central semisimple witness found within the retry budget."""


@dataclass(eq=False, frozen=True)
class Grading:
    """Eigenspace decomposition g = (+) g(i) under ad of the grading element,
    each piece a basis of n x n matrices; the grading element stays a
    `LieElement`, which keeps its ``ad``."""

    grading_element: LieElement
    pieces: Dict[int, Tuple[RatMatrix, ...]]

    @property
    def algebra(self) -> LieAlgebra:
        return self.grading_element.algebra

    def piece_dims(self) -> Dict[int, int]:
        return {i: len(els) for i, els in self.pieces.items()}


@dataclass(eq=False, frozen=True)
class ParabolicData:
    """Matrix bases derived from a grading: p = g(>=0), u = g(>0), u- =
    g(<0) and the chart target u2 = g(>=2). The Levi g(0) is the zero piece;
    nothing brackets inside it, so it is not built as a subalgebra, and
    `_zero_piece_matches` compares it with c(s) by dimension and commutators."""

    grading: Grading
    p: Tuple[RatMatrix, ...]
    u: Tuple[RatMatrix, ...]
    u_minus: Tuple[RatMatrix, ...]
    u2: Tuple[RatMatrix, ...]

    @property
    def u2_differs_from_u(self) -> bool:
        return len(self.u2) != len(self.u)


def grading_by(h: LieElement) -> Grading:
    """Decompose the algebra of h into integer eigenspaces of ad h.

    When ad h is diagonal, g(i) is the basis elements b_j whose diagonal
    entry is i, in increasing j. That is exactly what the scan below
    returns: the kernel of diagonal integer rows is the unit vectors at
    their zero entries, in increasing column order, and `matrix_of` of the
    unit vector at j is b_j.

    Otherwise the weights scanned are `_natural_weights` of h, or, when the
    characteristic polynomial of h does not split over the rationals, every
    integer root of the characteristic polynomial of ad h.

    The integer rows of ad h are its numerators over its denominator d, read
    once. For an integer weight i, d (ad h - i I) has the rows of ad h with
    i * d subtracted on the diagonal, and each g(i) is the kernel of those
    rows. The pieces are then certified by `_certify_pieces`.
    """
    algebra = h.algebra
    ad_h = h.ad
    dim = algebra.dim
    pieces: Dict[int, list] = {}
    if _is_diagonal(ad_h):
        for b, d in zip(algebra.basis, ad_h.nums[::dim + 1]):
            i, rem = divmod(d, ad_h.den)
            if not rem:
                pieces.setdefault(i, []).append(b)
    else:
        weights = _natural_weights(h.matrix)
        if weights is None:
            weights = integer_roots(char_poly(ad_h))
        for i in weights:
            rows = _int_rows(ad_h)
            for k, row in enumerate(rows):
                row[k] -= i * ad_h.den
            vectors = _int_kernel_basis(rows, dim)
            if vectors:
                pieces[i] = list(map(algebra.matrix_of, vectors))
    total = sum(len(els) for els in pieces.values())
    if total != dim:
        raise NonIntegerSpectrumError(
            f"integer eigenspaces of ad h span {total} of {dim} dimensions"
        )
    grading = Grading(h, {i: tuple(els) for i, els in sorted(pieces.items())})
    _certify_pieces(grading)
    return grading


def _natural_weights(m: RatMatrix):
    """Integer differences of the eigenvalues of ``m`` (0 included), or None
    when its characteristic polynomial does not split over the rationals."""
    roots = _rational_eigenvalues(m)
    if roots is None:
        return None
    diffs = {a - b for a in roots for b in roots}
    return sorted(int(w) for w in diffs if w.denominator == 1)


def _rational_eigenvalues(m: RatMatrix):
    """The distinct eigenvalues of ``m``, in increasing order, or None when
    its characteristic polynomial does not split over the rationals.

    They are mu / den for the integer roots mu of the monic squarefree part
    q of char_poly(N), N = den m: char_poly(N) is monic over Z, so q is too
    (Gauss's lemma), and its rational roots are integers.
    """
    q = squarefree_part(char_poly(_matrix(m.rows, m.cols, m.nums)))
    mus = _squarefree_integer_roots([c.numerator for c in q.coefficients])
    return [Fraction(mu, m.den) for mu in mus] if len(mus) == q.degree else None


def _certify_pieces(grading: Grading) -> None:
    """Check h x - x h = i x, as n x n matrices, for every element x of every
    piece g(i); raise `NonIntegerSpectrumError` naming the first that fails.

    With the `grading_by` count (the pieces span all of g) this proves that
    each g(i) is the whole i-eigenspace of ad h: the elements are
    eigenvectors of ad h, independent within a piece (a kernel basis), and
    eigenvectors of distinct weights are independent. Since g is closed
    under the bracket (checked when the `LieAlgebra` is built), the Jacobi
    identity
    [h, [x, y]] = [[h, x], y] + [x, [h, y]] = (i + j) [x, y]
    then puts [g(i), g(j)] inside g(i + j) for every pair of pieces.

    It also proves each x in g(i), i != 0, nilpotent. By Leibniz,
    h x^k - x^k h = k i x^k, so each nonzero x^k is an eigenvector of ad h
    on gl_n with eigenvalue k i. These differ for distinct k, and ad h on
    gl_n has at most n^2 eigenvalues, so some x^k is zero.
    """
    h = grading.grading_element.matrix
    for i, els in grading.pieces.items():
        for index, el in enumerate(els):
            if commutator(h, el) != el.scale(i):
                raise NonIntegerSpectrumError(
                    f"element {index} of g({i}) is not an eigenvector "
                    f"of ad h with eigenvalue {i}"
                )


def parabolic_data(grading: Grading) -> ParabolicData:
    """Assemble p, u, u- and u2 from a grading, and check that u and u-
    have one dimension (a Borel subalgebra, graded by its h, fails this).

    The rest is what `grading_by` certified: its count makes p and u-
    complement each other, and `_certify_pieces` makes every element of a
    piece of nonzero weight nilpotent.
    """
    pieces = grading.pieces
    pos = sorted(i for i in pieces if i > 0)
    neg = sorted((i for i in pieces if i < 0), reverse=True)
    u = tuple(el for i in pos for el in pieces[i])
    u_minus = tuple(el for i in neg for el in pieces[i])
    u2 = tuple(el for i in pos if i >= 2 for el in pieces[i])
    zero_piece = pieces.get(0, ())
    p = tuple(zero_piece) + u
    if len(u) != len(u_minus):
        raise AssertionError("u and u- have different dimensions")
    return ParabolicData(grading, p, u, u_minus, u2)


def _zero_piece_matches(grading: Grading, s: RatMatrix, dim: int) -> bool:
    """Whether g(0) of ``grading`` spans c(s), of dimension ``dim``: the zero
    piece is a kernel basis, so ``dim`` elements commuting with s span c(s)."""
    zero_piece = grading.pieces.get(0, ())
    return (len(zero_piece) == dim
            and all(commutator(s, el).is_zero() for el in zero_piece))


def semisimple_for_levi(algebra: LieAlgebra, levi: LieAlgebra, seed: int) -> LieElement:
    """Integer semisimple z, central in ``levi``, with centralizer exactly ``levi``.

    Attempt 0 takes the all-ones coordinate vector in the center basis (which
    already succeeds for block Levis and keeps the output canonical); later
    attempts draw integer coordinates from [-n^2, n^2] with the seeded
    generator. Each candidate is fully verified before being returned.
    Raises `ValueError` when a basis element of ``levi`` lies outside
    ``algebra``, and `WitnessNotFoundError` when no witness can exist or
    none is found within `_WITNESS_ATTEMPTS` (64) attempts.
    """
    if not all(algebra.contains_matrix(b) for b in levi.basis):
        raise ValueError("levi is not contained in the ambient algebra")
    return _witness_grading(algebra, levi, seed).grading_element


_WITNESS_ATTEMPTS = 64
_REJECTION_REASONS = ("zero", "not semisimple", "centralizer too large",
                      "non-integer spectrum")


def _witness_grading(algebra: LieAlgebra, levi: LieAlgebra, seed: int, known=None) -> Grading:
    """The grading by the witness `semisimple_for_levi` returns; the grading
    is the last step of the witness's validation, so it is computed once.
    ``levi`` must lie in ``algebra``, as a centralizer built in it does, so
    a ``levi`` of the same dimension is the whole algebra, which the zero
    element grades; any other Levi with a trivial center has no witness.

    ``known`` is the semisimple `LieElement` of ``algebra`` whose
    centralizer is ``levi``, when the caller holds one: the x_s of a chart's
    Jordan split, or the x of `verify.redstab_suite`'s search.
    `semisimple_for_levi` holds only the Levi and passes None. The search
    and its candidates are the same either way; a candidate equal to
    ``known`` is graded as that element (`_grade_candidate`).

    When ``algebra`` is a split classical form (``algebra.family`` set), a
    center basis element whose characteristic polynomial does not split over
    the rationals raises `WitnessNotFoundError` before any draw. No witness
    can exist then. A witness z has integer ad-eigenvalues, which are the
    differences (and, for so/sp, the sums) of its eigenvalues; with trace
    zero (sl) or eigenvalues in pairs l, -l (so, sp), this makes every
    eigenvalue of z rational. So c(z) is block-diagonal on the rational
    eigenspaces of z, and every rational element of its center acts on each
    block as a rational scalar, except on the zero eigenspace of an so form
    when that space has dimension 2. There Witt cancellation against the
    split form makes the space hyperbolic, so its rotations are a split
    torus with rational eigenvalues too. The argument needs the split form:
    an algebra without a family can hold an anisotropic rotation, which may
    be its own witness, so it always runs the search.
    """
    center = center_basis(levi)
    n = algebra.ambient_size
    if not center:
        if levi.dim == algebra.dim:
            return grading_by(algebra.zero_element())
        raise WitnessNotFoundError(
            f"{levi.label} has trivial center and is proper: no torus witness exists"
        )
    if algebra.family is not None:
        for i, b in enumerate(center):
            if _rational_eigenvalues(b) is None:
                element = json.dumps(matrix_to_json(b))
                raise WitnessNotFoundError(
                    f"no rational witness for {levi.label}: the characteristic "
                    f"polynomial of center basis element {i} {element} does not "
                    f"split over the rationals"
                )
    supports = [b.support for b in center]
    rng = SplitMix64(seed)
    bound = n * n
    rejected = dict.fromkeys(_REJECTION_REASONS, 0)
    for attempt in range(_WITNESS_ATTEMPTS):
        if attempt == 0:
            coords = [1] * len(center)
        else:
            coords = [rng.randint(-bound, bound) for _ in center]
        outcome = _grade_candidate(algebra, levi, _lincomb(coords, supports, n, n), known)
        if isinstance(outcome, Grading):
            return outcome
        rejected[outcome] += 1
    counts = ", ".join(f"{reason}: {count}" for reason, count in rejected.items())
    raise WitnessNotFoundError(
        f"no witness for {levi.label} within {_WITNESS_ATTEMPTS} attempts (seed {seed}); "
        f"rejected: {counts}"
    )


def _grade_candidate(algebra: LieAlgebra, levi: LieAlgebra, z_mat: RatMatrix, known):
    """The grading by the candidate ``z_mat`` if it is a witness for
    ``levi``, else the reason it is rejected (one of _REJECTION_REASONS).

    z is a combination of the center basis of ``levi``, so it lies in the
    Levi, hence in ``algebra``, and commutes with the Levi. Then c(z)
    contains the Levi, and the rank of ad z alone proves c(z) = Levi.

    A candidate equal to ``known`` (a semisimple `LieElement`, or None) is
    that element: the Jordan split or `verify.redstab_suite` has proved it
    semisimple, and it keeps ad and rank(ad) once read, so no new element
    is built and neither is formed a second time.
    """
    if z_mat.is_zero():
        return "zero"
    z = known if known is not None and known.matrix == z_mat else None
    if z is None:
        if not is_semisimple_matrix(z_mat):
            return "not semisimple"
        z = algebra.element_from_matrix(z_mat)
    if algebra.dim - z.orbit_dim != levi.dim:
        return "centralizer too large"
    try:
        return grading_by(z)
    except NonIntegerSpectrumError:
        return "non-integer spectrum"
