"""Additive Jordan decomposition of a rational matrix.

Exact Newton steps: with q the squarefree part of the characteristic
polynomial, x -> x - q(x) q'(x)^-1 squares the q-adic order each step, so
after at most ceil(log2 n) steps it lands on the semisimple part. q'(x_k)
is invertible: x_k - x is a nilpotent element of Q[x], so x_k has the
eigenvalues of x, at none of which q' vanishes. No eigenvalue is computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .liealg import LieElement
from .linalg import (
    RatMatrix,
    VectorSpan,
    _int_rows,
    matrix_to_json,
    squarefree_part,
)


@dataclass(frozen=True)
class JordanPair:
    """x = semisimple + nilpotent with commuting parts."""

    semisimple: LieElement
    nilpotent: LieElement


def _inverse(m: RatMatrix) -> RatMatrix:
    """m^-1 = den (den m)^-1, row i of (den m)^-1 being the coordinates of
    e_i in the integer rows den m."""
    n = m.rows
    try:
        span = VectorSpan(_int_rows(m))
    except ValueError:
        raise ArithmeticError("Newton step met a singular q'(x)") from None
    rows = [span.coords_of([int(i == j) for j in range(n)]) for i in range(n)]
    return RatMatrix.from_rows(rows).scale(m.den)


def jordan_decompose(x: LieElement) -> JordanPair:
    """Split x into its commuting semisimple and nilpotent parts.

    The semisimple part is a polynomial in x with rational coefficients, so
    it lies in sl automatically; for so/sp membership is solved and checked
    when the parts are re-expressed in the basis. A semisimple x (q(x) = 0)
    is its own semisimple part, and keeps the facts it has read.
    """
    algebra = x.algebra
    mat = x.matrix
    n = mat.rows
    q = squarefree_part(x.char_poly)
    dq = q.derivative()
    xs = mat
    qx = q.evaluate_matrix(xs)
    steps = 0
    while not qx.is_zero():
        xs = xs - qx * _inverse(dq.evaluate_matrix(xs))
        qx = q.evaluate_matrix(xs)
        steps += 1
        if steps > n.bit_length():
            raise ArithmeticError("Jordan iteration failed to converge")
    semis = x if steps == 0 else algebra.element_from_matrix(xs)
    return JordanPair(semis, algebra.element_from_matrix(mat - xs))


def jordan_pair_to_json(pair: JordanPair) -> dict:
    return {
        "semisimple": matrix_to_json(pair.semisimple.matrix),
        "nilpotent": matrix_to_json(pair.nilpotent.matrix),
    }
