"""Additive Jordan decomposition of a rational matrix.

A nilpotent x is its own nilpotent part and a semisimple x its own
semisimple part; only a mixed x takes Newton steps. With q the squarefree
part of the characteristic polynomial, x -> x - q(x) q'(x)^-1 squares the
q-adic order each step, so after at most ceil(log2 n) steps it lands on the
semisimple part. q'(x_k) is invertible: x_k - x is a nilpotent element of
Q[x], so x_k has the eigenvalues of x, at none of which q' vanishes. No
eigenvalue is computed.
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

    A nilpotent x (char_poly(x) = t^n) is its own nilpotent part and a
    semisimple x (q(x) = 0) its own semisimple part; each keeps the facts it
    has read, and the other part is the algebra's zero element. Only a mixed
    x takes Newton steps. Its semisimple part is a polynomial in x with
    rational coefficients, so it lies in sl automatically; for so/sp
    membership is solved and checked when the parts are re-expressed in the
    basis.
    """
    algebra = x.algebra
    if x.is_nilpotent():
        return JordanPair(algebra.zero_element(), x)
    q = squarefree_part(x.char_poly)
    dq = q.derivative()
    xs = x.matrix
    for steps in range(xs.rows.bit_length() + 1):
        qx = q.evaluate_matrix(xs)
        if qx.is_zero():
            break
        xs = xs - qx * _inverse(dq.evaluate_matrix(xs))
    else:
        raise ArithmeticError("Jordan iteration failed to converge")
    if steps == 0:
        return JordanPair(x, algebra.zero_element())
    return JordanPair(algebra.element_from_matrix(xs), algebra.element_from_matrix(x.matrix - xs))


def jordan_pair_to_json(pair: JordanPair) -> dict:
    return {
        "semisimple": matrix_to_json(pair.semisimple.matrix),
        "nilpotent": matrix_to_json(pair.nilpotent.matrix),
    }
