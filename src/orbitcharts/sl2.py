"""Jacobson-Morozov: an sl2-triple through a nonzero nilpotent element.

Two exact linear solves. First h: writing h = [e, u] forces h into the
image of ad e, and [h, e] = 2e then reads (ad e)^2 u = -2e. Then f: the
joint system [e, f] = h, [h, f] = -2f. Both systems take the deterministic
minimal-support solution (free variables zero) of the row-reduced form.
Works inside any bracket-closed reductive matrix algebra, in particular
inside the Levi subalgebras the mixed case recurses into.

The first solve certifies that e is nilpotent, so a nilpotent e forms no
characteristic polynomial. Any solution u gives h = [e, u] with
[h, e] = 2e, and by Leibniz h e^k - e^k h = 2k e^k. So each nonzero e^k
is an eigenvector of ad h on gl_n with eigenvalue 2k; these differ for
distinct k, and ad h on gl_n has at most n^2 eigenvalues, so some e^k is
zero. A non-nilpotent e therefore always fails the first solve, and only
then does `LieElement.is_nilpotent` (char_poly(e) = t^n) tell
`NotNilpotentError` from `NoTripleFoundError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .liealg import LieElement
from .linalg import (
    NotNilpotentError,
    RatMatrix,
    ZERO,
    commutator,
    mat_vec,
    solve_linear,
    vstack,
)


class NoTripleFoundError(RuntimeError):
    """The defining linear systems are inconsistent (non-reductive input)."""


@dataclass(frozen=True)
class Sl2Triple:
    """(e, h, f) with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""

    e: LieElement
    h: LieElement
    f: LieElement


def jacobson_morozov(e: LieElement) -> Sl2Triple:
    if e.is_zero():
        raise ValueError("Jacobson-Morozov needs a nonzero element")

    algebra = e.algebra
    ade = e.ad
    ade2 = ade * ade
    rhs = tuple(-2 * c for c in e.coords)
    u = solve_linear(ade2, rhs)
    if u is None:
        if not e.is_nilpotent():
            raise NotNilpotentError("element is not nilpotent")
        raise NoTripleFoundError("no h with [h,e] = 2e inside [e, g]")
    h = algebra.element(mat_vec(ade, u))

    adh = h.ad
    m = algebra.dim
    stacked = vstack([adh + RatMatrix.identity(m).scale(2), ade])
    joint_rhs = tuple([ZERO] * m) + h.coords
    f_coords = solve_linear(stacked, joint_rhs)
    if f_coords is None:
        raise NoTripleFoundError("no f completing the triple")
    f = algebra.element(f_coords)

    triple = Sl2Triple(e, h, f)
    _check_relations(triple)
    return triple


def _check_relations(t: Sl2Triple) -> None:
    if commutator(t.h.matrix, t.e.matrix) != t.e.matrix.scale(2):
        raise NoTripleFoundError("[h, e] != 2e")
    if commutator(t.h.matrix, t.f.matrix) != t.f.matrix.scale(-2):
        raise NoTripleFoundError("[h, f] != -2f")
    if commutator(t.e.matrix, t.f.matrix) != t.h.matrix:
        raise NoTripleFoundError("[e, f] != h")
