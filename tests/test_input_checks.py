"""Every input check of the library raises its own exception type and message."""

import pytest

from orbitcharts.charts import exp_nilpotent
from orbitcharts.liealg import LieAlgebra, build_classical
from orbitcharts.linalg import (
    NotNilpotentError,
    Polynomial,
    RatMatrix,
    VectorSpan,
    det,
    integer_roots,
    mat_vec,
    parse_rational,
    solve_linear,
    vstack,
)
from orbitcharts.rng import SplitMix64

ROW = RatMatrix.from_rows([[1, 2]])
COLUMN = RatMatrix.from_rows([[1], [2]])
SQUARE = RatMatrix.identity(2)

CASES = {
    "parse_rational-of-an-int": (lambda: parse_rational(3), ValueError,
                                 "expected a rational string, got int"),
    "negative-dimension": (lambda: RatMatrix(-1, 1, ()), ValueError,
                           "matrix dimensions must be nonnegative"),
    "sum-of-shapes": (lambda: ROW + COLUMN, ValueError, "shape mismatch"),
    "difference-of-shapes": (lambda: ROW - COLUMN, ValueError, "shape mismatch"),
    "trace-of-1x2": (lambda: ROW.trace(), ValueError, "trace of a non-square matrix"),
    "det-of-1x2": (lambda: det(ROW), ValueError, "determinant of a non-square matrix"),
    "polynomial-of-1x2": (lambda: Polynomial((1, 1)).evaluate_matrix(ROW), ValueError,
                          "polynomial of a non-square matrix"),
    "solve-short-rhs": (lambda: solve_linear(SQUARE, (1,)), ValueError,
                        "right-hand side length mismatch"),
    "mat_vec-short-vector": (lambda: mat_vec(SQUARE, (1,)), ValueError,
                             "vector length mismatch"),
    "vstack-of-nothing": (lambda: vstack([]), ValueError, "nothing to stack"),
    "vstack-of-widths": (lambda: vstack([ROW, COLUMN]), ValueError,
                         "column mismatch in stack"),
    "coords-of-short-vector": (lambda: VectorSpan([(1, 0, 0)]).coords_of((1, 0)),
                               ValueError, "vector length mismatch"),
    "integer-roots-of-zero": (lambda: integer_roots(Polynomial(())), ValueError,
                              "every integer is a root of the zero polynomial"),
    "randint-empty-range": (lambda: SplitMix64(1).randint(2, 1), ValueError, "empty range"),
    "empty-algebra-without-size": (lambda: LieAlgebra([], "empty"), ValueError,
                                   "an empty algebra needs an explicit ambient size"),
    "basis-of-two-sizes": (lambda: LieAlgebra([RatMatrix.zeros(2, 2),
                                               RatMatrix.zeros(3, 3)], "mixed sizes"),
                           ValueError, "basis matrices must share the ambient size"),
    "element-short-coords": (lambda: build_classical("sl", 2).element((1, 0)), ValueError,
                             "coordinate length mismatch"),
    "exp-of-1x2": (lambda: exp_nilpotent(ROW), NotNilpotentError,
                   "exp of a non-square matrix"),
}


@pytest.mark.parametrize("call,kind,message", CASES.values(), ids=CASES.keys())
def test_input_check_raises(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message
