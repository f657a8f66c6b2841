from fractions import Fraction

import pytest

from conftest import diag_matrix, elem, element, jordan_nilpotent, nontrivial_partitions
from orbitcharts.liealg import LieAlgebra, ad_matrix, build_classical, centralizer_basis
from orbitcharts.linalg import NotNilpotentError, commutator, solve_linear
from orbitcharts.sl2 import NoTripleFoundError, jacobson_morozov

F = Fraction


def test_standard_sl2_triple(sl2):
    e = element(sl2, [[0, 1], [0, 0]])
    t = jacobson_morozov(e)
    assert t.h.matrix == diag_matrix([1, -1])
    assert t.f.matrix == elem(2, 1, 0)


def test_sl3_regular(sl3):
    e = sl3.element_from_matrix(elem(3, 0, 1) + elem(3, 1, 2))
    t = jacobson_morozov(e)
    assert t.h.matrix == diag_matrix([2, 0, -2])
    assert t.f.matrix == elem(3, 1, 0).scale(2) + elem(3, 2, 1).scale(2)


def test_sl3_minimal(sl3):
    e = sl3.element_from_matrix(elem(3, 0, 2))
    t = jacobson_morozov(e)
    assert t.h.matrix == diag_matrix([1, 0, -1])
    assert t.f.matrix == elem(3, 2, 0)


def test_not_nilpotent_rejected(sl2):
    # h in sl2; diag(1, 1, -2) + E_01 in the Levi c(diag(1, 1, -2)) of sl3,
    # an algebra with no family; diag(1, 0, 0, 0, -1) + E_01 - E_34 in so5
    levi = centralizer_basis(build_classical("sl", 3).element_from_matrix(
        diag_matrix([1, 1, -2])))
    so5 = build_classical("so", 5)
    assert levi.family is None
    for x in (element(sl2, [[1, 0], [0, -1]]),
              levi.element_from_matrix(diag_matrix([1, 1, -2]) + elem(3, 0, 1)),
              so5.element_from_matrix(diag_matrix([1, 0, 0, 0, -1]) + elem(5, 0, 1)
                                      + elem(5, 3, 4, -1))):
        with pytest.raises(NotNilpotentError):
            jacobson_morozov(x)


def test_zero_rejected(sl2):
    with pytest.raises(ValueError):
        jacobson_morozov(sl2.zero_element())


def test_borel_has_no_triple():
    # span{e, h} is closed but not reductive; the h-system is inconsistent
    borel = LieAlgebra((elem(2, 0, 1), diag_matrix([1, -1])), "borel of sl2")
    e = borel.element_from_matrix(elem(2, 0, 1))
    with pytest.raises(NoTripleFoundError):
        jacobson_morozov(e)


def _relations_hold(t):
    e, h, f = t.e.matrix, t.h.matrix, t.f.matrix
    return (commutator(h, e) == e.scale(2)
            and commutator(h, f) == f.scale(-2)
            and commutator(e, f) == h)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_all_jordan_types(n):
    algebra = build_classical("sl", n)
    for part in nontrivial_partitions(n):
        e = algebra.element_from_matrix(jordan_nilpotent(n, part))
        t = jacobson_morozov(e)
        assert _relations_hold(t), part
        # h lies in the image of ad e
        sol = solve_linear(ad_matrix(e), t.h.coords)
        assert sol is not None, part
        # e sits in weight 2 of its own grading
        assert commutator(t.h.matrix, e.matrix) == e.matrix.scale(2)
