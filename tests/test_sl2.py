from fractions import Fraction

import pytest

from conftest import (
    diag_matrix,
    elem,
    element,
    jordan_nilpotent,
    nontrivial_partitions,
    spy_everywhere,
)
from orbitcharts import linalg
from orbitcharts.liealg import (
    LieAlgebra,
    LieElement,
    ad_matrix,
    build_classical,
    centralizer_basis,
)
from orbitcharts.linalg import NotNilpotentError, commutator, solve_linear
from orbitcharts.sl2 import NoTripleFoundError, Sl2Triple, _check_relations, jacobson_morozov

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


def _spy_solves_and_tests(monkeypatch):
    """The list, filled from now on, of jacobson_morozov's linear solves
    ("solved" or "no solution") and nilpotency tests, in call order."""
    events = []
    test = LieElement.is_nilpotent

    def spied_solve(m, rhs):
        u = solve_linear(m, rhs)
        events.append("no solution" if u is None else "solved")
        return u

    def spied_test(e):
        events.append("is_nilpotent")
        return test(e)

    monkeypatch.setattr("orbitcharts.sl2.solve_linear", spied_solve)
    monkeypatch.setattr(LieElement, "is_nilpotent", spied_test)
    return events


def test_not_nilpotent_rejected(sl2, monkeypatch):
    # h in sl2; diag(1, 1, -2) + E_01 in the Levi c(diag(1, 1, -2)) of sl3,
    # an algebra with no family; diag(1, 0, 0, 0, -1) + E_01 - E_34 in so5.
    # The first solve fails, and only then is nilpotency tested. The
    # nilpotent parts E_01, E_01 and E_01 - E_34, new elements that keep no
    # char_poly, get a triple from two solves and form no char_poly: the
    # solve proves them nilpotent
    levi = centralizer_basis(build_classical("sl", 3).element_from_matrix(
        diag_matrix([1, 1, -2])))
    so5 = build_classical("so", 5)
    assert levi.family is None
    events = _spy_solves_and_tests(monkeypatch)
    char_polys = spy_everywhere(monkeypatch, linalg.char_poly)
    for algebra, xs, xn in ((sl2, diag_matrix([1, -1]), elem(2, 0, 1)),
                            (levi, diag_matrix([1, 1, -2]), elem(3, 0, 1)),
                            (so5, diag_matrix([1, 0, 0, 0, -1]),
                             elem(5, 0, 1) + elem(5, 3, 4, -1))):
        del events[:], char_polys[:]
        with pytest.raises(NotNilpotentError, match="^element is not nilpotent$"):
            jacobson_morozov(algebra.element_from_matrix(xs + xn))
        assert events == ["no solution", "is_nilpotent"]
        del events[:], char_polys[:]
        e = algebra.element_from_matrix(xn)
        jacobson_morozov(e)
        assert events == ["solved", "solved"]
        assert char_polys == [] and "char_poly" not in vars(e)


def test_zero_rejected(sl2):
    with pytest.raises(ValueError):
        jacobson_morozov(sl2.zero_element())


def test_borel_has_no_triple(monkeypatch):
    # span{e, h} is closed but not reductive; the h-system is inconsistent.
    # e is nilpotent, so the test after the failed solve finds t^2 and the
    # error names the missing h
    borel = LieAlgebra((elem(2, 0, 1), diag_matrix([1, -1])), "borel of sl2")
    e = borel.element_from_matrix(elem(2, 0, 1))
    events = _spy_solves_and_tests(monkeypatch)
    char_polys = spy_everywhere(monkeypatch, linalg.char_poly)
    with pytest.raises(NoTripleFoundError, match=r"^no h with \[h,e\] = 2e inside \[e, g\]$"):
        jacobson_morozov(e)
    assert events == ["no solution", "is_nilpotent"]
    assert char_polys == [e.matrix]


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


@pytest.mark.parametrize("e,h,f,message", [
    (elem(2, 0, 1), diag_matrix([2, -2]), elem(2, 1, 0), r"^\[h, e\] != 2e$"),
    (elem(2, 0, 1), diag_matrix([1, -1]), elem(2, 0, 1), r"^\[h, f\] != -2f$"),
    (elem(2, 0, 1), diag_matrix([1, -1]), elem(2, 1, 0).scale(2), r"^\[e, f\] != h$"),
], ids=["h-e", "h-f", "e-f"])
def test_forged_triple_fails_its_relation(sl2, e, h, f, message):
    # each forged triple breaks one relation and keeps the ones checked
    # before it
    triple = Sl2Triple(*(sl2.element_from_matrix(m) for m in (e, h, f)))
    with pytest.raises(NoTripleFoundError, match=message):
        _check_relations(triple)
