import functools
import math
from fractions import Fraction

import pytest

from conftest import (
    block_levi,
    companion,
    compositions,
    diag_matrix,
    elem,
    element,
    element_spy,
    jordan_nilpotent,
    nontrivial_partitions,
    same_span,
    spy_everywhere,
    unit_bidiagonal,
    upper_basis,
)
from orbitcharts.grading import (
    Grading,
    NonIntegerSpectrumError,
    WitnessNotFoundError,
    _certify_pieces,
    _natural_weights,
    _rational_eigenvalues,
    _witness_grading,
    _zero_piece_matches,
    grading_by,
    parabolic_data,
    semisimple_for_levi,
)
from orbitcharts.liealg import (
    LieAlgebra,
    ad_matrix,
    build_classical,
    center_basis,
    centralizer_basis,
    subalgebra_from_coords,
)
from orbitcharts.linalg import (
    RatMatrix,
    VectorSpan,
    _is_diagonal,
    _powers,
    _squarefree_integer_roots,
    char_poly,
    commutator,
    integer_roots,
    kernel_basis,
    squarefree_part,
)
from orbitcharts.sl2 import jacobson_morozov

F = Fraction


def zero_piece_subalgebra(grading):
    """g(0) as a subalgebra; building it checks that it is bracket-closed."""
    algebra = grading.algebra
    return subalgebra_from_coords(algebra,
                                  [algebra.coords_of_matrix(el) for el in grading.pieces[0]],
                                  "g(0)")


class TestGradingBy:
    def test_sl2_by_h(self, sl2):
        g = grading_by(element(sl2, [[1, 0], [0, -1]]))
        assert g.piece_dims() == {-2: 1, 0: 1, 2: 1}

    def test_sl3_by_diag_101(self, sl3):
        g = grading_by(sl3.element_from_matrix(diag_matrix([1, 0, -1])))
        assert g.piece_dims() == {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}

    def test_sl3_by_diag_202(self, sl3):
        g = grading_by(sl3.element_from_matrix(diag_matrix([2, 0, -2])))
        assert g.piece_dims() == {-4: 1, -2: 2, 0: 2, 2: 2, 4: 1}

    def test_algebra_is_the_grading_elements(self, sl3):
        h = sl3.element_from_matrix(diag_matrix([1, 0, -1]))
        assert Grading(h, grading_by(h).pieces).algebra is h.algebra is sl3

    def test_non_diagonalizable_rejected(self, sl2):
        e = element(sl2, [[0, 1], [0, 0]])
        with pytest.raises(NonIntegerSpectrumError):
            grading_by(e)

    def test_non_integer_spectrum_rejected(self, sl2):
        h3 = element(sl2, [[F(1, 3), 0], [0, F(-1, 3)]])
        with pytest.raises(NonIntegerSpectrumError):
            grading_by(h3)

    def test_bracket_compatibility_all_pairs(self, sl3):
        from orbitcharts.liealg import ad_matrix
        from orbitcharts.linalg import mat_vec

        h = sl3.element_from_matrix(diag_matrix([1, 0, -1]))
        g = grading_by(h)
        ad_h = ad_matrix(h)
        for i, xs in g.pieces.items():
            for j, ys in g.pieces.items():
                for x in xs:
                    for y in ys:
                        prod = x * y - y * x
                        coords = sl3.coords_of_matrix(prod)
                        assert coords is not None
                        assert mat_vec(ad_h, coords) == tuple(
                            c * (i + j) for c in coords)


def _exhaustive_pieces(algebra, h):
    """Piece coordinates from every integer root of the characteristic
    polynomial of ad h: the scan that natural-representation weights replace."""
    ad_h = ad_matrix(h)
    ident = RatMatrix.identity(algebra.dim)
    pieces = {}
    for i in integer_roots(char_poly(ad_h)):
        vectors = kernel_basis(ad_h - ident.scale(i))
        if vectors:
            pieces[i] = [tuple(v) for v in vectors]
    return pieces


def _jm_elements(n):
    algebra = build_classical("sl", n)
    return [(algebra, jacobson_morozov(
        algebra.element_from_matrix(jordan_nilpotent(n, part))).h)
        for part in nontrivial_partitions(n)]


_DIAGONALS = [
    ("sl", 3, [1, 0, -1]), ("sl", 3, [2, -1, -1]), ("sl", 3, [5, -2, -3]),
    ("sl", 4, [1, 1, -1, -1]), ("sl", 4, [3, -1, -1, -1]), ("sl", 4, [2, 1, 0, -3]),
    ("sl", 5, [1, 1, 1, -1, -2]), ("sl", 5, [4, -1, -1, -1, -1]),
    ("sl", 5, [2, 1, 0, -1, -2]),
    ("so", 5, [1, 0, 0, 0, -1]), ("so", 5, [2, 1, 0, -1, -2]), ("so", 5, [1, 1, 0, -1, -1]),
    ("sp", 4, [1, 0, 0, -1]), ("sp", 4, [2, 1, -1, -2]), ("sp", 4, [1, 1, -1, -1]),
]


def _diagonal_elements():
    out = []
    for family, n, values in _DIAGONALS:
        algebra = build_classical(family, n)
        out.append((algebra, algebra.element_from_matrix(diag_matrix(values))))
    return out


class TestNaturalWeights:
    @pytest.mark.parametrize("source", ["jm3", "jm4", "jm5", "diagonal"])
    def test_pieces_match_exhaustive_scan(self, source):
        cases = _diagonal_elements() if source == "diagonal" else _jm_elements(int(source[2:]))
        for algebra, h in cases:
            g = grading_by(h)
            expected = _exhaustive_pieces(algebra, h)
            assert {i: [algebra.coords_of_matrix(el) for el in els]
                    for i, els in g.pieces.items()} == expected, (algebra.label, h.matrix)
            assert g.piece_dims() == {i: len(v) for i, v in expected.items()}

    def test_rational_non_integer_weights(self, sl3):
        h = sl3.element_from_matrix(diag_matrix([F(1, 3), F(1, 3), F(-2, 3)]))
        assert _natural_weights(h.matrix) == [-1, 0, 1]
        assert grading_by(h).piece_dims() == {-1: 2, 0: 4, 1: 2}

    def test_non_split_grading_element_falls_back(self):
        # h = A (+) (A + I) with A = [[0, 2], [1, 0]]: no rational eigenvalue,
        # yet [h, E] = -E on the span of h and the upper-right identity block E.
        h = RatMatrix.from_rows([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 1, 2], [0, 0, 1, 1]])
        e = RatMatrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
        algebra = LieAlgebra((h, e), "span{h, E} in gl4")
        assert _natural_weights(h) is None
        g = grading_by(algebra.element_from_matrix(h))
        assert g.piece_dims() == {-1: 1, 0: 1}

    def test_non_split_grading_element_falls_back_in_a_skewed_basis(self, monkeypatch):
        # the algebra above on the basis (h, h + E): [h, h + E] = -E
        # = h - (h + E), so ad h = [[0, 1], [0, -1]] is not diagonal and the
        # weights come from the integer roots of char_poly(ad h)
        import orbitcharts.grading as grading

        h = RatMatrix.from_rows([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 1, 2], [0, 0, 1, 1]])
        e = RatMatrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
        algebra = LieAlgebra((h, h + e), "span{h, h + E} in gl4")
        root_args = []

        def roots(p):
            root_args.append(p)
            return integer_roots(p)

        monkeypatch.setattr(grading, "integer_roots", roots)
        g = grading_by(algebra.element_from_matrix(h))
        assert g.piece_dims() == {-1: 1, 0: 1}
        assert len(root_args) == 1

    def test_non_split_shortfall_message(self, sl3):
        companion = element(sl3, [[0, 0, 2], [1, 0, 0], [0, 1, 0]])  # t^3 - 2
        with pytest.raises(NonIntegerSpectrumError, match="span 2 of 8"):
            grading_by(companion)


def _lcm_rescaled_eigenvalues(m):
    """The rescaling `_rational_eigenvalues` replaced: the roots of the
    monic squarefree part p (degree d) of char_poly(m) are mu / D for the
    integer roots mu of D^d p(t / D), D the lcm of the denominators of p."""
    p = squarefree_part(char_poly(m))
    d = p.degree
    denom = math.lcm(*(c.denominator for c in p.coefficients))
    ints = [c.numerator * denom ** (d - k) // c.denominator
            for k, c in enumerate(p.coefficients)]
    roots = [F(mu, denom) for mu in _squarefree_integer_roots(ints)]
    return roots if len(roots) == d else None


def _eigenvalue_corpus():
    """Matrices with denominators (diag(1/2, -1/2), integer spectra divided
    by 6), the so5 and sp4 JM h, a non-split companion, a scalar plus a
    Jordan block, a 1 x 1 and the 3 x 3 zero matrix."""
    u, u_inv = unit_bidiagonal([1, 2, 3])
    integer_spectra = [
        diag_matrix([3, 1, -1, -3]),
        u * diag_matrix([5, 2, 2, -9]) * u_inv,
        u * (diag_matrix([1, 1, -1, -1]) + elem(4, 0, 1)) * u_inv,
        companion(3, [0, -1, 0]),  # t^3 - t: roots -1, 0, 1
    ]
    jm = [h.matrix for family, n in (("so", 5), ("sp", 4))
          for _, h in _split_jm_elements(family, n)]
    return ([diag_matrix([F(1, 2), F(-1, 2)])]
            + [m.scale(F(1, 6)) for m in integer_spectra + jm] + jm
            + [companion(3, [-2, 0, 0]),  # t^3 - 2
               diag_matrix([2, 2, 2]) + elem(3, 0, 1) + elem(3, 1, 2),
               RatMatrix.from_rows([[F(-7, 3)]]),
               RatMatrix.zeros(3, 3)])


class TestRationalEigenvalues:
    def test_equals_the_lcm_rescaling(self):
        corpus = _eigenvalue_corpus()
        assert {2, 6} <= {m.den for m in corpus}
        for m in corpus:
            assert _rational_eigenvalues(m) == _lcm_rescaled_eigenvalues(m), m

    def test_values(self):
        assert _rational_eigenvalues(diag_matrix([F(1, 2), F(-1, 2)])) == [F(-1, 2), F(1, 2)]
        assert _rational_eigenvalues(diag_matrix([3, 1, -1, -3]).scale(F(1, 6))) == \
            [F(-1, 2), F(-1, 6), F(1, 6), F(1, 2)]
        assert _rational_eigenvalues(companion(3, [-2, 0, 0])) is None
        assert _rational_eigenvalues(diag_matrix([2, 2, 2]) + elem(3, 0, 1)) == [2]
        assert _rational_eigenvalues(RatMatrix.from_rows([[F(-7, 3)]])) == [F(-7, 3)]
        assert _rational_eigenvalues(RatMatrix.zeros(3, 3)) == [0]


def _ad_is_diagonal(h):
    ad_h = ad_matrix(h)
    return all(ad_h.at(r, c) == 0 for r in range(ad_h.rows)
               for c in range(ad_h.cols) if r != c)


def _assert_reference_pieces(algebra, h, g):
    """The pieces of ``g`` are the elements of the `_exhaustive_pieces`
    coordinate vectors, coordinates and matrices alike."""
    expected = _exhaustive_pieces(algebra, h)
    assert {i: [algebra.coords_of_matrix(el) for el in els]
            for i, els in g.pieces.items()} == expected, (algebra.label, h.matrix)
    for i, els in g.pieces.items():
        assert list(els) == [algebra.element(v).matrix for v in expected[i]], \
            (algebra.label, i)


# Block compositions of sl3-sl5 with a diagonal x_s constant on each block;
# the nilpotent x_n is a superdiagonal 1 in the first block of size >= 2.
_LEVI_COMPOSITIONS = (
    (3, (2, 1)), (3, (1, 2)),
    (4, (2, 2)), (4, (2, 1, 1)), (4, (3, 1)),
    (5, (4, 1)), (5, (3, 2)), (5, (2, 3)), (5, (3, 1, 1)), (5, (2, 1, 2)),
    (5, (1, 3, 1)),
)


def _levi_elements():
    """For each composition, the witness z of the Levi c(x_s) in sl(n) and
    the JM h of x_n inside that Levi, graded in the Levi's kernel basis."""
    out = []
    for n, blocks in _LEVI_COMPOSITIONS:
        # block k gets n k - sum_j m_j j: distinct values, trace zero
        shift = sum(m * k for k, m in enumerate(blocks))
        values = [n * k - shift for k, m in enumerate(blocks) for _ in range(m)]
        algebra = build_classical("sl", n)
        levi = centralizer_basis(algebra.element_from_matrix(diag_matrix(values)))
        pos = sum(blocks[:next(k for k, m in enumerate(blocks) if m >= 2)])
        x_n = levi.element_from_matrix(elem(n, pos, pos + 1))
        out.append((algebra, semisimple_for_levi(algebra, levi, 42)))
        out.append((levi, jacobson_morozov(x_n).h))
    return out


def _zero_elements():
    out = [(algebra, algebra.zero_element())
           for algebra in (build_classical("sl", 3), build_classical("so", 5),
                           build_classical("sp", 4))]
    sl4 = build_classical("sl", 4)
    # the full Levi, of the dimension of sl4: the witness search grades by zero
    out.append((sl4, semisimple_for_levi(sl4, block_levi(4, (4,)), 42)))
    return out


def _zero_dimensional():
    """The center of sl3, of dimension 0, built as an algebra: no pieces,
    and they span all 0."""
    center = LieAlgebra(center_basis(build_classical("sl", 3)), "center of sl3",
                        ambient_size=3)
    return [(center, center.zero_element())]


_READ_OFF_CORPORA = {
    "diagonal": _diagonal_elements,
    "jm": lambda: [c for n in (3, 4, 5) for c in _jm_elements(n)],
    "levi": _levi_elements,
    "zero": _zero_elements,
    "zero-dimensional": _zero_dimensional,
}


class TestDiagonalReadOff:
    """When ad h is diagonal, the pieces are read off its diagonal; they
    equal the reference scan's, element for element."""

    @pytest.mark.parametrize("name", sorted(_READ_OFF_CORPORA))
    def test_pieces_equal_the_reference_scan(self, name):
        for algebra, h in _READ_OFF_CORPORA[name]():
            assert _ad_is_diagonal(h), (algebra.label, h.matrix)
            _assert_reference_pieces(algebra, h, grading_by(h))

    def test_zero_grades_everything_in_degree_zero(self):
        for algebra, h in _zero_elements():
            assert h.is_zero()
            assert grading_by(h).piece_dims() == {0: algebra.dim}

    def test_non_integer_diagonal_rejected(self, sl3):
        # the Cartan has weight 0; every root space has weight +-1/3 or +-2/3
        h = sl3.element_from_matrix(diag_matrix([F(1, 3), 0, F(-1, 3)]))
        assert _ad_is_diagonal(h)
        with pytest.raises(NonIntegerSpectrumError, match="span 2 of 8"):
            grading_by(h)

    def test_no_elimination_and_no_char_poly(self, monkeypatch):
        import orbitcharts.grading as grading
        import orbitcharts.linalg as linalg

        sl6 = build_classical("sl", 6)
        h = jacobson_morozov(sl6.element_from_matrix(jordan_nilpotent(6, [6]))).h
        calls = []

        def spy(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(linalg, "_bareiss", spy("_bareiss", linalg._bareiss))
        monkeypatch.setattr(linalg, "char_poly", spy("char_poly", linalg.char_poly))
        monkeypatch.setattr(grading, "char_poly", spy("char_poly", grading.char_poly))
        g = grading_by(h)
        assert g.piece_dims() == {-10: 1, -8: 2, -6: 3, -4: 4, -2: 5, 0: 5,
                                  2: 5, 4: 4, 6: 3, 8: 2, 10: 1}
        assert calls == []

    def test_conjugated_diagonal_takes_the_scan(self, monkeypatch):
        import orbitcharts.linalg as linalg

        sl4 = build_classical("sl", 4)
        u, u_inv = unit_bidiagonal([1, 2, 3])
        h = sl4.element_from_matrix(u * diag_matrix([3, 1, -1, -3]) * u_inv)
        assert not _ad_is_diagonal(h)
        eliminations = []
        linalg_bareiss = linalg._bareiss

        def bareiss(rows):
            eliminations.append(len(rows))
            return linalg_bareiss(rows)

        monkeypatch.setattr(linalg, "_bareiss", bareiss)
        g = grading_by(h)
        assert eliminations
        monkeypatch.undo()
        _assert_reference_pieces(sl4, h, g)

    def test_scan_builds_no_element(self, monkeypatch):
        # the JM h of the so5 regular nilpotent is not diagonal in the so5
        # basis; each scanned piece is the matrices of its integer kernel
        # vectors, with no LieElement built for them
        so5 = build_classical("so", 5)
        upper = upper_basis(so5)
        h = jacobson_morozov(so5.element_from_matrix(sum(upper[1:], upper[0]))).h
        assert not _ad_is_diagonal(h)
        elements = element_spy(monkeypatch)
        g = grading_by(h)
        assert elements == []
        monkeypatch.undo()
        _assert_reference_pieces(so5, h, g)


def _split_jm_elements(family, n):
    """JM h of each strictly upper-triangular basis element of so(n) or
    sp(n), and of their sum (a regular nilpotent)."""
    algebra = build_classical(family, n)
    upper = upper_basis(algebra)
    total = upper[0]
    for b in upper[1:]:
        total = total + b
    return [(algebra, jacobson_morozov(algebra.element_from_matrix(e)).h)
            for e in upper + [total]]


# One diagonal per multiplicity pattern of sl3-sl5, distinct block values.
_WITNESS_DIAGONALS = [
    [1, 1, -2], [1, 0, -1],
    [1, 1, 1, -3], [1, 1, -1, -1], [2, 2, -1, -3], [3, 1, -1, -3],
    [1, 1, 1, 1, -4], [2, 2, 2, -3, -3], [3, 3, 3, -4, -5], [1, 1, -1, -1, 0],
    [2, 2, 1, -1, -4], [2, 1, 0, -1, -2],
]


def _witness_elements():
    out = []
    for values in _WITNESS_DIAGONALS:
        algebra = build_classical("sl", len(values))
        x = algebra.element_from_matrix(diag_matrix(values))
        levi = centralizer_basis(x)
        out.append((algebra, semisimple_for_levi(algebra, levi, 42)))
    return out


def _non_split_element():
    # h = A (+) (A + I) with A = [[0, 2], [1, 0]], as in TestNaturalWeights
    h = RatMatrix.from_rows([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 1, 2], [0, 0, 1, 1]])
    e = RatMatrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
    algebra = LieAlgebra((h, e), "span{h, E} in gl4")
    return [(algebra, algebra.element_from_matrix(h))]


def _skewed_elements():
    """sl2 and sl3 in bases with fractional multiples of a Cartan element
    added, so that rows of ad h have denominators other than 1."""
    out = []
    for n, h_diag in ((2, [1, -1]), (3, [1, 0, -1])):
        standard = build_classical("sl", n)
        d = diag_matrix([1, -1] + [0] * (n - 2))
        basis = [b + d.scale(F(1, k + 3)) for k, b in enumerate(standard.basis)]
        algebra = LieAlgebra(tuple(basis), f"sl{n} in a skewed basis")
        out.append((algebra, algebra.element_from_matrix(diag_matrix(h_diag))))
    return out


_CORPORA = {
    "sl-jm": lambda: [c for n in (3, 4, 5, 6) for c in _jm_elements(n)],
    "so-sp-jm": lambda: [c for family, n in (("so", 5), ("so", 6), ("sp", 4), ("sp", 6))
                         for c in _split_jm_elements(family, n)],
    "sl-witness": _witness_elements,
    "non-split": _non_split_element,
    "skewed": _skewed_elements,
}


@functools.lru_cache(maxsize=None)
def _corpus_gradings(name):
    return [(algebra, h, grading_by(h)) for algebra, h in _CORPORA[name]()]


class TestIntegerRowsAndCertificate:
    @pytest.mark.parametrize("name", sorted(_CORPORA))
    def test_pieces_equal_rational_kernels(self, name):
        for algebra, h, g in _corpus_gradings(name):
            ad_h = ad_matrix(h)
            ident = RatMatrix.identity(algebra.dim)
            assert sum(g.piece_dims().values()) == algebra.dim
            for i, els in g.pieces.items():
                assert [algebra.coords_of_matrix(el) for el in els] \
                    == kernel_basis(ad_h - ident.scale(i)), (algebra.label, i)

    def test_skewed_rows_are_fractional(self):
        for algebra, h, _ in _corpus_gradings("skewed"):
            ad_h = ad_matrix(h)
            assert any(x.denominator > 1 for x in ad_h.entries), algebra.label

    @pytest.mark.parametrize("name", sorted(_CORPORA))
    def test_every_pair_bracket_is_graded(self, name):
        for algebra, _, g in _corpus_gradings(name):
            spans = {i: VectorSpan([el.entries for el in els])
                     for i, els in g.pieces.items()}
            items = [(i, el) for i, els in g.pieces.items() for el in els]
            for a, (i, x) in enumerate(items):
                for j, y in items[a:]:
                    prod = commutator(x, y)
                    if i + j in spans:
                        assert spans[i + j].coords_of(prod.entries) is not None
                    else:
                        assert prod.is_zero(), (algebra.label, i, j)

    def test_relabelled_element_rejected(self):
        _, _, g = _corpus_gradings("sl-jm")[0]
        pieces = dict(g.pieces)
        moved = pieces[2][0]
        pieces[2] = pieces[2][1:]
        pieces[0] = pieces[0] + (moved,)
        index = len(pieces[0]) - 1
        with pytest.raises(NonIntegerSpectrumError,
                           match=rf"element {index} of g\(0\) is not an eigenvector"):
            _certify_pieces(Grading(g.grading_element, pieces))

    def test_non_eigenvector_rejected(self):
        for name in ("sl-jm", "so-sp-jm", "sl-witness"):
            _, _, g = _corpus_gradings(name)[-1]
            pieces = dict(g.pieces)
            top = max(pieces)
            x, y = pieces[top][0], pieces[0][0]
            mixed = x + y
            pieces[top] = (mixed,) + pieces[top][1:]
            with pytest.raises(NonIntegerSpectrumError,
                               match=rf"element 0 of g\({top}\) is not an eigenvector"):
                _certify_pieces(Grading(g.grading_element, pieces))


class TestParabolicData:
    def test_sl2(self, sl2):
        pd = parabolic_data(grading_by(element(sl2, [[1, 0], [0, -1]])))
        assert (len(pd.p), len(pd.u), len(pd.u2), len(pd.u_minus)) == (2, 1, 1, 1)
        assert not pd.u2_differs_from_u

    def test_sl3_odd_grading(self, sl3):
        pd = parabolic_data(grading_by(sl3.element_from_matrix(diag_matrix([1, 0, -1]))))
        assert (len(pd.p), len(pd.u), len(pd.u2), len(pd.u_minus)) == (5, 3, 1, 3)
        assert pd.u2_differs_from_u

    def test_sl3_even_grading(self, sl3):
        pd = parabolic_data(grading_by(sl3.element_from_matrix(diag_matrix([2, 0, -2]))))
        assert (len(pd.u), len(pd.u2)) == (3, 3)
        assert not pd.u2_differs_from_u

    def test_levi0_closed_and_nilpotent_pieces(self, sl3):
        # parabolic_data checks neither: g(0) closes by the Jacobi identity
        # and the pieces of nonzero weight are nilpotent by _certify_pieces.
        # Next to diag(1, 0, -1), the JM h of the so5 regular nilpotent and
        # a conjugate of diag(1, 0, -1) are not diagonal in their bases, so
        # grading_by scans their weights
        so5 = build_classical("so", 5)
        upper = upper_basis(so5)
        u, u_inv = unit_bidiagonal([1, -1])
        for h, diagonal in (
                (sl3.element_from_matrix(diag_matrix([1, 0, -1])), True),
                (jacobson_morozov(so5.element_from_matrix(sum(upper[1:], upper[0]))).h, False),
                (sl3.element_from_matrix(u * diag_matrix([1, 0, -1]) * u_inv), False)):
            assert _is_diagonal(h.ad) == diagonal
            pd = parabolic_data(grading_by(h))
            assert zero_piece_subalgebra(pd.grading).dim == 2
            assert pd.u
            for el in pd.u + pd.u_minus + pd.u2:
                assert _powers(el)[-1].is_zero()

    def test_borel_u_and_u_minus_differ(self):
        # span{h, e} of sl2 graded by h: u = span{e} and u- = 0
        h = diag_matrix([1, -1])
        borel = LieAlgebra((elem(2, 0, 1), h), "borel of sl2")
        with pytest.raises(AssertionError, match="u and u- have different dimensions"):
            parabolic_data(grading_by(borel.element_from_matrix(h)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_jm_gradings_symmetric_and_centralizer_dims(self, n):
        algebra = build_classical("sl", n)
        for part in nontrivial_partitions(n):
            e = algebra.element_from_matrix(jordan_nilpotent(n, part))
            t = jacobson_morozov(e)
            g = grading_by(t.h)
            dims = g.piece_dims()
            for i, d in dims.items():
                assert dims.get(-i, 0) == d, part
            cent = centralizer_basis(e)
            assert cent.dim == dims.get(0, 0) + dims.get(1, 0), part


class TestZeroPieceMatches:
    """g(0) spans c(x) for x = diag(1, 1, -2) in sl3, where dim c(x) = 4."""

    X = diag_matrix([1, 1, -2])

    def test_grading_by_x_matches(self, sl3):
        grading = grading_by(sl3.element_from_matrix(self.X))
        assert _zero_piece_matches(grading, self.X, 4)

    def test_wrong_dimension_fails(self, sl3):
        # g(0) of diag(1, 0, -1) is the Cartan: 2 elements, not 4
        grading = grading_by(sl3.element_from_matrix(diag_matrix([1, 0, -1])))
        assert not _zero_piece_matches(grading, self.X, 4)

    def test_same_dimension_not_commuting_fails(self, sl3):
        # g(0) of diag(1, -2, 1) has 4 elements, E13 among them, and
        # [x, E13] = 3 E13 != 0
        grading = grading_by(sl3.element_from_matrix(diag_matrix([1, -2, 1])))
        assert len(grading.pieces[0]) == 4
        assert elem(3, 0, 2) in grading.pieces[0]
        assert not _zero_piece_matches(grading, self.X, 4)


class TestNonSplitFallback:
    def test_one_root_search_on_char_poly_of_ad_h(self, monkeypatch):
        # h is the companion matrix of t^6 - t - 1 (trace 0, no rational
        # eigenvalue), so the weights are the integer roots of
        # char_poly(ad h); they give only g(0) = c(h), of dimension 5 < 35.
        # The root search eliminates nothing: the one `_bareiss` is the
        # kernel of ad h that gives g(0)
        import orbitcharts.grading as grading
        import orbitcharts.linalg as linalg

        rows = [[int(i == j + 1) for j in range(6)] for i in range(6)]
        rows[0][5] = rows[1][5] = 1
        sl6 = build_classical("sl", 6)
        h = element(sl6, rows)
        root_args, eliminations = [], []
        linalg_bareiss = linalg._bareiss

        def roots(p):
            root_args.append(p)
            return integer_roots(p)

        def bareiss(rows):
            eliminations.append(len(rows))
            return linalg_bareiss(rows)

        monkeypatch.setattr(grading, "integer_roots", roots)
        monkeypatch.setattr(linalg, "_bareiss", bareiss)
        with pytest.raises(NonIntegerSpectrumError, match="span 5 of 35"):
            grading_by(h)
        assert root_args == [char_poly(ad_matrix(h))]
        assert root_args[0].degree == 35
        assert eliminations == [35]


class TestWitness:
    def test_sl3_block_levi(self, sl3):
        levi = block_levi(3, (2, 1))
        z = semisimple_for_levi(sl3, levi, 42)
        assert z.matrix == diag_matrix([1, 1, -2])

    def test_sl2_cartan(self, sl2):
        cartan = LieAlgebra((diag_matrix([1, -1]),), "cartan of sl2")
        z = semisimple_for_levi(sl2, cartan, 42)
        assert z.matrix == diag_matrix([1, -1])

    def test_sl4_two_blocks(self, sl4):
        levi = block_levi(4, (2, 2))
        z = semisimple_for_levi(sl4, levi, 42)
        assert z.matrix == diag_matrix([1, 1, -1, -1])

    @pytest.mark.parametrize("x, seed, witness", [
        ([3, 1, -1, -3], 1, [4, -1, -19, 16]),
        ([3, 1, -1, -3], 7, [8, -24, 0, 16]),
        ([3, 1, -1, -3], 42, [15, -15, 8, -8]),
        ([1, 1, 0, -2], 1, [4, 4, -5, -3]),
        ([1, 1, 0, -2], 7, [8, 8, -32, 16]),
        ([1, 1, 0, -2], 42, [15, 15, -30, 0]),
    ])
    def test_seeded_draws_are_pinned(self, sl4, x, seed, witness):
        # the all-ones attempt fails on both Levis, so each witness is a
        # seeded draw of integer coordinates in the center basis
        levi = centralizer_basis(sl4.element_from_matrix(diag_matrix(x)))
        grading = _witness_grading(sl4, levi, seed)
        assert grading.grading_element.matrix == diag_matrix(witness)

    def test_witness_grading_zero_piece_is_levi(self, sl3):
        levi = block_levi(3, (2, 1))
        z = semisimple_for_levi(sl3, levi, 42)
        pd = parabolic_data(grading_by(z))
        assert same_span(zero_piece_subalgebra(pd.grading), levi)

    def test_deterministic_given_seed(self, sl4):
        levi = block_levi(4, (1, 2, 1))
        z1 = semisimple_for_levi(sl4, levi, 17)
        z2 = semisimple_for_levi(sl4, levi, 17)
        assert z1.matrix == z2.matrix

    def test_full_algebra_gets_zero_witness(self, sl3):
        levi = block_levi(3, (3,))
        z = semisimple_for_levi(sl3, levi, 42)
        assert z.is_zero()
        assert same_span(centralizer_basis(z), levi)

    def test_trivial_center_proper_fails_fast(self, sl2):
        borel = LieAlgebra((elem(2, 0, 1), diag_matrix([1, -1])), "borel")
        with pytest.raises(WitnessNotFoundError):
            semisimple_for_levi(sl2, borel, 42)

    def test_levi_outside_the_algebra_raises(self, sl3):
        scalars = LieAlgebra((RatMatrix.identity(3),), "scalars")
        with pytest.raises(ValueError, match="not contained"):
            semisimple_for_levi(sl3, scalars, 42)

    def test_nilpotent_center_exhausts_budget(self, sl2):
        line = LieAlgebra((elem(2, 0, 1),), "nilpotent line")
        with pytest.raises(WitnessNotFoundError):
            semisimple_for_levi(sl2, line, 42)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_block_composition(self, n):
        algebra = build_classical("sl", n)
        for comp in compositions(n):
            levi = block_levi(n, comp)
            z = semisimple_for_levi(algebra, levi, 42)
            assert same_span(centralizer_basis(z), levi), comp

    def test_known_element_changes_no_witness(self, monkeypatch):
        # the search handed x_s = x returns the grading it finds without x;
        # a candidate equal to x is x (no new element, no semisimplicity
        # test, and no rank of ad x beyond the one x keeps), and the others
        # are built and tested as before
        import orbitcharts.grading as grading
        import orbitcharts.linalg as linalg

        u, u_inv = unit_bidiagonal([1, 1, 1])
        corpus = [("sl", d) for d in (
            [1, 1, -2], [1, 0, -1], [1, 1, -1, -1], [3, 1, -1, -3], [1, 1, 0, -2],
            [1, 1, 1, -3], [1, 1, 1, 1, -4], [2, 2, -1, -1, -2], [1, 1, 0, -1, -1])]
        corpus += [("so", d) for d in (
            [1, 1, 0, -1, -1], [2, 1, 0, -1, -2], [1, 0, 0, 0, -1],
            [1, 1, 1, -1, -1, -1], [1, 1, 0, 0, -1, -1], [2, 1, 0, 0, -1, -2])]
        corpus += [("sp", d) for d in (
            [1, 1, -1, -1], [2, 1, -1, -2], [1, 0, 0, -1],
            [1, 1, 1, -1, -1, -1], [1, 0, 0, 0, 0, -1])]
        matrices = [(family, diag_matrix(d)) for family, d in corpus]
        matrices.append(("sl", u * diag_matrix([1, 1, -1, -1]) * u_inv))
        built, tested = [], []
        element_from_matrix = LieAlgebra.element_from_matrix
        monkeypatch.setattr(LieAlgebra, "element_from_matrix",
                            lambda algebra, m: built.append(m) or element_from_matrix(algebra, m))
        monkeypatch.setattr(grading, "is_semisimple_matrix",
                            lambda m: tested.append(m) or linalg.is_semisimple_matrix(m))
        ranked = spy_everywhere(monkeypatch, linalg.rank)
        hits = 0
        for family, m in matrices:
            algebra = build_classical(family, m.rows)
            for seed in (7, 42):
                x = algebra.element_from_matrix(m)
                levi = centralizer_basis(x)
                plain = _witness_grading(algebra, levi, seed)
                assert x.orbit_dim == algebra.dim - levi.dim  # read once, before the spies
                del built[:], tested[:], ranked[:]
                known = _witness_grading(algebra, levi, seed, x)
                assert known.pieces == plain.pieces, (family, m, seed)
                z = known.grading_element
                assert z.matrix == plain.grading_element.matrix
                assert m not in built and m not in tested
                assert x.ad not in ranked
                hits += z is x
                assert (z is x) == (z.matrix == m)
        assert 0 < hits < 2 * len(matrices)


# Elements whose semisimple part has an irrational eigenvalue, so the center
# of its centralizer does not split and no rational witness exists. C is
# [[0, 2], [1, 0]], the companion matrix of t^2 - 2.
_NON_SPLIT = {
    # companion of t^3 - t - 1, which has no rational root
    "sl3-cubic": ("sl", 3, [[0, 0, 1], [1, 0, 1], [0, 1, 0]]),
    # x_s = diag(C, C), x_n = the identity block above the diagonal
    "sl4-mixed": ("sl", 4, [[0, 2, 1, 0], [1, 0, 0, 1], [0, 0, 0, 2], [0, 0, 1, 0]]),
    # diag(C, -S C^T S), S the 2x2 antidiagonal ones, preserves both split forms
    "sp4": ("sp", 4, [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, -1, 0]]),
    "so5": ("so", 5, [[0, 2, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 0, 0],
                      [0, 0, 0, 0, -2], [0, 0, 0, -1, 0]]),
}


def _no_candidate(*_args):
    raise AssertionError("a witness candidate was examined")


class TestEarlyRejection:
    @pytest.mark.parametrize("case", sorted(_NON_SPLIT))
    def test_rejected_before_any_candidate(self, case, monkeypatch):
        import orbitcharts.grading as grading
        from orbitcharts.charts import build_chart

        family, n, rows = _NON_SPLIT[case]
        algebra = build_classical(family, n)
        x = element(algebra, rows)
        monkeypatch.setattr(grading, "grading_by", _no_candidate)
        monkeypatch.setattr(grading, "is_semisimple_matrix", _no_candidate)
        with pytest.raises(WitnessNotFoundError,
                           match="center basis element 0 .* does not split"):
            build_chart(x, 42)

    def test_family_less_algebra_keeps_search(self):
        # The rotation R = [[0, -1], [1, 0]] in one block is central in
        # R (+) sl2; its characteristic polynomial t^2 + 1 does not split,
        # yet it is its own witness in this non-split algebra.
        rotation = RatMatrix.from_rows(
            [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        sl2_block = [RatMatrix.from_rows([[0] * 4, [0] * 4] + rows) for rows in (
            [[0, 0, 0, 1], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [0, 0, 1, 0]],
            [[0, 0, 1, 0], [0, 0, 0, -1]],
        )]
        algebra = LieAlgebra((rotation, *sl2_block), "R (+) sl2")
        assert algebra.family is None
        levi = centralizer_basis(algebra.element_from_matrix(rotation))
        assert same_span(levi, algebra)
        assert semisimple_for_levi(algebra, levi, 42).matrix == rotation
