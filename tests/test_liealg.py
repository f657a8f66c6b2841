from fractions import Fraction

import pytest

from conftest import (
    block_levi,
    compositions,
    diag_matrix,
    draw_fraction,
    elem,
    element,
    element_spy,
    fraction_mul,
    fraction_spy,
    jordan_nilpotent,
    mixed_corpus,
    mixed_element,
    nontrivial_partitions,
    partitions,
    unit_bidiagonal,
)
from orbitcharts import linalg
from orbitcharts.jordan import jordan_decompose
from orbitcharts.liealg import (
    LieAlgebra,
    NotInAlgebraError,
    ad_matrix,
    build_classical,
    center_basis,
    centralizer_basis,
    trace_form_gram,
)
from orbitcharts.linalg import (
    RatMatrix,
    VectorSpan,
    _integers_over,
    commutator,
    kernel_basis,
    mat_vec,
    rank,
    vstack,
)
from orbitcharts.rng import SplitMix64

F = Fraction


def _kernel_form_basis(family, n):
    """The so/sp basis by kernel extraction: the kernel of the n^2 x n^2
    constraint matrix of A^T S + S A = 0, entry by entry."""
    half = n // 2

    def pairing(i):
        return 1 if family == "so" or i < half else -1

    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            row[(n - 1 - j) * n + i] += pairing(n - 1 - j)
            row[(n - 1 - i) * n + j] += pairing(i)
            rows.append(row)
    return [RatMatrix(n, n, v) for v in kernel_basis(RatMatrix.from_rows(rows))]

class TestBuildClassical:
    @pytest.mark.parametrize("family,n,dim", [
        ("sl", 2, 3), ("sl", 3, 8), ("sl", 4, 15), ("sl", 5, 24),
        ("so", 3, 3), ("so", 4, 6), ("so", 5, 10),
        ("sp", 2, 3), ("sp", 4, 10),
    ])
    def test_dimensions(self, family, n, dim):
        assert build_classical(family, n).dim == dim

    def test_unsupported(self):
        with pytest.raises(ValueError):
            build_classical("sl", 1)
        with pytest.raises(ValueError):
            build_classical("so", 2)
        with pytest.raises(ValueError):
            build_classical("sp", 3)
        with pytest.raises(ValueError):
            build_classical("gl", 3)

    def test_sl_basis_order_frozen(self, sl2, sl3):
        assert [b.row_lists() for b in sl2.basis] == [
            [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]]
        # first off-diagonal entries of sl3 in lexicographic order
        assert sl3.basis[0] == elem(3, 0, 1)
        assert sl3.basis[1] == elem(3, 0, 2)
        assert sl3.basis[2] == elem(3, 1, 0)
        assert sl3.basis[6] == diag_matrix([1, -1, 0])
        assert sl3.basis[7] == diag_matrix([0, 1, -1])

    def test_so_sp_matrices_satisfy_form(self):
        for family, n in (("so", 4), ("sp", 4)):
            algebra = build_classical(family, n)
            half = n // 2
            s_rows = [[0] * n for _ in range(n)]
            for i in range(n):
                sign = 1 if (family == "so" or i < half) else -1
                s_rows[i][n - 1 - i] = sign
            s = RatMatrix.from_rows(s_rows)
            for b in algebra.basis:
                assert (b.transpose() * s + s * b).is_zero()

    @pytest.mark.parametrize("family,n", [("so", n) for n in range(3, 13)]
                             + [("sp", n) for n in range(2, 13, 2)])
    def test_so_sp_basis_equals_kernel_reference(self, family, n):
        assert build_classical(family, n).basis == tuple(_kernel_form_basis(family, n))


class TestBracketAndAd:
    def test_sl2_e_f_bracket_is_h(self, sl2):
        e = element(sl2, [[0, 1], [0, 0]])
        f = element(sl2, [[0, 0], [1, 0]])
        h = element(sl2, [[1, 0], [0, -1]])
        assert mat_vec(ad_matrix(e), f.coords) == h.coords

    def test_bracket_alternating(self, sl3):
        x = element(sl3, [[1, 2, 0], [0, -3, 1], [1, 0, 2]])
        assert not any(mat_vec(ad_matrix(x), x.coords))

    def test_sl3_elementary_bracket(self, sl3):
        e12 = sl3.element_from_matrix(elem(3, 0, 1))
        e23 = sl3.element_from_matrix(elem(3, 1, 2))
        e13 = sl3.element_from_matrix(elem(3, 0, 2))
        assert mat_vec(ad_matrix(e12), e23.coords) == e13.coords

    def test_ad_h_diagonal_in_frozen_basis(self, sl2):
        # basis order (E12, E21, h): weights 2, -2, 0
        h = element(sl2, [[1, 0], [0, -1]])
        assert ad_matrix(h) == diag_matrix([2, -2, 0])

    def test_ad_zero(self, sl2):
        assert ad_matrix(sl2.zero_element()).is_zero()

    def test_ad_e_columns(self, sl2):
        # [e,e]=0, [e,f]=h, [e,h]=-2e in basis (e, f, h)
        e = element(sl2, [[0, 1], [0, 0]])
        assert ad_matrix(e) == RatMatrix.from_rows(
            [[0, 0, -2], [0, 0, 0], [0, 1, 0]])

    def test_closure_rejected_for_non_subalgebra(self):
        # span{E12, E21} is not closed: [E12, E21] = diag(1,-1) leaves it
        with pytest.raises(ValueError, match="closed"):
            LieAlgebra((elem(2, 0, 1), elem(2, 1, 0)), "bad")

    def test_closure_rejected_after_fill_in(self):
        # [h, E12 + E21] = 2 E12 - 2 E21 is nonzero first at the pivot
        # column of E12 + E21; eliminating it leaves -4 at the E21 entry,
        # which is no pivot column
        with pytest.raises(ValueError, match="closed"):
            LieAlgebra((diag_matrix([1, -1]), elem(2, 0, 1) + elem(2, 1, 0)), "bad")
        # span{I + E12, diag(1,-1)}: [diag(1,-1), I + E12] = 2 E12 lies on a
        # pivot column only, and its elimination fills in the E22 entry,
        # which is no pivot column
        with pytest.raises(ValueError, match="closed"):
            LieAlgebra((RatMatrix.identity(2) + elem(2, 0, 1), diag_matrix([1, -1])), "bad")

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            LieAlgebra((elem(2, 0, 1), elem(2, 0, 1).scale(2)), "dep")

    def test_membership(self, sl2):
        with pytest.raises(NotInAlgebraError):
            sl2.element_from_matrix(RatMatrix.identity(2))  # nonzero trace


def _dense_combination(algebra, coords):
    """sum c_i * b_i, one dense matrix addition per term."""
    n = algebra.ambient_size
    total = RatMatrix.zeros(n, n)
    for c, b in zip(coords, algebra.basis):
        total = total + b.scale(c)
    return total


def _levi_case(n, composition):
    """The block Levi as a parameter with its own id, s(gl2xgl2xgl1)_in_sl5
    for (2, 2, 1) in sl5: as centralizers, all are labelled alike."""
    blocks = "x".join(f"gl{c}" for c in composition)
    return pytest.param(block_levi(n, composition), id=f"s({blocks})_in_sl{n}")


def _structure_constant_cases():
    sl4 = build_classical("sl", 4)
    x = sl4.element_from_matrix(RatMatrix.from_rows(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
    cases = [build_classical(family, n) for family, n in
             (("sl", 3), ("sl", 4), ("sl", 5), ("so", 5), ("so", 6), ("sp", 4))]
    cases += [_levi_case(5, (2, 2, 1)), centralizer_basis(x)]
    return cases


class TestSparseStructureConstants:
    """ad x assembled from the sparse structure constants, and `element`,
    against the ambient commutator and the dense basis combination."""

    @pytest.mark.parametrize("algebra", _structure_constant_cases(),
                             ids=lambda a: a.label.replace(" ", "_"))
    def test_ad_matches_commutator(self, algebra):
        rng = SplitMix64(algebra.dim)
        for _ in range(4):
            xc = [draw_fraction(rng, -9, 9, (2, 3, 7)) for _ in range(algebra.dim)]
            yc = [draw_fraction(rng, -9, 9, (2, 3, 7)) for _ in range(algebra.dim)]
            xm = _dense_combination(algebra, xc)
            ym = _dense_combination(algebra, yc)
            expected = algebra.coords_of_matrix(xm * ym - ym * xm)
            assert mat_vec(ad_matrix(algebra.element(xc)), yc) == expected

    @pytest.mark.parametrize("algebra", _structure_constant_cases(),
                             ids=lambda a: a.label.replace(" ", "_"))
    def test_element_matches_dense_combination(self, algebra):
        rng = SplitMix64(algebra.dim + 1)
        for _ in range(4):
            coords = [draw_fraction(rng, -9, 9, (2, 3, 7)) for _ in range(algebra.dim)]
            x = algebra.element(coords)
            assert x.matrix == _dense_combination(algebra, coords)
            assert all(type(c) is Fraction for c in x.coords)
            assert all(type(v) is Fraction for v in x.matrix.entries)


def _reference_structure(basis):
    """The structure constants by the dense closure loop: each [b_i, b_j]
    as an ambient commutator, solved by `VectorSpan.coords_of`."""
    if not basis:
        return ()
    m, n = len(basis), basis[0].rows
    span = VectorSpan(basis, length=n * n)
    table = [[] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            coords = span.coords_of(commutator(basis[i], basis[j]))
            assert coords is not None
            for k, c in enumerate(coords):
                if c:
                    table[i].append((k * m + j, c))
                    table[j].append((k * m + i, -c))
    supports = []
    for entries in table:
        ints, d = _integers_over([c for _, c in entries])
        supports.append((d, tuple(zip((p for p, _ in entries), ints))))
    return tuple(supports)


def _center_algebra(algebra):
    """The center of ``algebra`` built as a `LieAlgebra`, for the corpora
    that bracket inside it."""
    return LieAlgebra(center_basis(algebra), f"center of {algebra.label}",
                      ambient_size=algebra.ambient_size)


def _mixed_subalgebras():
    """The Levi c(x_s), its center and the centralizer c(x) of mixed
    elements x of sl5 and so6."""
    sl5, so6 = build_classical("sl", 5), build_classical("so", 6)
    elements = [(sl5, diag_matrix(d) + elem(5, p, p + 1)) for d, p in (
        ([2, 2, 2, 2, -8], 0), ([1, 1, 1, F(-3, 2), F(-3, 2)], 3),
        ([3, 3, -1, -1, -4], 2), ([1, 1, 0, -1, -1], 0), ([1, 2, 2, 2, -7], 1))]
    # so6: x_s = diag(1, 1, 0, 0, -1, -1), x_n the basis element of so6 at
    # the (0, 1) entry, which commutes with x_s
    x_s = diag_matrix([1, 1, 0, 0, -1, -1])
    x_n = next(b for b in so6.basis if b.at(0, 1) and commutator(b, x_s).is_zero())
    elements.append((so6, x_s + x_n))
    algebras = []
    for algebra, matrix in elements:
        x = algebra.element_from_matrix(matrix)
        pair = jordan_decompose(x)
        assert not pair.semisimple.is_zero() and not pair.nilpotent.is_zero()
        levi = centralizer_basis(pair.semisimple)
        algebras += [levi, _center_algebra(levi), centralizer_basis(x)]
    return algebras


def _oracle_cases():
    cases = [build_classical("sl", n) for n in range(2, 9)]
    cases += [build_classical("so", n) for n in range(3, 10)]
    cases += [build_classical("sp", n) for n in range(2, 9, 2)]
    cases += [_levi_case(5, c) for c in compositions(5)]
    return cases + _mixed_subalgebras()


class TestStructureOracle:
    """The sparse closure walk against the dense commutator loop."""

    @pytest.mark.parametrize("algebra", _oracle_cases(),
                             ids=lambda a: a.label.replace(" ", "_"))
    def test_structure_equals_dense_reference(self, algebra):
        assert algebra._structure == _reference_structure(algebra.basis)

    def test_mixed_subalgebras_are_nontrivial(self):
        # six elements, each giving a Levi, its center and a centralizer
        algebras = _mixed_subalgebras()
        assert len(algebras) == 18
        assert all(a.dim for a in algebras)

    def test_building_makes_no_matrix_product(self, monkeypatch):
        basis = build_classical("sl", 8).basis
        calls = []
        product = linalg._product

        def counting(a, b):
            calls.append(1)
            return product(a, b)

        monkeypatch.setattr(linalg, "_product", counting)
        algebra = LieAlgebra(basis, "sl8 again")
        assert algebra.dim == 63
        assert not calls


class TestCentralizers:
    def test_sl2_nilpotent_centralizer(self, sl2):
        e = element(sl2, [[0, 1], [0, 0]])
        cent = centralizer_basis(e)
        assert cent.dim == 1
        assert cent.contains_matrix(e.matrix)

    def test_sl2_semisimple_centralizer(self, sl2):
        h = element(sl2, [[1, 0], [0, -1]])
        cent = centralizer_basis(h)
        assert cent.dim == 1
        assert cent.contains_matrix(h.matrix)

    def test_sl3_minimal_nilpotent_centralizer(self, sl3):
        e13 = sl3.element_from_matrix(elem(3, 0, 2))
        cent = centralizer_basis(e13)
        assert cent.dim == 4
        for m in (elem(3, 0, 2), elem(3, 0, 1), elem(3, 1, 2), diag_matrix([1, -2, 1])):
            assert cent.contains_matrix(m)

    def test_rank_nullity_of_ad(self, sl3):
        rng = SplitMix64(5)
        for _ in range(10):
            x = sl3.element([rng.fraction() for _ in range(sl3.dim)])
            assert centralizer_basis(x).dim == sl3.dim - rank(ad_matrix(x))

    def test_self_centralizing(self, sl3):
        rng = SplitMix64(6)
        for _ in range(10):
            x = sl3.element([rng.fraction() for _ in range(sl3.dim)])
            assert centralizer_basis(x).contains_matrix(x.matrix)


def _element_facts_corpus():
    """(family, n, matrix, semisimple): sl3-sl6 nilpotents of every Jordan
    type and diagonals of every multiplicity pattern, the mixed corpus, the
    so5, so6, sp4 and sp6 upper nilpotents and diagonals, and a conjugated
    sl4 diagonal, which is semisimple but not diagonal."""
    cases = []
    for n in (3, 4, 5, 6):
        for part in nontrivial_partitions(n):
            cases.append(pytest.param("sl", n, jordan_nilpotent(n, part), False,
                                      id=f"sl{n}-" + ",".join(map(str, part))))
        for pattern in list(partitions(n))[1:]:
            values = [k for k, m in enumerate(pattern) for _ in range(m)]
            values = [n * v - sum(values) for v in values]
            cases.append(pytest.param("sl", n, diag_matrix(values), True,
                                      id=f"sl{n}-diag" + ",".join(map(str, pattern))))
    for param in mixed_corpus():
        family, n = param.values[:2]
        cases.append(pytest.param(family, n, mixed_element(*param.values)[1].matrix, False,
                                  id=param.id))
    for family, n in (("so", 5), ("so", 6), ("sp", 4), ("sp", 6)):
        upper = [b for b in build_classical(family, n).basis
                 if all(not b.at(i, j) for i in range(n) for j in range(i + 1))]
        k = n // 2
        d = list(range(k, 0, -1)) + [0] * (n % 2) + list(range(-1, -k - 1, -1))
        cases.append(pytest.param(family, n, sum(upper[1:], upper[0]), False,
                                  id=f"{family}{n}-upper"))
        cases.append(pytest.param(family, n, diag_matrix(d), True, id=f"{family}{n}-diagonal"))
    u, u_inv = unit_bidiagonal([1, -1, 2])
    cases.append(pytest.param("sl", 4, u * diag_matrix([1, 1, -1, -1]) * u_inv, True,
                              id="sl4-conjugated-diagonal"))
    return cases


class TestElementFacts:
    """An element keeps rank(ad x) and a kernel basis of ad x, both read off
    one echelon of ad x. They must agree by rank-nullity, and with `rank`
    and `kernel_basis` of ad x, each its own elimination."""

    @pytest.mark.parametrize("family, n, m, semisimple", _element_facts_corpus())
    def test_facts_match_rank_and_kernel_basis(self, family, n, m, semisimple):
        algebra = build_classical(family, n)
        x = algebra.element_from_matrix(m)
        ad_x = ad_matrix(x)
        assert x.orbit_dim == rank(ad_x)
        assert x.centralizer == tuple(map(algebra.matrix_of, kernel_basis(ad_x)))

    @pytest.mark.parametrize("family, n, m, semisimple", _element_facts_corpus())
    def test_orbit_dim_and_centralizer_agree(self, family, n, m, semisimple):
        algebra = build_classical(family, n)
        x = algebra.element_from_matrix(m)
        assert x.orbit_dim == algebra.dim - len(x.centralizer)
        assert all(commutator(m, c).is_zero() for c in x.centralizer)
        assert centralizer_basis(x).dim == len(x.centralizer)

    @pytest.mark.parametrize("family, n, m, semisimple", _element_facts_corpus())
    def test_centralizers_build_no_fraction_and_no_element(self, monkeypatch, family, n, m,
                                                          semisimple):
        # c(x), the Levi c(x_s) and its center come straight from the
        # primitive integer kernel vectors: no Fraction, no LieElement
        algebra = build_classical(family, n)
        x = algebra.element_from_matrix(m)
        xs = jordan_decompose(x).semisimple
        built, elements = fraction_spy(monkeypatch), element_spy(monkeypatch)
        cent = x.centralizer
        assert centralizer_basis(x).basis == cent
        center_basis(centralizer_basis(xs))
        assert (built, elements) == ([], [])
        assert all(type(c) is RatMatrix for c in cent)

    @pytest.mark.parametrize("family, n, m, semisimple", _element_facts_corpus())
    def test_semisimple_element_is_its_own_semisimple_part(self, family, n, m, semisimple):
        x = build_classical(family, n).element_from_matrix(m)
        pair = jordan_decompose(x)
        assert (pair.semisimple is x) == semisimple
        assert pair.semisimple.matrix + pair.nilpotent.matrix == m


def _reference_center(algebra):
    """The center's basis as the kernel of the stacked dense ad b_i (none
    for a zero-dimensional algebra, which has nothing to stack)."""
    if not algebra.dim:
        return ()
    stacked = vstack([ad_matrix(algebra.element_from_matrix(b)) for b in algebra.basis])
    return tuple(algebra.element(v).matrix for v in kernel_basis(stacked))


class TestCenter:
    def test_center_sl3_trivial(self, sl3):
        assert len(center_basis(sl3)) == 0

    @pytest.mark.parametrize("algebra",
                             _oracle_cases() + [_center_algebra(build_classical("sl", 3))],
                             ids=lambda a: a.label.replace(" ", "_"))
    def test_center_equals_stacked_ad_kernel(self, algebra):
        assert center_basis(algebra) == _reference_center(algebra)

    def test_center_block_levi(self):
        levi = block_levi(3, (2, 1))
        center = center_basis(levi)
        assert len(center) == 1
        assert center[0] == diag_matrix([1, 1, -2])

    def test_center_of_cartan_is_itself(self, sl3):
        cartan = LieAlgebra((diag_matrix([1, -1, 0]), diag_matrix([0, 1, -1])), "cartan")
        center = center_basis(cartan)
        assert len(center) == 2

    def test_center_contained_in_centralizers(self, sl3):
        levi = block_levi(3, (2, 1))
        rng = SplitMix64(8)
        z = center_basis(levi)[0]
        for _ in range(5):
            x = sl3.element([rng.fraction() for _ in range(sl3.dim)])
            # central elements of the levi centralize every levi element
            for b in levi.basis:
                assert commutator(z, b).is_zero()


class TestTraceForm:
    def test_gram_h(self, sl2):
        sub = LieAlgebra((diag_matrix([1, -1]),), "span h")
        assert trace_form_gram(sub.basis) == RatMatrix.from_rows([[2]])

    def test_gram_e(self, sl2):
        sub = LieAlgebra((elem(2, 0, 1),), "span e")
        assert trace_form_gram(sub.basis) == RatMatrix.from_rows([[0]])

    def test_gram_mixed_pair(self, sl3):
        sub = LieAlgebra((diag_matrix([1, 1, -2]), elem(3, 0, 1)), "pair")
        assert trace_form_gram(sub.basis) == RatMatrix.from_rows([[6, 0], [0, 0]])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gram_equals_fraction_reference_on_mixed_denominators(self, n):
        # each matrix draws its entries over its own denominators, so the
        # Gram is summed over the square of their lcm and then reduced
        rng = SplitMix64(40 + n)
        dens = ((1,), (2, 4), (3,), (5, 10), (1, 3, 7), (6, 9))
        basis = [RatMatrix.from_rows([[draw_fraction(rng, -6, 6, d) for _ in range(n)]
                                      for _ in range(n)]) for d in dens]
        assert len({b.den for b in basis}) >= 4
        rows = [b.row_lists() for b in basis]
        reference = [[sum(fraction_mul(a, b)[i][i] for i in range(n)) for b in rows]
                     for a in rows]
        assert trace_form_gram(basis) == RatMatrix.from_rows(reference)

    def test_gram_of_no_matrices(self):
        assert trace_form_gram(()) == RatMatrix.zeros(0, 0)

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ValueError, match="square matrices of one size"):
            trace_form_gram((diag_matrix([1, -1]), diag_matrix([1, 0, -1])))
        with pytest.raises(ValueError, match="square matrices of one size"):
            trace_form_gram((RatMatrix.from_rows([[1, 0, 0], [0, -1, 0]]),))


class TestJacobi:
    @pytest.mark.parametrize("family,n", [("sl", 2), ("sl", 3), ("so", 3), ("sp", 4)])
    def test_jacobi_exhaustive_small(self, family, n):
        algebra = build_classical(family, n)
        basis = algebra.basis
        for a in basis:
            for b in basis:
                for c in basis:
                    total = (commutator(a, commutator(b, c))
                             + commutator(b, commutator(c, a))
                             + commutator(c, commutator(a, b)))
                    assert total.is_zero()

    def test_jacobi_sampled_sl4(self, sl4):
        rng = SplitMix64(21)
        basis = sl4.basis
        for _ in range(60):
            a = basis[rng.randint(0, len(basis) - 1)]
            b = basis[rng.randint(0, len(basis) - 1)]
            c = basis[rng.randint(0, len(basis) - 1)]
            total = (commutator(a, commutator(b, c))
                     + commutator(b, commutator(c, a))
                     + commutator(c, commutator(a, b)))
            assert total.is_zero()


class TestBlockLevi:
    def test_dimension(self):
        assert block_levi(3, (2, 1)).dim == 4   # 4 + 1 - 1
        assert block_levi(4, (2, 2)).dim == 7
        assert block_levi(5, (5,)).dim == 24
