import copy
import math
import pickle
from fractions import Fraction

import pytest

from conftest import (
    DualNumber,
    UNFRAMED,
    diag_matrix,
    draw_choice,
    draw_fraction,
    elem,
    fraction_char_poly,
    fraction_horner,
    fraction_mul,
    fraction_spy,
    fraction_squarefree_part,
    g_inverse_frame_rank,
    jordan_nilpotent,
    matrix_power,
    monic,
    poly_add,
    poly_divmod,
    poly_mul,
    poly_scale,
    power_walk_corpus,
    sl,
    unit_bidiagonal,
)
from orbitcharts import linalg, verify
from orbitcharts.charts import _core_brackets, _value_pass, build_chart
from orbitcharts.liealg import ad_matrix, build_classical
from orbitcharts.linalg import (
    Polynomial,
    RatMatrix,
    VectorSpan,
    _bareiss,
    _is_diagonal,
    _matrix,
    _powers,
    _pseudo_divmod,
    char_poly,
    commutator,
    det,
    integer_roots,
    kernel_basis,
    matrix_from_json,
    matrix_to_json,
    parse_rational,
    primitive_integer_vector,
    rank,
    rational_str,
    solve_linear,
    squarefree_part,
)
from orbitcharts.rng import SplitMix64
from orbitcharts.sl2 import jacobson_morozov

F = Fraction


def M(rows):
    return RatMatrix.from_rows(rows)


def _random_corpus():
    """40 random matrices of up to 5 x 5 fractions (seed 7)."""
    rng = SplitMix64(7)
    matrices = []
    for _ in range(40):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        matrices.append(M([[rng.fraction() for _ in range(c)] for _ in range(r)]))
    return matrices


def _dependent_rows_corpus():
    """30 matrices whose last rows are integer combinations of the first
    (seed 11), so most have a kernel."""
    rng = SplitMix64(11)
    matrices = []
    for _ in range(30):
        c = rng.randint(2, 7)
        base = [[rng.fraction() for _ in range(c)] for _ in range(rng.randint(1, 4))]
        combos = [[sum(rng.randint(-2, 2) * row[j] for row in base) for j in range(c)]
                  for _ in range(rng.randint(0, 3))]
        matrices.append(M(base + combos))
    return matrices


class TestKernelAndRank:
    def test_kernel_zero_map(self):
        assert kernel_basis(M([[0, 0], [0, 0]])) == [(F(1), F(0)), (F(0), F(1))]

    def test_kernel_identity(self):
        assert kernel_basis(M([[1, 0], [0, 1]])) == []

    def test_kernel_rank_one(self):
        assert kernel_basis(M([[1, 1], [1, 1]])) == [(F(1), F(-1))]

    def test_rank_identity(self):
        assert rank(M([[1, 0], [0, 1]])) == 2

    def test_rank_proportional_rows(self):
        assert rank(M([[1, 2], [2, 4]])) == 1

    def test_rank_zero(self):
        assert rank(RatMatrix.zeros(3, 3)) == 0

    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0)])
    def test_empty_matrix(self, rows, cols):
        # no pivot: rank 0, and the unit vector at each free column
        m = RatMatrix.zeros(rows, cols)
        assert rank(m) == 0
        assert kernel_basis(m) == [tuple(F(int(j == f)) for j in range(cols))
                                   for f in range(cols)]

    def test_rank_nullity_random(self):
        for m in _random_corpus():
            r, c = m.rows, m.cols
            assert rank(m) + len(kernel_basis(m)) == c
            for v in kernel_basis(m):
                assert all(s == 0 for s in
                           (sum(m.at(i, j) * v[j] for j in range(c)) for i in range(r)))

    def test_kernel_matches_independent_solve(self):
        # Kernel vector of free column f: x_f = 1, the other free entries 0,
        # the pivot entries solved by solve_linear, then primitive form.
        for m in _dependent_rows_corpus():
            c = m.cols
            cols = [[m.at(i, j) for i in range(m.rows)] for j in range(c)]
            pivots = [j for j in range(c) if rank(M(list(zip(*cols[:j + 1])))) >
                      (rank(M(list(zip(*cols[:j])))) if j else 0)]
            expected = []
            for f in (j for j in range(c) if j not in pivots):
                y = solve_linear(M(list(zip(*(cols[p] for p in pivots)))),
                                 [-v for v in cols[f]]) if pivots else ()
                x = [F(0)] * c
                x[f] = F(1)
                for p, v in zip(pivots, y):
                    x[p] = v
                scale = math.lcm(*(v.denominator for v in x))
                ints = [int(v * scale) for v in x]
                g = math.gcd(*ints)
                sign = -1 if next(v for v in ints if v) < 0 else 1
                expected.append(tuple(F(sign * v // g) for v in ints))
            assert kernel_basis(m) == expected

    def test_kernel_vectors_are_primitive_ints(self):
        # the matrices of the tests above: each kernel vector is a tuple of
        # ints, coprime, with a positive leading entry
        matrices = [M([[0, 0], [0, 0]]), M([[1, 0], [0, 1]]), M([[1, 1], [1, 1]]),
                    RatMatrix.zeros(0, 3), RatMatrix.zeros(3, 0)]
        matrices += _random_corpus() + _dependent_rows_corpus()
        vectors = [v for m in matrices for v in kernel_basis(m)]
        assert any(max(map(abs, v)) > 1 for v in vectors)
        for v in vectors:
            assert type(v) is tuple and all(type(x) is int for x in v), v
            assert math.gcd(*v) == 1 and next(x for x in v if x) > 0, v

    def test_rank_fractional_entries(self):
        assert rank(M([[F(1, 2), F(1, 3)], [F(1, 1), F(1, 1)]])) == 2
        assert rank(M([[F(1, 2), F(1, 3)], [F(3, 2), F(1, 1)]])) == 1


class TestSolveDet:
    def test_solve_simple(self):
        sol = solve_linear(M([[1, 1], [0, 1]]), (F(3), F(1)))
        assert sol == (F(2), F(1))

    def test_solve_inconsistent(self):
        assert solve_linear(M([[1, 1], [1, 1]]), (F(0), F(1))) is None

    def test_solve_underdetermined_minimal_support(self):
        # free variable set to zero
        sol = solve_linear(M([[1, 1]]), (F(2),))
        assert sol == (F(2), F(0))

    def test_det_examples(self):
        assert det(M([[1, 2], [3, 4]])) == -2
        assert det(M([[2, 0], [0, 3]])) == 6
        assert det(RatMatrix.zeros(2, 2)) == 0
        assert det(RatMatrix.identity(0)) == 1

    def test_det_matches_char_poly_constant(self):
        rng = SplitMix64(11)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = M([[rng.fraction() for _ in range(n)] for _ in range(n)])
            p = char_poly(m)
            sign = -1 if n % 2 else 1
            assert det(m) == sign * p.coefficients[0]


def _gauss_jordan(rows, ncols):
    """Reduced row echelon form over Fractions and its pivot columns: the
    elimination `solve_linear` and `VectorSpan` are checked against."""
    rows = [[F(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _reference_solve(rows, rhs, ncols):
    """The free-variables-zero solution of rows x = rhs, or None."""
    red, pivots = _gauss_jordan([list(row) + [b] for row, b in zip(rows, rhs)], ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [F(0)] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[ncols]
    return tuple(x)


def _reference_coords(vectors, vector):
    """Coordinates of ``vector`` in the independent ``vectors``, or None."""
    columns = [[v[j] for v in vectors] for j in range(len(vector))]
    return _reference_solve(columns, vector, len(vectors))


def _random_entry(rng, fractional):
    return rng.fraction() if fractional else F(rng.randint(-5, 5))


class TestEliminationAgainstGaussJordan:
    @pytest.mark.parametrize("fractional", [False, True], ids=["integer", "fractional"])
    def test_span_coords(self, fractional):
        rng = SplitMix64(23 + fractional)
        for _ in range(60):
            length = rng.randint(1, 7)
            vectors = [[_random_entry(rng, fractional) for _ in range(length)]
                       for _ in range(rng.randint(1, length))]
            if rng.randint(0, 2) == 0:
                vectors.append([sum((rng.randint(-2, 2) * v[j] for v in vectors), F(0))
                                for j in range(length)])
            if len(_gauss_jordan(vectors, length)[1]) < len(vectors):
                with pytest.raises(ValueError, match="vectors are linearly dependent"):
                    VectorSpan(vectors)
                continue
            span = VectorSpan(vectors)
            coeffs = [_random_entry(rng, fractional) for _ in vectors]
            inside = [sum((c * v[j] for c, v in zip(coeffs, vectors)), F(0))
                      for j in range(length)]
            assert span.coords_of(inside) == tuple(coeffs)
            probe = [_random_entry(rng, fractional) for _ in range(length)]
            assert span.coords_of(probe) == _reference_coords(vectors, probe)
            assert all(type(c) is F for c in span.coords_of(inside))

    def test_dependent_sets_rejected(self):
        for vectors in ([[1, 2], [2, 4]], [[0, 0, 0]], [[1, 0], [0, 1], [1, 1]],
                        [[F(1, 2), F(1, 3), 1], [3, 2, 6], [0, 1, 0]]):
            with pytest.raises(ValueError, match="vectors are linearly dependent"):
                VectorSpan(vectors)

    def test_vectors_outside_span(self):
        span = VectorSpan([[1, 0, 0], [0, F(1, 2), 1]])
        assert span.coords_of([0, 0, 1]) is None
        assert span.coords_of([1, 1, 1]) is None
        assert span.coords_of([2, 1, 2]) == (F(2), F(2))

    def test_empty_span(self):
        span = VectorSpan([], length=3)
        assert span.coords_of([0, 0, 0]) == ()
        assert span.coords_of([0, F(1, 2), 0]) is None
        with pytest.raises(ValueError, match="explicit ambient length"):
            VectorSpan([])

    @pytest.mark.parametrize("fractional", [False, True], ids=["integer", "fractional"])
    def test_solve_linear(self, fractional):
        rng = SplitMix64(31 + fractional)
        for _ in range(60):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            base = [[_random_entry(rng, fractional) for _ in range(cols)]
                    for _ in range(rng.randint(1, rows))]
            # extra rows are combinations of the others, so many systems are singular
            m = base + [[sum((rng.randint(-2, 2) * row[j] for row in base), F(0))
                         for j in range(cols)] for _ in range(rows - len(base))]
            x0 = [_random_entry(rng, fractional) for _ in range(cols)]
            consistent = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in m]
            for rhs in (consistent, [_random_entry(rng, fractional) for _ in m]):
                sol = solve_linear(M(m), rhs)
                assert sol == _reference_solve(m, rhs, cols)
                if sol is not None:
                    assert all(type(x) is F for x in sol)
            assert solve_linear(M(m), consistent) is not None
            assert solve_linear(M(m), [0] * rows) == (F(0),) * cols

    def test_solve_inconsistent_and_degenerate(self):
        assert solve_linear(M([[1, 2], [2, 4]]), (F(1), F(3))) is None
        assert solve_linear(M([[0, 0]]), (F(1),)) is None
        assert solve_linear(M([[0, 0]]), (F(0),)) == (F(0), F(0))
        assert solve_linear(M([[F(1, 2), F(1, 3)], [1, 1]]), (F(1), F(0))) == (F(6), F(-6))


class TestCharPoly:
    def test_diag_two_eigenvalues(self):
        p = char_poly(M([[1, 0], [0, -1]]))
        assert p.coefficients == (F(-1), F(0), F(1))  # t^2 - 1

    def test_nilpotent(self):
        p = char_poly(M([[0, 1], [0, 0]]))
        assert p.coefficients == (F(0), F(0), F(1))  # t^2

    def test_diag_three(self):
        p = char_poly(M([[1, 0, 0], [0, 1, 0], [0, 0, -2]]))
        assert p.coefficients == (F(2), F(-3), F(0), F(1))  # t^3 - 3t + 2

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly(RatMatrix.zeros(2, 3))

    def test_cayley_hamilton_random(self):
        rng = SplitMix64(13)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = M([[rng.fraction() for _ in range(n)] for _ in range(n)])
            assert char_poly(m).evaluate_matrix(m).is_zero()


class TestPolynomial:
    def test_squarefree_with_double_root(self):
        p = Polynomial((F(2), F(-3), F(0), F(1)))  # (t-1)^2 (t+2)
        assert squarefree_part(p).coefficients == (F(-2), F(1), F(1))  # t^2 + t - 2

    def test_squarefree_already_squarefree(self):
        p = Polynomial((F(-1), F(0), F(1)))
        assert squarefree_part(p) == p

    def test_squarefree_pure_power(self):
        p = Polynomial((F(0), F(0), F(1)))  # t^2
        assert squarefree_part(p).coefficients == (F(0), F(1))  # t

    def test_squarefree_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_part(Polynomial(()))

    def test_integer_roots(self):
        p = Polynomial((F(2), F(-3), F(0), F(1)))  # roots 1, 1, -2
        assert integer_roots(p) == [-2, 1]
        assert integer_roots(Polynomial((F(0), F(0), F(1)))) == [0]
        assert integer_roots(Polynomial((F(1), F(0), F(1)))) == []  # t^2 + 1

    def test_integer_roots_rational_coeffs(self):
        # 2 is a root of t^2/2 - t - 1 + ... use (t-2)(t-1/2) = t^2 - 5/2 t + 1
        p = Polynomial((F(1), F(-5, 2), F(1)))
        assert integer_roots(p) == [2]


def _poly_from_roots(roots, extra=Polynomial((F(1),))):
    return poly_mul(extra, *(Polynomial((F(-r), F(1))) for r in roots))


def _divisor_scan_roots(p):
    """Integer roots by Fraction evaluation at every divisor of the scaled
    constant term, divisors found by trial division."""
    coeffs = list(p.coefficients)
    roots = [0] if not coeffs[0] else []
    while not coeffs[0]:
        coeffs.pop(0)
    stripped = Polynomial(tuple(coeffs))
    if stripped.degree < 1:
        return roots
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // math.gcd(scale, c.denominator)
    const = abs(int(coeffs[0] * scale))
    divisors = set()
    d = 1
    while d * d <= const:
        if const % d == 0:
            divisors.update((d, const // d))
        d += 1
    roots += [r for d in divisors for r in (d, -d) if stripped(F(r)) == 0]
    return sorted(roots)


class TestIntegerRoots:
    @pytest.mark.parametrize("p, expected", [
        # (t - 2)(t - 5)(t + 3/2) / 7
        (poly_scale(_poly_from_roots([2, 5, F(-3, 2)]), F(1, 7)), [2, 5]),
        # t^2 (t - 3)(t - 1/2) (2/3)
        (poly_scale(_poly_from_roots([0, 0, 3, F(1, 2)]), F(2, 3)), [0, 3]),
        # repeated roots: (t - 3)^3 (t + 1)^2
        (_poly_from_roots([3, 3, 3, -1, -1]), [-1, 3]),
        # constant term -1000003 * 999983, a product of two primes
        (_poly_from_roots([1000003, -999983], Polynomial((F(1), F(0), F(1)))),
         [-999983, 1000003]),
        # no integer root
        (Polynomial((F(-2), F(0), F(0), F(1))), []),
        (_poly_from_roots([F(1, 2)], Polynomial((F(1), F(0), F(1)))), []),
        # degree 0 and degree 1
        (Polynomial((F(5),)), []),
        (Polynomial((F(-6), F(3))), [2]),
        (Polynomial((F(-3), F(2))), []),
        # repeated zero root: t^3 (t - 4)
        (_poly_from_roots([0, 0, 0, 4]), [0, 4]),
        # rational leading coefficient: (3/5)(t + 2)(t - 7)
        (poly_scale(_poly_from_roots([-2, 7]), F(3, 5)), [-2, 7]),
        # 210 = 2 * 3 * 5 * 7: modulo each of 2, ..., 10 the roots collide or
        # P' = 2t - 210 is not a unit at a root, so the lift starts mod 11
        (_poly_from_roots([0, 210]), [0, 210]),
        # (2t - 1)(t + 1): the modulus 2 divides the leading coefficient, and
        # the one root 1 mod 2, where P' = 4t + 1 is odd, lifts to -1
        (Polynomial((F(-1), F(1), F(2))), [-1]),
    ])
    def test_matches_divisor_scan(self, p, expected, monkeypatch):
        def no_elimination(rows):
            raise AssertionError("integer_roots ran an elimination")

        monkeypatch.setattr(linalg, "_bareiss", no_elimination)
        assert integer_roots(p) == expected
        assert _divisor_scan_roots(p) == expected

    def test_roots_whose_product_is_a_strong_pseudoprime(self):
        # 399165290221 * 798330580441 is the least strong pseudoprime to
        # all twelve prime bases 2, 3, ..., 37 (Sorenson and Webster, 2015)
        roots = [399165290221, 798330580441]
        assert integer_roots(_poly_from_roots(roots)) == roots

    def test_roots_whose_product_has_two_21_digit_prime_factors(self):
        roots = [10 ** 20 + 39, 10 ** 20 + 129]
        assert integer_roots(_poly_from_roots(roots)) == roots


def test_integer_roots_property():
    """c * prod (t - r_i) * prod (t^2 + a_j^2) * prod (b_k t - a_k), with
    b_k >= 2 coprime to a_k, has exactly the integer roots r_i."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    big = st.integers(-10 ** 30, 10 ** 30)
    fraction = st.tuples(st.integers(-1000, 1000), st.integers(2, 1000)).filter(
        lambda ab: math.gcd(*ab) == 1)

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
    @hypothesis.given(data=st.data())
    def check(data):
        roots = data.draw(st.lists(big, max_size=4))
        if roots:
            roots += data.draw(st.lists(st.sampled_from(roots), max_size=2))
        c = F(data.draw(st.integers(-100, 100).filter(bool)), data.draw(st.integers(1, 100)))
        p = Polynomial((c,))
        for a in data.draw(st.lists(st.integers(1, 10 ** 6), max_size=2)):
            p = poly_mul(p, Polynomial((F(a * a), F(0), F(1))))
        for a, b in data.draw(st.lists(fraction, max_size=2)):
            p = poly_mul(p, Polynomial((F(-a), F(b))))
        assert integer_roots(_poly_from_roots(roots, p)) == sorted(set(roots))

    check()


# ---------------------------------------------------------------------------
# The integer polynomial layer against Fraction references
# ---------------------------------------------------------------------------


def _companion(coeffs):
    """The companion matrix of the monic t^n + sum c_k t^k, ``coeffs`` = (c_0, ...)."""
    n = len(coeffs)
    return M([[F(int(i == j + 1)) if j < n - 1 else -F(coeffs[i]) for j in range(n)]
              for i in range(n)])


def _poly_corpus_matrices():
    """0x0 and 1x1 matrices, dense rational n = 2 ... 14 with denominators up
    to 40, and the sparse ad h of a non-split h in sl4 and sl6 and of a
    conjugated rational diagonal h in sl4."""
    rng = SplitMix64(2101)
    dens = tuple(range(1, 41))
    mats = [RatMatrix.zeros(0, 0), M([[0]]), M([[F(-7, 3)]])]
    for n in range(2, 15):
        mats.append(M([[draw_fraction(rng, -30, 30, dens) for _ in range(n)]
                       for _ in range(n)]))
    u, u_inv = unit_bidiagonal([F(1, 2), F(1), F(3, 2)])
    for h in (_companion([-1, -1, 0, 0]), _companion([-1, -1, 0, 0, 0, 0]),
              u * diag_matrix([F(-1), F(-1, 3), F(1, 3), F(1)]) * u_inv):
        mats.append(ad_matrix(sl(h.rows).element_from_matrix(h)))
    return mats


def _squarefree_corpus():
    """(p, its monic squarefree part): repeated rational roots times
    irreducible quadratics, constants, linear polynomials and t^k."""
    t = Polynomial((F(0), F(1)))
    cases = [
        (poly_mul(Polynomial((F(-1), F(0), F(1))), Polynomial((F(-1), F(1)))),  # (t^2 - 1)(t - 1)
         Polynomial((F(-1), F(0), F(1)))),
        (Polynomial((F(5),)), Polynomial((F(1),))),
        (Polynomial((F(-3, 7),)), Polynomial((F(1),))),
        (Polynomial((F(-2, 5), F(3))), Polynomial((F(-2, 15), F(1)))),
    ]
    power = Polynomial((F(1),))
    for _ in range(6):
        power = poly_mul(power, t)
        cases.append((power, t))
    rng = SplitMix64(2102)
    for _ in range(30):
        roots = [draw_fraction(rng, -9, 9, (1, 2, 3, 5)) for _ in range(rng.randint(1, 3))]
        quadratics = [Polynomial((draw_fraction(rng, 1, 20, (1, 4)), F(0), F(1)))
                      for _ in range(rng.randint(0, 2))]
        simple = Polynomial((draw_fraction(rng, 1, 9, (1, 7)),))
        for r in dict.fromkeys(roots):
            simple = poly_mul(simple, Polynomial((-r, F(1))))
        for q in dict.fromkeys(quadratics):
            simple = poly_mul(simple, q)
        p = simple
        for factor in roots + quadratics:
            if rng.randint(0, 1):
                p = poly_mul(p, factor if isinstance(factor, Polynomial)
                             else Polynomial((-factor, F(1))))
        cases.append((p, monic(simple)))
    return cases


def _random_poly(rng, degree):
    return Polynomial(tuple(draw_fraction(rng, -9, 9, (1, 2, 5, 40))
                            for _ in range(degree + 1)))


class TestPolynomialLayerAgainstFractionReference:
    """`char_poly`, `squarefree_part` and `Polynomial.evaluate_matrix` run on
    integers; the Fraction references in conftest share no code with them."""

    def test_char_poly(self):
        for m in _poly_corpus_matrices():
            p = char_poly(m)
            assert p.coefficients == fraction_char_poly(m.row_lists())
            assert p.degree == m.rows and p.coefficients[-1] == 1

    def test_squarefree_part_of_char_polys(self):
        for m in _poly_corpus_matrices():
            p = char_poly(m)
            assert squarefree_part(p) == fraction_squarefree_part(p)

    def test_squarefree_corpus(self):
        for p, expected in _squarefree_corpus():
            assert squarefree_part(p) == expected == fraction_squarefree_part(p)
            assert squarefree_part(poly_scale(p, F(-3, 8))) == expected

    def test_evaluate_matrix(self):
        rng = SplitMix64(2103)
        for m in _poly_corpus_matrices():
            if m.rows > 10:
                continue
            polys = [Polynomial(()), Polynomial((F(-5, 3),)), char_poly(m)]
            polys += [_random_poly(rng, d) for d in (1, 2, 4)]
            for p in polys:
                value = p.evaluate_matrix(m)
                assert value == M(fraction_horner(p.coefficients, m.row_lists()))
        assert Polynomial(()).evaluate_matrix(M([[F(1, 3)]])) == RatMatrix.zeros(1, 1)
        assert Polynomial((F(2),)).evaluate_matrix(RatMatrix.zeros(0, 0)).rows == 0

    def test_pseudo_divmod(self):
        """s a = q b + r with deg r < deg b, s a power of lead(b), and the
        quotient and remainder of Fraction long division are q / s, r / s."""
        rng = SplitMix64(2104)
        for _ in range(200):
            a = [rng.randint(-20, 20) for _ in range(rng.randint(1, 8))]
            b = [rng.randint(-20, 20) for _ in range(rng.randint(1, 5))]
            b[-1] = b[-1] or rng.randint(1, 6)
            q, r, s = _pseudo_divmod(a, b)
            pa, pb = Polynomial(tuple(a)), Polynomial(tuple(b))
            assert len(r) < len(b) and (not r or r[-1])
            assert poly_scale(pa, s) \
                == poly_add(poly_mul(Polynomial(tuple(q)), pb), Polynomial(tuple(r)))
            k = 0
            while abs(s) > 1 and s % b[-1] == 0:
                s, k = s // b[-1], k + 1
            assert s == 1 and k <= max(len(a) - len(b) + 1, 0)
            fq, fr = poly_divmod(pa, pb)
            assert poly_scale(Polynomial(tuple(q)), F(1, b[-1] ** k)) == fq
            assert poly_scale(Polynomial(tuple(r)), F(1, b[-1] ** k)) == fr

    def test_pseudo_divmod_scales_only_when_needed(self):
        assert _pseudo_divmod([2, 0, 4], [1, 2]) == ([-1, 2], [3], 1)
        assert _pseudo_divmod([1, 0, 1], [1, 2]) == ([-1, 2], [5], 4)
        assert _pseudo_divmod([3], [1, 2]) == ([], [3], 1)


def test_polynomial_layer_property():
    """char_poly, squarefree_part and evaluate_matrix equal the Fraction
    references on random rational matrices and products with repeated
    factors."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rational = st.builds(F, st.integers(-40, 40), st.integers(1, 40))

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(data=st.data())
    def check(data):
        n = data.draw(st.integers(0, 6))
        rows = [[data.draw(rational) for _ in range(n)] for _ in range(n)]
        m = M(rows)
        p = char_poly(m)
        assert p.coefficients == fraction_char_poly(rows)
        assert squarefree_part(p) == fraction_squarefree_part(p)
        q = Polynomial(tuple(data.draw(st.lists(rational, max_size=5))))
        assert q.evaluate_matrix(m) == M(fraction_horner(q.coefficients, rows))
        if not q.is_zero():
            r = poly_mul(q, q, Polynomial(tuple(data.draw(st.lists(rational, min_size=1,
                                                                   max_size=4)))))
            if not r.is_zero():
                assert squarefree_part(r) == fraction_squarefree_part(r)

    check()


class TestDualNumber:
    def test_product_rule(self):
        a, b, c, d = F(2), F(3), F(5), F(7)
        x = DualNumber(a, b)
        y = DualNumber(c, d)
        z = x * y
        assert z.value == a * c
        assert z.epsilon == a * d + b * c

    def test_epsilon_squared_vanishes(self):
        eps = DualNumber(F(0), F(1))
        assert (eps * eps) == DualNumber(F(0), F(0))

    def test_division(self):
        x = DualNumber(F(1), F(2))
        y = DualNumber(F(3), F(4))
        q = x / y
        assert q * y == x
        with pytest.raises(ZeroDivisionError):
            x / DualNumber(F(0), F(1))

    def test_mixed_arithmetic_with_fractions(self):
        x = DualNumber(F(1), F(1))
        assert F(2) + x == DualNumber(F(3), F(1))
        assert F(2) * x == DualNumber(F(2), F(2))
        assert x - F(1) == DualNumber(F(0), F(1))

    def test_polynomial_derivative_100_random(self):
        rng = SplitMix64(23)
        for _ in range(100):
            deg = rng.randint(1, 6)
            q = Polynomial(tuple(rng.fraction() for _ in range(deg + 1)))
            r = rng.fraction()
            dual = q(DualNumber(r, F(1)))
            expected = q.derivative()(r)
            observed = dual.epsilon if isinstance(dual, DualNumber) else F(0)
            assert observed == expected


def _enumerated_is_diagonal(m):
    """The definition `_is_diagonal` replaced: no nonzero numerator at a
    position off the diagonal."""
    return not any(x for k, x in enumerate(m.nums) if k % (m.cols + 1))


def _is_diagonal_corpus():
    """(label, square matrix, whether it is diagonal), built when a test runs."""
    sl4 = build_classical("sl", 4)
    h = jacobson_morozov(sl4.element_from_matrix(jordan_nilpotent(4, [4]))).h
    u, u_inv = unit_bidiagonal([1, 1, 1])
    conjugated = sl4.element_from_matrix(u * h.matrix * u_inv)
    cases = [("diagonal", diag_matrix([3, F(1, 2), 0, -7]), True),
             ("identity", RatMatrix.identity(4), True),
             ("zero", RatMatrix.zeros(3, 3), True),
             ("1x1", M([[F(-5, 2)]]), True),
             ("1x1 zero", M([[0]]), True),
             ("ad h of the sl4 JM h", ad_matrix(h), True),
             ("ad of a conjugated h", ad_matrix(conjugated), False)]
    cases += [(f"E{i}{j}", elem(3, i, j, F(2, 3)), False)
              for i in range(3) for j in range(3) if i != j]
    cases += [(f"diag(1, 0, 2) + E{i}{j}", diag_matrix([1, 0, 2]) + elem(3, i, j), False)
              for i in range(3) for j in range(3) if i != j]
    return cases


def test_is_diagonal_against_the_enumerated_definition():
    for label, m, diagonal in _is_diagonal_corpus():
        assert _is_diagonal(m) is _enumerated_is_diagonal(m) is diagonal, label


class TestMatrixBasics:
    def test_matmul(self):
        a = M([[1, 2], [3, 4]])
        b = M([[0, 1], [1, 0]])
        assert a * b == M([[2, 1], [4, 3]])

    def test_trace_transpose_power(self):
        a = M([[1, 2], [3, 4]])
        assert a.trace() == 5
        assert a.transpose() == M([[1, 3], [2, 4]])
        assert matrix_power(a, 0) == RatMatrix.identity(2)
        assert matrix_power(a, 2) == a * a

    def test_nilpotent_detection(self):
        # a matrix is nilpotent when the last power of its walk is zero
        assert _powers(M([[0, 1], [0, 0]]))[-1].is_zero()
        assert not _powers(M([[1, 0], [0, -1]]))[-1].is_zero()

    @pytest.mark.parametrize("rows, expected", [
        ([[i - 2 if i == j else 0 for j in range(5)] for i in range(5)], False),
        # N5 + E51, the cyclic permutation: no power vanishes
        ([[int(j == (i + 1) % 5) for j in range(5)] for i in range(5)], False),
        # the 5x5 Jordan block: N^4 != 0 = N^5
        ([[int(j == i + 1) for j in range(5)] for i in range(5)], True),
    ], ids=["diag", "cyclic", "jordan-block"])
    def test_nilpotency_checks_powers_up_to_n(self, monkeypatch, rows, expected):
        """m^1 ... m^n are checked with n - 1 products."""
        calls = []
        product = linalg._product
        monkeypatch.setattr(linalg, "_product", lambda a, b: calls.append(1) or product(a, b))
        assert _powers(M(rows))[-1].is_zero() is expected
        assert len(calls) == 4

    def test_rational_strings(self):
        assert rational_str(F(3, 2)) == "3/2"
        assert rational_str(F(5)) == "5"
        assert rational_str(F(-1, 2)) == "-1/2"
        assert parse_rational("3/2") == F(3, 2)
        assert parse_rational("-4") == F(-4)
        with pytest.raises(ValueError):
            parse_rational("1/0")
        with pytest.raises(ValueError):
            parse_rational("abc")

    @pytest.mark.parametrize("value,text", [
        (F(-10 ** 5998), "-1" + "0" * 5998),
        (F(10 ** 5000, 7), "1" + "0" * 5000 + "/7"),
        (F(3, 10 ** 5000 + 1), "3/1" + "0" * 4999 + "1"),
    ], ids=["integer", "numerator", "denominator"])
    def test_rational_string_past_the_int_digit_limit(self, value, text):
        # str refuses an int of more than sys.get_int_max_str_digits()
        # digits (4300 by default); the exact value is still printed
        assert rational_str(value) == text

    def test_primitive_form_of_zero_refused(self):
        with pytest.raises(ValueError, match="zero vector has no primitive form"):
            primitive_integer_vector((0, 0))

    @pytest.mark.parametrize("text", ["1e5", "1E5", "2.5e-3", "1e2000000"])
    def test_exponent_notation_refused(self, text):
        # Fraction("1e2000000") would build a 2,000,001-digit integer
        with pytest.raises(ValueError, match="invalid rational literal"):
            parse_rational(text)
        with pytest.raises(ValueError, match="invalid rational literal"):
            M([[text]])

    @pytest.mark.parametrize("text", ["1_0", "1.5_0", "1/2_0", "1 / 2"])
    def test_grammar_of_newer_pythons_refused(self, text):
        # Fraction reads underscores from Python 3.11 and spaces around "/"
        # from 3.12; one grammar holds on every supported version
        with pytest.raises(ValueError, match="invalid rational literal"):
            parse_rational(text)

    def test_decimal_and_plain_literals_accepted(self):
        assert parse_rational("0.1") == F(1, 10)
        assert parse_rational(" 7 ") == F(7)
        assert M([["0.25", "3/4"]]) == M([[F(1, 4), F(3, 4)]])

    def test_matrix_json_round_trip(self):
        a = M([[F(1, 2), 0], [3, F(-7, 3)]])
        assert matrix_from_json(matrix_to_json(a)) == a
        assert matrix_to_json(a) == [["1/2", "0"], ["3", "-7/3"]]

    def test_determinism(self):
        rng1 = SplitMix64(99)
        rng2 = SplitMix64(99)
        m1 = M([[rng1.fraction() for _ in range(4)] for _ in range(4)])
        m2 = M([[rng2.fraction() for _ in range(4)] for _ in range(4)])
        assert m1 == m2
        assert kernel_basis(m1) == kernel_basis(m2)
        assert char_poly(m1) == char_poly(m2)


def _powers_corpus():
    """0x0, 1x1 and zero matrices, seeded dense rational n = 2 ... 6 with
    denominators up to 12, and the power walk corpus of conftest for n =
    2 ... 6."""
    rng = SplitMix64(2201)
    mats = [RatMatrix.zeros(0, 0), M([[0]]), M([[F(-7, 3)]])]
    for n in range(2, 7):
        mats.append(RatMatrix.zeros(n, n))
        mats.append(M([[draw_fraction(rng, -30, 30, range(1, 13)) for _ in range(n)]
                       for _ in range(n)]))
        mats.extend(power_walk_corpus(n))
    return mats


class TestPowers:
    """`_powers(m)` walks m, m^2, ..., one `_product` per power, up to the
    first zero power or m^n."""

    def test_numerators_match_repeated_products(self):
        for m in _powers_corpus():
            n = m.rows
            powers = _powers(m)
            zero = [k for k in range(1, n + 1) if matrix_power(m, k).is_zero()]
            assert len(powers) == (zero[0] if zero else max(n, 1))
            for k, power in enumerate(powers, 1):
                assert power == matrix_power(m, k)
            assert powers[-1].is_zero() == bool(zero or n == 0)

    def test_stops_at_the_first_zero_power(self, monkeypatch):
        """At most n - 1 products, one per power after the first."""
        calls = []
        product = linalg._product
        monkeypatch.setattr(linalg, "_product", lambda a, b: calls.append(1) or product(a, b))
        for m in _powers_corpus():
            del calls[:]
            powers = _powers(m)
            assert len(calls) == len(powers) - 1 <= max(m.rows - 1, 0)
            assert not any(p.is_zero() for p in powers[:-1])
        # N with N^2 = 0 in sl6: one product
        del calls[:]
        assert len(_powers(M([[int((i, j) == (0, 5)) for j in range(6)] for i in range(6)]))) == 2
        assert len(calls) == 1


class TestCoercion:
    """Each entry is coerced once: exact Fractions are kept, ints, strings and
    Fraction subclasses go through Fraction(x), floats are refused."""

    FORMS = [
        [[1, -2], [0, 3]],
        [["1", "-2/1"], ["0", "6/2"]],
        [[F(1), F(-2)], [F(0), F(3)]],
        ((1, "-2"), (F(0), 3)),
    ]

    @pytest.mark.parametrize("rows", FORMS)
    def test_entries_are_exact_fractions(self, rows):
        m = M(rows)
        assert type(m.entries) is tuple
        assert all(type(x) is Fraction for x in m.entries)
        for flat in (RatMatrix(2, 2, [x for row in rows for x in row]),
                     RatMatrix(2, 2, (x for row in rows for x in row))):
            assert type(flat.entries) is tuple
            assert all(type(x) is Fraction for x in flat.entries)
            assert flat == m

    def test_input_forms_equal_and_hash_equal(self):
        mats = [M(rows) for rows in self.FORMS]
        mats += [RatMatrix(2, 2, tuple(x for row in rows for x in row))
                 for rows in self.FORMS]
        assert all(m == mats[0] for m in mats)
        assert len({hash(m) for m in mats}) == 1

    def test_fraction_subclass_becomes_fraction(self):
        class Sub(Fraction):
            pass

        m = M([[Sub(1, 2)]])
        assert type(m.entries[0]) is Fraction
        assert m == M([[F(1, 2)]])

    def test_decimal_string_stays_exact(self):
        assert M([["0.1"]]).entries == (F(1, 10),)

    def test_wrong_entry_count(self):
        with pytest.raises(ValueError):
            RatMatrix(2, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            M([[1, 2], [3]])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            M([[0.1]])
        with pytest.raises(TypeError):
            RatMatrix(1, 2, (F(1), 0.5))
        with pytest.raises(TypeError):
            M([[1]]).scale(0.5)
        with pytest.raises(TypeError):
            Polynomial((1, 0.5))
        with pytest.raises(TypeError):
            DualNumber(0.5)
        with pytest.raises(TypeError):
            DualNumber(F(1), 0.25)

    def test_polynomial_coercion_and_trimming(self):
        p = Polynomial([1, "1/2", F(0), 0])
        assert p.coefficients == (F(1), F(1, 2))
        assert all(type(c) is Fraction for c in p.coefficients)
        assert p.degree == 1
        assert Polynomial((0, F(0), "0")).is_zero()
        assert Polynomial(("3",)) == Polynomial((3,))

    def test_dual_number_parts_are_exact(self):
        d = DualNumber(2, "1/3")
        assert type(d.value) is Fraction and type(d.epsilon) is Fraction
        assert (d * 3).value == 6 and (d * 3).epsilon == 1


# ---------------------------------------------------------------------------
# RatMatrix against a plain Fraction reference
# ---------------------------------------------------------------------------


def _ref_add(a, b, sign=1):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _ref_power(a, k):
    out = [[F(int(i == j)) for j in range(len(a))] for i in range(len(a))]
    for _ in range(k):
        out = fraction_mul(out, a)
    return out


def _ref_is_zero(a):
    return all(not x for row in a for x in row)


DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 14, 35)


def _random_rows(rng, r, c, density=3):
    """Mixed denominators; about one entry in ``density`` is zero."""
    return [[F(0) if rng.randint(1, density) == 1
             else draw_fraction(rng, -30, 30, DENOMINATORS) for _ in range(c)] for _ in range(r)]


def _random_nilpotent_rows(rng, n):
    """P U P^-1 for a strictly upper-triangular U and a unit triangular P."""
    u = [[draw_fraction(rng, -5, 5, DENOMINATORS) if j > i else F(0) for j in range(n)]
         for i in range(n)]
    lower = [[F(int(i == j)) if j >= i else draw_fraction(rng, -3, 3) for j in range(n)]
             for i in range(n)]
    return M(lower) * M(u) * RatMatrix.from_rows(_ref_inverse_lower(lower))


def _ref_inverse_lower(lower):
    """Inverse of a unit lower-triangular Fraction matrix, by forward substitution."""
    n = len(lower)
    inv = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for k in range(i):
            c = lower[i][k]
            inv[i] = [x - c * y for x, y in zip(inv[i], inv[k])]
    return inv


class TestRatMatrixAgainstFractionReference:
    """Integer numerators over one shared denominator give the results of
    plain Fraction lists of lists, on seeded random matrices with mixed
    denominators."""

    SHAPES = [(1, 1), (2, 3), (3, 2), (4, 4), (5, 3), (1, 6), (6, 6)]

    def test_sums_differences_and_negation(self):
        rng = SplitMix64(901)
        for r, c in self.SHAPES * 6:
            a, b = _random_rows(rng, r, c), _random_rows(rng, r, c)
            assert M(a) + M(b) == M(_ref_add(a, b))
            assert M(a) - M(b) == M(_ref_add(a, b, -1))
            assert -M(a) == M([[-x for x in row] for row in a])
            assert M(a) - M(a) == RatMatrix.zeros(r, c)

    def test_products_including_non_square(self):
        rng = SplitMix64(902)
        for r, k in self.SHAPES * 5:
            c = rng.randint(1, 6)
            a, b = _random_rows(rng, r, k), _random_rows(rng, k, c)
            product = M(a) * M(b)
            assert (product.rows, product.cols) == (r, c)
            assert product == M(fraction_mul(a, b))
            assert product.entries == tuple(x for row in fraction_mul(a, b) for x in row)
        with pytest.raises(ValueError):
            M([[1, 2]]) * M([[1, 2]])

    def test_scale_transpose_trace_power(self):
        rng = SplitMix64(903)
        for r, c in self.SHAPES * 4:
            a = _random_rows(rng, r, c)
            k = draw_fraction(rng, -7, 7, DENOMINATORS)
            assert M(a).scale(k) == M([[k * x for x in row] for row in a])
            assert k * M(a) == M(a) * k == M(a).scale(k)
            assert M(a).transpose() == M([list(col) for col in zip(*a)])
            if r == c:
                assert M(a).trace() == sum((a[i][i] for i in range(r)), F(0))
                for e in range(4):
                    assert matrix_power(M(a), e) == M(_ref_power(a, e))

    def test_is_zero_and_is_nilpotent(self):
        rng = SplitMix64(904)
        for n in range(1, 6):
            zero = RatMatrix.zeros(n, n)
            assert zero.is_zero() and _powers(zero)[-1].is_zero()
            for _ in range(6):
                a = _random_rows(rng, n, n)
                assert M(a).is_zero() == _ref_is_zero(a)
                want = _ref_is_zero(_ref_power(a, n))
                assert _powers(M(a))[-1].is_zero() == want
                nil = _random_nilpotent_rows(rng, n)
                assert _powers(nil)[-1].is_zero()
                assert _ref_is_zero(_ref_power(nil.row_lists(), n))
        # a nonzero 1 x n row is its own last power: the walk takes no product
        assert not _powers(M([[1, 2, 3]]))[-1].is_zero()

    def test_int_scale_builds_no_fraction(self, monkeypatch):
        m = M([[F(1, 2), 2], [0, F(-3, 4)]])
        built = fraction_spy(monkeypatch)
        scaled = m.scale(3)
        assert built == []
        monkeypatch.undo()
        assert scaled == M([[F(3, 2), 6], [0, F(-9, 4)]])

    def test_lowest_terms_make_equality_and_hash_structural(self):
        rng = SplitMix64(905)
        pairs = [(M([[F(2, 4), 1]]), M([[F(1, 2), 1]])),
                 (M([[F(1, 2), F(1, 2)]]) + M([[F(1, 2), F(-1, 2)]]), M([[1, 0]])),
                 (M([[F(1, 6), 0]]) - M([[F(1, 6), 0]]), RatMatrix.zeros(1, 2))]
        for _ in range(20):
            a = M(_random_rows(rng, 3, 3))
            pairs.append((a.scale(3).scale(F(1, 3)), a))
            pairs.append((a * RatMatrix.identity(3), a))
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
            assert x.den > 0
            assert math.gcd(x.den, *x.nums) == 1
        assert RatMatrix.zeros(2, 2).den == 1
        assert M([[F(1, 2), 0]]).scale(0).den == 1

    def test_entries_are_exact_fractions(self):
        rng = SplitMix64(906)
        for r, c in self.SHAPES:
            a = _random_rows(rng, r, c)
            m = M(a)
            assert type(m.entries) is tuple
            assert all(type(x) is Fraction for x in m.entries)
            assert m.entries == tuple(x for row in a for x in row)
            assert m.row_lists() == a
            assert all(m.at(i, j) == a[i][j] for i in range(r) for j in range(c))

    def test_immutable_and_copyable(self):
        m = M([[F(1, 2), 3], [0, F(-5, 6)]])
        with pytest.raises(AttributeError):
            m.den = 1
        assert copy.deepcopy(m) == m
        assert pickle.loads(pickle.dumps(m)) == m

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            M([[F(1, 2), 0.5]])
        with pytest.raises(TypeError):
            M([[1, 2]]).scale(0.5)
        with pytest.raises(TypeError):
            RatMatrix(1, 1, (1.0,))


# ---------------------------------------------------------------------------
# The product kernel against the row loop
# ---------------------------------------------------------------------------


def _reference_product(a, b):
    """a b by the row loop: the nonzero pairs of every row of b built up
    front, then every row of a walked, entry by entry."""
    inner, cols, anums, bnums = a.cols, b.cols, a.nums, b.nums
    brows = [[(j, v) for j, v in enumerate(bnums[k * cols:(k + 1) * cols]) if v]
             for k in range(inner)]
    out = []
    for i in range(a.rows):
        acc = [0] * cols
        for aik, brow in zip(anums[i * inner:(i + 1) * inner], brows):
            if aik:
                for j, v in brow:
                    acc[j] += aik * v
        out.extend(acc)
    return _matrix(a.rows, cols, out, a.den * b.den)


def _reference_commutator(a, b):
    return _reference_product(a, b) - _reference_product(b, a)


KERNEL_KINDS = ("zero", "identity", "single", "paired", 10, 30, 100)


def _kernel_operand(rng, r, c, kind):
    """An r x c matrix of one kind: zero, (rectangular) identity, one or two
    basis-like entries (E_ij or E_ij -+ E_kl, as in so/sp bases), or random
    entries with mixed denominators, each nonzero with about ``kind``
    percent chance."""
    rows = [[F(0)] * c for _ in range(r)]
    if kind == "identity":
        for i in range(min(r, c)):
            rows[i][i] = F(1)
    elif kind in ("single", "paired"):
        v = draw_fraction(rng, -30, 30, DENOMINATORS) or F(1)
        rows[rng.randint(0, r - 1)][rng.randint(0, c - 1)] = v
        if kind == "paired":
            rows[rng.randint(0, r - 1)][rng.randint(0, c - 1)] -= v * draw_choice(rng, (1, -1, 2))
    elif kind != "zero":
        rows = [[draw_fraction(rng, -30, 30, DENOMINATORS) if rng.randint(1, 100) <= kind
                 else F(0) for _ in range(c)] for _ in range(r)]
    return M(rows)


def _product_corpus():
    rng = SplitMix64(2020)
    corpus = []
    for r, k, c in ((1, 7, 1), (7, 1, 7), (1, 7, 7), (7, 1, 1), (2, 5, 3), (3, 4, 6),
                    (4, 4, 4), (5, 8, 2), (6, 6, 6)):
        for kind_a in KERNEL_KINDS:
            for kind_b in KERNEL_KINDS:
                corpus.append((_kernel_operand(rng, r, k, kind_a),
                               _kernel_operand(rng, k, c, kind_b)))
    return corpus


def _commutator_corpus():
    rng = SplitMix64(2021)
    return [(_kernel_operand(rng, n, n, kind_a), _kernel_operand(rng, n, n, kind_b))
            for n in range(1, 9) for kind_a in KERNEL_KINDS for kind_b in KERNEL_KINDS]


def _assert_same_matrix(got, want):
    assert (got.rows, got.cols, got.den, got.nums) == (want.rows, want.cols, want.den, want.nums)


class TestProductKernelAgainstRowLoop:
    """`_product` runs `_accumulate`, driven by the nonzeros of the left
    factor, into one integer buffer, and `commutator` picks that loop or
    `_support_bracket`; their storage equals that of the row loop and of
    a b - b a built from it."""

    def test_products(self):
        for a, b in _product_corpus():
            _assert_same_matrix(a * b, _reference_product(a, b))

    def test_commutators(self):
        for a, b in _commutator_corpus():
            _assert_same_matrix(commutator(a, b), _reference_commutator(a, b))
            _assert_same_matrix(commutator(b, a), -commutator(a, b))

    def test_cancelling_halves_reduce_to_lowest_terms(self):
        a = M([[F(1, 6), F(1, 4)], [0, F(1, 6)]])
        _assert_same_matrix(commutator(a, a), RatMatrix.zeros(2, 2))
        _assert_same_matrix(commutator(a, RatMatrix.identity(2)), RatMatrix.zeros(2, 2))
        b = M([[F(1, 3), 0], [0, F(-1, 3)]])
        _assert_same_matrix(commutator(b, a), _reference_commutator(b, a))
        assert commutator(b, a).den == 6

    @pytest.mark.parametrize("shapes", [((2, 3), (3, 2)), ((2, 2), (3, 3)),
                                        ((2, 3), (2, 3)), ((1, 2), (2, 2))])
    def test_commutator_of_non_square_or_mismatched_shapes_refused(self, shapes):
        (r1, c1), (r2, c2) = shapes
        with pytest.raises(ValueError):
            commutator(RatMatrix.zeros(r1, c1), RatMatrix.zeros(r2, c2))


def _old_support(m):
    """The sparse form as the module function before `RatMatrix.support`
    built it: (den, nonzero (position, numerator) pairs)."""
    return m.den, tuple((p, v) for p, v in enumerate(m.nums) if v)


def _basis_operands(family, sizes, seed):
    """(b, m) for every basis element b of the algebra at each size, each
    against a dense m with Fraction entries, a sparse m and the zero m."""
    rng = SplitMix64(seed)
    pairs = []
    for n in sizes:
        operands = [_kernel_operand(rng, n, n, 100), _kernel_operand(rng, n, n, 30),
                    RatMatrix.zeros(n, n)]
        pairs += [(b, m) for b in build_classical(family, n).basis for m in operands]
    return pairs


def _dense_fraction_operands(seed):
    """Dense b and m with Fraction entries whose halves cancel down to
    lowest terms, b scaled so its support carries a denominator, as the
    pairs (b, m), (b, b) and (m, b)."""
    rng = SplitMix64(seed)
    pairs = []
    for n in range(1, 7):
        for _ in range(4):
            b = _kernel_operand(rng, n, n, 100).scale(F(1, draw_choice(rng, (1, 2, 6))))
            m = _kernel_operand(rng, n, n, draw_choice(rng, (10, 100)))
            pairs += [(b, m), (b, b), (m, b)]
    return pairs


BASIS_FAMILIES = [("sl", (2, 3, 4, 5, 6)), ("so", (5, 6, 7, 8)), ("sp", (4, 6, 8))]


class TestSupportBracket:
    """`_support_bracket(b.support, m, sign)`, which adds and subtracts
    whole rows and columns of m for each nonzero of b, has the storage of
    sign `commutator(b, m)` and of the row loop's b m - m b."""

    @pytest.mark.parametrize("family,sizes", BASIS_FAMILIES)
    def test_basis_elements(self, family, sizes):
        """Every basis element b of the algebra, with one or two nonzeros
        (E_ij and h_i in sl, the paired entries of so and sp and the single
        long-root entries of sp), against
        a dense m with Fraction entries, a sparse m and the zero m."""
        counts = set()
        for b, m in _basis_operands(family, sizes, 3030):
            support = b.support
            counts.add(len(support[1]))
            _assert_same_matrix(linalg._support_bracket(support, m, 1), commutator(b, m))
            _assert_same_matrix(linalg._support_bracket(support, m, 1),
                                _reference_commutator(b, m))
            _assert_same_matrix(linalg._support_bracket(support, m, -1),
                                _reference_commutator(m, b))
        assert counts == ({2} if family == "so" else {1, 2})

    def test_kernel_corpus(self):
        """The pairs of `_commutator_corpus`: zero, identity, one or two
        basis-like entries and dense b, each with Fraction entries, against
        every kind of m, the zero matrix among them."""
        for b, m in _commutator_corpus():
            got = linalg._support_bracket(b.support, m, 1)
            _assert_same_matrix(got, commutator(b, m))
            _assert_same_matrix(got, _reference_commutator(b, m))

    def test_seeded_dense_fraction_operands(self):
        """Dense b and m with Fraction entries whose halves cancel down to
        lowest terms, and b scaled so its support carries a denominator."""
        for x, y in _dense_fraction_operands(3031):
            got = linalg._support_bracket(x.support, y, 1)
            _assert_same_matrix(got, commutator(x, y))
            _assert_same_matrix(got, _reference_commutator(x, y))

    def test_zero_operands(self):
        m = M([[F(1, 2), 3], [-1, F(-1, 2)]])
        zero = RatMatrix.zeros(2, 2)
        _assert_same_matrix(linalg._support_bracket(zero.support, m, 1), zero)
        _assert_same_matrix(linalg._support_bracket(m.support, zero, 1), zero)


def _loop_spies(monkeypatch):
    """The lists, filled from now on, of the calls of the two bracket loops
    `commutator` picks from: (support, m, sign) per `_support_bracket` call
    and (a, b, sign) per `_accumulate` call."""
    support_calls, product_calls = [], []
    support_bracket, accumulate = linalg._support_bracket, linalg._accumulate

    def support_spy(support, m, sign):
        support_calls.append((support, m, sign))
        return support_bracket(support, m, sign)

    def product_spy(out, a, b, sign):
        product_calls.append((a, b, sign))
        accumulate(out, a, b, sign)

    monkeypatch.setattr(linalg, "_support_bracket", support_spy)
    monkeypatch.setattr(linalg, "_accumulate", product_spy)
    return support_calls, product_calls


class TestCommutatorPicksItsLoop:
    """`commutator` runs `_support_bracket` from the support of its
    sparser factor when that factor has at most n nonzeros, a first and
    with the sign flipped for b, and otherwise the two `_accumulate` calls;
    either way its storage is that of the row loop."""

    def test_against_the_row_loop_on_the_support_corpora(self):
        """Both orders of the `TestSupportBracket` pairs; `_commutator_corpus`
        is `TestProductKernelAgainstRowLoop.test_commutators`'."""
        pairs = _dense_fraction_operands(3031)
        for family, sizes in BASIS_FAMILIES:
            pairs += _basis_operands(family, sizes, 3030)
        for a, b in pairs:
            _assert_same_matrix(commutator(a, b), _reference_commutator(a, b))
            _assert_same_matrix(commutator(b, a), _reference_commutator(b, a))

    def test_a_driven(self, monkeypatch):
        a = elem(4, 1, 2).scale(F(3, 2))
        b = M([[F(k + 1, 1 + k % 3) for k in range(4 * j, 4 * j + 4)] for j in range(4)])
        supports, products = _loop_spies(monkeypatch)
        _assert_same_matrix(commutator(a, b), _reference_commutator(a, b))
        assert supports == [(a.support, b, 1)] and products == []

    def test_b_driven_flips_the_sign(self, monkeypatch):
        a = M([[F(k + 1, 1 + k % 3) for k in range(4 * j, 4 * j + 4)] for j in range(4)])
        b = elem(4, 0, 3) - elem(4, 3, 0).scale(F(1, 5))
        supports, products = _loop_spies(monkeypatch)
        _assert_same_matrix(commutator(a, b), _reference_commutator(a, b))
        assert supports == [(b.support, a, -1)] and products == []

    def test_a_tie_goes_to_a(self, monkeypatch):
        a = elem(3, 0, 1) + elem(3, 2, 2).scale(F(-1, 2))
        b = elem(3, 1, 0) + elem(3, 1, 2).scale(7)
        supports, products = _loop_spies(monkeypatch)
        _assert_same_matrix(commutator(a, b), _reference_commutator(a, b))
        _assert_same_matrix(commutator(b, a), _reference_commutator(b, a))
        assert supports == [(a.support, b, 1), (b.support, a, 1)] and products == []

    def test_n_nonzeros_is_the_threshold(self, monkeypatch):
        """The identity, n nonzeros, takes the support loop; with one more
        entry, n + 1, both factors are above the threshold."""
        n = 4
        dense = M([[F(1 + (i * n + j) % 7, 1 + j) for j in range(n)] for i in range(n)])
        at = RatMatrix.identity(n).scale(F(2, 3))
        above = at + elem(n, 0, 3)
        supports, products = _loop_spies(monkeypatch)
        _assert_same_matrix(commutator(at, dense), _reference_commutator(at, dense))
        assert len(supports) == 1 and products == []
        _assert_same_matrix(commutator(above, dense), _reference_commutator(above, dense))
        _assert_same_matrix(commutator(dense, above), _reference_commutator(dense, above))
        assert len(supports) == 1
        assert [(a, b, sign) for a, b, sign in products] == [
            (above, dense, 1), (dense, above, -1), (dense, above, 1), (above, dense, -1)]

    def test_empty_operands(self):
        empty = RatMatrix.zeros(0, 0)
        _assert_same_matrix(commutator(empty, empty), empty)

    @pytest.mark.parametrize("shapes", [((2, 3), (3, 2)), ((2, 2), (3, 3)),
                                        ((1, 2), (2, 2)), ((0, 0), (1, 1))])
    def test_shape_mismatch_raises_before_any_loop(self, monkeypatch, shapes):
        (r1, c1), (r2, c2) = shapes
        supports, products = _loop_spies(monkeypatch)
        with pytest.raises(ValueError):
            commutator(RatMatrix.zeros(r1, c1), RatMatrix.zeros(r2, c2))
        assert supports == [] and products == []


class TestSupportProperty:
    """`RatMatrix.support` is the sparse form the module function built,
    read once and kept where `==`, `hash`, pickling and copying do not see
    it; the matrix stays immutable."""

    def test_equals_the_old_form(self):
        for m in _random_corpus() + [a for a, _ in _commutator_corpus()]:
            assert m.support == _old_support(m)

    def test_second_read_is_the_same_object(self):
        m = M([[F(1, 2), 0], [3, F(-5, 6)]])
        first = m.support
        assert m.support is first
        assert first == (6, ((0, 3), (2, 18), (3, -5)))

    def test_invisible_to_eq_hash_and_pickling(self):
        rows = [[F(1, 2), 0, 3], [0, F(-5, 6), 0], [1, 0, 0]]
        read, unread = M(rows), M(rows)
        before = pickle.dumps(read)
        read.support
        assert read == unread and hash(read) == hash(unread)
        assert pickle.dumps(read) == before == pickle.dumps(unread)
        for copied in (pickle.loads(pickle.dumps(read)), copy.copy(read), copy.deepcopy(read)):
            assert copied == read and hash(copied) == hash(read)
            assert copied.support == read.support

    def test_assigning_any_attribute_raises(self):
        m = M([[1, 2], [0, 3]])
        m.support
        for name in ("rows", "cols", "nums", "den", "support", "_sparse", "other"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
            with pytest.raises(AttributeError):
                delattr(m, name)
        assert m.support == (1, ((0, 1), (1, 2), (3, 3)))


def test_product_kernel_property_against_row_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
    @hypothesis.given(data=st.data())
    def check(data):
        r, k, c = (data.draw(st.integers(1, 5)) for _ in range(3))
        entry = st.one_of(st.just(F(0)), st.builds(F, st.integers(-20, 20),
                                                   st.sampled_from(DENOMINATORS)))

        def matrix(rows, cols):
            return RatMatrix(rows, cols, data.draw(st.lists(entry, min_size=rows * cols,
                                                            max_size=rows * cols)))

        a, b = matrix(r, k), matrix(k, c)
        _assert_same_matrix(a * b, _reference_product(a, b))
        x, y = matrix(k, k), matrix(k, k)
        _assert_same_matrix(commutator(x, y), _reference_commutator(x, y))

    check()


# sl4 mixed (three factors), so5 semisimple and sp4 nilpotent charts
BRACKET_CASES = {
    "sl4-mixed": ("sl", 4, M([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])),
    "so5-semisimple": ("so", 5, diag_matrix([2, 1, 0, -1, -2])),
    "sp4-nilpotent": ("sp", 4, M([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1], [0, 0, 0, 0]])),
}


def _reference_chain(n, pairs):
    """(E, E^-1) for E the product of the exp a of the (exp a, exp -a)
    ``pairs`` in order (n x n matrices), by the row loop."""
    chain = chain_inv = RatMatrix.identity(n)
    for exp_a, exp_neg in pairs:
        chain = _reference_product(chain, exp_a)
        chain_inv = _reference_product(exp_neg, chain_inv)
    return chain, chain_inv


@pytest.mark.parametrize("label", list(BRACKET_CASES))
def test_core_brackets_equal_reference_brackets(label):
    """`_core_brackets` in the frames `verify._jacobian_rank` takes, k = m
    and, for a chart without a slice, k = m - 1, against the row loop, at
    the base tuple and at seeded sample tuples: for factor f (numbered
    from 1) the block [P b P^-1, Ad(S_k) core] with P = S_k S_f^-1, less
    the last factor's own exp a_m for k = m - 1, then the slice block
    Ad(S_k) s_j. The rank `verify._jacobian_rank` reports equals that of
    the g^-1 frame rows."""
    family, n, m = BRACKET_CASES[label]
    chart = build_chart(build_classical(family, n).element_from_matrix(m), 42)
    rng = SplitMix64(606)
    points = [chart.base_params] + [
        tuple(draw_fraction(rng, -3, 3) for _ in range(chart.param_count)) for _ in range(3)]
    for params in points:
        vp = _value_pass(chart, params)
        exps = [(exp_a, exp_neg) for _, exp_a, exp_neg in vp.series]
        last = len(exps)
        for k in (last,) if chart.slice_basis else (last, last - 1):
            frame, frame_inv = _reference_chain(n, exps[k:])
            core = _reference_product(_reference_product(frame, vp.core), frame_inv)
            _assert_same_matrix(vp.cores[k], core)
            want = []
            for f, basis in enumerate(chart.factors):
                if f < k:
                    p_inv, p = _reference_chain(n, exps[f + 1:k])
                else:
                    p, p_inv = _reference_chain(n, exps[k:f])
                want.append([_reference_commutator(
                    _reference_product(_reference_product(p, b), p_inv), core) for b in basis])
            want.append([_reference_product(_reference_product(frame, s), frame_inv)
                         for s in chart.slice_basis])
            got = _core_brackets(vp, chart.factors, chart.slice_basis, k)
            assert [len(block) for block in got] == [len(block) for block in want]
            for got_block, want_block in zip(got, want):
                for g, w in zip(got_block, want_block):
                    _assert_same_matrix(g, w)
        assert verify._jacobian_rank(chart, vp, UNFRAMED) == g_inverse_frame_rank(chart, vp)


def _reference_bareiss(rows):
    """The dense fraction-free loop: every row below the pivot is scaled at
    every step, whatever its entry in the pivot column."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    piv_cols = []
    r = 0
    prev = 1
    swaps = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            swaps += 1
        piv = rows[r][c]
        for i in range(r + 1, m):
            ric = rows[i][c]
            row_i = rows[i]
            row_r = rows[r]
            for j in range(c, n):
                row_i[j] = (row_i[j] * piv - ric * row_r[j]) // prev
        prev = piv
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    return rows, piv_cols, swaps


def _sparse_rows(rng, m, n, percent):
    """m x n integers in [-9, 9], each entry nonzero with about ``percent``
    percent chance."""
    return [[rng.randint(-9, 9) if rng.randint(1, 100) <= percent else 0
             for _ in range(n)] for _ in range(m)]


def _diagonal_rows(rng, n, permuted):
    rows = [[0] * n for _ in range(n)]
    order = list(range(n))
    if permuted:
        for i in range(n - 1, 0, -1):
            j = rng.randint(0, i)
            order[i], order[j] = order[j], order[i]
    for i in range(n):
        rows[i][order[i]] = draw_choice(rng, (-7, -3, -2, -1, 0, 1, 2, 5, 9))
    return rows


def _deficient_rows(rng, m, n):
    """Random rows, then some replaced by a repeat or by a sum of two rows."""
    rows = _sparse_rows(rng, m, n, 60)
    for i in range(2, m):
        kind = rng.randint(0, 2)
        if kind == 1:
            rows[i] = list(rows[rng.randint(0, i - 1)])
        elif kind == 2:
            a, b = rows[rng.randint(0, i - 1)], rows[rng.randint(0, i - 1)]
            rows[i] = [x + rng.randint(-2, 2) * y for x, y in zip(a, b)]
    return rows


def _with_zero_lines(rng, rows):
    rows = [list(row) for row in rows]
    rows[rng.randint(0, len(rows) - 1)] = [0] * len(rows[0])
    c = rng.randint(0, len(rows[0]) - 1)
    for row in rows:
        row[c] = 0
    return rows


def _sl4_mixed_jacobian_rows(monkeypatch):
    """The flattened numerator rows `verify._jacobian_rank` eliminates for a
    built sl4 mixed chart, at a seeded chart point."""
    sl4 = build_classical("sl", 4)
    x = sl4.element_from_matrix(M([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]))
    chart = build_chart(x, 42)
    rng = SplitMix64(77)
    vp = _value_pass(chart, tuple(draw_fraction(rng, -3, 3) for _ in range(chart.param_count)))
    ranked = []
    monkeypatch.setattr(verify, "_span_rank", ranked.append)
    verify._jacobian_rank(chart, vp, UNFRAMED)
    return [list(row) for row in ranked[0]]


def _bareiss_corpus():
    rng = SplitMix64(4242)
    corpus = []
    for n in (1, 2, 5, 8):
        corpus += [_diagonal_rows(rng, n, False), _diagonal_rows(rng, n, True)]
    for m, n in ((1, 1), (1, 7), (7, 1), (3, 8), (8, 3), (6, 6), (9, 12), (12, 9)):
        for percent in (10, 30, 100):
            corpus.append(_sparse_rows(rng, m, n, percent))
        corpus.append(_deficient_rows(rng, m, n))
        corpus.append(_with_zero_lines(rng, _sparse_rows(rng, m, n, 50)))
    return corpus


class TestBareissAgainstDenseLoop:
    """`_bareiss` skips rows whose pivot-column entry is zero and scales them
    lazily; its echelon rows, pivot columns and swap count equal those of
    the dense loop."""

    @pytest.mark.parametrize("rows", _bareiss_corpus())
    def test_same_result_as_dense_loop(self, rows):
        assert _bareiss(copy.deepcopy(rows)) == _reference_bareiss(copy.deepcopy(rows))

    def test_sl4_mixed_jacobian_rows_same_as_dense_loop(self, monkeypatch):
        rows = _sl4_mixed_jacobian_rows(monkeypatch)
        assert _bareiss(copy.deepcopy(rows)) == _reference_bareiss(copy.deepcopy(rows))

    def test_skipped_rows_become_pivot_rows_after_swaps(self):
        # column 0 swaps row 2 up and skips the rest; column 1 swaps a
        # skipped row into the pivot row, and column 2 pivots on a row
        # skipped twice
        rows = [[0, 2, 1, 3], [0, 0, 5, 1], [3, 1, 0, 2], [0, 4, 0, 7]]
        want = _reference_bareiss(copy.deepcopy(rows))
        assert want[1:] == ([0, 1, 2, 3], 2)
        assert _bareiss(copy.deepcopy(rows)) == want


def test_bareiss_property_against_dense_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
    @hypothesis.given(data=st.data())
    def check(data):
        m, n = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        entry = st.one_of(st.just(0), st.integers(-20, 20))
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=m, max_size=m))
        assert _bareiss(copy.deepcopy(rows)) == _reference_bareiss(copy.deepcopy(rows))

    check()
