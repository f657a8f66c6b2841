import functools
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from conftest import (
    DualNumber,
    diag_matrix,
    draw_fraction,
    elem,
    element,
    fraction_exp,
    matrix_power,
    mixed_corpus,
    mixed_element,
    unit_bidiagonal,
)
from orbitcharts.charts import (
    NotSemisimpleError,
    OrbitChart,
    _exp_series,
    build_chart,
    chart_from_json,
    chart_mixed,
    chart_nilpotent,
    chart_semisimple,
    chart_to_json,
    eval_chart,
    eval_chart_with_derivatives,
    exp_nilpotent,
)
from orbitcharts.grading import _zero_piece_matches, grading_by
from orbitcharts.jordan import jordan_decompose
from orbitcharts.liealg import ad_matrix, build_classical, centralizer_basis
from orbitcharts.linalg import (
    NotNilpotentError,
    RatMatrix,
    char_poly,
    det,
    kernel_basis,
    matrix_to_json,
    rank,
)
from orbitcharts.rng import SplitMix64
from orbitcharts.sl2 import jacobson_morozov

F = Fraction


def M(rows):
    return RatMatrix.from_rows(rows)


class TestExpNilpotent:
    def test_single_jordan_block(self):
        assert exp_nilpotent(M([[0, 1], [0, 0]])) == M([[1, 1], [0, 1]])

    def test_scaled_lower(self):
        t = F(5, 3)
        assert exp_nilpotent(elem(2, 1, 0).scale(t)) == M([[1, 0], [t, 1]])

    def test_regular_three(self):
        got = exp_nilpotent(M([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
        assert got == M([[1, 1, F(1, 2)], [0, 1, 1], [0, 0, 1]])

    def test_rejects_non_nilpotent(self):
        with pytest.raises(NotNilpotentError):
            exp_nilpotent(diag_matrix([1, -1]))

    def test_inverse_property_random(self):
        rng = SplitMix64(3)
        for _ in range(100):
            n = rng.randint(2, 4)
            rows = [[rng.fraction() if j > i else F(0) for j in range(n)]
                    for i in range(n)]
            a = M(rows)
            assert exp_nilpotent(a) * exp_nilpotent(-a) == RatMatrix.identity(n)


def _seeded_nilpotent(rng, n):
    """u s u^-1: s strictly upper-triangular with entries num/den, num in
    -3..3 and den in 1..6, and u unit lower-bidiagonal with entries in
    -1..1, so the nilpotent result is dense below the diagonal too."""
    s = M([[draw_fraction(rng, -3, 3, range(1, 7)) if j > i else 0 for j in range(n)]
           for i in range(n)])
    u, u_inv = unit_bidiagonal([rng.randint(-1, 1) for _ in range(n - 1)], upper=False)
    return u * s * u_inv


def _assert_exp_series(a):
    """Both sums equal the Fraction series, and exp(a) exp(-a) = I."""
    plus, minus = _exp_series(a)
    assert plus.row_lists() == fraction_exp(a.row_lists())
    assert minus.row_lists() == fraction_exp((-a).row_lists())
    assert plus * minus == RatMatrix.identity(a.rows)


class TestExpSeries:
    """`_exp_series` sums on integer numerators over one denominator; the
    reference is sum_k a^k / k! in Fractions (`conftest.fraction_exp`)."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_seeded_nilpotents_match_fraction_series(self, n):
        rng = SplitMix64(700 + n)
        for _ in range(20):
            _assert_exp_series(_seeded_nilpotent(rng, n))

    @pytest.mark.parametrize("family,n", [("so", 5), ("so", 6), ("sp", 4), ("sp", 6)])
    def test_so_sp_factor_combinations_match_fraction_series(self, family, n):
        """Random combinations of the basis of each factor of the charts of
        a split diagonal and of the sum of the strictly upper basis."""
        algebra = build_classical(family, n)
        half = [n // 2 - i for i in range(n // 2)]
        d = diag_matrix(half + [0] * (n % 2) + [-v for v in reversed(half)])
        upper = sum((b for b in algebra.basis
                     if all(not b.at(i, j) for i in range(n) for j in range(i + 1))),
                    RatMatrix.zeros(n, n))
        rng = SplitMix64(71)
        for x in (d, upper):
            chart = build_chart(algebra.element_from_matrix(x), 42)
            for basis in chart.factors:
                for _ in range(3):
                    coeffs = [draw_fraction(rng, -3, 3, range(1, 7)) for _ in basis]
                    _assert_exp_series(sum((b.scale(c) for b, c in zip(basis, coeffs)),
                                           RatMatrix.zeros(n, n)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_not_nilpotent_error_exactly_when_nth_power_nonzero(self, n):
        """u (s + c E_ij) u^-1 with i >= j: nilpotent for some draws, not
        for others."""
        rng = SplitMix64(800 + n)
        seen = set()
        for _ in range(30):
            s = _seeded_nilpotent(rng, n)
            i = rng.randint(0, n - 1)
            a = s + elem(n, i, rng.randint(0, i), rng.randint(-2, 2))
            nonzero = not matrix_power(a, n).is_zero()
            seen.add(nonzero)
            if nonzero:
                with pytest.raises(NotNilpotentError):
                    _exp_series(a)
            else:
                _assert_exp_series(a)
        assert seen == {False, True}


def conjugate(factors, params, core):
    """Ad(exp a_1 ... exp a_m)(core), summed factor by factor with exp_nilpotent."""
    n = core.rows
    g = RatMatrix.identity(n)
    g_inv = RatMatrix.identity(n)
    pos = 0
    for basis in factors:
        a = RatMatrix.zeros(n, n)
        for c, b in zip(params[pos:pos + len(basis)], basis):
            a = a + b.scale(c)
        pos += len(basis)
        g = g * exp_nilpotent(a)
        g_inv = exp_nilpotent(-a) * g_inv
    assert g * g_inv == RatMatrix.identity(n)
    return g * core * g_inv


class TestComplements:
    """Factor sequences, through eval_chart on charts with edited factors."""

    @pytest.fixture
    def h_chart(self, sl2):
        return chart_semisimple(element(sl2, [[1, 0], [0, -1]]), 42)

    def test_compose_concatenates_in_order(self, h_chart):
        assert len(h_chart.factors) == 2
        assert h_chart.param_count == 2
        params = (F(2), F(-3, 5))
        want = conjugate(h_chart.factors, params, h_chart.shift)
        assert eval_chart(h_chart, params) == want

    def test_compose_with_empty(self, h_chart):
        padded = replace(h_chart, factors=h_chart.factors + ((),))
        assert padded.param_count == 2
        assert eval_chart(padded, (F(1), F(7))) == eval_chart(h_chart, (F(1), F(7)))

    def test_eval_big_cell_sl2(self, h_chart):
        lower = replace(h_chart, factors=((elem(2, 1, 0),),))
        assert eval_chart(lower, (F(2),)) == M([[1, 0], [4, -1]])

    def test_eval_empty_seq(self, h_chart):
        bare = replace(h_chart, factors=())
        assert eval_chart(bare, ()) == h_chart.shift

    def test_eval_zero_params_is_tail(self, h_chart):
        assert eval_chart(h_chart, (F(0), F(0))) == h_chart.shift

    def test_param_count_mismatch(self, h_chart):
        lower = replace(h_chart, factors=((elem(2, 1, 0),),))
        with pytest.raises(ValueError):
            eval_chart(lower, (F(1), F(2)))


class TestNilpotentChart:
    def test_sl2_closed_form(self, sl2):
        e = element(sl2, [[0, 1], [0, 0]])
        chart = chart_nilpotent(e)
        assert chart.param_count == 2
        assert chart.base_params == (F(0), F(1))
        rng = SplitMix64(9)
        for _ in range(12):
            a, v = rng.fraction(), rng.fraction()
            got = eval_chart(chart, (a, v))
            want = M([[-a * v, v], [-a * a * v, a * v]])
            assert got == want
        assert eval_chart(chart, (1, 1)) == M([[-1, 1], [-1, 1]])

    def test_sl3_minimal_counts(self, sl3):
        e13 = sl3.element_from_matrix(elem(3, 0, 2))
        chart = chart_nilpotent(e13)
        assert chart.param_count == 4
        assert chart.parabolic.u2_differs_from_u

    def test_sl3_regular_counts(self, sl3):
        e = sl3.element_from_matrix(elem(3, 0, 1) + elem(3, 1, 2))
        chart = chart_nilpotent(e)
        assert chart.param_count == 6

    def test_base_point_identity(self, sl3):
        e = sl3.element_from_matrix(elem(3, 0, 1) + elem(3, 1, 2))
        chart = chart_nilpotent(e)
        assert eval_chart(chart, chart.base_params) == e.matrix

    def test_jordan_type_preserved_on_orbit_samples(self, sl3):
        e = sl3.element_from_matrix(elem(3, 0, 1) + elem(3, 1, 2))
        chart = chart_nilpotent(e)
        rng = SplitMix64(15)
        base_ranks = [rank(matrix_power(e.matrix, k)) for k in (1, 2)]
        for _ in range(6):
            params = list(chart.base_params)
            for i in range(chart.param_count - len(chart.slice_basis)):
                params[i] = rng.fraction()
            m = eval_chart(chart, params)
            assert char_poly(m) == char_poly(e.matrix)
            assert [rank(matrix_power(m, k)) for k in (1, 2)] == base_ranks


class TestSemisimpleChart:
    def test_sl2_closed_form(self, sl2):
        h = element(sl2, [[1, 0], [0, -1]])
        chart = chart_semisimple(h, 42)
        assert chart.param_count == 2
        rng = SplitMix64(19)
        for _ in range(12):
            a, b = rng.fraction(), rng.fraction()
            got = eval_chart(chart, (a, b))
            want = M([[1 + 2 * a * b, -2 * b],
                      [2 * a + 2 * a * a * b, -1 - 2 * a * b]])
            assert got == want
        fixture = eval_chart(chart, (1, 1))
        assert fixture == M([[3, -2], [4, -3]])
        assert det(fixture) == -1

    def test_base_point(self, sl2):
        h = element(sl2, [[1, 0], [0, -1]])
        chart = chart_semisimple(h, 42)
        assert eval_chart(chart, (0, 0)) == h.matrix

    def test_sl3_block_counts(self, sl3):
        x = sl3.element_from_matrix(diag_matrix([1, 1, -2]))
        chart = chart_semisimple(x, 42)
        assert chart.param_count == 4

    def test_rejects_nonsemisimple(self, sl2):
        e = element(sl2, [[0, 1], [0, 0]])
        with pytest.raises(NotSemisimpleError):
            chart_semisimple(e, 42)
        with pytest.raises(ValueError):
            chart_semisimple(sl2.zero_element(), 42)

    def test_char_poly_preserved(self, sl3):
        x = sl3.element_from_matrix(diag_matrix([2, -1, -1]))
        chart = chart_semisimple(x, 42)
        rng = SplitMix64(25)
        target = char_poly(x.matrix)
        for _ in range(8):
            params = [rng.fraction() for _ in range(chart.param_count)]
            assert char_poly(eval_chart(chart, params)) == target

    def test_factor_order_sensitivity(self, sl2):
        h = element(sl2, [[1, 0], [0, -1]])
        chart = chart_semisimple(h, 42)
        swapped = replace(chart, factors=chart.factors[::-1])
        params = (F(1), F(1))
        assert eval_chart(swapped, params) == conjugate(swapped.factors, params, h.matrix)
        assert eval_chart(swapped, params) != eval_chart(chart, params)


class TestMixedChart:
    def test_sl3_counts_and_base(self, sl3):
        x = sl3.element_from_matrix(diag_matrix([1, 1, -2]) + elem(3, 0, 1))
        chart = chart_mixed(x, 42)
        assert chart.param_count - chart.inner.param_count == 4
        assert chart.inner.param_count == 2
        assert chart.param_count == 6
        assert eval_chart(chart, chart.base_params) == x.matrix

    def test_oracle_dimension(self, sl4):
        x = sl4.element_from_matrix(diag_matrix([1, 1, -1, -1]) + elem(4, 0, 1))
        chart = chart_mixed(x, 42)
        oracle = centralizer_basis(x).dim
        assert chart.param_count == sl4.dim - oracle

    def test_nested_equals_flat_composition(self, sl3):
        # the flat chart agrees with the nested form
        # Ad(exp a exp b)(x_s + inner chart): the merge property
        x = sl3.element_from_matrix(diag_matrix([1, 1, -2]) + elem(3, 0, 1))
        chart = chart_mixed(x, 42)
        outer_count = chart.param_count - chart.inner.param_count
        outer_factors = chart.factors[:len(chart.factors) - len(chart.inner.factors)]
        assert chart.factors[len(outer_factors):] == chart.inner.factors
        rng = SplitMix64(29)
        for _ in range(6):
            params = [rng.fraction() for _ in range(chart.param_count)]
            core = chart.shift + eval_chart(chart.inner, params[outer_count:])
            assert eval_chart(chart, params) == conjugate(outer_factors, params, core)

    def test_rejects_pure_cases(self, sl3):
        with pytest.raises(ValueError):
            chart_mixed(sl3.element_from_matrix(diag_matrix([1, 1, -2])), 42)
        with pytest.raises(ValueError):
            chart_mixed(sl3.element_from_matrix(elem(3, 0, 1)), 42)


_SPLIT_DIAGONALS = [
    ("sl", [1, 0, -1]), ("sl", [2, -1, -1]),
    ("sl", [1, 1, -1, -1]), ("sl", [3, -1, -1, -1]), ("sl", [2, 1, 0, -3]),
    ("sl", [1, 1, 1, -1, -2]), ("sl", [2, 1, 0, -1, -2]),
    ("so", [1, 0, 0, 0, -1]), ("so", [2, 1, 0, -1, -2]),
    ("so", [1, 1, 0, 0, -1, -1]), ("so", [2, 1, 0, 0, -1, -2]),
    ("sp", [1, 0, 0, -1]), ("sp", [2, 1, -1, -2]),
]


def _split_elements():
    """Elements with x_s != 0: the mixed corpus, sl3-sl5, so5, so6 and sp4
    diagonals, and a conjugated sl4 diagonal."""
    cases = [pytest.param(*mixed_element(*p.values), id=p.id) for p in mixed_corpus()]
    for family, values in _SPLIT_DIAGONALS:
        algebra = build_classical(family, len(values))
        cases.append(pytest.param(algebra, algebra.element_from_matrix(diag_matrix(values)),
                                  id=f"{family}{len(values)}-diag" + ",".join(map(str, values))))
    sl4 = build_classical("sl", 4)
    u, u_inv = unit_bidiagonal([1, 2, 3])
    cases.append(pytest.param(
        sl4, sl4.element_from_matrix(u * diag_matrix([3, 1, -1, -3]) * u_inv),
        id="sl4-conjugated-diag3,1,-1,-3"))
    return cases


@pytest.mark.parametrize("algebra, x", _split_elements())
def test_witness_zero_piece_is_the_centralizer_of_x_s(algebra, x):
    """The witness grading's zero piece spans c(x_s), which the construction
    guarantees and `_chart_from_split` therefore does not check again."""
    chart = build_chart(x, 42)
    assert chart.case_tag in ("semisimple", "mixed")
    x_s = algebra.element_from_matrix(chart.shift)
    assert _zero_piece_matches(chart.parabolic.grading, chart.shift,
                               len(kernel_basis(ad_matrix(x_s))))


class TestAlgebraFromElement:
    """Every call reads the algebra off its element: the nilpotent part of
    a mixed sl5 element, taken in the Levi c(x_s), is charted, split and
    graded inside that Levi."""

    @pytest.fixture(scope="class")
    def levi_case(self):
        x = element(build_classical("sl", 5), [
            [1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 0],
            [0, 0, 0, -1, 0], [0, 0, 0, 0, -1]])
        pair = jordan_decompose(x)
        levi = centralizer_basis(pair.semisimple)
        return x, levi, levi.element_from_matrix(pair.nilpotent.matrix)

    def test_nilpotent_chart_in_the_levi_is_the_inner_chart(self, levi_case):
        x, levi, y = levi_case
        chart, inner = chart_nilpotent(y), build_chart(x, 42).inner
        assert chart.algebra is levi
        assert chart.factors == inner.factors
        assert chart.slice_basis == inner.slice_basis
        assert chart.slice_base == inner.slice_base

    def test_ad_split_and_grading_stay_in_the_levi(self, levi_case):
        _, levi, y = levi_case
        ad_y = ad_matrix(y)
        assert (ad_y.rows, ad_y.cols) == (levi.dim, levi.dim)
        pair = jordan_decompose(y)
        assert pair.semisimple.algebra is levi and pair.nilpotent.algebra is levi
        assert grading_by(jacobson_morozov(y).h).algebra is levi


class TestDerivedFields:
    def test_case_tag_read_from_the_shape(self, sl2):
        e, h = element(sl2, [[0, 1], [0, 0]]), element(sl2, [[1, 0], [0, -1]])
        lower, upper = elem(2, 1, 0), elem(2, 0, 1)
        nil = OrbitChart(e, ((lower,),), None, (upper,), (F(1),), None)
        semisimple = OrbitChart(h, ((lower,), (upper,)), h.matrix, (), (), None)
        mixed = OrbitChart(h, ((lower,), (upper,)), h.matrix, (), (), nil)
        assert [c.case_tag for c in (nil, semisimple, mixed)] == \
            ["nilpotent", "semisimple", "mixed"]

    def test_expected_orbit_dim_follows_the_factors(self, sl3):
        chart = chart_nilpotent(sl3.element_from_matrix(elem(3, 0, 2)))
        assert chart_to_json(chart)["expected_orbit_dim"] == chart.param_count == 4
        shorter = replace(chart, factors=())
        assert (chart_to_json(shorter)["expected_orbit_dim"] == shorter.param_count
                == len(chart.slice_basis))

    def test_charts_and_gradings_are_frozen(self, sl3):
        # a chart derives its supports once from its flat fields, so no
        # field of it, of its parabolic data or of their grading can be
        # reassigned; `replace` builds a new chart with supports of its own
        x = sl3.element_from_matrix(M([[1, 1, 0], [0, 1, 0], [0, 0, -2]]))
        chart = build_chart(x, 42)
        params = (F(1),) * chart.param_count
        value = eval_chart(chart, params)
        pd = chart.parabolic
        for obj, name, new in ((chart, "factors", chart.factors[::-1]), (pd, "u2", ()),
                               (pd.grading, "pieces", {})):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, new)
        assert eval_chart(chart, params) == value
        swapped = replace(chart, factors=chart.factors[::-1])
        assert eval_chart(swapped, params) != value


# so5, so6 and sp4 charts, nilpotent and semisimple, and an sl4 mixed chart,
# whose three factors make S_f differ from the identity for the first two
DERIVATIVE_CASES = {
    "so5-nilpotent": ("so", 5, elem(5, 0, 1) - elem(5, 3, 4) + elem(5, 1, 2) - elem(5, 2, 3)),
    "so5-semisimple": ("so", 5, diag_matrix([2, 1, 0, -1, -2])),
    "so6-nilpotent": ("so", 6, elem(6, 0, 1) - elem(6, 4, 5) + elem(6, 1, 2) - elem(6, 3, 4)),
    "so6-semisimple": ("so", 6, diag_matrix([2, 1, 1, -1, -1, -2])),
    "sp4-nilpotent": ("sp", 4, M([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1], [0, 0, 0, 0]])),
    "sp4-semisimple": ("sp", 4, diag_matrix([2, 1, -1, -2])),
    "sl4-mixed": ("sl", 4, diag_matrix([1, 1, -1, -1]) + elem(4, 0, 1)),
}


@functools.lru_cache(maxsize=None)
def derivative_chart(label):
    """The chart (seed 42) of a `DERIVATIVE_CASES` element."""
    family, n, m = DERIVATIVE_CASES[label]
    algebra = build_classical(family, n)
    chart = build_chart(algebra.element_from_matrix(m), 42)
    assert chart.case_tag == label.split("-")[1]
    return chart


class TestEvalChart:
    def test_param_count_mismatch(self, sl2):
        e = element(sl2, [[0, 1], [0, 0]])
        chart = chart_nilpotent(e)
        with pytest.raises(ValueError):
            eval_chart(chart, (1, 2, 3))

    def test_build_chart_dispatch(self, sl3):
        zero = sl3.zero_element()
        with pytest.raises(ValueError):
            build_chart(zero, 42)
        nil = build_chart(sl3.element_from_matrix(elem(3, 0, 2)), 42)
        assert nil.case_tag == "nilpotent"
        ss = build_chart(sl3.element_from_matrix(diag_matrix([1, 1, -2])), 42)
        assert ss.case_tag == "semisimple"
        mixed = build_chart(
            sl3.element_from_matrix(diag_matrix([1, 1, -2]) + elem(3, 0, 1)), 42)
        assert mixed.case_tag == "mixed"

    def test_float_parameter_rejected(self, sl3):
        chart = chart_nilpotent(sl3.element_from_matrix(elem(3, 0, 2)))
        with pytest.raises(TypeError):
            eval_chart(chart, [0.5, 1, 1, 1])
        with pytest.raises(TypeError):
            eval_chart_with_derivatives(chart, [1, 1, 1, 0.5])

    def test_rational_string_parameter_accepted(self, sl3):
        chart = chart_nilpotent(sl3.element_from_matrix(elem(3, 0, 2)))
        want = eval_chart(chart, [F(1, 3), 1, 1, 1])
        assert eval_chart(chart, ["1/3", 1, 1, 1]) == want
        assert eval_chart_with_derivatives(chart, ["1/3", 1, 1, 1])[0] == want

    def test_derivatives_match_dual_number_evaluation(self, sl3):
        for x_rows, builder in [
            ([[0, 0, 1], [0, 0, 0], [0, 0, 0]], lambda x: chart_nilpotent(x)),
            ([[1, 0, 0], [0, 1, 0], [0, 0, -2]], lambda x: chart_semisimple(x, 42)),
            ([[1, 1, 0], [0, 1, 0], [0, 0, -2]], lambda x: chart_mixed(x, 42)),
        ]:
            chart = builder(element(sl3, x_rows))
            rng = SplitMix64(33)
            assert_dual_number_derivatives(
                chart, [rng.fraction() for _ in range(chart.param_count)])

    @pytest.mark.parametrize("label", sorted(DERIVATIVE_CASES))
    def test_derivatives_on_built_charts(self, label):
        chart = derivative_chart(label)
        rng = SplitMix64(41)
        assert_dual_number_derivatives(chart, chart.base_params)
        for _ in range(2):
            assert_dual_number_derivatives(
                chart, [rng.fraction() for _ in range(chart.param_count)])

    def test_derivative_past_vanishing_power_derivative(self):
        # a = J (regular lower nilpotent, n = 5) and b = E31 - E42 + E53
        # anticommute, so d(a^2) = ab + ba = 0 while d(a^3) = a^2 b = E51 != 0
        sl5 = build_classical("sl", 5)
        jay = sum((elem(5, i + 1, i) for i in range(1, 4)), elem(5, 1, 0))
        b = elem(5, 2, 0) - elem(5, 3, 1) + elem(5, 4, 2)
        assert jay * b + b * jay == RatMatrix.zeros(5, 5)
        x = sl5.element_from_matrix(diag_matrix([1, 0, 0, 0, -1]))
        chart = OrbitChart(x, ((jay, b),), x.matrix, (), (), None)
        assert_dual_number_derivatives(chart, [F(1), F(0)])


def _dual_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), DualNumber(0)) for col in zip(*b)]
            for row in a]


def _dual_chart_value(chart, params):
    """The chart formula Ad(exp a_1 ... exp a_m)(shift + sum_j v_j s_j),
    a_f = sum_i t_(f,i) b_(f,i), on dual-number row lists; it shares no code
    with the library's evaluator."""
    n = chart.algebra.ambient_size
    ident = [[DualNumber(int(i == j)) for j in range(n)] for i in range(n)]

    def combine(start, coeffs, mats):
        for c, m in zip(coeffs, mats):
            start = [[x + c * y for x, y in zip(r, mr)] for r, mr in zip(start, m.row_lists())]
        return start

    def exp(a, sign):  # sum over k < n of (sign a)^k / k!; a is nilpotent
        term = total = ident
        for k in range(1, n):
            term = [[x * F(sign, k) for x in row] for row in _dual_mul(term, a)]
            total = [[x + y for x, y in zip(r, tr)] for r, tr in zip(total, term)]
        return total

    zero = [[DualNumber(0)] * n for _ in range(n)]
    g = g_inv = ident
    pos = 0
    for basis in chart.factors:
        a = combine(zero, params[pos:pos + len(basis)], basis)
        pos += len(basis)
        g, g_inv = _dual_mul(g, exp(a, 1)), _dual_mul(exp(a, -1), g_inv)
    shift = zero if chart.shift is None else chart.shift.row_lists()
    core = combine(shift, params[pos:], chart.slice_basis)
    return _dual_mul(_dual_mul(g, core), g_inv)


def assert_dual_number_derivatives(chart, params):
    """eval_chart_with_derivatives against the chart formula evaluated at one
    dual-number perturbation per parameter (epsilon^2 = 0)."""
    value, derivs = eval_chart_with_derivatives(chart, params)
    assert value == eval_chart(chart, params)
    for j in range(chart.param_count):
        dual_params = [DualNumber(p, F(1) if i == j else F(0)) for i, p in enumerate(params)]
        rows = _dual_chart_value(chart, dual_params)
        assert M([[c.value for c in row] for row in rows]) == value
        assert M([[c.epsilon for c in row] for row in rows]) == derivs[j]


CASES = {
    "nilpotent": [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    "semisimple": [[1, 0, 0], [0, 1, 0], [0, 0, -2]],
    "mixed": [[1, 1, 0], [0, 1, 0], [0, 0, -2]],
}


def _upper(rows, cols):
    """JSON of a rows x cols matrix with ones above the diagonal."""
    return [[str(int(i < j)) for j in range(cols)] for i in range(rows)]


def _on(case, mutate):
    """A mutation that swaps in the sl3 chart JSON of ``case``, then applies
    ``mutate`` to it."""
    def swap(data):
        sl3 = build_classical("sl", 3)
        data.clear()
        data.update(chart_to_json(build_chart(element(sl3, CASES[case]), 42)))
        mutate(data)
    return swap


class TestChartSerialization:
    @pytest.mark.parametrize("case", ["nilpotent", "semisimple", "mixed"])
    def test_round_trip_evaluates_identically(self, sl3, case):
        x = element(sl3, CASES[case])
        chart = build_chart(x, 42)
        data = chart_to_json(chart)
        rebuilt = chart_from_json(sl3, data)
        assert rebuilt.case_tag == case
        assert rebuilt.param_count == chart.param_count
        assert eval_chart(rebuilt, rebuilt.base_params) == x.matrix
        rng = SplitMix64(37)
        params = [rng.fraction() for _ in range(chart.param_count)]
        assert eval_chart(rebuilt, params) == eval_chart(chart, params)

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d.update(inner=None), "inner"),
        (lambda d: d.pop("factors"), "factors"),
        (lambda d: d.update(factors="abc"), "factors"),
        (lambda d: d.update(factors=[{"basis": None}]), "factors"),
        (lambda d: d.pop("case_tag"), "case_tag"),
        (lambda d: d.update(base_element=[]), "base_element"),
        (lambda d: d.update(slice_basis=None), "slice_basis"),
        (lambda d: d.update(expected_orbit_dim="6"), "expected_orbit_dim"),
        pytest.param(_on("nilpotent", lambda d: d["factors"][0]["basis"].__setitem__(0, _upper(4, 4))),
                     "factors", id="nilpotent-factor-4x4"),
        pytest.param(_on("nilpotent", lambda d: d["factors"][0]["basis"].__setitem__(0, _upper(2, 2))),
                     "factors", id="nilpotent-factor-2x2"),
        pytest.param(_on("nilpotent", lambda d: d["factors"][0]["basis"].__setitem__(0, _upper(1, 9))),
                     "factors", id="nilpotent-factor-1x9"),
        pytest.param(_on("nilpotent", lambda d: d["slice_basis"].__setitem__(0, _upper(2, 2))),
                     "slice_basis", id="nilpotent-slice-2x2"),
        pytest.param(_on("semisimple", lambda d: d["slice_basis"].__setitem__(0, _upper(4, 4))),
                     "slice_basis", id="semisimple-shift-4x4"),
        pytest.param(lambda d: d["inner"]["factors"][0]["basis"].__setitem__(0, _upper(2, 2)),
                     "factors", id="mixed-inner-factor-2x2"),
        # E20 lies in sl3 but not in the Levi c(x_s) of the inner chart
        pytest.param(lambda d: d["inner"]["factors"][0]["basis"].__setitem__(
            0, matrix_to_json(elem(3, 2, 0))), "factors", id="mixed-inner-factor-outside-levi"),
    ])
    def test_malformed_shape_raises_value_error(self, sl3, mutate, field):
        data = chart_to_json(build_chart(element(sl3, CASES["mixed"]), 42))
        mutate(data)
        with pytest.raises(ValueError, match=f"'{field}'"):
            chart_from_json(sl3, data)

    @pytest.mark.parametrize("case, mutate, message", [
        ("nilpotent", lambda d: ["not", "a", "chart"], "chart JSON must be an object"),
        ("nilpotent", lambda d: dict(d, case_tag="regular"), "unknown case tag 'regular'"),
        ("semisimple", lambda d: dict(d, slice_basis=[]),
         "semisimple chart needs exactly one slice matrix, the shift"),
        ("mixed", lambda d: dict(d, slice_basis=d["slice_basis"] * 2),
         "mixed chart needs exactly one slice matrix, the shift"),
    ], ids=["not-an-object", "unknown-case-tag", "semisimple-without-shift",
            "mixed-with-two-shifts"])
    def test_refusal_message(self, sl3, case, mutate, message):
        data = mutate(chart_to_json(build_chart(element(sl3, CASES[case]), 42)))
        with pytest.raises(ValueError) as excinfo:
            chart_from_json(sl3, data)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("depth", [2, 2000])
    def test_non_nilpotent_inner_chart_refused_before_descending(self, sl2, depth):
        # sl2 semisimple chart JSON relabelled "mixed", nested depth times
        # around a nilpotent chart: each level used to build a Levi and
        # recurse, so 2000 levels raised RecursionError
        semisimple = chart_to_json(build_chart(element(sl2, [[1, 0], [0, -1]]), 42))
        data = chart_to_json(build_chart(element(sl2, [[0, 1], [0, 0]]), 42))
        for _ in range(depth):
            data = dict(semisimple, case_tag="mixed", inner=data)
        with pytest.raises(ValueError, match="'inner'"):
            chart_from_json(sl2, data)

    def test_factor_outside_the_algebra_refused(self):
        # E10 is nilpotent and spans a nilpotent subalgebra with the other
        # matrix of the factor, but lies outside so4: the chart's values
        # left so4, and only rebuilt_chart_identity failed in verify_chart
        so4 = build_classical("so", 4)
        upper = sum((b for b in so4.basis
                     if all(not b.at(i, j) for i in range(4) for j in range(i + 1))),
                    RatMatrix.zeros(4, 4))
        data = chart_to_json(build_chart(so4.element_from_matrix(upper), 42))
        data["factors"][0]["basis"][0] = matrix_to_json(elem(4, 1, 0))
        with pytest.raises(ValueError, match="'factors'.*so4"):
            chart_from_json(so4, data)

    @pytest.mark.parametrize("values, factor, defect", [
        # a = t1 E21 + t2 E32 + t3 E13 has a^3 != 0: verify_chart used to
        # raise NotNilpotentError from the exponential instead of reporting
        ([1, 0, -1], [(1, 0), (2, 1), (0, 2)], "nilpotent"),
        # nilpotent, but [E21, E32] = -E31 leaves the span
        ([1, 1, -2], [(1, 0), (2, 1)], "bracket-closed"),
    ], ids=["not-nilpotent", "not-closed"])
    def test_factor_span_not_nilpotent_subalgebra_refused(self, sl3, values, factor,
                                                          defect):
        data = chart_to_json(build_chart(sl3.element_from_matrix(diag_matrix(values)), 42))
        assert len(data["factors"][0]["basis"]) == len(factor)
        data["factors"][0]["basis"] = [matrix_to_json(elem(3, i, j)) for i, j in factor]
        with pytest.raises(ValueError, match=f"'factors'.*not {defect}"):
            chart_from_json(sl3, data)

    @pytest.mark.parametrize("case", ["nilpotent", "semisimple", "mixed"])
    def test_orbit_dim_mismatch_rejected(self, sl3, case):
        data = chart_to_json(build_chart(element(sl3, CASES[case]), 42))
        data["expected_orbit_dim"] += 1
        with pytest.raises(ValueError, match="orbit dimension"):
            chart_from_json(sl3, data)

    @pytest.mark.parametrize("case", ["nilpotent", "semisimple", "mixed"])
    def test_base_matrix_mismatch_rejected(self, sl3, case):
        # E31 lies outside the nilpotent slice, and the base tuple of the
        # other charts evaluates to the unchanged element
        data = chart_to_json(build_chart(element(sl3, CASES[case]), 42))
        rows = [[str(F(c) + (1 if (i, j) == (2, 0) else 0)) for j, c in enumerate(row)]
                for i, row in enumerate(CASES[case])]
        data["base_element"]["matrix"] = rows
        with pytest.raises(ValueError, match="base element"):
            chart_from_json(sl3, data)
