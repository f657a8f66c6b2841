"""The exact Jacobian rank of the verify checks, and the exact derivatives.

`verify._jacobian_rank` ranks the chart's differential through its columns
conjugated by S_k g^-1, with S_k the product of the exponentials after
factor k: k = m, the g^-1 frame, for a chart with a slice, and k = m - 1 for
one without. Each factor basis element gives one bracket with the partial
value Ad(S_k) core, and the slice elements are taken as they are. The tests
compare that rank with the exact rank of the
`eval_chart_with_derivatives` columns: on hand-made sl2 and sl3 charts whose
columns vanish, coincide or carry a denominator modulo a small prime, on a
chart with a genuine rank deficit, on a three-factor sl2 chart whose rank
depends on conjugating by the later factors, on a two-factor sl2 chart whose
rank depends on bracketing with Ad(S_1) core rather than the core, on a
two-factor sl3 chart with a slice, and on a sweep of built charts; a
chart read from JSON with neither factor nor slice has rank 0. A spy
counts the conjugations a base-point rank of a built chart makes. On the
sweep the rank also equals that of the g^-1 frame rows in parameter order
(`conftest.g_inverse_frame_rank`), and the exact bracket-form derivatives
match digests recorded from the suffix-product derivative pass they
replaced. The power walk of the verify checks, `verify._power_walk`, gives
the power sums and the ranks of the powers, and its power sums are equal
exactly when the characteristic polynomials are.

A report and `verify.jacobian_rank_at` rank in one `verify._RankFrame`:
columns in the weight order of the chart's diagonal grading elements (a
mixed chart's by the pair of z and h weights, which is the order of the
one weight of K z + h, or by the weight of the one of them that is
diagonal), and the factor blocks that the later factors normalize left
unconjugated (`charts._plain_blocks`). The other tests here rank with
`conftest.UNFRAMED`, no order and no plain block. The framed rank equals
the g^-1 frame rank on built and read-back charts over the sl, so and sp
corpora, and so do the rank in the reversed column order and the rank of
`jacobian_rank_at`; the plain blocks of a mixed chart are u and the
inner factor, and a block that is not plain keeps a conjugation whose
loss would drop the rank.
"""

import functools
import hashlib
import json
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import pytest

from conftest import (
    CAYLEY_KINDS,
    UNFRAMED,
    cayley_base,
    cayley_element,
    diag_matrix,
    elem,
    g_inverse_frame_rank,
    jordan_nilpotent,
    matrix_power,
    mixed_corpus,
    mixed_element,
    nontrivial_partitions,
    power_walk_corpus,
    spy_everywhere,
    unit_bidiagonal,
)
from orbitcharts import charts, linalg, verify
from orbitcharts.charts import (
    OrbitChart,
    _value_pass,
    build_chart,
    chart_from_json,
    chart_to_json,
    eval_chart,
    eval_chart_with_derivatives,
)
from orbitcharts.liealg import build_classical
from orbitcharts.linalg import (
    Polynomial,
    RatMatrix,
    _is_diagonal,
    _powers,
    _span_rank,
    char_poly,
    commutator,
    matrix_to_json,
    rank,
)
from orbitcharts.rng import SplitMix64

F = Fraction
GOLDEN = Path(__file__).parent / "golden"
H = diag_matrix([1, -1])
SWEEP_SEED = 606


def _sl2_chart(*factor_bases):
    """A hand-made sl2 chart on the shift h, one factor per given matrix."""
    sl2 = build_classical("sl", 2)
    x = sl2.element_from_matrix(H)
    return OrbitChart(x, tuple((b,) for b in factor_bases), H, (), (), None)


def _exact_rank(chart, params):
    _, derivs = eval_chart_with_derivatives(chart, params)
    return rank(RatMatrix.from_rows([d.entries for d in derivs]))


@pytest.fixture
def rank_calls(monkeypatch):
    """The number of columns of each elimination `verify` runs through
    `_span_rank`."""
    calls = []
    real = verify._span_rank

    def spy(columns):
        calls.append(len(columns))
        return real(columns)

    monkeypatch.setattr(verify, "_span_rank", spy)
    return calls


class TestFallback:
    """Charts whose columns vanish, coincide or carry a denominator modulo a
    small prime: no modulus enters the rank, so each point is one exact
    elimination of its columns."""

    def test_column_vanishing_mod_prime(self, rank_calls):
        # [7 E21, h] = 14 E21 is zero mod 7
        chart = _sl2_chart(elem(2, 1, 0, 7), elem(2, 0, 1))
        vp = _value_pass(chart, (F(0), F(0)))
        assert verify._jacobian_rank(chart, vp, UNFRAMED) == 2 == _exact_rank(chart, (0, 0))
        assert rank_calls == [2]

    def test_columns_dependent_mod_prime(self, rank_calls):
        # columns 2 E21 and 2 E21 - 14 E12: independent over Q, not mod 7
        chart = _sl2_chart(elem(2, 1, 0), elem(2, 1, 0) + elem(2, 0, 1, 7))
        vp = _value_pass(chart, (F(0), F(0)))
        assert verify._jacobian_rank(chart, vp, UNFRAMED) == 2 == _exact_rank(chart, (0, 0))
        assert rank_calls == [2]

    def test_basis_denominator_divisible_by_prime(self, rank_calls):
        chart = _sl2_chart(elem(2, 1, 0, F(1, 7)), elem(2, 0, 1))
        vp = _value_pass(chart, (F(0), F(0)))
        assert verify._jacobian_rank(chart, vp, UNFRAMED) == 2 == _exact_rank(chart, (0, 0))
        assert rank_calls == [2]

    def test_parameter_denominator_divisible_by_prime(self, rank_calls):
        # exp(E21 / 7) carries the denominator into the value pass
        chart = _sl2_chart(elem(2, 1, 0), elem(2, 0, 1))
        vp = _value_pass(chart, (F(1, 7), F(0)))
        assert verify._jacobian_rank(chart, vp, UNFRAMED) == 2 == _exact_rank(chart, (F(1, 7), 0))
        assert rank_calls == [2]

    def test_factorial_divisible_by_prime(self):
        # 1/2! enters dexp of the regular nilpotent factor of sl3
        sl3 = build_classical("sl", 3)
        x = sl3.element_from_matrix(diag_matrix([1, 0, -1]))
        lower = elem(3, 1, 0) + elem(3, 2, 1)
        chart = OrbitChart(x, ((lower,),), x.matrix, (), (), None)
        vp = _value_pass(chart, (F(1),))
        assert verify._jacobian_rank(chart, vp, UNFRAMED) == 1 == _exact_rank(chart, (1,))

    @pytest.mark.parametrize("denominator", [7, 2 ** 61 - 1])
    def test_genuine_deficit_reports_exact_rank(self, denominator, rank_calls):
        # E21 and 2*E21 give rank 1 at every point, with small or large
        # denominators in the parameters alike
        chart = _sl2_chart(elem(2, 1, 0), elem(2, 1, 0, 2))
        params = (F(1, denominator), F(-2, 3))
        vp = _value_pass(chart, params)
        assert verify._jacobian_rank(chart, vp, UNFRAMED) == 1 == _exact_rank(chart, params)
        assert rank_calls == [2]

    def test_verify_ranks_each_point_once(self, rank_calls):
        sl3 = build_classical("sl", 3)
        x = sl3.element_from_matrix(diag_matrix([1, 1, -2]) + elem(3, 0, 1))
        report = verify.verify_chart(x, build_chart(x, 42), 42, 5)
        assert report.check("jacobian_rank_base").observed == 6
        assert report.check("jacobian_rank_samples").observed == [6] * 5
        # first the inner tangent check, [e, b] for the 3 matrices b of the
        # inner p, then one elimination per point
        assert rank_calls == [3] + [6] * 6


def test_factor_columns_conjugated_by_later_factors(rank_calls):
    # on e = E12 with factors E12, E21, E12 the rank at (1, 1, 1) is 2; it
    # drops to 1 if a factor column skips S_f, conjugates by S_f the other
    # way, or multiplies S_f in the other order
    sl2 = build_classical("sl", 2)
    e = elem(2, 0, 1)
    chart = OrbitChart(sl2.element_from_matrix(e),
                       ((e,), (elem(2, 1, 0),), (e,)), e, (), (), None)
    params = (F(1), F(1), F(1))
    assert verify._jacobian_rank(chart, _value_pass(chart, params), UNFRAMED) == 2
    assert _exact_rank(chart, params) == 2
    assert rank_calls == [3]


def test_semisimple_chart_brackets_with_the_conjugated_core(rank_calls):
    # on e = E12 with factors E12, E21 at (0, 1) the rows are [b, C] for
    # b = E12, E21 and C = Ad(exp E21) e, of rank 2; brackets with the
    # core e itself would have rank 1
    sl2 = build_classical("sl", 2)
    e, f = elem(2, 0, 1), elem(2, 1, 0)
    chart = OrbitChart(sl2.element_from_matrix(e), ((e,), (f,)), e, (), (), None)
    params = (F(0), F(1))
    vp = _value_pass(chart, params)
    assert verify._jacobian_rank(chart, vp, UNFRAMED) == 2 == _exact_rank(chart, params)
    assert rank_calls == [2]
    assert _span_rank([commutator(b, e).nums for b in (e, f)]) == 1


def test_two_factor_chart_with_a_slice():
    # factors E21 and E32 and slice E13 in sl3: a chart with a slice is
    # ranked in the g^-1 frame, whatever number of factors it has
    sl3 = build_classical("sl", 3)
    e13 = elem(3, 0, 2)
    chart = OrbitChart(sl3.element_from_matrix(e13), ((elem(3, 1, 0),), (elem(3, 2, 1),)),
                       None, (e13,), (F(1),), None)
    for params in ((F(0), F(0), F(1)), (F(1), F(-2), F(3)), (F(1, 3), F(2), F(-1, 2))):
        vp = _value_pass(chart, params)
        assert verify._jacobian_rank(chart, vp, UNFRAMED) == 3 == _exact_rank(chart, params) \
            == g_inverse_frame_rank(chart, vp), params


def test_chart_without_factor_or_slice():
    # a chart made with `OrbitChart` may have no factor and no slice (chart
    # JSON of the zero element is refused); its differential has no column,
    # and there is no last factor to leave out
    sl2 = build_classical("sl", 2)
    chart = OrbitChart(sl2.zero_element(), (), None, (), (), None)
    assert verify.jacobian_rank_at(chart, ()) == 0


@pytest.mark.parametrize("rows, ranked, expected", [
    (jordan_nilpotent(4, (4,)), "unframed", 0),
    (diag_matrix([1, 1, -1, -1]), "unframed", 0),
    (diag_matrix([1, 1, -1, -1]) + elem(4, 0, 1), "unframed", 8),
    (diag_matrix([1, 1, -1, -1]) + elem(4, 0, 1), "report", 4),
    (diag_matrix([1, 1, -1, -1]) + elem(4, 0, 1), "library", 4),
], ids=["regular-nilpotent", "semisimple", "mixed", "mixed-framed", "mixed-library"])
def test_conjugations_of_a_base_point_rank(monkeypatch, rows, ranked, expected):
    """The conjugations by a product of exponentials that one rank at the
    base point makes on sl4 charts: none on the nilpotent and semisimple
    charts, and, with no plain block, one per basis element of the mixed
    chart's outer u- and u (factor sizes 4, 4, 1). Ranking every chart in
    the g^-1 frame would conjugate the semisimple chart's u- block, and
    ranking every chart in the frame S_1 would conjugate the mixed chart's
    inner factor and slice. In its report's frame, which
    `verify.jacobian_rank_at` takes too, the mixed chart conjugates u-
    only, since the inner factor normalizes u."""
    sl4 = build_classical("sl", 4)
    chart = build_chart(sl4.element_from_matrix(rows), 42)
    vp = _value_pass(chart, chart.base_params)
    frame = verify._rank_frame(chart, chart) if ranked == "report" else UNFRAMED
    conjugations = []
    real = charts._conjugate

    def spy(p, y, p_inv):
        if p is not None:
            conjugations.append(y)
        return real(p, y, p_inv)

    monkeypatch.setattr(charts, "_conjugate", spy)
    if ranked == "library":
        assert verify.jacobian_rank_at(chart, chart.base_params) == chart.param_count
    else:
        assert verify._jacobian_rank(chart, vp, frame) == chart.param_count
    assert len(conjugations) == expected


def _sweep_elements():
    """(label, family, n, matrix): sl3-sl6 nilpotent, semisimple and mixed
    elements, then so5, so6 and sp4 elements."""
    out = []
    sl_cases = {
        3: ((3,), (1, 1, -2)),
        4: ((2, 2), (1, 1, -1, -1)),
        5: ((3, 2), (2, 2, -1, -1, -2)),
        6: ((4, 2), (1, 1, 1, -1, -1, -1)),
    }
    for n, (partition, diag) in sl_cases.items():
        out.append((f"sl{n}-nilpotent", "sl", n, jordan_nilpotent(n, partition)))
        out.append((f"sl{n}-semisimple", "sl", n, diag_matrix(diag)))
        out.append((f"sl{n}-mixed", "sl", n, diag_matrix(diag) + elem(n, 0, 1)))
    out += [
        ("so5-semisimple", "so", 5, diag_matrix([1, 1, 0, -1, -1])),
        ("so6-semisimple", "so", 6, diag_matrix([2, 1, 1, -1, -1, -2])),
        ("so6-nilpotent", "so", 6,
         elem(6, 0, 1) - elem(6, 4, 5) + elem(6, 1, 2) - elem(6, 3, 4)),
        ("sp4-semisimple", "sp", 4, diag_matrix([2, 1, -1, -2])),
        ("sp4-nilpotent", "sp", 4,
         RatMatrix.from_rows([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1], [0, 0, 0, 0]])),
    ]
    return out


SWEEP = {label: (family, n, m) for label, family, n, m in _sweep_elements()}


@functools.lru_cache(maxsize=None)
def sweep_chart(label):
    """The chart (seed 42) of a sweep element."""
    family, n, m = SWEEP[label]
    algebra = build_classical(family, n)
    return build_chart(algebra.element_from_matrix(m), 42)


def sweep_points(chart):
    """(point name, parameter tuple): the base tuple, then two seeded random tuples."""
    rng = SplitMix64(SWEEP_SEED)
    points = [("base", chart.base_params)]
    for i in range(2):
        points.append((f"random{i}",
                       tuple(rng.fraction() for _ in range(chart.param_count))))
    return points


def derivative_digest(derivs) -> str:
    """sha256 of the exact derivative matrices in canonical JSON."""
    text = json.dumps([matrix_to_json(d) for d in derivs])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("label", list(SWEEP))
def test_sweep_mod_p_rank_equals_exact_rank(label):
    digests = json.loads((GOLDEN / "jacobian_sweep_derivatives.json").read_text("utf-8"))
    chart = sweep_chart(label)
    for name, params in sweep_points(chart):
        _, derivs = eval_chart_with_derivatives(chart, params)
        assert derivative_digest(derivs) == digests[f"{label}/{name}"], name
        exact = rank(RatMatrix.from_rows([d.entries for d in derivs]))
        vp = _value_pass(chart, tuple(F(p) for p in params))
        assert verify._jacobian_rank(chart, vp, UNFRAMED) == exact \
            == g_inverse_frame_rank(chart, vp), name


def _assert_power_walk(m):
    """`verify._power_walk` gives tr(m^k) for k = 1 .. n and rank(m^k) for
    k = 1 .. n-1."""
    sums, ranks = verify._power_walk(m, True)
    assert sums == [matrix_power(m, k).trace() for k in range(1, m.rows + 1)]
    assert ranks == [rank(matrix_power(m, k)) for k in range(1, m.rows)]
    assert verify._power_walk(m, False) == (sums, None)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_power_ranks_of_sl_nilpotents(n):
    for part in nontrivial_partitions(n):
        _assert_power_walk(jordan_nilpotent(n, part))
    _assert_power_walk(RatMatrix.zeros(n, n))


@pytest.mark.parametrize("label", list(SWEEP))
def test_power_ranks_of_chart_values(label):
    """On the element and on chart values at random tuples (nilpotent for
    nilpotent charts, of every Jordan type the slice reaches)."""
    chart = sweep_chart(label)
    _assert_power_walk(chart.base_element.matrix)
    for _, params in sweep_points(chart)[1:]:
        _assert_power_walk(eval_chart(chart, params))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_power_chain_flag_is_char_poly_t_n(n):
    """The last power of the walk `linalg._powers`, which `_exp_series`
    reads, is zero exactly when
    char_poly(m) = t^n, the rule of `LieElement.is_nilpotent`, and the
    ranks and power sums of `verify._power_walk` are those of the powers."""
    t_n = Polynomial((0,) * n + (1,))
    sl_n = build_classical("sl", n)
    flags = set()
    for m in power_walk_corpus(n):
        nilpotent = _powers(m)[-1].is_zero()
        _, ranks = verify._power_walk(m, True)
        assert nilpotent == (char_poly(m) == t_n)
        if not m.trace():
            assert sl_n.element_from_matrix(m).is_nilpotent() == nilpotent
        assert nilpotent or all(ranks)
        _assert_power_walk(m)
        flags.add(nilpotent)
    assert flags == {False, True}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_power_sums_equal_exactly_when_char_poly_equal(n):
    """Over every pair of the corpus, the power sums tr(m^k), k = 1 .. n,
    that `char_poly_preserved` compares are equal exactly when the
    characteristic polynomials are (Newton's identities); the corpus has
    pairs of both kinds off the nilpotent cone, and pairs that differ in
    one power sum only."""
    corpus = power_walk_corpus(n)
    sums = [verify._power_walk(m, False)[0] for m in corpus]
    polys = [char_poly(m) for m in corpus]
    t_n = Polynomial((0,) * n + (1,))
    kinds = set()
    for i in range(len(corpus)):
        for j in range(i):
            same = polys[i] == polys[j]
            assert (sums[i] == sums[j]) == same, (i, j)
            if polys[i] != t_n:
                kinds.add(same)
    assert kinds == {False, True}


# ---------------------------------------------------------------------------
# The rank frame of a report
# ---------------------------------------------------------------------------


def _nil(chart):
    """The nilpotent chart (or inner chart) `verify_chart` samples from."""
    return chart if chart.case_tag == "nilpotent" else chart.inner


def _so_sp_elements(family, n):
    """(label, matrix): the sum of the strictly upper basis elements and
    diag(k, ..., 1, (0), -1, ..., -k) of so(n) or sp(n) (`cayley_base`)."""
    algebra = build_classical(family, n)
    return [(f"{family}{n}-upper", cayley_base(algebra, "nilpotent")),
            (f"{family}{n}-diagonal", cayley_base(algebra, "diagonal"))]


def _frame_corpus():
    """(label, family, n, matrix): every sl3-sl6 nilpotent Jordan type, sl3-sl6
    diagonals with repeated and distinct entries, the mixed corpus, so5,
    so6, sp4 and sp6 upper nilpotents and diagonals, so6 and sp6 mixed
    elements whose inner JM h alone is not diagonal, the dense Cayley
    conjugates of so5, so6, sp4 and sp6 elements of each kind
    (`cayley_element`), whose gradings are not diagonal, and a
    conjugated sl4 mixed element u (diag(1, 1, -1, -1) + E01) u^-1,
    whose witness and JM h are not diagonal."""
    out = []
    for n in (3, 4, 5, 6):
        for part in nontrivial_partitions(n):
            out.append((f"sl{n}-" + "".join(map(str, part)), "sl", n, jordan_nilpotent(n, part)))
        a = n // 2
        for values in ([n - 1 - 2 * i for i in range(n)], [1] * (n - 1) + [1 - n],
                       [n - a] * a + [-a] * (n - a)):
            out.append((f"sl{n}-diag" + ",".join(map(str, values)), "sl", n, diag_matrix(values)))
    for param in mixed_corpus():
        family, n = param.values[:2]
        out.append((param.id, family, n, mixed_element(*param.values)[1].matrix))
    for family, n in (("so", 5), ("so", 6), ("sp", 4), ("sp", 6)):
        out += [(label, family, n, m) for label, m in _so_sp_elements(family, n)]
    for family in ("so", "sp"):
        # diag(1, 1, 1, -1, -1, -1) plus the strictly upper basis elements that
        # commute with it, built as CI's so12 and sp12 mixed scale elements
        # are: the witness z is diagonal and the inner JM h is not
        out.append((f"{family}6-mixed-upper", family, 6,
                    cayley_base(build_classical(family, 6), "mixed")))
    for family, n in (("so", 5), ("so", 6), ("sp", 4), ("sp", 6)):
        algebra = build_classical(family, n)
        out += [(f"{family}{n}-cayley-{kind}", family, n,
                 cayley_element(algebra, kind, SplitMix64(5))) for kind in CAYLEY_KINDS]
    u, u_inv = unit_bidiagonal([1, -1, 2])
    out.append(("sl4-conjugated-mixed", "sl", 4,
                u * (diag_matrix([1, 1, -1, -1]) + elem(4, 0, 1)) * u_inv))
    return out


FRAME_CORPUS = {label: (family, n, m) for label, family, n, m in _frame_corpus()}


@functools.lru_cache(maxsize=None)
def frame_chart(label):
    """The chart (seed 42) of a frame corpus element."""
    family, n, m = FRAME_CORPUS[label]
    return build_chart(build_classical(family, n).element_from_matrix(m), 42)


def _frame_points(chart):
    """(on the orbit's chart domain, parameter tuple): the base tuple and
    three draws of the report's sampler, where the rank is full, then a
    seeded random tuple, whose slice point may lie off the open orbit."""
    draw = verify._sampler(chart, _nil(chart), SplitMix64(SWEEP_SEED))
    rng = SplitMix64(SWEEP_SEED + 1)
    return ([(True, chart.base_params)] + [(True, draw()) for _ in range(3)]
            + [(False, tuple(rng.fraction() for _ in range(chart.param_count)))])


@pytest.mark.parametrize("label", list(FRAME_CORPUS))
def test_framed_rank_equals_g_inverse_frame_rank(label):
    """The rank in the report's frame equals the g^-1 frame rank in
    parameter order, at the base tuple and at sampled tuples, for the
    built chart and for its JSON round trip ranked with the built chart
    as scaffold; a column order reversed from the frame's gives it too,
    and so does `verify.jacobian_rank_at`, which ranks the round trip in
    its own frame, with no order."""
    chart = frame_chart(label)
    n = chart.algebra.ambient_size
    read_back = chart_from_json(chart.algebra, json.loads(json.dumps(chart_to_json(chart))))
    reversed_order = itemgetter(*range(n * n - 1, -1, -1))
    for given in (chart, read_back):
        frame = verify._rank_frame(given, chart)
        backwards = verify._RankFrame(reversed_order, frame.plain)
        for sampled, params in _frame_points(chart):
            vp = _value_pass(given, params)
            want = g_inverse_frame_rank(given, vp)
            assert want == chart.param_count or not sampled
            assert verify._jacobian_rank(given, vp, frame) == want, params
            assert verify._jacobian_rank(given, vp, backwards) == want, params
            assert verify.jacobian_rank_at(given, params) == want, params


@pytest.mark.parametrize("label", list(FRAME_CORPUS))
def test_framed_rank_equals_derivative_rank(label):
    """The rank in the report's frame, where every column is a
    `commutator` that brackets through the support of a factor of at most
    n nonzeros and through the product loop otherwise, equals the rank of
    the columns `eval_chart_with_derivatives` forms, at the base tuple and
    two sampled tuples; so does the rank of the chart read back from JSON under
    `UNFRAMED`, on the chart's own factors. Mixed charts keep their u-
    block conjugated in both frames."""
    chart = frame_chart(label)
    read_back = chart_from_json(chart.algebra, json.loads(json.dumps(chart_to_json(chart))))
    frame = verify._rank_frame(chart, chart)
    if chart.case_tag == "mixed":
        assert 0 not in frame.plain
    for _, params in _frame_points(chart)[:3]:
        want = _exact_rank(chart, params)
        assert want == chart.param_count
        assert verify._jacobian_rank(chart, _value_pass(chart, params), frame) == want
        assert verify._jacobian_rank(read_back, _value_pass(read_back, params), UNFRAMED) == want


@pytest.mark.parametrize("label, frame, supported, dense", [
    ("sl4-1,1,-1,-1+E01", "report", 9, 0),
    ("sl4-1,1,-1,-1+E01", "unframed", 9, 0),
    ("sl6-diag5,3,1,-1,-3,-5", "report", 30, 0),
    ("sl5-32", "report", 10, 0),
    ("sp4-cayley-nilpotent", "report", 0, 4),
    ("sp4-cayley-mixed", "report", 3, 4),
])
def test_brackets_through_supports_and_commutator(monkeypatch, label, frame, supported, dense):
    """The brackets one base-point rank forms, every one a `commutator`,
    split by the loop it runs: through the support of a factor of at most
    n nonzeros (`linalg._support_bracket`) or through the product loop.
    At the base point every factor's exponential is 1, so a conjugated
    basis element keeps its support. The sl4 mixed chart (factor sizes 4,
    4, 1, single-entry bases) brackets all 9 columns through a support,
    in the report's frame (u- conjugated) and unframed (u- and u). The sl
    diagonal and nilpotent charts need no product loop. The Cayley sp4
    charts bracket their basis elements of more than 4 nonzeros through
    the product loop: all four of the nilpotent's u-, and on the mixed
    chart one of u-'s three, two of u's three and the inner factor's
    one."""
    chart = frame_chart(label)
    ranked = verify._rank_frame(chart, chart) if frame == "report" else UNFRAMED
    vp = _value_pass(chart, chart.base_params)
    through_supports = spy_everywhere(monkeypatch, linalg._support_bracket)
    brackets = spy_everywhere(monkeypatch, commutator)
    assert verify._jacobian_rank(chart, vp, ranked) == chart.param_count
    assert (len(through_supports), len(brackets) - len(through_supports)) == (supported, dense)


def test_frame_order_is_increasing_weight():
    """For the sl3 regular nilpotent, h = diag(2, 0, -2), the order takes
    the entries (a, b) by h_a - h_b, ties by position; the weight-0
    diagonal sits between the lower and the upper triangle."""
    chart = frame_chart("sl3-3")
    order = verify._rank_frame(chart, chart).order
    assert order(tuple(range(9))) == (6, 3, 7, 0, 4, 8, 1, 5, 2)


def _single_weight_order(chart):
    """The order of a mixed chart by the one weight of g = K z + h, K = 2
    max |h_a - h_b| + 1, with z or h taken as 0 when it is not diagonal,
    or None when it keeps every entry in place: h shifts no z weight past
    the next, since z is an integer matrix."""
    n = chart.algebra.ambient_size
    z, h = [m if _is_diagonal(m) else RatMatrix.zeros(n, n)
            for m in (c.parabolic.grading.grading_element.matrix
                      for c in (chart, chart.inner))]
    spread = h.nums[::n + 1]
    g = z.scale(2 * F(max(spread) - min(spread), h.den) + 1) + h
    d = g.nums[::n + 1]
    flat = tuple(sorted(range(n * n), key=lambda q: d[q // n] - d[q % n]))
    return None if flat == tuple(range(n * n)) else flat


@pytest.mark.parametrize("label", [p.id for p in mixed_corpus()]
                         + ["so6-mixed-upper", "sp6-mixed-upper", "sl4-conjugated-mixed"])
def test_mixed_frame_orders_by_z_then_h(label):
    """A mixed chart's entries go in increasing pairs (z weight, h weight)
    over the diagonal ones of z and h: the order of the single weight of
    K z + h, a non-diagonal one taken as 0."""
    chart = frame_chart(label)
    n = chart.algebra.ambient_size
    order = verify._rank_frame(chart, chart).order
    assert (order and order(tuple(range(n * n)))) == _single_weight_order(chart)


@pytest.mark.parametrize("label", ["so6-mixed-upper", "sp6-mixed-upper"])
def test_frame_orders_by_a_diagonal_witness_alone(label):
    """On so6 and sp6 mixed elements built as CI's so12 and sp12 ones, the
    witness z is diagonal and the inner JM h is not: the report's frame
    still orders the entries, by the z weights. Its rank is checked at
    `_frame_points` by `test_framed_rank_equals_g_inverse_frame_rank`."""
    chart = frame_chart(label)
    z, h = (c.parabolic.grading.grading_element.matrix for c in (chart, chart.inner))
    assert _is_diagonal(z) and not _is_diagonal(h)
    assert verify._rank_frame(chart, chart).order is not None


def test_frame_keeps_the_order_of_a_non_diagonal_grading():
    # the conjugated sl4 mixed chart has a dense witness: no permutation,
    # and the plain blocks are still read off its factors
    chart = frame_chart("sl4-conjugated-mixed")
    frame = verify._rank_frame(chart, chart)
    assert frame.order is None
    assert frame.plain == {1, 2}


@pytest.mark.parametrize("label, plain", [
    ("sl4-nilpotent", {0}), ("sl4-semisimple", {0}), ("sl5-mixed", {1, 2}),
    ("so6-nilpotent", {0}), ("sp4-semisimple", {0}),
])
def test_plain_blocks(label, plain):
    """The blocks left unconjugated: a one-block frame's block, with no
    factor after it, and on a mixed chart u and the inner factor, which the
    Levi normalizes and centralizes into; u- is not plain, since [u, u-]
    leaves it."""
    chart = sweep_chart(label)
    k = verify._frame_index(chart)
    assert charts._plain_blocks(chart.factors, k) == plain
    if chart.case_tag == "mixed":
        u_minus, u = chart.factors[:2]
        spanned = u_minus + tuple(commutator(a, b) for a in u for b in u_minus)
        assert _span_rank([m.nums for m in spanned]) > _span_rank([m.nums for m in u_minus])


def test_a_block_that_is_not_plain_keeps_its_conjugation():
    """On the chart of `test_factor_columns_conjugated_by_later_factors`
    the first block is not plain, since [E21, E12] = -h leaves span(E12):
    the report's frame conjugates it and ranks 2, where leaving it
    unconjugated ranks 1."""
    sl2 = build_classical("sl", 2)
    e = elem(2, 0, 1)
    chart = OrbitChart(sl2.element_from_matrix(e),
                       ((e,), (elem(2, 1, 0),), (e,)), e, (), (), None)
    vp = _value_pass(chart, (F(1), F(1), F(1)))
    plain = charts._plain_blocks(chart.factors, verify._frame_index(chart))
    assert plain == {1}
    assert verify._jacobian_rank(chart, vp, verify._RankFrame(None, plain)) == 2
    assert verify._jacobian_rank(chart, vp, verify._RankFrame(None, frozenset({0, 1}))) == 1


def test_plain_blocks_of_a_dependent_basis():
    # a factor read from JSON may list dependent matrices; its span is
    # what the test reads: [E10, E20] = 0 stays in span(E20), and
    # [E21, E10] = E20 leaves span(E10)
    e10, e20, e21 = elem(3, 1, 0), elem(3, 2, 0), elem(3, 2, 1)
    assert charts._plain_blocks(((e20, e20.scale(2)), (e10,)), 2) == {0, 1}
    assert charts._plain_blocks(((e10, e10.scale(2)), (e21,)), 2) == {1}


@pytest.mark.parametrize("dependent, independent, defect", [
    # span{E01, E02}: closed and nilpotent
    ((elem(3, 0, 1), elem(3, 0, 1).scale(2), elem(3, 0, 2)),
     (elem(3, 0, 1), elem(3, 0, 2)), ""),
    # [E21, E10] = E20 leaves span{E10, E21}
    ((elem(3, 1, 0), elem(3, 2, 1), elem(3, 2, 1).scale(-3)),
     (elem(3, 1, 0), elem(3, 2, 1)), "bracket-closed"),
    # E10 + E21 + E02 is not nilpotent
    ((elem(3, 1, 0), elem(3, 2, 1), elem(3, 0, 2), elem(3, 1, 0) + elem(3, 0, 2)),
     (elem(3, 1, 0), elem(3, 2, 1), elem(3, 0, 2)), "nilpotent"),
], ids=["nilpotent-subalgebra", "not-closed", "not-nilpotent"])
def test_factor_defect_of_a_dependent_basis(dependent, independent, defect):
    # a factor read from JSON may list dependent matrices; the verdict is
    # that of an independent basis of the same span
    assert charts._factor_defect(dependent, 3) == charts._factor_defect(independent, 3) == defect


def test_in_span_eliminates_once(monkeypatch):
    # one `VectorSpan` of the dependent basis, however many matrices it tests
    eliminations = spy_everywhere(monkeypatch, linalg._bareiss, len)
    e10, e20, e21 = elem(3, 1, 0), elem(3, 2, 0), elem(3, 2, 1)
    basis = (e20, e20.scale(2), e10)
    assert charts._in_span(basis, [e10.scale(3), e10 + e20, e20], 9)
    assert eliminations == [3]
    assert not charts._in_span(basis, [e20, e21, e10], 9)
    assert eliminations == [3, 3]
