"""Property tests of chart derivatives and serialization at random tuples,
and of whole charts on random so/sp elements."""

import json

import pytest

from conftest import diag_matrix
from test_charts import DERIVATIVE_CASES, assert_dual_number_derivatives, derivative_chart
from orbitcharts.charts import (
    build_chart,
    chart_from_json,
    chart_to_json,
    eval_chart,
    eval_chart_with_derivatives,
    exp_nilpotent,
)
from orbitcharts.liealg import build_classical
from orbitcharts.verify import redstab_suite, report_to_json, verify_chart

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, max_examples=10, deadline=None)
@hypothesis.given(data=st.data())
def test_derivatives_and_round_trip_at_random_tuples(data):
    chart = derivative_chart(data.draw(st.sampled_from(sorted(DERIVATIVE_CASES))))
    coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    params = data.draw(st.lists(coordinate, min_size=chart.param_count,
                                max_size=chart.param_count))
    assert_dual_number_derivatives(chart, params)
    rebuilt = chart_from_json(chart.algebra, chart_to_json(chart))
    assert eval_chart_with_derivatives(rebuilt, params) == \
        eval_chart_with_derivatives(chart, params)


def _upper_basis(algebra):
    """The strictly upper-triangular basis elements of ``algebra``."""
    n = algebra.ambient_size
    return [b for b in algebra.basis
            if all(not b.at(i, j) for i in range(n) for j in range(i + 1))]


def _assert_chart_verifies(algebra, x):
    """The chart of x verifies with both suites, a second verification
    prints the same bytes, and the JSON round trip keeps the base value."""
    def reports():
        chart = build_chart(algebra, x, 42)
        chart_report = verify_chart(algebra, x, chart, 42, 10)
        red_report = redstab_suite(algebra, x, 42, chart)
        assert chart_report.overall_pass and red_report.overall_pass
        text = json.dumps([report_to_json(chart_report), report_to_json(red_report)])
        return chart, text

    chart, text = reports()
    assert reports()[1] == text
    rebuilt = chart_from_json(algebra, json.loads(json.dumps(chart_to_json(chart))))
    assert eval_chart(rebuilt, chart.base_params) == x.matrix


@pytest.mark.parametrize("family,n", [("so", 5), ("so", 6), ("sp", 4), ("sp", 6)],
                         ids=["so5", "so6", "sp4", "sp6"])
@hypothesis.settings(derandomize=True, max_examples=5, deadline=None)
@hypothesis.given(data=st.data())
def test_so_sp_conjugated_diagonals_and_upper_nilpotents(family, n, data):
    """Ad(exp y)(d) for d = diag(a_1 .. a_k, [0], -a_k .. -a_1), a_i in 1..4,
    and the nilpotent y itself, y an integer combination of the strictly
    upper-triangular basis elements."""
    algebra = build_classical(family, n)
    a = data.draw(st.lists(st.integers(1, 4), min_size=n // 2, max_size=n // 2))
    d = diag_matrix(a + [0] * (n % 2) + [-v for v in reversed(a)])
    upper = _upper_basis(algebra)
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(upper),
                                max_size=len(upper)))
    y = sum((b.scale(c) for b, c in zip(upper, coeffs)), d.scale(0))
    x = exp_nilpotent(y) * d * exp_nilpotent(-y)
    _assert_chart_verifies(algebra, algebra.element_from_matrix(x))
    if not y.is_zero():
        _assert_chart_verifies(algebra, algebra.element_from_matrix(y))
