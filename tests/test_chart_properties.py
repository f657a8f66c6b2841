"""Property tests of chart derivatives and serialization at random tuples."""

import pytest

from test_charts import DERIVATIVE_CASES, assert_dual_number_derivatives, derivative_chart
from orbitcharts.charts import (
    chart_from_json,
    chart_to_json,
    eval_chart_with_derivatives,
)

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
