"""The mod-p full-rank certificate of the Jacobian checks and its exact fallback.

`verify._jacobian_rank` ranks the derivative columns over F_p first and
computes them exactly only when that does not certify full rank. The
fallback tests pass a tiny prime, so that a column vanishes, columns become
dependent or a denominator is divisible by it. The sweep compares the F_p
rank with the exact rank, and the exact bracket-form derivatives with
digests recorded from the suffix-product derivative pass they replaced.
"""

import functools
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import diag_matrix, elem, jordan_nilpotent, nontrivial_partitions
from orbitcharts import verify
from orbitcharts.charts import (
    OrbitChart,
    _value_pass,
    build_chart,
    eval_chart,
    eval_chart_with_derivatives,
)
from orbitcharts.liealg import build_classical
from orbitcharts.linalg import RatMatrix, matrix_to_json, rank
from orbitcharts.rng import SplitMix64

F = Fraction
GOLDEN = Path(__file__).parent / "golden"
H = diag_matrix([1, -1])
SWEEP_SEED = 606


def _sl2_chart(*factor_bases):
    """A hand-made sl2 chart on the shift h, one factor per given matrix."""
    sl2 = build_classical("sl", 2)
    x = sl2.element_from_matrix(H)
    return OrbitChart("semisimple", x, tuple((b,) for b in factor_bases), H, (), (),
                      None, len(factor_bases))


def _exact_rank(chart, params):
    _, derivs = eval_chart_with_derivatives(chart, params)
    return rank(RatMatrix.from_rows([d.entries for d in derivs]))


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts the exact derivative rankings `verify` falls back to."""
    calls = []
    real = verify._rank_of_derivs

    def spy(derivs):
        calls.append(len(derivs))
        return real(derivs)

    monkeypatch.setattr(verify, "_rank_of_derivs", spy)
    return calls


class TestFallback:
    def test_column_vanishing_mod_prime(self, exact_calls):
        # [7 E21, h] = 14 E21 is zero mod 7
        chart = _sl2_chart(elem(2, 1, 0, 7), elem(2, 0, 1))
        vp = _value_pass(chart, (F(0), F(0)))
        assert verify._rank_mod_p(chart, vp, 7) == 1
        assert verify._jacobian_rank(chart, vp, 7) == 2 == _exact_rank(chart, (0, 0))
        assert exact_calls == [2]

    def test_columns_dependent_mod_prime(self, exact_calls):
        # columns 2 E21 and 2 E21 - 14 E12: independent over Q, not mod 7
        chart = _sl2_chart(elem(2, 1, 0), elem(2, 1, 0) + elem(2, 0, 1, 7))
        vp = _value_pass(chart, (F(0), F(0)))
        assert verify._rank_mod_p(chart, vp, 7) == 1
        assert verify._jacobian_rank(chart, vp, 7) == 2 == _exact_rank(chart, (0, 0))
        assert exact_calls == [2]

    def test_basis_denominator_divisible_by_prime(self, exact_calls):
        chart = _sl2_chart(elem(2, 1, 0, F(1, 7)), elem(2, 0, 1))
        vp = _value_pass(chart, (F(0), F(0)))
        assert verify._rank_mod_p(chart, vp, 7) is None
        assert verify._jacobian_rank(chart, vp, 7) == 2
        assert exact_calls == [2]

    def test_parameter_denominator_divisible_by_prime(self, exact_calls):
        # exp(E21 / 7) carries the denominator into the value pass
        chart = _sl2_chart(elem(2, 1, 0), elem(2, 0, 1))
        vp = _value_pass(chart, (F(1, 7), F(0)))
        assert verify._rank_mod_p(chart, vp, 7) is None
        assert verify._jacobian_rank(chart, vp, 7) == 2 == _exact_rank(chart, (F(1, 7), 0))
        assert exact_calls == [2]

    def test_factorial_divisible_by_prime(self):
        # 1/2! enters dexp of the regular nilpotent factor of sl3
        sl3 = build_classical("sl", 3)
        x = sl3.element_from_matrix(diag_matrix([1, 0, -1]))
        lower = elem(3, 1, 0) + elem(3, 2, 1)
        chart = OrbitChart("semisimple", x, ((lower,),), x.matrix, (), (), None, 1)
        vp = _value_pass(chart, (F(1),))
        assert verify._rank_mod_p(chart, vp, 2) is None
        assert verify._jacobian_rank(chart, vp, 2) == 1 == _exact_rank(chart, (1,))

    @pytest.mark.parametrize("prime", [7, verify.JACOBIAN_PRIME])
    def test_genuine_deficit_reports_exact_rank(self, prime, exact_calls):
        chart = _sl2_chart(elem(2, 1, 0), elem(2, 1, 0, 2))
        params = (F(1, 3), F(-2))
        vp = _value_pass(chart, params)
        assert verify._rank_mod_p(chart, vp, prime) == 1
        assert verify._jacobian_rank(chart, vp, prime) == 1 == _exact_rank(chart, params)
        assert exact_calls == [2]

    def test_certified_verify_ranks_nothing_exactly(self, exact_calls):
        sl3 = build_classical("sl", 3)
        x = sl3.element_from_matrix(diag_matrix([1, 1, -2]) + elem(3, 0, 1))
        report = verify.verify_chart(sl3, x, build_chart(sl3, x, 42), 42, 5)
        assert report.check("jacobian_rank_samples").observed == [6] * 5
        assert exact_calls == []


class TestModularElimination:
    def test_rank_over_field(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 0, 5]]
        for p, want in ((11, 2), (5, 1), (2, 2)):
            reduced = [[x % p for x in r] for r in rows]
            assert len(verify._bareiss(reduced, modulus=p)[1]) == want, p

    def test_never_exceeds_exact_rank(self):
        rng = SplitMix64(5)
        for _ in range(50):
            rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
            exact = rank(RatMatrix.from_rows(rows))
            mod = len(verify._bareiss([[x % 3 for x in r] for r in rows], modulus=3)[1])
            assert mod <= exact


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
    return build_chart(algebra, algebra.element_from_matrix(m), 42)


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
        assert verify._rank_mod_p(chart, vp, verify.JACOBIAN_PRIME) == exact, name
        assert verify._jacobian_rank(chart, vp) == exact, name


def _assert_power_ranks(m):
    assert verify._power_ranks(m) == [rank(m.power(k)) for k in range(1, m.rows)]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_power_ranks_of_sl_nilpotents(n):
    for part in nontrivial_partitions(n):
        _assert_power_ranks(jordan_nilpotent(n, part))
    _assert_power_ranks(RatMatrix.zeros(n, n))


@pytest.mark.parametrize("label", list(SWEEP))
def test_power_ranks_of_chart_values(label):
    """On the element and on chart values at random tuples (nilpotent for
    nilpotent charts, of every Jordan type the slice reaches)."""
    chart = sweep_chart(label)
    _assert_power_ranks(chart.base_element.matrix)
    for _, params in sweep_points(chart)[1:]:
        _assert_power_ranks(eval_chart(chart, params))
