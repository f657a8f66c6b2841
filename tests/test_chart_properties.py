"""Property tests of chart derivatives and serialization at random tuples,
of whole charts on random so/sp elements, of sl nilpotent orbits by Jordan
type, of every so/sp nilpotent orbit by partition, and of dense so/sp
elements of each kind by the Cayley transform."""

import contextlib
import importlib.util
import io
import json
import random
import sys
from pathlib import Path

import pytest

from conftest import (
    CAYLEY_KINDS,
    UNFRAMED,
    cayley_base,
    cayley_conjugate,
    diag_matrix,
    g_inverse_frame_rank,
    jordan_nilpotent,
    nontrivial_partitions,
    unit_bidiagonal,
    upper_basis,
)
from test_charts import DERIVATIVE_CASES, assert_dual_number_derivatives, derivative_chart
from orbitcharts.charts import (
    _value_pass,
    build_chart,
    chart_from_json,
    chart_to_json,
    eval_chart,
    eval_chart_with_derivatives,
    exp_nilpotent,
)
from orbitcharts.cli import main
from orbitcharts.liealg import build_classical
from orbitcharts.linalg import RatMatrix, rank
from orbitcharts.verify import _jacobian_rank, redstab_suite, report_to_json, verify_chart

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


def _assert_chart_verifies(algebra, x):
    """The chart of x verifies with both suites, a second verification
    prints the same bytes, the Jacobian rank at the base tuple equals that
    of the g^-1 frame rows, and the JSON round trip keeps the base value
    and verifies too, on the scaffolding of the chart rebuilt from x
    (``rebuilt_chart_identity`` passes)."""
    def reports():
        chart = build_chart(x, 42)
        chart_report = verify_chart(x, chart, 42, 10)
        red_report = redstab_suite(x, 42, chart)
        assert chart_report.overall_pass and red_report.overall_pass
        text = json.dumps([report_to_json(chart_report), report_to_json(red_report)])
        return chart, text

    chart, text = reports()
    assert reports()[1] == text
    vp = _value_pass(chart, chart.base_params)
    assert _jacobian_rank(chart, vp, UNFRAMED) == g_inverse_frame_rank(chart, vp)
    rebuilt = chart_from_json(algebra, json.loads(json.dumps(chart_to_json(chart))))
    assert eval_chart(rebuilt, chart.base_params) == x.matrix
    read_back = verify_chart(x, rebuilt, 42, 10)
    assert read_back.check("rebuilt_chart_identity").passed and read_back.overall_pass


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
    upper = upper_basis(algebra)
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(upper),
                                max_size=len(upper)))
    y = sum((b.scale(c) for b, c in zip(upper, coeffs)), d.scale(0))
    x = exp_nilpotent(y) * d * exp_nilpotent(-y)
    _assert_chart_verifies(algebra, algebra.element_from_matrix(x))
    if not y.is_zero():
        _assert_chart_verifies(algebra, algebra.element_from_matrix(y))


def _run_json(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, json.loads(out.getvalue())


def _jordan_type(m):
    """The block sizes of the nilpotent m, largest first: rank(m^(k-1)) -
    rank(m^k) blocks have size >= k, which is the dual partition."""
    ranks, power = [m.rows], RatMatrix.identity(m.rows)
    while ranks[-1]:
        power = power * m
        ranks.append(rank(power))
    dual = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    return [sum(1 for d in dual if d >= i) for i in range(1, dual[0] + 1)]


SL_NILPOTENT_TYPES = [(n, tuple(p)) for n in (3, 4, 5) for p in nontrivial_partitions(n)]


@pytest.mark.parametrize("n,lam", SL_NILPOTENT_TYPES,
                         ids=[f"sl{n}-{''.join(map(str, lam))}" for n, lam in SL_NILPOTENT_TYPES])
@hypothesis.settings(derandomize=True, max_examples=3, deadline=None)
@hypothesis.given(data=st.data())
def test_sl_nilpotent_orbit_by_jordan_type(n, lam, data):
    """u N_lambda u^-1 for a nilpotent N_lambda of Jordan type lambda and a
    unit upper-bidiagonal u with entries in {-1, 0, 1}: the orbit and
    centralizer dimensions are n^2 - sum (lambda'_i)^2 and
    sum (lambda'_i)^2 - 1 (Collingwood-McGovern, 6.1), the chart verifies,
    and the ranks of its powers give back lambda."""
    entries = data.draw(st.lists(st.integers(-1, 1), min_size=n - 1, max_size=n - 1))
    u, u_inv = unit_bidiagonal(entries)
    assert u * u_inv == RatMatrix.identity(n)
    x = u * jordan_nilpotent(n, lam) * u_inv
    assert _jordan_type(x) == list(lam)

    dual_squares = sum(sum(1 for part in lam if part >= j) ** 2
                       for j in range(1, lam[0] + 1))
    element = json.dumps({"matrix": [[str(v) for v in row] for row in x.row_lists()]})
    common = ["--family", "sl", "--size", str(n), "--element", element]
    code, analysis = _run_json(["analyze"] + common)
    assert code == 0 and analysis["case"] == "nilpotent"
    assert analysis["orbit_dim"] == n * n - dual_squares
    assert analysis["centralizer_dim"] == dual_squares - 1
    code, report = _run_json(["verify", "--samples", "3"] + common)
    assert code == 0 and report["overall_pass"] is True


def _load_workloads():
    """`perfbench/workloads.py`, the benchmark's oracle, which imports no
    orbitcharts code; it is loaded from its file and left unchanged."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


def _valid_partitions(family, n):
    """The nonzero partitions of n that label nilpotent orbits of so(n) or
    sp(n): in so(n) even parts, in sp(n) odd parts, have even multiplicity
    (Collingwood-McGovern, 5.1)."""
    paired = 0 if family == "so" else 1
    return [lam for lam in WORKLOADS.partitions(n)
            if lam[0] > 1 and all(lam.count(d) % 2 == 0 for d in set(lam) if d % 2 == paired)]


SO_SP_PARTITIONS = [(family, n, lam, swapped)
                    for family, sizes in (("so", (5, 6, 7, 8)), ("sp", (4, 6, 8)))
                    for n in sizes for lam in _valid_partitions(family, n)
                    # so8 (4, 4) and (2, 2, 2, 2) are very even: two orbits each
                    for swapped in ((False, True) if n == 8 and family == "so"
                                    and all(d % 2 == 0 for d in lam) else (False,))]


def _partition_representative(family, n, lam):
    """A generic positive-integer combination of the upper basis elements
    of weight 2 for h = diag(d - 1, d - 3, ..., 1 - d over the parts d,
    sorted decreasing), redrawn until its Jordan type is lam: for the JM h
    of e, the orbit of e is dense in g(2) (Kostant)."""
    h = sorted((d - 1 - 2 * k for d in lam for k in range(d)), reverse=True)
    weight2 = [b for b in WORKLOADS.upper_nilpotent_basis(family, n)
               if all(h[i] - h[j] == 2 for i, row in enumerate(b)
                      for j, v in enumerate(row) if v)]
    rng = random.Random(f"{family}{n}-{lam}")
    while True:
        coeffs = [rng.randint(1, 9) for _ in weight2]
        rows = [[sum(c * b[i][j] for c, b in zip(coeffs, weight2)) for j in range(n)]
                for i in range(n)]
        if WORKLOADS.nilpotent_partition(rows) == lam:
            return rows


@pytest.mark.parametrize(
    "family,n,lam,swapped", SO_SP_PARTITIONS,
    ids=[f"{family}{n}-{'.'.join(map(str, lam))}{'-swapped' if swapped else ''}"
         for family, n, lam, swapped in SO_SP_PARTITIONS])
def test_so_sp_nilpotent_orbit_by_partition(family, n, lam, swapped):
    """A representative of the so/sp nilpotent orbit of each valid
    partition: the orbit and centralizer dimensions equal the oracle's
    (Collingwood-McGovern, Cor. 6.1.4), so do the ranks of the powers of
    every sampled value, and the chart verifies. The second so8 orbit of a
    very even partition is the first conjugated by the swap of basis
    vectors 3 and 4, which keeps the form and has determinant -1."""
    rows = _partition_representative(family, n, lam)
    if swapped:
        swap = [4 if k == 3 else 3 if k == 4 else k for k in range(n)]
        rows = [[rows[swap[i]][swap[j]] for j in range(n)] for i in range(n)]
    orbit_dim = WORKLOADS.nilpotent_orbit_dim(family, n, lam)
    algebra_dim = n * (n - 1) // 2 if family == "so" else n * (n + 1) // 2
    ranks = [sum(max(d - k, 0) for d in lam) for k in range(1, n)]
    element = json.dumps({"matrix": [[str(v) for v in row] for row in rows]})
    common = ["--family", family, "--size", str(n), "--element", element]
    code, analysis = _run_json(["analyze"] + common)
    assert code == 0 and analysis["case"] == "nilpotent"
    assert (analysis["orbit_dim"], analysis["centralizer_dim"]) \
        == (orbit_dim, algebra_dim - orbit_dim)
    code, report = _run_json(["verify", "--samples", "3"] + common)
    assert code == 0 and report["overall_pass"] is True
    checks = {c["name"]: c for c in report["chart_verification"]["checks"]}
    assert checks["dimension_identity"]["observed"] == orbit_dim
    jordan_types = checks["jordan_type_preserved"]
    assert jordan_types["expected"] == [ranks]
    assert jordan_types["observed"] == [ranks] * len(jordan_types["observed"])


CAYLEY_CASES = [(family, n, kind) for family, n in (("so", 5), ("so", 6), ("sp", 4), ("sp", 6))
                for kind in CAYLEY_KINDS]


def _cayley_orbit_dim(family, n, kind, base):
    """The workloads' oracle for the orbit of `cayley_base` ``base``, k = n // 2:
    a split diagonal's formula for diag(k, ..., 1, (0), -1, ..., -k), the
    partition formula for the nilpotent, and for the mixed element dim O_x_s
    + dim O_x_n in the Levi c(x_s) = gl(k) (+ so or sp of the zero part),
    where x_n is the top left k x k block of base - x_s, as an sl(k)
    nilpotent of its Jordan type."""
    k = n // 2
    rows = [[base.at(i, j) for j in range(n)] for i in range(n)]
    if kind == "diagonal":
        return WORKLOADS.split_diagonal_orbit_dim(family, tuple(range(k, 0, -1)), n)
    if kind == "nilpotent":
        return WORKLOADS.nilpotent_orbit_dim(family, n, WORKLOADS.nilpotent_partition(rows))
    block = [[v if i != j else 0 for j, v in enumerate(row[:k])] for i, row in enumerate(rows[:k])]
    return (WORKLOADS.split_diagonal_orbit_dim(family, (1,) * k, n)
            + WORKLOADS.nilpotent_orbit_dim("sl", k, WORKLOADS.nilpotent_partition(block)))


@pytest.mark.parametrize("family,n,kind", CAYLEY_CASES,
                         ids=[f"{family}{n}-{kind}" for family, n, kind in CAYLEY_CASES])
@hypothesis.settings(derandomize=True, max_examples=3, deadline=None)
@hypothesis.given(data=st.data())
def test_so_sp_cayley_conjugates(family, n, kind, data):
    """Ad(g) of a `cayley_base` element, g the Cayley transform of an A in
    so(n) or sp(n) with basis coordinates in -1..1 and I - A invertible,
    taken when it has more nonzero entries than the base: a denser element
    of the same orbit, whose gradings are in general not diagonal and whose
    chart factors then have dense bases (see
    `test_jacobian_certificate.test_brackets_through_supports_and_commutator`).
    `verify` through the CLI passes,
    with the case of its kind and the orbit dimension of the workloads'
    oracle (`_cayley_orbit_dim`) as both sides of ``dimension_identity``."""
    algebra = build_classical(family, n)
    base = cayley_base(algebra, kind)
    coords = data.draw(st.lists(st.integers(-1, 1), min_size=algebra.dim, max_size=algebra.dim))
    x = cayley_conjugate(algebra, base, coords)
    hypothesis.assume(x is not None and x.nums.count(0) < base.nums.count(0))
    element = json.dumps({"matrix": [[str(v) for v in row] for row in x.row_lists()]})
    code, report = _run_json(["verify", "--samples", "3", "--family", family, "--size", str(n),
                              "--element", element])
    assert code == 0 and report["overall_pass"] is True
    chart_report = report["chart_verification"]
    case = {"diagonal": "semisimple"}.get(kind, kind)
    assert chart_report["subject"]["case"] == case
    checks = {c["name"]: c for c in chart_report["checks"]}
    orbit_dim = _cayley_orbit_dim(family, n, kind, base)
    assert checks["dimension_identity"]["expected"] == orbit_dim
    assert checks["dimension_identity"]["observed"] == orbit_dim
