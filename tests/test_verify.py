import json
from fractions import Fraction

import pytest

from conftest import (
    UNFRAMED,
    companion,
    diag_matrix,
    draw_fraction,
    elem,
    element,
    g_inverse_frame_rank,
    jordan_nilpotent,
    mixed_corpus,
    mixed_element,
    nontrivial_partitions,
    partitions,
    spy_everywhere,
    unit_bidiagonal,
    upper_basis,
)
from orbitcharts import linalg, verify
from orbitcharts.charts import (
    _ValuePass,
    _value_pass,
    build_chart,
    chart_from_json,
    chart_mixed,
    chart_nilpotent,
    chart_semisimple,
    chart_to_json,
    eval_chart_with_derivatives,
    exp_nilpotent,
)
from orbitcharts.jordan import jordan_decompose
from orbitcharts.liealg import ad_matrix, build_classical
from orbitcharts.linalg import RatMatrix, _is_diagonal, char_poly, rank
from orbitcharts.rng import SplitMix64
from orbitcharts.verify import (
    OrbitClassId,
    ZeroSemisimplePartError,
    _diagonal_conjugate,
    _jacobian_rank,
    _same_flat_data,
    check_centralizer_reductive,
    hamiltonian_class,
    invariants,
    jacobian_rank_at,
    kostant_rep,
    redstab_suite,
    report_to_json,
    verify_chart,
)

F = Fraction


class TestJacobianRank:
    def test_sl2_nilpotent_at_base(self, sl2):
        e = element(sl2, [[0, 1], [0, 0]])
        chart = chart_nilpotent(e)
        assert jacobian_rank_at(chart, (0, 1)) == 2

    def test_sl2_semisimple_at_origin(self, sl2):
        h = element(sl2, [[1, 0], [0, -1]])
        chart = chart_semisimple(h, 42)
        assert jacobian_rank_at(chart, (0, 0)) == 2

    def test_sl3_minimal_at_base(self, sl3):
        e13 = sl3.element_from_matrix(elem(3, 0, 2))
        chart = chart_nilpotent(e13)
        assert jacobian_rank_at(chart, chart.base_params) == 4


class TestVerifyChart:
    def test_sl2_nilpotent_all_pass(self, sl2):
        e = element(sl2, [[0, 1], [0, 0]])
        chart = chart_nilpotent(e)
        rep = verify_chart(e, chart, 42, 10)
        assert rep.overall_pass
        assert rep.check("jacobian_rank_base").observed == 2

    def test_sl2_semisimple_all_pass_det(self, sl2):
        h = element(sl2, [[1, 0], [0, -1]])
        chart = chart_semisimple(h, 42)
        rep = verify_chart(h, chart, 42, 10)
        assert rep.overall_pass
        assert rep.check("jacobian_rank_base").observed == 2

    def test_negative_samples_rejected_up_front(self, sl2, monkeypatch):
        import orbitcharts.verify as verify

        def no_work(*_args):
            raise AssertionError("verification work started")

        e = element(sl2, [[0, 1], [0, 0]])
        chart = chart_nilpotent(e)
        monkeypatch.setattr(verify, "centralizer_basis", no_work)
        monkeypatch.setattr(verify, "build_chart", no_work)
        with pytest.raises(ValueError, match="samples must be nonnegative"):
            verify_chart(e, chart, 42, -1)

    def test_sl3_minimal_flags_u2(self, sl3):
        e13 = sl3.element_from_matrix(elem(3, 0, 2))
        chart = chart_nilpotent(e13)
        rep = verify_chart(e13, chart, 42, 10)
        assert rep.overall_pass
        assert rep.check("jacobian_rank_base").observed == 4
        assert rep.check("u2_differs_from_u").observed is True

    def test_mixed_composition_check(self, sl3):
        x = sl3.element_from_matrix(diag_matrix([1, 1, -2]) + elem(3, 0, 1))
        chart = build_chart(x, 42)
        rep = verify_chart(x, chart, 42, 10)
        assert rep.overall_pass
        assert rep.check("centralizer_composition").passed

    def test_report_is_seed_deterministic(self, sl3):
        e13 = sl3.element_from_matrix(elem(3, 0, 2))
        chart = chart_nilpotent(e13)
        r1 = report_to_json(verify_chart(e13, chart, 7, 5))
        r2 = report_to_json(verify_chart(e13, chart, 7, 5))
        assert r1 == r2

    def test_deserialized_chart_verifies(self, sl3):
        # a chart rebuilt from JSON has no construction scaffolding; the
        # verifier re-derives it from (algebra, element, seed)
        from orbitcharts.charts import chart_from_json, chart_to_json

        x = sl3.element_from_matrix(diag_matrix([1, 1, -2]) + elem(3, 0, 1))
        chart = build_chart(x, 42)
        rebuilt = chart_from_json(sl3, chart_to_json(chart))
        rep = verify_chart(x, rebuilt, 42, 5)
        assert rep.overall_pass
        assert rep.check("rebuilt_chart_identity").passed

    def test_built_chart_has_no_rebuild_check(self, sl3):
        e13 = sl3.element_from_matrix(elem(3, 0, 2))
        rep = verify_chart(e13, chart_nilpotent(e13), 42, 3)
        with pytest.raises(KeyError):
            rep.check("rebuilt_chart_identity")

    def test_tampered_deserialized_chart_fails(self, sl3):
        # the report describes the chart it is given, not a rebuilt one
        from orbitcharts.charts import chart_from_json, chart_to_json, eval_chart

        x = sl3.element_from_matrix(diag_matrix([1, 1, -2]))
        data = chart_to_json(build_chart(x, 42))
        untampered = chart_from_json(sl3, data)
        rep = verify_chart(x, untampered, 42, 5)
        assert rep.overall_pass
        assert rep.check("rebuilt_chart_identity").passed
        data["factors"] = data["factors"][::-1]
        tampered = chart_from_json(sl3, data)
        params = (F(1),) * tampered.param_count
        assert eval_chart(tampered, params) != eval_chart(untampered, params)
        rep = verify_chart(x, tampered, 42, 5)
        assert not rep.overall_pass
        assert not rep.check("rebuilt_chart_identity").passed
        _assert_verdict_rule(rep)

    def test_deserialized_chart_with_other_slice_dimension(self, sl3):
        # an extra slice vector with a matching orbit dimension passes
        # chart_from_json, but cannot take slice samples; the report fails
        # instead of raising
        from orbitcharts.charts import chart_from_json, chart_to_json

        e13 = sl3.element_from_matrix(elem(3, 0, 2))
        data = chart_to_json(build_chart(e13, 42))
        data["slice_basis"].append([["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]])
        data["expected_orbit_dim"] += 1
        rep = verify_chart(e13, chart_from_json(sl3, data), 42, 3)
        assert not rep.overall_pass
        assert not rep.check("rebuilt_chart_identity").passed
        assert not rep.check("dimension_identity").passed
        assert not rep.check("jacobian_rank_samples").passed
        _assert_verdict_rule(rep)

    def test_deserialized_nilpotent_chart_for_a_semisimple_element(self, sl2):
        # the rebuilt chart is semisimple and has no slice to sample from;
        # the report fails instead of raising
        e = element(sl2, [[0, 1], [0, 0]])
        h = element(sl2, [[1, 0], [0, -1]])
        chart = chart_from_json(sl2, chart_to_json(chart_nilpotent(e)))
        rep = verify_chart(h, chart, 42, 3)
        assert not rep.check("rebuilt_chart_identity").passed
        assert not rep.check("char_poly_preserved").passed
        assert rep.check("jordan_type_preserved").passed
        _assert_verdict_rule(rep)

    def test_report_json_shape(self, sl2):
        e = element(sl2, [[0, 1], [0, 0]])
        chart = chart_nilpotent(e)
        data = report_to_json(verify_chart(e, chart, 42, 3))
        assert set(data) == {"subject", "seed", "sample_count", "checks", "overall_pass"}
        for c in data["checks"]:
            assert set(c) == {"name", "expected", "observed", "pass"}


class TestInjectivityOnFewTuples:
    """The sl2 regular nilpotent chart has 41 x 9 = 369 parameter tuples:
    41 rationals for its factor parameter (`SplitMix64.fraction`) and 9
    slice points e_1^2 e from the torus entry. A draw that finds no fresh
    tuple in its redraws keeps a repeat, and ``injectivity_sampling``
    expects one value per distinct tuple drawn."""

    @pytest.mark.parametrize("samples, distinct", [(300, 299), (500, 369)])
    def test_expects_the_distinct_tuples_drawn(self, sl2, samples, distinct):
        x = element(sl2, [[0, 1], [0, 0]])
        report = verify_chart(x, build_chart(x, 42), 42, samples)
        check = report.check("injectivity_sampling")
        assert (check.expected, check.observed) == (distinct, distinct)
        assert report.overall_pass

    def test_each_distinct_tuple_is_evaluated_once(self, sl2, monkeypatch):
        # 369 distinct tuples and the base tuple: the 131 kept repeats reuse
        # the value pass and Jacobian rank of their first draw
        calls = {"value": 0, "rank": 0}
        value_pass, jacobian_rank = verify._value_pass, verify._jacobian_rank

        def count_value(chart, params):
            calls["value"] += 1
            return value_pass(chart, params)

        def count_rank(chart, vp, frame):
            calls["rank"] += 1
            return jacobian_rank(chart, vp, frame)

        monkeypatch.setattr(verify, "_value_pass", count_value)
        monkeypatch.setattr(verify, "_jacobian_rank", count_rank)
        x = element(sl2, [[0, 1], [0, 0]])
        report = verify_chart(x, build_chart(x, 42), 42, 500)
        assert calls == {"value": 370, "rank": 370}
        assert report.check("jacobian_rank_samples").observed == [2] * 500
        assert report.overall_pass

    def test_unsampled_chart_still_fails(self, sl3):
        # a chart whose slice has another dimension takes no sample, so it
        # expects every requested value and observes none
        e13 = sl3.element_from_matrix(elem(3, 0, 2))
        data = chart_to_json(build_chart(e13, 42))
        data["slice_basis"].append([["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]])
        data["expected_orbit_dim"] += 1
        check = verify_chart(e13, chart_from_json(sl3, data), 42, 3).check(
            "injectivity_sampling")
        assert (check.expected, check.observed, check.passed) == (3, 0, False)


class TestCharPolyPreserved:
    """`char_poly_preserved` compares the power sums tr(v^k), k = 1 .. n, of
    x and of each value, from one walk of the powers per matrix; no
    characteristic polynomial is computed. The spy records every
    char_poly; each test clears what building its chart recorded."""

    @pytest.fixture
    def char_poly_calls(self, monkeypatch):
        return spy_everywhere(monkeypatch, linalg.char_poly)

    @staticmethod
    def _off_fibre_report(x, chart, bump, monkeypatch):
        """The report of ``chart`` with ``bump`` added to the third sampled
        value: the same trace, another characteristic polynomial."""
        passes = []
        real = verify._value_pass

        def value_pass(c, params):
            vp = real(c, params)
            passes.append(vp)
            if len(passes) != 4:  # the base pass, then the samples
                return vp
            value = vp.value + bump
            assert value.trace() == x.matrix.trace()
            assert char_poly(value) != char_poly(x.matrix)
            return _ValuePass(vp.series, [value] + vp.cores[1:])

        assert verify_chart(x, chart, 42, 5).overall_pass
        monkeypatch.setattr(verify, "_value_pass", value_pass)
        report = verify_chart(x, chart, 42, 5)
        check = report.check("char_poly_preserved")
        assert check.observed is False and not check.passed
        assert report.check("jacobian_rank_samples").passed

    def test_non_nilpotent_sample_fails(self, sl4, monkeypatch, char_poly_calls):
        x = sl4.element_from_matrix(jordan_nilpotent(4, [4]))
        chart = build_chart(x, 42)
        char_poly_calls.clear()
        self._off_fibre_report(x, chart, diag_matrix([1, -1, 0, 0]), monkeypatch)
        assert char_poly_calls == []

    def test_semisimple_sample_off_the_fibre_fails(self, sl4, monkeypatch, char_poly_calls):
        x = sl4.element_from_matrix(diag_matrix([1, 1, -1, -1]))
        chart = build_chart(x, 42)
        char_poly_calls.clear()
        assert chart.case_tag == "semisimple"
        self._off_fibre_report(x, chart, diag_matrix([1, -1, 0, 0]), monkeypatch)
        assert char_poly_calls == []

    def test_mixed_sample_off_the_fibre_fails(self, sl4, monkeypatch, char_poly_calls):
        x = sl4.element_from_matrix(diag_matrix([1, 1, -1, -1]) + elem(4, 0, 1))
        chart = build_chart(x, 42)
        char_poly_calls.clear()
        assert chart.case_tag == "mixed"
        self._off_fibre_report(x, chart, diag_matrix([0, 0, 1, -1]), monkeypatch)
        assert char_poly_calls == []

    def test_semisimple_chart_skips_only_the_base_value(self, sl3, monkeypatch,
                                                         char_poly_calls):
        walks = []
        real = verify._power_walk
        monkeypatch.setattr(verify, "_power_walk",
                            lambda m, ranked: walks.append(m) or real(m, ranked))
        x = sl3.element_from_matrix(diag_matrix([1, 1, -2]))
        chart = build_chart(x, 42)
        char_poly_calls.clear()
        report = verify_chart(x, chart, 42, 5)
        assert report.check("base_point_identity").passed
        assert report.check("char_poly_preserved").passed
        assert walks[0] == x.matrix and len(walks) == 1 + 5
        assert char_poly_calls == []


class TestReductiveProxy:
    def test_semisimple_reductive(self, sl2):
        h = element(sl2, [[1, 0], [0, -1]])
        assert check_centralizer_reductive(h) is True

    def test_nilpotent_not_reductive(self, sl2):
        e = element(sl2, [[0, 1], [0, 0]])
        assert check_centralizer_reductive(e) is False

    def test_mixed_not_reductive(self, sl3):
        x = sl3.element_from_matrix(diag_matrix([1, 1, -2]) + elem(3, 0, 1))
        assert check_centralizer_reductive(x) is False


class TestRedstabSuite:
    def test_semisimple_with_witness(self, sl2):
        h = element(sl2, [[1, 0], [0, -1]])
        rep = redstab_suite(h, 42)
        assert rep.overall_pass
        assert rep.check("levi_witness_found").observed == [["1", "0"], ["0", "-1"]]

    def test_nilpotent(self, sl2):
        e = element(sl2, [[0, 1], [0, 0]])
        rep = redstab_suite(e, 42)
        assert rep.overall_pass
        assert rep.check("semisimple_iff_reductive").expected is False

    def test_sl3_block_semisimple(self, sl3):
        x = sl3.element_from_matrix(diag_matrix([1, 1, -2]))
        rep = redstab_suite(x, 42)
        assert rep.overall_pass
        assert rep.check("levi_witness_found").observed == [
            ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-2"]]

    def test_zero_element(self, sl3):
        rep = redstab_suite(sl3.zero_element(), 42)
        assert rep.overall_pass

    def test_non_split_semisimple_without_chart(self, sl3):
        # the companion of t^3 - 2 is semisimple, but its centralizer is a
        # torus that does not split over Q: the search finds no witness, and
        # the report says so instead of raising
        x = sl3.element_from_matrix(companion(3, [-2]))
        data = report_to_json(redstab_suite(x, 42))
        checks = {c["name"]: c for c in data["checks"]}
        assert checks["semisimple_iff_reductive"]["pass"] is True
        assert (checks["levi_witness_found"]["observed"],
                checks["levi_witness_found"]["pass"]) == (None, False)
        assert checks["witness_zero_piece_matches_centralizer"]["observed"] is False
        assert data["overall_pass"] is False

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nilpotent_types_never_reductive(self, n):
        algebra = build_classical("sl", n)
        for part in nontrivial_partitions(n):
            e = algebra.element_from_matrix(jordan_nilpotent(n, part))
            rep = redstab_suite(e, 42)
            assert rep.overall_pass, part


def _semisimple_corpus():
    """Nonzero sl3-sl5 diagonals for every multiplicity pattern, and so5, so6
    and sp4 diagonals."""
    cases = []
    for n in (3, 4, 5):
        for pattern in list(partitions(n))[1:]:
            values = [k for k, m in enumerate(pattern) for _ in range(m)]
            shift = F(sum(values), n)
            cases.append(pytest.param("sl", n, [v - shift for v in values],
                                      id=f"sl{n}-" + ",".join(map(str, pattern))))
    for family, n, values in (
            ("so", 5, [1, 1, 0, -1, -1]), ("so", 5, [2, 1, 0, -1, -2]),
            ("so", 6, [1, 1, 1, -1, -1, -1]), ("so", 6, [2, 1, 0, 0, -1, -2]),
            ("so", 6, [1, 0, 0, 0, 0, -1]), ("sp", 4, [1, 1, -1, -1]),
            ("sp", 4, [2, 1, -1, -2]), ("sp", 4, [1, 0, 0, -1])):
        cases.append(pytest.param(family, n, values,
                                  id=f"{family}{n}-" + ",".join(map(str, values))))
    return cases


class TestOneConstruction:
    @pytest.mark.parametrize("family,n,values", _semisimple_corpus())
    def test_semisimple_same_flat_data(self, family, n, values):
        algebra = build_classical(family, n)
        x = algebra.element_from_matrix(diag_matrix(values))
        chart = build_chart(x, 42)
        assert chart.case_tag == "semisimple"
        assert _same_flat_data(chart, chart_semisimple(x, 42))

    @pytest.mark.parametrize("family,n,values,entries", mixed_corpus())
    def test_mixed_same_flat_data(self, family, n, values, entries):
        _, x = mixed_element(family, n, values, entries)
        chart = build_chart(x, 42)
        assert chart.case_tag == "mixed"
        assert _same_flat_data(chart, chart_mixed(x, 42))


def _reversed_round_trip(algebra, chart):
    """The chart read back from its JSON with its own (outer) factors
    reversed; a mixed chart keeps its inner chart."""
    data = chart_to_json(chart)
    data["factors"] = data["factors"][::-1]
    return chart_from_json(algebra, data)


def _assert_rank_matches_derivatives(chart):
    """_jacobian_rank equals the exact rank of the derivative columns and
    the rank of the g^-1 frame rows at the base tuple and at two seeded
    random tuples."""
    rng = SplitMix64(808)
    points = [chart.base_params] + [
        tuple(rng.fraction() for _ in range(chart.param_count)) for _ in range(2)]
    for params in points:
        _, derivs = eval_chart_with_derivatives(chart, params)
        exact = rank(RatMatrix.from_rows([d.entries for d in derivs]))
        vp = _value_pass(chart, params)
        assert _jacobian_rank(chart, vp, UNFRAMED) == exact \
            == g_inverse_frame_rank(chart, vp), params


class TestJacobianRankAgainstDerivatives:
    """so/sp and three-factor (mixed) charts, as built and read back from
    JSON with their outer factors in the other order."""

    @pytest.mark.parametrize("family,n,values", _semisimple_corpus())
    def test_semisimple(self, family, n, values):
        algebra = build_classical(family, n)
        chart = build_chart(algebra.element_from_matrix(diag_matrix(values)), 42)
        _assert_rank_matches_derivatives(chart)
        _assert_rank_matches_derivatives(_reversed_round_trip(algebra, chart))

    @pytest.mark.parametrize("family,n,values,entries", mixed_corpus())
    def test_mixed(self, family, n, values, entries):
        algebra, x = mixed_element(family, n, values, entries)
        chart = build_chart(x, 42)
        assert len(chart.factors) == 3
        _assert_rank_matches_derivatives(chart)
        _assert_rank_matches_derivatives(_reversed_round_trip(algebra, chart))


class TestRedstabWitnessFromChart:
    @pytest.mark.parametrize("family,n,values", _semisimple_corpus())
    def test_same_report_as_search(self, family, n, values):
        algebra = build_classical(family, n)
        x = algebra.element_from_matrix(diag_matrix(values))
        chart = build_chart(x, 42)
        assert report_to_json(redstab_suite(x, 42, chart)) \
            == report_to_json(redstab_suite(x, 42))

    @pytest.mark.parametrize("family,n,values,entries", mixed_corpus())
    def test_mixed_same_report_as_without_chart(self, family, n, values, entries):
        _, x = mixed_element(family, n, values, entries)
        rep = redstab_suite(x, 42, build_chart(x, 42))
        assert rep.overall_pass
        assert report_to_json(rep) == report_to_json(redstab_suite(x, 42))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_nilpotent_same_report_as_without_chart(self, n):
        algebra = build_classical("sl", n)
        for part in nontrivial_partitions(n):
            e = algebra.element_from_matrix(jordan_nilpotent(n, part))
            rep = redstab_suite(e, 42, build_chart(e, 42))
            assert rep.overall_pass, part
            assert report_to_json(rep) == report_to_json(redstab_suite(e, 42)), part

    def test_chart_of_another_element_is_not_used(self, sl3):
        x = sl3.element_from_matrix(diag_matrix([1, 1, -2]))
        other = build_chart(sl3.element_from_matrix(diag_matrix([2, -1, -1])), 42)
        assert report_to_json(redstab_suite(x, 42, other)) \
            == report_to_json(redstab_suite(x, 42))


SL4_CASES = {
    "nilpotent": [[int(j == i + 1) for j in range(4)] for i in range(4)],
    "semisimple": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    "mixed": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
}


class TestChecksReadTheElement:
    """The chart and its checks read rank(ad x) from ``x.orbit_dim``, the
    fact x keeps: a wrong value there is caught, not trusted."""

    @pytest.mark.parametrize("case", ["nilpotent", "mixed"])
    def test_poisoned_orbit_dim_refuses_the_chart(self, sl4, case):
        x = sl4.element_from_matrix(RatMatrix.from_rows(SL4_CASES[case]))
        x.__dict__["orbit_dim"] = x.orbit_dim + 1
        with pytest.raises(AssertionError, match="parameter count"):
            build_chart(x, 42)

    @pytest.mark.parametrize("case", sorted(SL4_CASES))
    def test_poisoned_orbit_dim_fails_dimension_identity(self, sl4, case):
        x = sl4.element_from_matrix(RatMatrix.from_rows(SL4_CASES[case]))
        chart = build_chart(x, 42)
        x.__dict__["orbit_dim"] = x.orbit_dim + 1
        report = verify_chart(x, chart, 42, samples=2)
        checks = {c.name: c for c in report.checks}
        assert checks["dimension_identity"] == verify.Check(
            "dimension_identity", chart.param_count + 1, chart.param_count, False)
        if case == "mixed":
            assert not checks["centralizer_composition"].passed
        assert not report.overall_pass


# the checks whose verdict is not observed == expected (see `verify`)
OWN_RULE = {"levi_witness_found", "jordan_type_preserved", "u2_differs_from_u"}


def _assert_verdict_rule(*reports):
    """Every check of the printed reports outside OWN_RULE passes exactly
    when its observed value equals its expected one."""
    for report in reports:
        for c in json.loads(json.dumps(report_to_json(report)))["checks"]:
            if c["name"] not in OWN_RULE:
                assert c["pass"] == (c["observed"] == c["expected"]), c


def _nilpotent_corpus():
    """sl3-sl5 nilpotents of every nontrivial Jordan type, and the so5, so6,
    sp4 and sp6 regular nilpotents (part None)."""
    cases = [pytest.param("sl", n, part, id=f"sl{n}-" + ",".join(map(str, part)))
             for n in (3, 4, 5) for part in nontrivial_partitions(n)]
    for family, n in (("so", 5), ("so", 6), ("sp", 4), ("sp", 6)):
        cases.append(pytest.param(family, n, None, id=f"{family}{n}-regular"))
    return cases


def _coordinate_tangent_rank(nil_chart):
    """rank(ad e . P^T), P the coordinate rows of p: the coordinate formula
    for dim [e, p], kept as the reference for `verify._tangent_check`."""
    algebra = nil_chart.algebra
    p_columns = RatMatrix.from_rows(
        [algebra.coords_of_matrix(b) for b in nil_chart.parabolic.p]).transpose()
    return rank(ad_matrix(nil_chart.base_element) * p_columns)


def _tangent_corpus():
    """sl3-sl6 nilpotents of every nontrivial Jordan type, and in so5, so6,
    sp4 and sp6 the sum of the strictly upper basis elements and each of
    those elements alone."""
    cases = [pytest.param("sl", n, jordan_nilpotent(n, part),
                          id=f"sl{n}-" + ",".join(map(str, part)))
             for n in (3, 4, 5, 6) for part in nontrivial_partitions(n)]
    for family, n in (("so", 5), ("so", 6), ("sp", 4), ("sp", 6)):
        upper = upper_basis(build_classical(family, n))
        cases.append(pytest.param(family, n, sum(upper[1:], upper[0]),
                                  id=f"{family}{n}-upper"))
        cases += [pytest.param(family, n, b, id=f"{family}{n}-upper{k}")
                  for k, b in enumerate(upper)]
    return cases


class TestTangentIdentity:
    """`verify._tangent_check` ranks the brackets [e, b], b in p, as
    matrices. The coordinate map is injective, so that is the rank of the
    coordinate formula, and both equal dim u2."""

    @staticmethod
    def _assert_agrees(nil_chart, name):
        reference = _coordinate_tangent_rank(nil_chart)
        u2 = len(nil_chart.parabolic.u2)
        assert reference == u2
        assert verify._tangent_check(nil_chart, name) == verify.Check(name, u2, reference, True)

    @pytest.mark.parametrize("family, n, e", _tangent_corpus())
    def test_nilpotent_charts(self, family, n, e):
        chart = chart_nilpotent(build_classical(family, n).element_from_matrix(e))
        self._assert_agrees(chart, "tangent_identity")

    @pytest.mark.parametrize("family, n, values, entries", mixed_corpus())
    def test_inner_charts_of_the_mixed_corpus(self, family, n, values, entries):
        _, x = mixed_element(family, n, values, entries)
        self._assert_agrees(build_chart(x, 42).inner, "inner_tangent_identity")


class TestVerdictRule:
    """Every check of `verify_chart` and `redstab_suite` outside OWN_RULE is
    built by `verify._agrees`, so its verdict can be recomputed from the
    printed report: on built charts, on charts read back from JSON and
    verified under another seed, and on the failing reports of charts read
    back with their factors reversed (and of the deserialized-chart tests of
    `TestVerifyChart`)."""

    @pytest.fixture
    def agreed(self, monkeypatch):
        """The names of the checks built by `verify._agrees`."""
        names = set()
        real = verify._agrees

        def spy(name, expected, observed):
            names.add(name)
            return real(name, expected, observed)

        monkeypatch.setattr(verify, "_agrees", spy)
        return names

    @staticmethod
    def _reports(agreed, x, chart, seed=42):
        """The chart report of ``chart`` under ``seed`` and the redstab
        reports with and without it, after checking the rule on them."""
        reports = [verify_chart(x, chart, seed, 3), redstab_suite(x, seed, chart),
                   redstab_suite(x, seed)]
        _assert_verdict_rule(*reports)
        names = {c.name for report in reports for c in report.checks}
        assert names - agreed <= OWN_RULE and not agreed & OWN_RULE
        return reports

    @pytest.mark.parametrize("family,n,part", _nilpotent_corpus())
    def test_nilpotent(self, agreed, family, n, part):
        if part is None:
            _, x = _regular_nilpotent(family, n)
        else:
            x = build_classical(family, n).element_from_matrix(jordan_nilpotent(n, part))
        assert all(r.overall_pass for r in self._reports(agreed, x, build_chart(x, 42)))

    @pytest.mark.parametrize("family,n,values", _semisimple_corpus())
    def test_semisimple(self, agreed, family, n, values):
        algebra = build_classical(family, n)
        x = algebra.element_from_matrix(diag_matrix(values))
        self._assert_built_and_read_back(agreed, algebra, x)

    @pytest.mark.parametrize("family,n,values,entries", mixed_corpus())
    def test_mixed(self, agreed, family, n, values, entries):
        algebra, x = mixed_element(family, n, values, entries)
        self._assert_built_and_read_back(agreed, algebra, x)

    def _assert_built_and_read_back(self, agreed, algebra, x):
        chart = build_chart(x, 42)
        assert all(r.overall_pass for r in self._reports(agreed, x, chart))
        reversed_report = self._reports(agreed, x, _reversed_round_trip(algebra, chart))[0]
        assert not reversed_report.check("rebuilt_chart_identity").passed
        read_back = chart_from_json(algebra, chart_to_json(chart))
        self._reports(agreed, x, read_back, seed=7)

    def test_own_rule_names_are_exactly_three(self, agreed, sl3):
        names = set()
        for rows in (elem(3, 0, 2), diag_matrix([1, 1, -2])):
            x = sl3.element_from_matrix(rows)
            names |= {c.name for r in self._reports(agreed, x, build_chart(x, 42))
                      for c in r.checks}
        assert names - agreed == OWN_RULE


class TestInvariants:
    def test_sl2_h(self, sl2):
        h = element(sl2, [[1, 0], [0, -1]])
        assert invariants(h).invariant_vector == (F(-1),)

    def test_sl3_block(self, sl3):
        x = sl3.element_from_matrix(diag_matrix([1, 1, -2]))
        assert invariants(x).invariant_vector == (F(-3), F(2))

    def test_nilpotent_all_zero(self, sl3):
        e = sl3.element_from_matrix(elem(3, 0, 1) + elem(3, 1, 2))
        assert invariants(e).is_zero()

    def test_rejects_non_sl(self):
        so4 = build_classical("so", 4)
        x = so4.element(so4.basis and [1] + [0] * (so4.dim - 1))
        with pytest.raises(ValueError):
            invariants(x)

    def test_conjugation_invariance(self, sl3):
        rng = SplitMix64(55)
        nil_basis = [elem(3, i, j) for i in range(3) for j in range(3) if i != j]
        for _ in range(50):
            x = sl3.element([rng.fraction() for _ in range(sl3.dim)])
            g = RatMatrix.identity(3)
            g_inv = RatMatrix.identity(3)
            for _ in range(3):
                b = nil_basis[rng.randint(0, len(nil_basis) - 1)].scale(rng.fraction())
                g = g * exp_nilpotent(b)
                g_inv = exp_nilpotent(-b) * g_inv
            y = sl3.element_from_matrix(g * x.matrix * g_inv)
            assert invariants(y).invariant_vector == \
                invariants(x).invariant_vector


class TestHamiltonianClass:
    def test_sl2_mixed_jordan_block(self, sl2):
        x = element(sl2, [[1, 1], [0, -1]])
        assert hamiltonian_class(x).invariant_vector == (F(-1),)

    def test_sl3_mixed(self, sl3):
        x = sl3.element_from_matrix(diag_matrix([1, 1, -2]) + elem(3, 0, 1))
        assert hamiltonian_class(x).invariant_vector == (F(-3), F(2))

    def test_rejects_nilpotent(self, sl2):
        e = element(sl2, [[0, 1], [0, 0]])
        with pytest.raises(ZeroSemisimplePartError):
            hamiltonian_class(e)

    def test_so5_nilpotent_rejected_before_the_family(self):
        # x_s = 0 exactly when x is nilpotent; that is refused before the
        # sl-only invariants refuse the family
        so5 = build_classical("so", 5)
        e = so5.element_from_matrix(elem(5, 0, 1) - elem(5, 3, 4))
        with pytest.raises(ZeroSemisimplePartError):
            hamiltonian_class(e)
        d = so5.element_from_matrix(diag_matrix([1, 1, 0, -1, -1]))
        with pytest.raises(ValueError, match="sl algebras only") as info:
            hamiltonian_class(d)
        assert not isinstance(info.value, ZeroSemisimplePartError)


class TestKostantRep:
    def test_n2(self, sl2):
        rep = kostant_rep(2, OrbitClassId((F(-1),)))
        assert rep.matrix == RatMatrix.from_rows([[0, 1], [1, 0]])

    def test_n3_non_squarefree(self, sl3):
        cid = OrbitClassId((F(-3), F(2)))
        rep = kostant_rep(3, cid)
        assert char_poly(rep.matrix).coefficients == (F(2), F(-3), F(0), F(1))
        assert invariants(rep).invariant_vector == cid.invariant_vector
        # the companion itself is not semisimple here; its Jordan part is
        pair = jordan_decompose(rep)
        assert pair.nilpotent.is_zero()

    def test_rejects_zero_class(self):
        with pytest.raises(ValueError):
            kostant_rep(3, OrbitClassId((F(0), F(0))))
        with pytest.raises(ValueError):
            kostant_rep(3, OrbitClassId((F(1),)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_trip_random(self, n):
        rng = SplitMix64(60 + n)
        for _ in range(25):
            vec = tuple(rng.fraction() for _ in range(n - 1))
            if not any(vec):
                vec = (F(1),) + vec[1:]
            cid = OrbitClassId(vec)
            rep = kostant_rep(n, cid)
            assert invariants(rep).invariant_vector == vec


def _regular_nilpotent(family, n):
    """sl: the n x n Jordan block. so/sp: the sum of the strictly
    upper-triangular basis elements, which holds every simple root vector."""
    algebra = build_classical(family, n)
    if family == "sl":
        return algebra, algebra.element_from_matrix(jordan_nilpotent(n, [n]))
    upper = upper_basis(algebra)
    return algebra, algebra.element_from_matrix(sum(upper[1:], upper[0]))


def _jordan_type(x):
    """The Jordan type of a nilpotent matrix, from the ranks of its powers:
    rank(x^(k-1)) - rank(x^k) blocks have size at least k."""
    n = x.rows
    ranks = [n]
    power = x
    while ranks[-1]:
        ranks.append(rank(power))
        power = power * x
    dual = [a - b for a, b in zip(ranks, ranks[1:])]
    return [sum(1 for d in dual if d > i) for i in range(dual[0])]


def _nilpotent_orbit_dim(family, n, part):
    """Collingwood-McGovern, Cor. 6.1.4: the orbit dimension of a nilpotent
    of Jordan type ``part`` in sl(n), so(n) or sp(n)."""
    dual = [sum(1 for p in part if p > k) for k in range(max(part))]
    squares = sum(d * d for d in dual)
    odd = sum(1 for p in part if p % 2)
    if family == "sl":
        return n * n - squares
    if family == "so":
        return (n * n - n) // 2 - (squares - odd) // 2
    return (n * n + n) // 2 - (squares + odd) // 2


class TestScaleRegularNilpotents:
    """Regular nilpotents of sl8, so8 and sp8: the chart verifies, and its
    dimension is the Collingwood-McGovern orbit dimension of the Jordan type
    read off the matrix."""

    @pytest.mark.parametrize("family,n,part", [
        ("sl", 8, [8]), ("so", 8, [7, 1]), ("sp", 8, [8]),
    ])
    def test_verifies_with_partition_dimension(self, family, n, part):
        algebra, x = _regular_nilpotent(family, n)
        assert _jordan_type(x.matrix) == part
        dim = _nilpotent_orbit_dim(family, n, part)
        # a regular orbit has dimension dim g - rank g
        assert dim == algebra.dim - (n - 1 if family == "sl" else n // 2)
        chart = build_chart(x, 42)
        report = verify_chart(x, chart, 42, 10)
        assert report.overall_pass
        assert report.check("dimension_identity").expected == dim
        assert chart.param_count == dim
        assert redstab_suite(x, 42, chart).overall_pass


def _reference_diagonal_conjugate(m, rng):
    """d m d^-1 in Fraction matrices, with the determinant-one diagonal d
    drawn as `_diagonal_conjugate` draws it."""
    entries = [F(rng.randint(1, 9)) for _ in range(m.rows - 1)]
    prod = F(1)
    for e in entries:
        prod *= e
    entries.append(1 / prod)
    return diag_matrix(entries) * m * diag_matrix([1 / e for e in entries])


def _conjugated_sl4_mixed():
    """u (diag(1, 1, -1, -1) + E01) u^-1 for a unit upper-bidiagonal u: a
    mixed element whose semisimple part is not diagonal."""
    u, u_inv = unit_bidiagonal([1, -1, 2])
    return u * (diag_matrix([1, 1, -1, -1]) + elem(4, 0, 1)) * u_inv


class TestDiagonalConjugate:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_equals_fraction_reference(self, n):
        source = SplitMix64(1000 + n)
        for seed in range(20):
            m = RatMatrix.from_rows(
                [[draw_fraction(source, -9, 9, (1, 2, 3, 4, 7)) if source.randint(0, 2) else 0
                  for _ in range(n)] for _ in range(n)])
            rng, reference_rng = SplitMix64(seed), SplitMix64(seed)
            assert _diagonal_conjugate(m, rng) == \
                _reference_diagonal_conjugate(m, reference_rng)
            # the same draws, so later samples are unchanged too
            assert rng.next_u64() == reference_rng.next_u64()

    def test_is_diagonal(self):
        assert _is_diagonal(diag_matrix([3, F(1, 2), 0, -7]))
        assert not _is_diagonal(diag_matrix([1, 2, 3]) + elem(3, 2, 1))
        assert not _is_diagonal(elem(3, 0, 2, F(1, 5)))

    @pytest.mark.parametrize("rows, draws", [
        (jordan_nilpotent(4, [4]), 5),
        (diag_matrix([1, 1, -1, -1]) + elem(4, 0, 1), 5),
        (diag_matrix([1, 1, -1, -1]), 0),
        (_conjugated_sl4_mixed(), 0),
    ], ids=["regular-nilpotent", "mixed", "semisimple", "conjugated-mixed"])
    def test_torus_drawn_for_each_sample_of_a_slice(self, sl4, monkeypatch, rows, draws):
        """Each of 5 samples (seed 42) draws the torus element d for a
        chart with a slice on sl4 and a diagonal shift, the mixed chart's
        x_s included. The semisimple chart has no slice to draw in, and no
        diagonal d commutes with the conjugated mixed chart's x_s."""
        calls = []
        real = verify._diagonal_conjugate

        def spy(m, rng):
            calls.append(m)
            return real(m, rng)

        monkeypatch.setattr(verify, "_diagonal_conjugate", spy)
        x = sl4.element_from_matrix(rows)
        report = verify_chart(x, build_chart(x, 42), 42, 5)
        assert len(calls) == draws
        assert report.overall_pass
