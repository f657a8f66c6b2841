"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines. All tolerances are exact (integer or rational equality).
"""

import contextlib
import io
import json
import time
from fractions import Fraction
from pathlib import Path

from conftest import (
    block_levi,
    compositions,
    diag_matrix,
    elem,
    jordan_nilpotent,
    nontrivial_partitions,
    same_span,
)
from orbitcharts.charts import (
    chart_mixed,
    chart_nilpotent,
    chart_semisimple,
    eval_chart,
)
from orbitcharts.cli import main
from orbitcharts.liealg import (
    build_classical,
    centralizer_basis,
)
from orbitcharts.linalg import RatMatrix, commutator, det, rank
from orbitcharts.rng import SplitMix64
from orbitcharts.sl2 import jacobson_morozov
from orbitcharts.verify import (
    OrbitClassId,
    ZeroSemisimplePartError,
    invariants,
    hamiltonian_class,
    kostant_rep,
    redstab_suite,
    verify_chart,
)

F = Fraction
GOLDEN = Path(__file__).parent / "golden"
SEED = 42


def _report(name, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {name}: {tag}{suffix}")
    assert ok, name


def _nilpotent_corpus():
    for n in (2, 3, 4, 5):
        algebra = build_classical("sl", n)
        for part in nontrivial_partitions(n):
            yield n, part, algebra, algebra.element_from_matrix(
                jordan_nilpotent(n, part))


def _semisimple_corpus():
    rng = SplitMix64(SEED)
    for n in (2, 3, 4):
        algebra = build_classical("sl", n)
        for _ in range(20):
            while True:
                vals = [rng.randint(-3, 3) for _ in range(n - 1)]
                vals.append(-sum(vals))
                if any(vals):
                    break
            yield n, algebra, algebra.element_from_matrix(diag_matrix(vals))


_MIXED_COMPS = {3: [(2, 1)], 4: [(2, 2), (2, 1, 1), (3, 1)]}


def _mixed_corpus():
    rng = SplitMix64(SEED + 1)
    for n in (3, 4):
        algebra = build_classical("sl", n)
        for _ in range(20):
            comps = _MIXED_COMPS[n]
            comp = comps[rng.randint(0, len(comps) - 1)]
            while True:
                lams = [rng.randint(-4, 4) for _ in range(len(comp))]
                if sum(c * l for c, l in zip(comp, lams)) == 0 \
                        and len(set(lams)) == len(lams):
                    break
            rows = [[0] * n for _ in range(n)]
            pos = 0
            for c, lam in zip(comp, lams):
                for i in range(c):
                    rows[pos + i][pos + i] = lam
                pos += c
            pos = 0
            for c in comp:
                if c >= 2:
                    rows[pos][pos + 1] = 1
                    break
                pos += c
            yield n, algebra, algebra.element_from_matrix(RatMatrix.from_rows(rows))


def test_criterion_1_nilpotent_exhaustion():
    started = time.time()
    ok = True
    for n, part, algebra, e in _nilpotent_corpus():
        triple = jacobson_morozov(e)
        relations = (
            commutator(triple.h.matrix, e.matrix) == e.matrix.scale(2)
            and commutator(triple.h.matrix, triple.f.matrix) == triple.f.matrix.scale(-2)
            and commutator(triple.e.matrix, triple.f.matrix) == triple.h.matrix
        )
        chart = chart_nilpotent(e)
        cdim = centralizer_basis(e).dim
        rep = verify_chart(e, chart, SEED, 10)
        rank_ok = (rep.check("jacobian_rank_base").observed
                   == algebra.dim - cdim == chart.param_count)
        ok = ok and relations and rep.overall_pass and rank_ok
        if not ok:
            break
    elapsed = time.time() - started
    _report("1 nilpotent exhaustion", ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_2_dimension_identities():
    from orbitcharts.grading import grading_by, parabolic_data

    ok = True
    for n, part, algebra, e in _nilpotent_corpus():
        triple = jacobson_morozov(e)
        pd = parabolic_data(grading_by(triple.h))
        dims = pd.grading.piece_dims()
        cdim = centralizer_basis(e).dim
        identity_1 = cdim == dims.get(0, 0) + dims.get(1, 0)
        tangent_rows = [algebra.coords_of_matrix(commutator(el, e.matrix))
                        for el in pd.p]
        identity_2 = rank(RatMatrix.from_rows(tangent_rows)) == len(pd.u2)
        ok = ok and identity_1 and identity_2
    _report("2 dimension identities", ok)


def test_criterion_3_semisimple_charts():
    ok = True
    count = 0
    for *_, x in _semisimple_corpus():
        chart = chart_semisimple(x, SEED)
        rep = verify_chart(x, chart, SEED, 10)
        ok = ok and rep.overall_pass and rep.check("char_poly_preserved").passed
        count += 1
    _report("3 semisimple charts", ok and count == 60, f"{count} charts")


def test_criterion_4_mixed_charts():
    ok = True
    count = 0
    for n, algebra, x in _mixed_corpus():
        oracle = centralizer_basis(x).dim
        chart = chart_mixed(x, SEED)
        rep = verify_chart(x, chart, SEED, 10)
        ok = ok and chart.param_count == algebra.dim - oracle and rep.overall_pass
        count += 1
    _report("4 mixed charts", ok and count == 40, f"{count} charts")


def test_criterion_5_redstab_suite():
    counterexamples = 0
    total = 0
    for corpus in (_nilpotent_corpus(), _semisimple_corpus(), _mixed_corpus()):
        for item in corpus:
            x = item[-1]
            rep = redstab_suite(x, SEED)
            total += 1
            if not rep.overall_pass:
                counterexamples += 1
    _report("5 reductive-centralizer suite", counterexamples == 0,
            f"{total} elements, {counterexamples} counterexamples")


def test_criterion_6_levi_witness():
    from orbitcharts.grading import semisimple_for_levi

    ok = True
    count = 0
    for n in (2, 3, 4, 5):
        algebra = build_classical("sl", n)
        for comp in compositions(n):
            levi = block_levi(n, comp)
            z = semisimple_for_levi(algebra, levi, SEED)
            ok = ok and same_span(centralizer_basis(z), levi)
            count += 1
    _report("6 Levi witnesses", ok, f"{count} compositions")


def test_criterion_7_classification_round_trip():
    ok = True
    rng = SplitMix64(SEED + 2)
    for n in (2, 3, 4):
        for _ in range(25):
            vec = tuple(rng.fraction() for _ in range(n - 1))
            if not any(vec):
                vec = (F(1),) + vec[1:]
            cid = OrbitClassId(vec)
            ok = ok and invariants(kostant_rep(n, cid)).invariant_vector == vec
    rejections = True
    for n in (2, 3, 4, 5):
        algebra = build_classical("sl", n)
        for part in nontrivial_partitions(n):
            e = algebra.element_from_matrix(jordan_nilpotent(n, part))
            try:
                hamiltonian_class(e)
                rejections = False
            except ZeroSemisimplePartError:
                pass
    _report("7 classification round trip", ok and rejections)


def test_criterion_8_hand_fixtures():
    fixtures = json.loads((GOLDEN / "chart_fixtures.json").read_text(encoding="utf-8"))
    sl2 = build_classical("sl", 2)
    e = sl2.element_from_matrix(elem(2, 0, 1))
    nil = eval_chart(chart_nilpotent(e), (1, 1))
    nil_ok = [[str(nil.at(i, j)) for j in range(2)] for i in range(2)] \
        == fixtures["sl2_nilpotent_psi_1_1"]

    h = sl2.element_from_matrix(diag_matrix([1, -1]))
    ss = eval_chart(chart_semisimple(h, SEED), (1, 1))
    ss_ok = [[str(ss.at(i, j)) for j in range(2)] for i in range(2)] \
        == fixtures["sl2_semisimple_psi_1_1"] and det(ss) == -1

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "--family", "sl", "--size", "3",
                     "--element",
                     '{"matrix": [["0","0","1"],["0","0","0"],["0","0","0"]]}',
                     "--seed", "42", "--samples", "10"])
    golden = (GOLDEN / "sl3_e13_verify.json").read_text(encoding="utf-8")
    report = json.loads(buf.getvalue())
    checks = {c["name"]: c for c in report["chart_verification"]["checks"]}
    e13_ok = (code == 0
              and buf.getvalue() == golden
              and checks["jacobian_rank_base"]["observed"] == 4
              and checks["u2_differs_from_u"]["observed"] is True)
    _report("8 hand-verified fixtures", nil_ok and ss_ok and e13_ok)


def test_criterion_9_determinism():
    commands = [
        ["analyze", "--family", "sl", "--size", "3", "--element",
         '{"matrix": [["1","1","0"],["0","1","0"],["0","0","-2"]]}'],
        ["chart", "--family", "sl", "--size", "3", "--element",
         '{"matrix": [["1","1","0"],["0","1","0"],["0","0","-2"]]}',
         "--seed", "42"],
        ["verify", "--family", "sl", "--size", "4", "--element",
         '{"matrix": [["0","1","0","0"],["0","0","0","0"],["0","0","0","1"],["0","0","0","0"]]}',
         "--seed", "42", "--samples", "10"],
        ["classify", "--family", "sl", "--size", "3", "--element",
         '{"matrix": [["1","1","0"],["0","1","0"],["0","0","-2"]]}'],
    ]
    ok = True
    for args in commands:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(args)
            outs.append((code, buf.getvalue()))
        ok = ok and outs[0] == outs[1] and outs[0][0] == 0
    _report("9 determinism", ok)
