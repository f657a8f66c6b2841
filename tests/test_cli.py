import contextlib
import io
import json
import runpy
import sys
from collections import Counter
from pathlib import Path

import pytest

import orbitcharts.charts as charts
import orbitcharts.cli as cli
import orbitcharts.grading as grading
import orbitcharts.jordan as jordan
import orbitcharts.liealg as liealg
import orbitcharts.linalg as linalg
import orbitcharts.verify as verify
from conftest import mixed_corpus, mixed_element, spy_everywhere, upper_basis
from orbitcharts.cli import main
from orbitcharts.jordan import jordan_decompose
from orbitcharts.liealg import LieAlgebra, ad_matrix, build_classical
from orbitcharts.linalg import RatMatrix, matrix_to_json
from orbitcharts.sl2 import jacobson_morozov
from orbitcharts.verify import class_id_to_json, invariants

GOLDEN = Path(__file__).parent / "golden"

E13 = '{"matrix": [["0","0","1"],["0","0","0"],["0","0","0"]]}'
H2 = '{"matrix": [["1","0"],["0","-1"]]}'
BLOCK3 = '{"matrix": [["1","0","0"],["0","1","0"],["0","0","-2"]]}'
MIXED3 = '{"matrix": [["1","1","0"],["0","1","0"],["0","0","-2"]]}'
ZERO2 = '{"matrix": [["0","0"],["0","0"]]}'
# companion matrix of t^3 - t - 1, which has no rational root
CUBIC3 = '{"matrix": [["0","0","1"],["1","0","1"],["0","1","0"]]}'
# companion matrix of t^3 - 7t - M, M = (10^20 + 39)(10^20 + 129) a product
# of two primes: no rational root, and a constant term too large to factor
BIG_CUBIC3 = json.dumps({"matrix": [["0", "0", str((10 ** 20 + 39) * (10 ** 20 + 129))],
                                    ["1", "0", "7"], ["0", "1", "0"]]})
# companion matrix of t^3 - 2, which has no rational root
CUBE_ROOT3 = '{"matrix": [["0","0","2"],["1","0","0"],["0","1","0"]]}'
SO5_DIAG = ('{"matrix": [["1","0","0","0","0"],["0","1","0","0","0"],'
            '["0","0","0","0","0"],["0","0","0","-1","0"],["0","0","0","0","-1"]]}')
SP4_REGULAR = ('{"matrix": [["0","1","0","0"],["0","0","1","0"],'
               '["0","0","0","-1"],["0","0","0","0"]]}')


def _no_chart(*_args):
    raise AssertionError("a chart was built")


def _not_read(*_args):
    raise AssertionError("the element was read")


def _copy_rows(rows):
    return [list(row) for row in rows]


def run(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


class TestAnalyze:
    def test_nilpotent(self):
        code, out = run(["analyze", "--family", "sl", "--size", "2",
                         "--element", '{"matrix": [["0","1"],["0","0"]]}'])
        assert code == 0
        data = json.loads(out)
        assert data["case"] == "nilpotent"
        assert data["orbit_dim"] == 2
        assert "class_id" not in data

    def test_semisimple_with_class(self):
        code, out = run(["analyze", "--family", "sl", "--size", "2",
                         "--element", H2])
        assert code == 0
        data = json.loads(out)
        assert data["case"] == "semisimple"
        assert data["orbit_dim"] == 2
        assert data["class_id"] == ["-1"]

    def test_zero(self):
        code, out = run(["analyze", "--family", "sl", "--size", "2",
                         "--element", ZERO2])
        assert code == 0
        data = json.loads(out)
        assert data["case"] == "zero"
        assert data["orbit_dim"] == 0

    def test_mixed(self):
        code, out = run(["analyze", "--family", "sl", "--size", "3",
                         "--element", MIXED3])
        data = json.loads(out)
        assert data["case"] == "mixed"
        assert data["class_id"] == ["-3", "2"]
        assert data["jordan"]["nilpotent"][0][1] == "1"

    @pytest.mark.parametrize("family,n,values,entries",
                             [c for c in mixed_corpus() if c.values[0] == "sl"])
    def test_mixed_class_id_read_off_x(self, monkeypatch, family, n, values, entries):
        """class_id is the class of x_s, read off char_poly(x) =
        char_poly(x_s): the one char_poly, taken in `jordan_decompose`, is
        of x, and `invariants` reads it again from x."""
        _, x = mixed_element(family, n, values, entries)
        expected = class_id_to_json(invariants(jordan_decompose(x).semisimple))
        calls = spy_everywhere(monkeypatch, linalg.char_poly)
        code, out = run(["analyze", "--family", family, "--size", str(n),
                         "--element", json.dumps({"matrix": matrix_to_json(x.matrix)})])
        assert code == 0
        assert json.loads(out)["class_id"] == expected
        assert calls == [x.matrix]

    def test_element_from_file(self, tmp_path):
        path = tmp_path / "el.json"
        path.write_text(H2, encoding="utf-8")
        code, out = run(["analyze", "--family", "sl", "--size", "2",
                         "--element", str(path)])
        assert code == 0


class TestChart:
    def test_sl2_nilpotent_params(self):
        code, out = run(["chart", "--family", "sl", "--size", "2",
                         "--element", '{"matrix": [["0","1"],["0","0"]]}'])
        assert code == 0
        data = json.loads(out)
        assert data["case_tag"] == "nilpotent"
        assert data["expected_orbit_dim"] == 2
        assert len(data["factors"]) == 1

    def test_sl3_semisimple_params(self):
        code, out = run(["chart", "--family", "sl", "--size", "3",
                         "--element", BLOCK3])
        data = json.loads(out)
        assert data["case_tag"] == "semisimple"
        assert data["expected_orbit_dim"] == 4

    def test_sl3_mixed_params(self):
        code, out = run(["chart", "--family", "sl", "--size", "3",
                         "--element", MIXED3])
        data = json.loads(out)
        assert data["case_tag"] == "mixed"
        assert data["expected_orbit_dim"] == 6
        assert data["inner"]["case_tag"] == "nilpotent"

    def test_zero_element_exit_5(self):
        code, out = run(["chart", "--family", "sl", "--size", "2",
                         "--element", ZERO2])
        assert code == 5
        assert out == ""

    @pytest.mark.parametrize("family,size,element,golden", [
        ("sl", 3, E13, "sl3_e13_chart.json"),
        ("sl", 3, BLOCK3, "sl3_diag_chart.json"),
        ("sl", 3, MIXED3, "sl3_mixed_chart.json"),
        ("so", 5, SO5_DIAG, "so5_diag_chart.json"),
        ("sp", 4, SP4_REGULAR, "sp4_regular_nilpotent_chart.json"),
    ], ids=["sl3-nilpotent", "sl3-semisimple", "sl3-mixed",
            "so5-semisimple", "sp4-nilpotent"])
    def test_golden(self, family, size, element, golden):
        code, out = run(["chart", "--family", family, "--size", str(size),
                         "--element", element, "--seed", "42"])
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")


class TestVerify:
    def test_exit_zero_and_golden(self):
        code, out = run(["verify", "--family", "sl", "--size", "3",
                         "--element", E13, "--seed", "42", "--samples", "10"])
        assert code == 0
        golden = (GOLDEN / "sl3_e13_verify.json").read_text(encoding="utf-8")
        assert out == golden

    @pytest.mark.parametrize("family,size,element,golden", [
        ("so", 5, SO5_DIAG, "so5_diag_verify.json"),
        ("sp", 4, SP4_REGULAR, "sp4_regular_nilpotent_verify.json"),
        ("sl", 4, '{"matrix": [["1","1","0","0"],["0","1","0","0"],'
                  '["0","0","-1","0"],["0","0","0","-1"]]}',
         "sl4_mixed_verify.json"),
    ], ids=["so5-semisimple", "sp4-nilpotent", "sl4-mixed"])
    def test_golden_beyond_sl3(self, family, size, element, golden):
        code, out = run(["verify", "--family", family, "--size", str(size),
                         "--element", element, "--seed", "42", "--samples", "10"])
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_golden_sl6_regular_nilpotent(self):
        # 30 Jacobian columns per sample and five powers per Jordan-type check
        rows = [[str(int(j == i + 1)) for j in range(6)] for i in range(6)]
        code, out = run(["verify", "--family", "sl", "--size", "6",
                         "--element", json.dumps({"matrix": rows}),
                         "--seed", "42", "--samples", "10"])
        assert code == 0
        golden = GOLDEN / "sl6_regular_nilpotent_verify.json"
        assert out == golden.read_text(encoding="utf-8")

    def test_non_split_rejected_exit_4(self, capsys):
        code, out = run(["verify", "--family", "sl", "--size", "3",
                         "--element", CUBIC3])
        assert (code, out) == (4, "")
        err = capsys.readouterr().err
        assert "center basis element 0 [[" in err
        assert "does not split over the rationals" in err

    @pytest.mark.parametrize("command", ["chart", "verify"])
    def test_non_split_with_large_constant_term_exit_4(self, capsys, command):
        code, out = run([command, "--family", "sl", "--size", "3",
                         "--element", BIG_CUBIC3])
        assert (code, out) == (4, "")
        assert "does not split over the rationals" in capsys.readouterr().err

    def test_budget_exhaustion_counts_reasons(self, capsys, monkeypatch):
        import orbitcharts.grading as grading

        def no_integer_spectrum(*_args):
            raise grading.NonIntegerSpectrumError("forced")

        monkeypatch.setattr(grading, "grading_by", no_integer_spectrum)
        code, out = run(["verify", "--family", "sl", "--size", "2", "--element", H2])
        assert (code, out) == (4, "")
        err = capsys.readouterr().err
        assert "within 64 attempts (seed 42); rejected: " in err
        counts = dict(item.rsplit(": ", 1)
                      for item in err.strip().split("rejected: ")[1].split(", "))
        assert list(counts) == ["zero", "not semisimple", "centralizer too large",
                                "non-integer spectrum"]
        assert sum(map(int, counts.values())) == 64
        assert int(counts["non-integer spectrum"]) > 0

    @pytest.mark.parametrize("family,size,element", [
        ("sl", 3, BLOCK3), ("so", 5, SO5_DIAG)], ids=["sl3", "so5"])
    def test_one_witness_search(self, family, size, element, monkeypatch):
        calls = []
        search = grading._witness_grading

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(grading, "_witness_grading", counted)
        monkeypatch.setattr(charts, "_witness_grading", counted)
        monkeypatch.setattr(verify, "_witness_grading", counted)
        code, _ = run(["verify", "--family", family, "--size", str(size),
                       "--element", element])
        assert code == 0
        assert len(calls) == 1

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out = run(["verify", "--family", "sl", "--size", "2",
                         "--element", H2, "--out", str(target)])
        assert code == 0
        assert out == ""
        data = json.loads(target.read_text(encoding="utf-8"))
        assert data["overall_pass"] is True

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        code, out = run(["verify", "--family", "sl", "--size", "2",
                         "--element", H2, "--out", str(target)])
        assert code == 2
        assert out == ""
        assert "orbit: cannot write" in capsys.readouterr().err
        assert not target.exists()

    def test_failed_check_exit_1_with_report(self, monkeypatch):
        # every Jacobian rank reads 0, so both rank checks fail; the report
        # is still printed
        monkeypatch.setattr(verify, "_jacobian_rank", lambda chart, vp, frame: 0)
        code, out = run(["verify", "--family", "sl", "--size", "2", "--element", H2])
        report = json.loads(out)
        assert code == 1
        assert report["overall_pass"] is False
        failed = [c["name"] for c in report["chart_verification"]["checks"] if not c["pass"]]
        assert failed == ["jacobian_rank_base", "jacobian_rank_samples"]

    def test_negative_samples_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_chart", _no_chart)
        code, out = run(["verify", "--family", "sl", "--size", "2",
                         "--element", H2, "--samples", "-1"])
        assert code == 2
        assert out == ""
        assert "--samples must be nonnegative" in capsys.readouterr().err

    def test_malformed_element_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _ = run(["verify", "--family", "sl", "--size", "2",
                       "--element", str(path)])
        assert code == 2

    # 100000 nested lists: `json` gives up at a depth that depends on the
    # Python version (1000 on 3.10/3.11, 5000 on 3.12, 100000 on 3.13)
    DEEP_ELEMENT = '{"matrix": ' + "[" * 100000

    def test_deeply_nested_inline_element_exit_2(self, capsys):
        code, out = run(["analyze", "--family", "sl", "--size", "2",
                         "--element", self.DEEP_ELEMENT])
        assert (code, out) == (2, "")
        assert "element JSON is nested too deeply" in capsys.readouterr().err

    def test_deeply_nested_element_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(self.DEEP_ELEMENT, encoding="utf-8")
        code, out = run(["analyze", "--family", "sl", "--size", "2",
                         "--element", str(path)])
        assert (code, out) == (2, "")
        assert "element JSON is nested too deeply" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        code, _ = run(["verify", "--family", "sl", "--size", "2",
                       "--element", "no_such_file.json"])
        assert code == 2

    def test_exponent_literal_exit_2(self, capsys):
        element = '{"matrix": [["1e400","0"],["0","-1e400"]]}'
        code, out = run(["analyze", "--family", "sl", "--size", "2", "--element", element])
        assert (code, out) == (2, "")
        assert "invalid rational literal '1e400'" in capsys.readouterr().err

    def test_not_in_algebra_exit_3(self):
        code, _ = run(["analyze", "--family", "sl", "--size", "2",
                       "--element", '{"matrix": [["1","0"],["0","1"]]}'])
        assert code == 3

    def test_size_mismatch_exit_3(self):
        code, _ = run(["analyze", "--family", "sl", "--size", "3",
                       "--element", H2])
        assert code == 3

    @pytest.mark.parametrize("family,size,rows,reason", [
        ("sl", 1, 1, "sl(n) needs n >= 2"),
        ("sl", 1, 2, "sl(n) needs n >= 2"),
        ("sl", 0, 2, "sl(n) needs n >= 2"),
        ("sl", -1, 1, "sl(n) needs n >= 2"),
        ("sp", 3, 3, "sp(n) needs even n >= 2"),
        ("sp", 3, 2, "sp(n) needs even n >= 2"),
        ("so", 2, 2, "so(n) needs n >= 3"),
        ("so", 2, 3, "so(n) needs n >= 3"),
    ])
    def test_unsupported_size_exit_2_whatever_the_element(self, capsys, family, size,
                                                          rows, reason):
        element = json.dumps({"matrix": [["0"] * rows for _ in range(rows)]})
        code, out = run(["analyze", "--family", family, "--size", str(size),
                         "--element", element])
        assert (code, out) == (2, "")
        assert f"orbit: {reason}" in capsys.readouterr().err

    def test_underscore_literal_exit_2(self):
        element = '{"matrix": [["1_0","0"],["0","-1_0"]]}'
        code, out = run(["verify", "--family", "sl", "--size", "2", "--element", element])
        assert (code, out) == (2, "")

    def test_element_checked_before_algebra_is_built(self, tmp_path, capsys, monkeypatch):
        import orbitcharts.cli as cli

        def _no_algebra(*_args):
            raise AssertionError("the algebra was built")

        monkeypatch.setattr(cli, "build_classical", _no_algebra)
        code, out = run(["analyze", "--family", "sl", "--size", "12", "--element", H2])
        assert (code, out) == (3, "")
        assert "orbit: element is 2x2, expected 12x12" in capsys.readouterr().err
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, out = run(["verify", "--family", "sl", "--size", "12",
                         "--element", str(path)])
        assert (code, out) == (2, "")
        assert "orbit: element is not valid JSON" in capsys.readouterr().err


class TestExitCodes:
    """One case per row of the exit-code table of `cli.main` (the ValueError
    row twice: an element that does not parse, and a plain ValueError); each
    failure prints "orbit: " and the exception text to stderr, nothing to
    stdout."""

    @pytest.mark.parametrize("args,code,message", [
        (["analyze", "--family", "sl", "--size", "2",
          "--element", '{"matrix": [["1","0"],["0","1"]]}'],
         3, "matrix does not lie in sl2"),
        (["chart", "--family", "sl", "--size", "3", "--element", CUBE_ROOT3],
         4, "does not split over the rationals"),
        (["chart", "--family", "sl", "--size", "2", "--element", ZERO2],
         5, "the zero element has no chart"),
        (["classify", "--family", "sl", "--size", "3", "--element", E13],
         5, "semisimple part is zero"),
        (["analyze", "--family", "sl", "--size", "2", "--element", '{"matrix": 1}'],
         2, "matrix JSON must be a nonempty array of arrays"),
        (["analyze", "--family", "sl", "--size", "2", "--element", '{"mat": [["0"]]}'],
         2, 'element JSON must be an object with a "matrix" key'),
        (["analyze", "--family", "sl", "--size", "1", "--element", '{"matrix": [["0"]]}'],
         2, "sl(n) needs n >= 2"),
    ], ids=["not-in-algebra", "no-witness", "zero-element", "zero-semisimple-part",
            "element-parse", "element-without-matrix-key", "value-error"])
    def test_exit_code_and_message(self, capsys, args, code, message):
        assert run(args) == (code, "")
        err = capsys.readouterr().err
        assert err.startswith("orbit: ") and err.endswith("\n") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("element, line", [
        ('{"matrix": 1}', "orbit: matrix JSON must be a nonempty array of arrays\n"),
        ('{"mat": [["0"]]}', 'orbit: element JSON must be an object with a "matrix" key\n'),
    ], ids=["element-parse", "element-without-matrix-key"])
    def test_element_error_line_is_exact(self, capsys, element, line):
        # the element's own ValueError reaches stderr as its message, unwrapped
        assert run(["analyze", "--family", "sl", "--size", "2", "--element", element]) == (2, "")
        assert capsys.readouterr().err == line


COMMAND_ARGV = {
    "analyze": ["--family", "sl", "--size", "3", "--element", MIXED3],
    "chart": ["--family", "sl", "--size", "3", "--element", MIXED3, "--seed", "42"],
    "verify": ["--family", "sl", "--size", "3", "--element", MIXED3, "--seed", "42",
               "--samples", "2"],
    "classify": ["--family", "sl", "--size", "3", "--element", MIXED3],
}


class TestMainExits:
    @pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
    def test_negative_samples_exit_2_before_the_element_is_read(self, capsys, monkeypatch,
                                                                command):
        monkeypatch.setattr(cli, "_load_element_matrix", _not_read)
        assert run([command] + COMMAND_ARGV[command] + ["--samples", "-1"]) == (2, "")
        assert capsys.readouterr().err == "orbit: --samples must be nonnegative, got -1\n"

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
    def test_command_help_exits_0_and_names_every_command(self, command):
        code, out = run([command, "--help"])
        assert code == 0 and out.startswith("usage: orbit")
        assert all(name in out for name in COMMAND_ARGV)

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
    def test_command_after_the_options_prints_the_same(self, command):
        # one parser: the command word may stand before, between or after the flags
        argv = COMMAND_ARGV[command]
        expected = run([command] + argv)
        assert expected[0] == 0
        assert run(argv + [command]) == expected
        assert run(argv[:2] + [command] + argv[2:]) == expected

    def test_help_exits_0(self):
        code, out = run(["--help"])
        assert code == 0 and out.startswith("usage: orbit")

    def test_no_command_exits_2(self, capsys):
        assert run([]) == (2, "")
        assert "the following arguments are required: command" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        (["analyze", "--family", "sl", "--size", "2", "--element", H2], 0), ([], 2),
    ], ids=["analyze", "no-command"])
    def test_run_as_a_module_exits_with_the_code(self, monkeypatch, capsys, argv, code):
        # `python -m orbitcharts.cli` calls `entry`, which exits with main's code
        monkeypatch.setattr(sys, "argv", ["orbit"] + argv)
        monkeypatch.delitem(sys.modules, "orbitcharts.cli")  # run it fresh, without a warning
        with pytest.raises(SystemExit) as info:
            runpy.run_module("orbitcharts.cli", run_name="__main__")
        assert info.value.code == code
        out = capsys.readouterr().out
        if code == 0:
            assert json.loads(out)["orbit_dim"] == 2
        else:
            assert out == ""


class TestLongIntegers:
    """An exact output integer of more digits than the interpreter's
    int-to-str limit (4300 by default) is printed in full; an input literal
    past that limit is still refused."""

    BIG = 10 ** 2999

    @pytest.mark.parametrize("command", ["analyze", "classify"])
    def test_class_id_past_the_digit_limit(self, command):
        # the class id of diag(10^2999, -10^2999) is -10^5998
        element = json.dumps({"matrix": [[str(self.BIG), "0"], ["0", str(-self.BIG)]]})
        code, out = run([command, "--family", "sl", "--size", "2", "--element", element])
        assert code == 0
        assert json.loads(out)["class_id"] == ["-1" + "0" * 5998]

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this interpreter has no int-to-str digit limit")
    def test_literal_past_the_digit_limit_exits_2(self, capsys):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        element = json.dumps({"matrix": [[digits, "0"], ["0", "-" + digits]]})
        assert run(["analyze", "--family", "sl", "--size", "2", "--element", element]) == (2, "")
        assert capsys.readouterr().err.startswith("orbit: ")


class TestClassify:
    def test_sl2_jordan_block(self):
        code, out = run(["classify", "--family", "sl", "--size", "2",
                         "--element", '{"matrix": [["1","1"],["0","-1"]]}'])
        assert code == 0
        data = json.loads(out)
        assert data["class_id"] == ["-1"]
        assert data["kostant_representative"] == [["0", "1"], ["1", "0"]]

    def test_nilpotent_rejected_exit_5(self):
        code, _ = run(["classify", "--family", "sl", "--size", "2",
                       "--element", '{"matrix": [["0","1"],["0","0"]]}'])
        assert code == 5

    @pytest.mark.parametrize("element", [
        SO5_DIAG,
        json.dumps({"matrix": [["1"] * 5 for _ in range(5)]}),  # not in so5
        "no-such-element-file.json",
    ], ids=["so5-element", "not-in-so5", "unreadable-path"])
    def test_outside_sl_exit_2_before_the_element_is_read(self, capsys, monkeypatch,
                                                           element):
        monkeypatch.setattr(cli, "_load_element_matrix", _not_read)
        code, out = run(["classify", "--family", "so", "--size", "5",
                         "--element", element])
        assert (code, out) == (2, "")
        assert "orbit: invariants are implemented for sl algebras only" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["analyze", "--family", "sl", "--size", "3", "--element", MIXED3],
        ["chart", "--family", "sl", "--size", "3", "--element", MIXED3,
         "--seed", "42"],
        ["verify", "--family", "sl", "--size", "3", "--element", E13,
         "--seed", "42", "--samples", "5"],
        ["classify", "--family", "sl", "--size", "3", "--element", MIXED3],
    ])
    def test_byte_identical_reruns(self, args):
        code1, out1 = run(args)
        code2, out2 = run(args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.endswith("\n")

    def test_stdout_is_pure_json(self):
        _, out = run(["analyze", "--family", "sl", "--size", "2",
                      "--element", H2])
        json.loads(out)


SL5_CASES = {
    "nilpotent": [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0],
                  [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]],
    "semisimple": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 0],
                   [0, 0, 0, -1, 0], [0, 0, 0, 0, -1]],
    "mixed": [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 0],
              [0, 0, 0, -1, 0], [0, 0, 0, 0, -1]],
}
# most LieAlgebra constructions per request: the Levi c(x_s) and its center
# for a chart with x_s != 0; the reductivity proxy reads c(x) from a kernel
# basis of ad x and builds no subalgebra
MAX_ALGEBRAS = {
    "verify": {"nilpotent": 0, "semisimple": 2, "mixed": 2},
    "chart": {"nilpotent": 0, "semisimple": 2, "mixed": 2},
    "analyze": {"nilpotent": 0, "semisimple": 0, "mixed": 0},
}


class TestAnalysedOnce:
    """One request splits its element once and builds only the subalgebras
    something reads."""

    @pytest.mark.parametrize("command", sorted(MAX_ALGEBRAS))
    @pytest.mark.parametrize("case", sorted(SL5_CASES))
    def test_call_counts(self, monkeypatch, command, case):
        build_classical("sl", 5)  # the ambient algebra is built once per process
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        split = counted("jordan_decompose", jordan.jordan_decompose)
        for module in (jordan, charts, cli, verify):
            monkeypatch.setattr(module, "jordan_decompose", split)
        monkeypatch.setattr(LieAlgebra, "__init__", counted("algebras", LieAlgebra.__init__))
        element = json.dumps({"matrix": [[str(v) for v in row] for row in SL5_CASES[case]]})
        code, _ = run([command, "--family", "sl", "--size", "5", "--element", element,
                       "--samples", "2"])
        assert code == 0
        assert counts["jordan_decompose"] == 1
        assert counts["algebras"] <= MAX_ALGEBRAS[command][case]

    @pytest.mark.parametrize("rows,expected", [
        ([[int(j == i + 1) for j in range(4)] for i in range(4)], 1),
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], 2),
        ([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], 2),
    ], ids=["regular-nilpotent", "semisimple", "mixed"])
    def test_verify_char_poly_calls(self, monkeypatch, rows, expected):
        # one in the Jordan split; for x_s != 0 the witness search adds the
        # rational eigenvalues of its center basis element. Its candidate z
        # equals x_s here, so z is not tested for semisimplicity again, and
        # the JM solve of the inner x_n of a mixed x proves x_n nilpotent
        # without its char_poly. redstab_suite reads semisimplicity off the
        # chart
        calls = spy_everywhere(monkeypatch, linalg.char_poly)
        element = json.dumps({"matrix": [[str(v) for v in row] for row in rows]})
        code, _ = run(["verify", "--family", "sl", "--size", "4", "--element", element])
        assert code == 0
        assert len(calls) == expected

    @pytest.mark.parametrize("case", ["semisimple", "mixed"])
    def test_classify_splits_only_the_companion(self, monkeypatch, case):
        # the class is read from char_poly(x) = char_poly(x_s); only
        # `kostant_rep` splits, its companion matrix
        splits, split = [], jordan.jordan_decompose

        def counted(x):
            splits.append(x.matrix)
            return split(x)

        for module in (jordan, charts, cli, verify):
            monkeypatch.setattr(module, "jordan_decompose", counted)
        rows = SL5_CASES[case]
        element = json.dumps({"matrix": [[str(v) for v in row] for row in rows]})
        code, out = run(["classify", "--family", "sl", "--size", "5", "--element", element])
        assert code == 0
        assert len(splits) == 1 and splits[0] != RatMatrix.from_rows(rows)
        assert json.loads(out)["class_id"] == ["-2", "0", "1", "0"]

    def test_semisimple_verify_eliminates_ad_x_once(self, monkeypatch):
        # one echelon of ad x, x._ad_echelon: its kernel, x.centralizer, is
        # shared by the chart's Levi c(x) (x is its own semisimple part)
        # and the redstab suite; its rank, x.orbit_dim, by the
        # dimension_identity oracle and the witness search, whose candidate
        # z equals x and is graded as x. The chart's orbit dimension is
        # dim g - dim c(x)
        sl5 = build_classical("sl", 5)
        rows = SL5_CASES["semisimple"]
        ad_x = ad_matrix(sl5.element_from_matrix(RatMatrix.from_rows(rows)))
        eliminated = spy_everywhere(monkeypatch, linalg._bareiss, _copy_rows)
        element = json.dumps({"matrix": [[str(v) for v in row] for row in rows]})
        code, _ = run(["verify", "--family", "sl", "--size", "5", "--element", element,
                       "--samples", "2"])
        assert code == 0
        assert eliminated.count(linalg._int_rows(ad_x)) == 1

    @pytest.mark.parametrize("rows,ad_x_count,ad_xn_count", [
        ([[int(j == i + 1) for j in range(4)] for i in range(4)], 1, 0),
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], 1, 0),
        ([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], 1, 1),
    ], ids=["regular-nilpotent", "semisimple", "mixed"])
    def test_verify_eliminates_each_ad_once_per_fact(self, monkeypatch, rows,
                                                     ad_x_count, ad_xn_count):
        # x keeps one echelon of ad x, which gives both rank(ad x) and the
        # kernel of ad x, whichever of the chart, its checks, the witness
        # search (whose candidate z = x is x) and the redstab suite reads
        # them first. The inner chart's base element x_n keeps its
        # rank(ad x_n) in the Levi for centralizer_composition
        sl4 = build_classical("sl", 4)
        x = sl4.element_from_matrix(RatMatrix.from_rows(rows))
        ad_x = ad_matrix(x)
        pair = jordan_decompose(x)
        ad_xn = None
        if not (pair.semisimple.is_zero() or pair.nilpotent.is_zero()):
            levi = liealg.centralizer_basis(pair.semisimple)
            ad_xn = ad_matrix(levi.element_from_matrix(pair.nilpotent.matrix))
        eliminated = spy_everywhere(monkeypatch, linalg._bareiss, _copy_rows)
        element = json.dumps({"matrix": [[str(v) for v in row] for row in rows]})
        code, _ = run(["verify", "--family", "sl", "--size", "4", "--element", element])
        assert code == 0
        xn_count = eliminated.count(linalg._int_rows(ad_xn)) if ad_xn is not None else 0
        assert (eliminated.count(linalg._int_rows(ad_x)), xn_count) == (ad_x_count,
                                                                        ad_xn_count)

    @pytest.mark.parametrize("rows", [
        [[int(j == i + 1) for j in range(4)] for i in range(4)],
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    ], ids=["regular-nilpotent", "mixed"])
    def test_verify_builds_the_slice_span_once(self, monkeypatch, rows):
        # the chart solves its base point in its slice_span, and the
        # sampler solves each drawn point in the same span
        x = build_classical("sl", 4).element_from_matrix(RatMatrix.from_rows(rows))
        chart = charts.build_chart(x, 42)
        slice_basis = (chart.inner or chart).slice_basis
        assert slice_basis
        spans, init = [], linalg.VectorSpan.__init__

        def counted(span, vectors, *args, **kwargs):
            spans.append(tuple(vectors))
            init(span, vectors, *args, **kwargs)

        monkeypatch.setattr(linalg.VectorSpan, "__init__", counted)
        element = json.dumps({"matrix": [[str(v) for v in row] for row in rows]})
        code, _ = run(["verify", "--family", "sl", "--size", "4", "--element", element])
        assert code == 0
        assert spans.count(slice_basis) == 1

    @pytest.mark.parametrize("rows,expected", [
        ([[int(j == i + 1) for j in range(4)] for i in range(4)], 2),
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], 1),
        ([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], 4),
    ], ids=["regular-nilpotent", "semisimple", "mixed"])
    def test_verify_builds_each_ad_once(self, monkeypatch, rows, expected):
        # an element keeps ad x. Nilpotent: ad e (its rank, the JM solves,
        # the redstab kernel) and ad h (the JM f solve, the grading).
        # Semisimple: ad x alone; the witness candidate z = x is x, so its
        # rank and grading read ad x. Mixed: ad x, ad x_s (the Levi, and
        # the witness candidate z = x_s), and in the Levi ad x_n and ad h
        calls = spy_everywhere(monkeypatch, liealg.ad_matrix)
        element = json.dumps({"matrix": [[str(v) for v in row] for row in rows]})
        code, _ = run(["verify", "--family", "sl", "--size", "4", "--element", element])
        assert code == 0
        assert len(calls) == expected

    def test_analyze_forms_char_poly_once(self, monkeypatch):
        # the Jordan split and the class id both read x.char_poly
        rows = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        calls = spy_everywhere(monkeypatch, linalg.char_poly)
        element = json.dumps({"matrix": [[str(v) for v in row] for row in rows]})
        code, out = run(["analyze", "--family", "sl", "--size", "4", "--element", element])
        assert code == 0
        assert json.loads(out)["class_id"] == ["-2", "0", "1"]
        assert calls == [RatMatrix.from_rows(rows)]

    @pytest.mark.parametrize("family,n", [("sl", 4), ("so", 5)])
    def test_nilpotent_verify_walks_x_once(self, monkeypatch, family, n):
        # the sl4 regular nilpotent and the so5 sum of the strictly upper
        # basis elements. jacobson_morozov reads x.char_poly = t^n, formed
        # by the Jordan split, so only the checks' `_power_walk` walks x;
        # parabolic_data walks no graded piece, which `grading_by` certified
        algebra = build_classical(family, n)
        upper = upper_basis(algebra)
        x = algebra.element_from_matrix(sum(upper[1:], upper[0]))
        pd = grading.parabolic_data(grading.grading_by(jacobson_morozov(x).h))
        walks = spy_everywhere(monkeypatch, linalg._powers)
        element = json.dumps({"matrix": matrix_to_json(x.matrix)})
        code, _ = run(["verify", "--family", family, "--size", str(n), "--element", element])
        assert code == 0
        assert walks.count(x.matrix) == 1
        assert pd.u and not any(el in walks for el in pd.u + pd.u_minus)

    @pytest.mark.parametrize("case", ["semisimple", "mixed"])
    def test_classify_walks_no_power_of_x(self, monkeypatch, case):
        # x is nilpotent iff char_poly(x) = t^n, the polynomial the class is
        # read from
        walks = spy_everywhere(monkeypatch, linalg._powers)
        rows = SL5_CASES[case]
        element = json.dumps({"matrix": [[str(v) for v in row] for row in rows]})
        code, _ = run(["classify", "--family", "sl", "--size", "5", "--element", element])
        assert code == 0
        assert RatMatrix.from_rows(rows) not in walks
