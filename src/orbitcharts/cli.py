"""Command-line surface.

    orbit analyze|chart|verify|classify --family sl --size 3 \
        --element FILE_OR_JSON [--seed 42] [--samples 10] [--out FILE]

stdout carries only JSON (stable key order, canonical rational strings);
diagnostics go to stderr. Exit codes: 0 success (for `verify`: all checks
passed), 1 failed verification checks, 2 parse error (a negative
`--samples` included), a `--size` the family does not support, a
`classify` outside sl (both checked before the element is read) or an
`--out` file that cannot be written, 3 element not in the algebra, 4
witness search failure, 5 zero element / zero semisimple part.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .charts import ZeroElementError, build_chart, chart_to_json
from .grading import WitnessNotFoundError
from .jordan import jordan_decompose, jordan_pair_to_json
from .liealg import LieElement, NotInAlgebraError, _check_size, build_classical
from .linalg import RatMatrix, matrix_from_json, matrix_to_json
from .verify import (
    ZeroSemisimplePartError,
    class_id_to_json,
    hamiltonian_class,
    invariants,
    kostant_rep,
    redstab_suite,
    report_to_json,
    verify_chart,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_PARSE = 2
EXIT_NOT_IN_ALGEBRA = 3
EXIT_NO_WITNESS = 4
EXIT_ZERO_ELEMENT = 5


class ElementParseError(ValueError):
    pass


def _load_element_matrix(source: str) -> RatMatrix:
    text = source
    if not source.lstrip().startswith("{"):
        try:
            text = Path(source).read_text(encoding="utf-8")
        except OSError as exc:
            raise ElementParseError(f"cannot read element file {source!r}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ElementParseError(f"element is not valid JSON: {exc}")
    except RecursionError:
        raise ElementParseError("element JSON is nested too deeply")
    if not isinstance(data, dict) or "matrix" not in data:
        raise ElementParseError('element JSON must be an object with a "matrix" key')
    try:
        return matrix_from_json(data["matrix"])
    except ValueError as exc:
        raise ElementParseError(str(exc))


def _resolve(args: argparse.Namespace) -> LieElement:
    """The element, in its algebra. The size is checked first, then the
    element is parsed and its shape checked: building the algebra takes
    seconds at large sizes, and a bad element should not wait for it."""
    _check_size(args.family, args.size)
    matrix = _load_element_matrix(args.element)
    if matrix.rows != args.size or matrix.cols != args.size:
        raise NotInAlgebraError(
            f"element is {matrix.rows}x{matrix.cols}, expected {args.size}x{args.size}"
        )
    return build_classical(args.family, args.size).element_from_matrix(matrix)


def cmd_analyze(args: argparse.Namespace) -> dict:
    x = _resolve(args)
    algebra = x.algebra
    pair = jordan_decompose(x)
    case = ("zero" if x.is_zero() else "nilpotent" if pair.semisimple.is_zero()
            else "semisimple" if pair.nilpotent.is_zero() else "mixed")
    out = {
        "algebra": algebra.label,
        "case": case,
        "jordan": jordan_pair_to_json(pair),
        "centralizer_dim": algebra.dim - x.orbit_dim,
        "orbit_dim": x.orbit_dim,
    }
    if algebra.family == "sl" and not pair.semisimple.is_zero():
        # the class of x_s, read off char_poly(x) = char_poly(x_s)
        out["class_id"] = class_id_to_json(invariants(x))
    return out


def cmd_chart(args: argparse.Namespace) -> dict:
    return chart_to_json(build_chart(_resolve(args), args.seed))


def cmd_verify(args: argparse.Namespace) -> dict:
    x = _resolve(args)
    chart = build_chart(x, args.seed)
    chart_report = verify_chart(x, chart, args.seed, args.samples)
    red_report = redstab_suite(x, args.seed, chart)
    return {
        "chart_verification": report_to_json(chart_report),
        "redstab": report_to_json(red_report),
        "overall_pass": chart_report.overall_pass and red_report.overall_pass,
    }


def cmd_classify(args: argparse.Namespace) -> dict:
    if args.family != "sl":
        raise ValueError("invariants are implemented for sl algebras only")
    cid = hamiltonian_class(_resolve(args))
    rep = kostant_rep(args.size, cid)
    return {
        "class_id": class_id_to_json(cid),
        "kostant_representative": matrix_to_json(rep.matrix),
    }


_COMMANDS = {
    "analyze": cmd_analyze,
    "chart": cmd_chart,
    "verify": cmd_verify,
    "classify": cmd_classify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbit",
        description="Exact charts and verification for adjoint orbits of "
                    "classical matrix Lie algebras over the rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "Jordan split, case, centralizer and orbit dimensions"),
        ("chart", "build the orbit chart and print it as JSON"),
        ("verify", "build the chart and run the exact verification suites"),
        ("classify", "invariant class id and its semisimple representative"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--family", required=True, choices=("sl", "so", "sp"))
        p.add_argument("--size", required=True, type=int)
        p.add_argument("--element", required=True,
                       help="path to an element JSON file, or inline JSON "
                            '{"matrix": [["p/q", ...], ...]}')
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--samples", type=int, default=10)
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    return parser


_PARSER = _build_parser()

# (exception kinds, exit code) of a failed command, first match wins: the
# ValueError subclasses come before ValueError, which covers the parse
# errors (ElementParseError among them)
_EXIT_CODES = (
    (NotInAlgebraError, EXIT_NOT_IN_ALGEBRA),
    (WitnessNotFoundError, EXIT_NO_WITNESS),
    ((ZeroElementError, ZeroSemisimplePartError), EXIT_ZERO_ELEMENT),
    (ValueError, EXIT_PARSE),
)


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    if args.samples < 0:
        print(f"orbit: --samples must be nonnegative, got {args.samples}",
              file=sys.stderr)
        return EXIT_PARSE
    try:
        result = _COMMANDS[args.command](args)
    except (ValueError, WitnessNotFoundError) as exc:
        print(f"orbit: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"orbit: cannot write {args.out!r}: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(text)
    if args.command == "verify" and not result["overall_pass"]:
        return EXIT_CHECKS_FAILED
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
