"""Reach audit: the functions of src/orbitcharts that no benchmark request enters.

    python3 .github/reach.py

Stdlib only. Runs the seed-101 and seed-102 passes of every workload in
perfbench/workloads.py, one `orbitcharts.cli.main(argv)` request at a time,
with a `sys.settrace` hook that records the code object of every call made
while a request runs. Every function and method defined in
src/orbitcharts/*.py (nested ones too, lambdas and comprehensions not) is
matched to a code object by its file and first line, decorators included.
Prints those no request entered, as path:line and qualified name, then the
count. Gates nothing: it exits 0 unless a request raises.
"""

from __future__ import annotations

import ast
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "orbitcharts"
SEEDS = (101, 102)


def defined_functions() -> dict:
    """{(absolute path, first line): qualified name} for every def in SRC;
    the first line is the code object's: the first decorator's, if any."""
    found = {}

    def walk(node, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, first] = prefix + child.name
                walk(child, f"{prefix}{child.name}.<locals>.", path)
            else:
                walk(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), "", str(path))
    return found


def entered_during_requests() -> set:
    """{(path, first line)} of the code objects called during the requests."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from orbitcharts import cli

    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))
        return None  # no line events

    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            for request in workloads.build_pass(name, seed):
                sys.settrace(tracer)
                try:
                    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                        cli.main(request.argv())
                finally:
                    sys.settrace(None)
    return entered


def main() -> int:
    defined = defined_functions()
    entered = entered_during_requests()
    missed = sorted(key for key in defined if key not in entered)
    for path, line in missed:
        print(f"{Path(path).relative_to(ROOT)}:{line} {defined[path, line]}")
    print(f"{len(missed)} of {len(defined)} src functions entered by no request of the "
          f"seed {' and '.join(map(str, SEEDS))} passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
