"""Reach audit: the functions and lines of src/orbitcharts that no benchmark
request reaches.

    python3 .github/reach.py

Stdlib only. Runs the seed-101 and seed-102 passes of every workload in
perfbench/workloads.py, one `orbitcharts.cli.main(argv)` request at a time,
with a `sys.settrace` hook that records the code object of every call made
while the CLI is imported and while a request runs, and every line run in
src/orbitcharts. Every function and method defined in src/orbitcharts/*.py
(nested ones too, lambdas and comprehensions not) is matched to a code
object by its file and first line, decorators included. A line counts when
a function's code, or code nested in it, runs it (`executable_lines`):
module and class bodies run at import, and docstrings run nothing. Prints
the functions no request entered, as path:line and qualified name, then
the lines no request ran, as path:line and source text, each list with its
count. Gates nothing: it exits 0 unless a request raises.
"""

from __future__ import annotations

import ast
import inspect
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


def executable_lines() -> set:
    """{(absolute path, line)} of the lines that function code in SRC runs:
    the lines of every optimized code object (a function, lambda or
    comprehension), its own first line (the def or decorator line, which
    runs at import) left out. A lambda's or comprehension's first line is
    its parent's line too, so it stays."""
    lines = set()

    def walk(code, path: str) -> None:
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update((path, line) for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
        for const in code.co_consts:
            if inspect.iscode(const):
                walk(const, path)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), str(path))
    return lines


def tracer(entered: set, ran: set):
    """A `sys.settrace` hook that adds (path, first line) of every code
    object called to ``entered``, and (path, line) of every line run in SRC
    to ``ran``."""
    src = str(SRC)

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))
        return on_line if code.co_filename.startswith(src) else None

    return on_call


def reached_during_requests() -> tuple:
    """({(path, first line)} of the code objects called, {(path, line)} of
    the SRC lines run) during the import of the CLI and the requests."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    entered, ran = set(), set()
    hook = tracer(entered, ran)
    sys.settrace(hook)
    try:
        from orbitcharts import cli
    finally:
        sys.settrace(None)
    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            for request in workloads.build_pass(name, seed):
                sys.settrace(hook)
                try:
                    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                        cli.main(request.argv())
                finally:
                    sys.settrace(None)
    return entered, ran


def main() -> int:
    defined = defined_functions()
    executable = executable_lines()
    entered, ran = reached_during_requests()
    passes = f"seed {' and '.join(map(str, SEEDS))} passes"
    missed = sorted(key for key in defined if key not in entered)
    for path, line in missed:
        print(f"{Path(path).relative_to(ROOT)}:{line} {defined[path, line]}")
    print(f"{len(missed)} of {len(defined)} src functions entered by no request of the {passes}")
    missed = sorted(executable - ran)
    sources = {}
    for path, line in missed:
        text = sources.setdefault(path, Path(path).read_text(encoding="utf-8").splitlines())
        print(f"{Path(path).relative_to(ROOT)}:{line} {text[line - 1].strip()}")
    print(f"{len(missed)} of {len(executable)} src lines run by no request of the {passes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
