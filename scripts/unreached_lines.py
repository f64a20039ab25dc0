"""Print every statement of src/xtcancel that the test suite never runs.

Runs `pytest -q tests bench/test_bench.py` in this process under a line
tracer (sys.settrace) that records only frames of src/xtcancel, then prints
one "path:line" for each statement no traced line fell inside.  Definitions
(def and class lines) and docstrings are not counted as statements.  Uses
the standard library only; the coverage package is not needed.

    python3 scripts/unreached_lines.py

It exits with pytest's exit code, so a failing suite is not mistaken for a
clean list.  The tracer slows the suite several times over.
"""

import ast
import os
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
PACKAGE = os.path.join(ROOT, "src", "xtcancel")
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)


def statements(path):
    """(first line, last line) of every statement of the file at path, less
    definitions and docstrings."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                docstrings.add(body[0])
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and not isinstance(node, _SKIPPED)
                  and node not in docstrings)


def traced_run(argv):
    """pytest.main(argv) with every line run in PACKAGE recorded; returns
    (exit code, {path: set of lines})."""
    import pytest

    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE + os.sep):
            return None
        ran.setdefault(path, set()).add(frame.f_lineno)
        return local

    sys.settrace(scope)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
    return int(code), ran


def main():
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    code, ran = traced_run(["-q", "-p", "no:cacheprovider", "tests", "bench/test_bench.py"])
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = ran.get(path, set())
        for first, last in statements(path):
            if not any(line in lines for line in range(first, last + 1)):
                print("%s:%d" % (os.path.relpath(path, ROOT), first))
    return code


if __name__ == "__main__":
    sys.exit(main())
