"""Print every statement of src/xtcancel that the test suite never runs.

Runs `pytest -q tests bench/test_bench.py` in this process under a line
tracer (sys.settrace) that records only frames of src/xtcancel, then prints
one "path:line" for each statement no traced line fell inside.  Definitions
(def and class lines) and docstrings are not counted as statements.  Uses
the standard library only; the coverage package is not needed.

A process forked from this one (textio's workers) keeps the tracer and
writes each line it runs that this process had not run to a file of a
temporary directory, so lines run only in a worker count as run.

    python3 scripts/unreached_lines.py

It exits with pytest's exit code, so a failing suite is not mistaken for a
clean list.  The tracer slows the suite several times over.
"""

import ast
import os
import sys
import tempfile

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
    log = []  # in a forked process: the file each line it runs first goes to

    def record(path, line):
        lines = ran.setdefault(path, set())
        if line not in lines:
            lines.add(line)
            if log:
                log[0].write("%s:%d\n" % (path, line))

    def local(frame, event, arg):
        if event == "line":
            record(frame.f_code.co_filename, frame.f_lineno)
        return local

    def scope(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE + os.sep):
            return None
        record(path, frame.f_lineno)
        return local

    with tempfile.TemporaryDirectory() as forked:
        def in_child():
            # line-buffered: each line is written before the next runs, so a
            # worker that is killed or ends in os._exit has saved its lines
            log[:] = [open(os.path.join(forked, str(os.getpid())), "w", buffering=1)]

        os.register_at_fork(after_in_child=in_child)
        sys.settrace(scope)
        try:
            code = pytest.main(argv)
        finally:
            sys.settrace(None)
        for name in os.listdir(forked):
            with open(os.path.join(forked, name)) as fh:
                for entry in fh:
                    path, line = entry.rsplit(":", 1)
                    ran.setdefault(path, set()).add(int(line))
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
