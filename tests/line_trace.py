"""List the statements of `src/cantorg` that the test suite never executes.

Runs pytest in this process under a `sys.settrace` line tracer that
follows only the frames of the package's source files, then prints one
`path:line` per statement that no test reached, and a count on stderr.
A statement that spans several lines counts as executed when any of its
lines ran (Python reports a multi-line condition at the line of the
operand it evaluates), and a compound statement by the lines of its
header.  Docstrings, `try:` headers and `nonlocal` run no code and are
not listed.  Statements that only child processes run are listed too:
the tracer sees this process alone.  Arguments go to pytest:

    python tests/line_trace.py                      # the whole suite
    python tests/line_trace.py tests/test_loops.py  # one file

pytest does not collect this file.  The trace makes the suite about
three times slower.
"""

import ast
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cantorg"


def statement_spans(path):
    """The (first, last) lines of each statement of a source file whose
    execution shows as a line event."""
    spans = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(
                node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        first = min([node.lineno]
                    + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            last = max(first, body[0].lineno - 1)
        else:
            last = node.end_lineno
        spans.append((first, last))
    return sorted(spans)


def main(argv):
    import pytest

    sources = {str(p): p for p in sorted(SRC.glob("*.py"))}
    ran = {name: set() for name in sources}
    seen = {}  # a code object's file name -> its line tracer, or None

    def line_tracer(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            lines = ran.get(os.path.realpath(name))
            seen[name] = None if lines is None else line_tracer(lines)
        return seen[name]

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = total = 0
    for name, path in sources.items():
        spans = statement_spans(path)
        total += len(spans)
        for first, last in spans:
            if not ran[name].intersection(range(first, last + 1)):
                print(f"{path.relative_to(ROOT)}:{first}")
                missed += 1
    print(f"{missed} of {total} statements never executed", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
