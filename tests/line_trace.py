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

With `--workload NAME[,NAME]` it traces one pass of those workloads of
`bench/workloads.py` instead, on the seed `WORKLOAD_SEED`, and each
workload checks its outputs with its own `check`.  The tracer starts
before `cantorg` is imported, so module-level statements count as run,
and no bytecode is written under `bench/`:

    python tests/line_trace.py --workload envelope,relations,loops

pytest does not collect this file.  The trace makes the suite about
three times slower.
"""

import ast
import functools
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cantorg"
WORKLOAD_SEED = 3001


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


def run_workloads(names):
    """One pass of each named workload; 1 when an operation failed or a
    check did not hold, else 0."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    import workloads

    if not set(names) <= workloads.WORKLOADS.keys():
        sys.exit(f"workloads are {', '.join(workloads.WORKLOADS)}")
    code = 0
    for name in names:
        work = workloads.WORKLOADS[name](WORKLOAD_SEED)
        outs = [work.run(op) for op in work.ops]
        done = [(op, out) for op, out in zip(work.ops, outs)
                if not work.failed(out)]
        failed, ok = len(outs) - len(done), work.check(done)
        print(f"{name}: {len(outs)} operations, {failed} failed, check "
              f"{'held' if ok else 'FAILED'}", file=sys.stderr)
        code |= bool(failed) or not ok
    return code


def main(argv):
    if argv[:1] == ["--workload"]:
        if len(argv) != 2:
            sys.exit("usage: line_trace.py --workload NAME[,NAME]")
        run = functools.partial(run_workloads, argv[1].split(","))
    else:
        import pytest
        run = functools.partial(
            pytest.main, ["-q", "-p", "no:cacheprovider", *argv])

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
        code = run()
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
