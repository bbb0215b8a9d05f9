"""One traced `cantorg` call, for the traced run of the cli workload.

    python3 bench/trace_child.py DUMP ARGS...

Runs `cantorg ARGS...` as the installed command does, with the program's
layers wrapped by `tracer.install`, and writes the per-layer totals, the
spans and the import time of the command layer to DUMP.  Exits with the
command's exit code.  The parent puts the checkout's `src/` on PYTHONPATH.
"""

import sys
import time

t0 = time.perf_counter()
import cantorg.commands  # noqa: E402

import_s = time.perf_counter() - t0

import tracer  # noqa: E402


def main():
    dump, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tracer.install(tr)
    code = tr.call("command", cantorg.commands.run, argv)
    sys.stdout.flush()
    tr.dump(dump, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
