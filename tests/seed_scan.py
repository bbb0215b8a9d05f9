"""Run the body of one `@given(st.integers(...))` test over a range of seeds.

    python tests/seed_scan.py FILE::TEST START STOP
    python tests/seed_scan.py \\
        tests/test_quotients.py::test_arbitrary_words_match_slow_path 0 10000

The test module is imported in this process, with `src/` and `tests/` on
the path, and the test's undecorated body (`.hypothesis.inner_test`) is
called with each seed in [START, STOP), in order.  Each call runs under a
`signal.setitimer` alarm of `TIMEOUT_S` seconds; a call that runs past it
is stopped.  One line is printed per seed that raised, with its
exception, per seed stopped by the alarm, and per seed that took longer
than `SLOW_S` seconds, then a count on stderr.  Memos
are kept from seed to seed, as they are between the examples of one
hypothesis run.  Exits 1 when a seed raised or was stopped.

pytest does not collect this file.
"""

import argparse
import importlib
import pathlib
import signal
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

TIMEOUT_S = 60

SLOW_S = 1


class SeedTimeout(Exception):
    """The alarm went off before the test body returned."""


def _alarm(signum, frame):
    raise SeedTimeout


def load_body(spec):
    """The undecorated body of the `@given` test named FILE::TEST."""
    path, _, name = spec.partition("::")
    path = pathlib.Path(path)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    test = getattr(importlib.import_module(path.stem), name)
    try:
        return test.hypothesis.inner_test
    except AttributeError:
        sys.exit(f"{spec} is not a hypothesis test")


def scan(body, seeds):
    """Call body on each seed; returns the counts of raised, stopped and
    slow seeds."""
    raised = stopped = slowed = 0
    signal.signal(signal.SIGALRM, _alarm)
    for seed in seeds:
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
        try:
            body(seed)
            error = None
        except SeedTimeout:
            error = "stopped"
        except Exception as exc:  # a failing seed is the finding
            error = f"{type(exc).__name__}: {exc}".splitlines()[0]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        took = time.perf_counter() - start
        if error == "stopped":
            stopped += 1
            print(f"seed {seed}: stopped after {TIMEOUT_S} s", flush=True)
        elif error is not None:
            raised += 1
            print(f"seed {seed}: {error} ({took:.2f} s)", flush=True)
        elif took > SLOW_S:
            slowed += 1
            print(f"seed {seed}: slow, {took:.2f} s", flush=True)
    return raised, stopped, slowed


def main(argv):
    p = argparse.ArgumentParser(prog="seed_scan.py")
    p.add_argument("test", help="FILE::TEST of a @given(st.integers()) test")
    p.add_argument("start", type=int)
    p.add_argument("stop", type=int)
    args = p.parse_args(argv)
    body = load_body(args.test)
    start = time.perf_counter()
    raised, stopped, slowed = scan(body, range(args.start, args.stop))
    print(f"{args.test}: seeds {args.start}-{args.stop - 1} in "
          f"{time.perf_counter() - start:.0f} s: {raised} raised, {stopped} "
          f"stopped after {TIMEOUT_S} s, {slowed} slower than {SLOW_S} s",
          file=sys.stderr)
    return 1 if raised or stopped else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
