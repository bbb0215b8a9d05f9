"""How fast the shared host runs the interpreter, while a pass runs.

The benchmark's box is a few cores of a shared host whose speed drifts by
tens of percent within seconds and between runs.  `Speedometer` samples
it by timing `kernel`, a fixed piece of pure-Python work: between
operations (BETWEEN_ROUNDS rounds, before every operation and after the
last), and, from a SIGALRM handler, every INTERVAL_S of wall time
(INSIDE_ROUNDS rounds), so that long operations are sampled while they
run.  `scaled` turns the time of operation k into seconds at the
reference speed: its time without the handler's, over the median of the
samples taken inside it, when there are at least MIN_INSIDE of them, or
else of the samples taken between operations just before and after it
(three each), each sample as a share of its reference time.  The two
kinds are not mixed: a sample taken inside an operation is shorter and
finds the caches as the program left them, so it has a reference time
of its own.
"""

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02
MIN_INSIDE = 30
BETWEEN_ROUNDS = 6000
INSIDE_ROUNDS = 600
# About the median time of each kind of sample on the reference box at its
# usual speed (see README.md), so that scaled times read close to seconds
REFERENCE_BETWEEN_S = 0.0012
REFERENCE_INSIDE_S = 0.00014


_KEYS = [(i, "ab"[i & 1], i >> 3) for i in range(64)]
_TABLE = dict.fromkeys(_KEYS, 1)


def kernel(rounds):
    """Dict lookups on tuple keys, str and int work: the kind of work the
    program does.  It allocates no object that the cyclic garbage
    collector tracks, so it does not move the program's collections."""
    total = 0
    table, keys = _TABLE, _KEYS
    for i in range(rounds):
        total += table[keys[i & 63]] + len(str(i))
    return total


def _timed_kernel(rounds):
    t0 = time.perf_counter()
    kernel(rounds)
    return t0, time.perf_counter() - t0


class Speedometer:
    """Kernel samples taken while it is entered."""

    def __init__(self):
        # one before each operation and one after the last
        self.between = []
        # the handler's samples
        self.starts = []
        self.took = []
        self._busy = False

    def sample_between(self):
        self._busy = True
        self.between.append(_timed_kernel(BETWEEN_ROUNDS)[1])
        self._busy = False

    def _tick(self, signum, frame):
        if not self._busy:  # a tick inside a sample is dropped
            t0, took = _timed_kernel(INSIDE_ROUNDS)
            self.starts.append(t0)
            self.took.append(took)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _inside(self, t0, t1):
        lo = bisect.bisect_left(self.starts, t0)
        return self.took[lo:bisect.bisect_left(self.starts, t1)]

    def own_s(self, t0, t1):
        """The time from t0 to t1 without the handler's samples."""
        return t1 - t0 - sum(self._inside(t0, t1))

    def slowness(self):
        """The median between-operation sample of the whole pass, as a
        share of its reference time."""
        return statistics.median(self.between) / REFERENCE_BETWEEN_S

    def scaled(self, k, t0, t1):
        """The time of operation k, from t0 to t1, in seconds at the
        reference speed."""
        inside = self._inside(t0, t1)
        if len(inside) >= MIN_INSIDE:
            slowness = statistics.median(inside) / REFERENCE_INSIDE_S
        else:
            slowness = (statistics.median(self.between[max(0, k - 2):k + 4])
                        / REFERENCE_BETWEEN_S)
        return self.own_s(t0, t1) / slowness
