"""The four workloads.  Each builds the operations of one pass from the
seed in its constructor (the set-up), runs one operation at a time with
`run`, and checks the outputs with `check` after the timed part.

A run makes `passes` passes over the same operations; the pass sizes and
pass counts give about RUN_SECONDS seconds of work per run on the
reference box (see README.md).
"""

import os
import random
import resource
import subprocess
import sys

import generators
import oracles
# called through their modules, so that a traced run sees the calls
from cantorg import calculus, loops, pipeline
from cantorg.complexes import is_one_cell, vertex_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_SECONDS = 20


def passes(name, seconds):
    """How many passes a run of the workload makes: at least three, so
    that the fastest of them is not a single sample."""
    return max(3, round(WORKLOADS[name].PASSES * seconds / RUN_SECONDS))


class Workload:
    """An in-process workload: an operation fails when it raises."""

    ops = ()
    PASSES = 5  # per RUN_SECONDS

    def failed(self, result):
        return False

    def peak_rss_mib(self):
        # ru_maxrss is in KiB on Linux
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Relations(Workload):
    """Criterion-1 sweep: one operation evaluates both sides of one
    defining-relation instance at every rational point with preperiod <= 6
    and period <= 3.  Every relation family gets the same share."""

    # of the 1702 instances, per pass: 136 operations, so the tail is the
    # p90, with 13 operations beyond it
    SHARE = 0.08
    PREFIX_SAMPLES = 100
    PREFIX_DIGITS = 256

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.points = generators.rational_points()
        self.ops = generators.relation_sample(self.rng, self.SHARE)

    def run(self, op):
        _, lhs, rhs = op
        return ([calculus.evaluate(lhs, xi) for xi in self.points],
                [calculus.evaluate(rhs, xi) for xi in self.points])

    def check(self, done):
        if any(left != right for _, (left, right) in done):
            return False
        # a seeded sample against the prefix evaluator
        for _ in range(self.PREFIX_SAMPLES):
            op, sides = self.rng.choice(done)
            side = self.rng.randrange(2)
            i = self.rng.randrange(len(self.points))
            digits = oracles.point_prefix(self.points[i].render(),
                                          self.PREFIX_DIGITS)
            want = oracles.eval_prefix(op[1 + side], digits)
            got = oracles.point_prefix(sides[side][i].render(), len(want))
            if len(want) < 64 or got != want:
                return False
        return True


class Envelope(Workload):
    """Criterion-11 envelopes: first the reference draw, whose envelope has
    an 8-parameter cluster, then draws from the committed pool."""

    # (lowest, highest envelope dimension, draws per pass, seeded): with
    # the reference draw, 208 operations, so the tail is the p90, with 20
    # operations beyond it.  It falls inside the pool's first 24
    # 3-dimensional draws, and the median in the middle of the
    # 2-dimensional draws, whatever the seed.
    STRATA = ((1, 1, 30, True), (2, 2, 150, True), (3, 3, 24, False),
              (4, 4, 3, False))
    PASSES = 3
    EDGE_SAMPLES = 100

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.ops = [generators.envelope_anchor()] + generators.envelope_draws(
            self.rng, self.STRATA)

    def run(self, clusters):
        return pipeline.envelope(clusters)

    def check(self, done):
        edges = []
        for clusters, out in done:
            for c in clusters:
                if not any(c.vertices <= d.vertices and c.edges <= d.edges
                           for d in out.clusters):
                    return False
            if not all(good for good, _ in out.flag_report.values()):
                return False
            for d in out.clusters:
                if len(d.vertices) != 2 ** d.n:
                    return False
                edges.extend(tuple(sorted(e)) for e in d.edges)
        if max(d.n for _, out in done for d in out.clusters) < 8:
            return False
        # is_one_cell decides an edge by normalizing the quotient, apart
        # from the subscript test that built the cluster's edge set
        edges.sort()
        sample = self.rng.sample(edges, min(self.EDGE_SAMPLES, len(edges)))
        return all(is_one_cell(u, v) for u, v in sample)


class Loops(Workload):
    """Criterion-12 contraction certificates: loops sampled from the
    committed pool."""

    # (fewest, most certificate moves, loops per pass, seeded): 372
    # operations, so the tail is the p95, with 18 operations beyond it.
    # Every pass takes all of the pool's 4-move loops, where the median
    # falls, and all loops of more than 10 moves, among which the tail
    # falls; the seed draws the rest.
    STRATA = ((1, 1, 60, True), (2, 2, 47, True), (3, 3, 37, True),
              (4, 4, 82, False), (5, 5, 30, True), (6, 6, 25, True),
              (11, 30, 31, False), (31, 60, 60, False))
    PASSES = 4

    def __init__(self, seed):
        self.rng = random.Random(seed)
        words = generators.loop_draws(self.rng, self.STRATA)
        self.ops = [generators.loop_of(w) for w in words]

    def run(self, loop):
        cert = loops.contract_loop(loop)
        return cert, loops.check_certificate(loop, cert)

    def check(self, done):
        trivial = vertex_of([])
        return all(
            ok and cert[0] == ("start", loop, None)
            and all(v == trivial for v in cert[-1][1])
            for loop, (cert, ok) in done
        )


# ---------------------------------------------------------------------------
# cli

DIAGONAL_FREE = ["y[00001]", "y[00011]", "y[00101]", "y[00111]", "y[01001]",
                 "y[01011]", "y[01101]", "y[01111]", "y[10001]", "y[10011]"]


def cube_spec(n):
    """A diagonal-free cluster with n parameters: no two subscripts are
    consecutive leaves, so the cluster is a plain n-cube."""
    return " ; ".join(["1"] + DIAGONAL_FREE[:n])


# (arguments, output) as documented in the project README
README_EXAMPLES = [
    (["normalize", "y[10] y[10]^-1"], "1\n"),
    (["calc", "y[100]^-1 y[10]", "1001(1)"], "10 y 0 y^-1 (1)\nexponent: 2\n"),
    (["special", "y[100] y[1010]^-1 y[1011]"],
     "special: yes\ntype: 2\nparity: odd\nminimal: y[10]\n"),
]


def _expected(text):
    return lambda out: out == text


def _render(word):
    return " ".join(lt.render() for lt in word)


class Cli(Workload):
    """A fixed script of `cantorg` calls, each in its own child process,
    one at a time; a pass is one round of the script.  The seed draws the
    words of `normalize`, `equal` and `eval` and the order of the calls."""

    # 41 calls per pass, so the tail is the p75, with 10 calls beyond it
    WORDS = 10
    PASSES = 3
    CALL_TIMEOUT = 120  # s; a call that hangs is killed and counts as failed

    trace_dir = None  # set for a traced run

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.script = self._script()
        self.ops = list(range(len(self.script)))
        self.rng.shuffle(self.ops)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.calls = 0

    def _word_calls(self):
        """`normalize W W^-1`, `equal W W'` and `eval W P` for a seeded
        loop word W, where W' expands one letter of W by
        y_s = x_s y_s0 y_s10^-1 y_s11, and a seeded point P."""
        rng = self.rng
        word = generators.random_loop_word(rng)
        inverse = [lt.inverse() for lt in reversed(word)]
        i = rng.randrange(len(word))
        s = word[i].sub
        expansion = "x[{0}] y[{0}0] y[{0}10]^-1 y[{0}11]".format(s)
        if word[i].exp < 0:
            expansion = "y[{0}11]^-1 y[{0}10] y[{0}0]^-1 x[{0}]^-1".format(s)
        other = " ".join(expansion if j == i else lt.render()
                         for j, lt in enumerate(word))
        point = "%s(%s)" % (
            "".join(rng.choice("01") for _ in range(rng.randint(0, 6))),
            "".join(rng.choice("01") for _ in range(rng.randint(1, 3))))
        return [
            (["normalize", _render(word + inverse)], _expected("1\n")),
            (["equal", _render(word), other], _expected("equal\n")),
            (["eval", _render(word), point],
             lambda out: self._check_eval(word, point, out)),
        ]

    def _script(self):
        cube_file = os.path.join(generators.INPUTS, "cubulate.txt")
        loop_file = os.path.join(generators.INPUTS, "loop.txt")
        loop_len = len(generators.read_lines("loop.txt"))
        script = [
            (["cluster", cube_spec(n)],
             lambda out, n=n: oracles.check_cluster_output(out, n))
            for n in (8, 9, 10)
        ]
        script += [
            (["cubulate", cube_file], oracles.check_cubulate_output),
            (["contract-loop", loop_file],
             lambda out: oracles.check_contract_loop_output(out, loop_len)),
            (["support", "y[01] y[10]^2"],
             _expected("{cone(01), cone(10)}\n")),
            (["intersect", "1 ; y[001] ; y[011]", "1 ; y[011] ; y[101]"],
             lambda out: out.startswith("cluster: 1 ; y[011]\n")
             and oracles.check_cluster_output(out, 1)),
        ]
        for _ in range(self.WORDS):
            script += self._word_calls()
        script += [(argv, _expected(text)) for argv, text in README_EXAMPLES]
        # The global --max-dim does not reach the cell enumeration, so
        # this call exits 2 (see CHANGES.md) and counts as failed.
        script.append((["--max-dim", "8", "cluster", cube_spec(6), "--cells"],
                       lambda out: oracles.check_cluster_output(
                           out, 6, cells=True)))
        return script

    @staticmethod
    def _check_eval(word, point, out):
        # A y letter can halve the determined prefix, and a word has up to
        # six, so 8192 input digits leave at least 128 output digits.
        digits = oracles.point_prefix(point, 8192)
        want = oracles.eval_prefix(word, digits)
        return len(want) >= 64 and oracles.point_prefix(
            out, len(want)) == want

    def child_dump(self, k):
        return os.path.join(self.trace_dir, "child-%d.json" % k)

    def run(self, i):
        """Run script entry i; returns (exit code, stdout)."""
        if self.trace_dir is None:
            cmd = [sys.executable, "-c",
                   "import sys; from cantorg.cli import main; "
                   "sys.exit(main())"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "trace_child.py"),
                   self.child_dump(self.calls)]
        self.calls += 1
        proc = subprocess.run(cmd + self.script[i][0], env=self.env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=False, timeout=self.CALL_TIMEOUT)
        return proc.returncode, proc.stdout

    def failed(self, result):
        return result[0] != 0

    def check(self, done):
        try:
            return all(self.script[i][1](out) for i, (_, out) in done)
        except (ValueError, IndexError):  # output of the wrong shape
            return False

    def peak_rss_mib(self):
        # the largest child; ru_maxrss is in KiB on Linux
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {"envelope": Envelope, "relations": Relations, "loops": Loops,
             "cli": Cli}
