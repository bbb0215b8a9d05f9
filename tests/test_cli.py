import contextlib
import io
import os
import pathlib
import re
import signal
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from cantorg import calculus, commands, loops, pipeline, rewrite
from cantorg.cli import (
    MAX_WORD_EXPONENT,
    DomainError,
    ParseError,
    parse_word,
    render_word,
)
from test_work_counts import _clear_normalize_memos


def run(capsys, *argv):
    code = commands.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_word_grammar():
    word = parse_word("y[10]^-1 x[]")
    assert len(word) == 2
    assert word[0].kind == "y" and word[0].exp == -1
    assert word[1].kind == "x" and word[1].sub == ""
    assert parse_word("  ") == []


def test_parse_word_errors():
    with pytest.raises(ParseError):
        parse_word("z[10]")
    with pytest.raises(ParseError):
        parse_word("y[10] nonsense")
    with pytest.raises(DomainError):
        parse_word("y[11]")
    with pytest.raises(DomainError):
        parse_word("y[10]^0")


def test_render_round_trip():
    for text in ["y[10]^-1 x[]", "x[01]^3 y[100]", "y[10]"]:
        assert render_word(parse_word(text)) == text


def test_normalize_command(capsys):
    code, out = run(capsys, "normalize", "")
    assert code == 0 and out == "1\n"
    code, out = run(capsys, "normalize", "y[10] y[10]^-1")
    assert code == 0 and out == "1\n"


def test_equal_command(capsys):
    code, out = run(
        capsys, "equal", "y[10] x[1]", "x[10] x[1] y[10] y[1100]^-1 y[1101]"
    )
    assert code == 0 and out == "equal\n"
    code, out = run(capsys, "equal", "y[10]", "y[01]")
    assert code == 0 and out == "distinct\n"


def test_calc_command(capsys):
    code, out = run(capsys, "calc", "y[100]^-1 y[10]", "1001(1)")
    assert code == 0
    assert out == "10 y 0 y^-1 (1)\nexponent: 2\n"


def test_eval_matches_library(capsys):
    from cantorg.binseq import RationalSeq
    from cantorg.calculus import evaluate

    expected = evaluate(parse_word("y[10]"), RationalSeq.parse("10(01)"))
    code, out = run(capsys, "eval", "y[10]", "10(01)")
    assert code == 0 and out.strip() == expected.render()


def test_support_command(capsys):
    code, out = run(capsys, "support", "y[100]^-1 y[10]")
    assert code == 0 and out == "{cone(10)}\n"
    code, out = run(capsys, "support", "x[01]")
    assert code == 0 and out == "empty\n"


def test_special_command(capsys):
    code, out = run(capsys, "special", "y[100] y[1010]^-1 y[1011]")
    assert code == 0
    assert out.splitlines() == [
        "special: yes",
        "type: 2",
        "parity: odd",
        "minimal: y[10]",
    ]
    code, out = run(capsys, "special", "y[01] y[10]")
    assert code == 0 and out == "special: no\n"


def test_cluster_command(capsys):
    code, out = run(capsys, "cluster", "; y[01] ; y[10]^-1", "--cells")
    assert code == 0
    lines = out.splitlines()
    assert "vertices: 4" in lines and "edges: 5" in lines
    assert lines[-1] == "f-vector: 4 5 2"


def test_intersect_command(capsys):
    code, out = run(
        capsys, "intersect", "; y[100] ; y[1010]^-1 y[1011]", "; y[10]"
    )
    assert code == 0 and out.splitlines()[0] == "cluster: 1 ; y[10]"
    code, out = run(capsys, "intersect", "; y[10]", "y[01]^2 ; y[010]")
    assert code == 0 and out == "empty\n"


def test_cubulate_command(tmp_path, capsys):
    f = tmp_path / "complex.txt"
    f.write_text("# a filled square\n; y[01] ; y[10]^-1\n")
    code, out = run(capsys, "cubulate", str(f))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "clusters: 1"
    assert lines[1] == "  1 ; y[01] ; y[10]^-1"
    assert lines[-1] == "flag links: 4 of 4 ok"


@pytest.mark.parametrize("text, clusters", [
    ("y[0011]\n", ["y[0011]"]),
    ("1\n", ["1"]),
    ("y[01]\ny[10]\n", ["y[01]", "y[10]"]),
], ids=["y[0011]", "1", "two vertices"])
def test_cubulate_isolated_vertices(tmp_path, capsys, text, clusters):
    # a vertex with no parameters spans the 0-dimensional cluster on it
    f = tmp_path / "complex.txt"
    f.write_text(text)
    code, out = run(capsys, "cubulate", str(f))
    assert code == 0
    n = len(clusters)
    assert out.splitlines() == [
        f"clusters: {n}", *("  " + c for c in clusters), f"vertices: {n}",
        f"flag links: {n} of {n} ok"]


def test_cubulate_max_dim_bounds_before_building(tmp_path, capsys):
    # one vertex of this envelope carries 18 parameter forms, of which at
    # most 14 are pairwise independent
    f = tmp_path / "complex.txt"
    f.write_text("y[10] ; y[011] ; y[10]^-1\ny[10] ; y[01100]\n")
    assert commands.run(["--max-dim", "8", "cubulate", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "domain error: a cluster of dimension 14 exceeds the bound of 8\n"
    )


def test_cubulate_expands_only_at_tracked_ends(tmp_path, capsys):
    # separation expands cells with an untracked end here, whose offsprings
    # on that side would miss the vertex set of the cell system
    text = "y[10]^2 ; y[01100] ; y[10]^-1\ny[10]^2 ; y[01]^-1\n"
    f = tmp_path / "complex.txt"
    f.write_text(text)
    code, out = run(capsys, "cubulate", str(f))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "clusters: 8"
    assert lines[-2:] == ["vertices: 2040", "flag links: 2040 of 2040 ok"]
    built = [commands.parse_cluster_line(line) for line in lines[1:-2]]
    assert all(len(c.vertices) == 2 ** c.n for c in built)
    for c in map(commands.parse_cluster_line, text.splitlines()):
        assert any(
            c.vertices <= d.vertices and c.edges <= d.edges for d in built
        )


def test_contract_loop_command(tmp_path, capsys):
    f = tmp_path / "loop.txt"
    f.write_text("1\ny[10]\n1\n")
    code, out = run(capsys, "contract-loop", str(f))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "moves: 1"
    assert lines[1] == "start: 1 ; y[10] ; 1"
    assert lines[2] == "cancellation: 1"


def test_contract_loop_invariant_failure_exits_3(tmp_path, monkeypatch, capsys):
    from cantorg import loops

    real = loops._Word.path
    # a path that disagrees with the loop at its first vertex
    monkeypatch.setattr(
        loops._Word, "path", lambda self: [("bogus",)] + real(self)[1:]
    )
    f = tmp_path / "loop.txt"
    f.write_text("1\ny[10]\n1\n")
    assert commands.run(["contract-loop", str(f)]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: split phase lost track of the path\n"


def test_cubulate_non_facial_intersection_exits_3(
    tmp_path, monkeypatch, capsys
):
    from cantorg import pipeline
    from cantorg.special import from_letters

    real = pipeline._independent_subsets
    square = [from_letters(parse_word(w)) for w in ("y[01]", "y[10]")]
    # the square on y[100] and y[1010]^-1 y[1011] has the edge y[10] of
    # the input square as a diagonal, so the two meet in no common face
    extra = tuple(
        from_letters(parse_word(w)) for w in ("y[100]", "y[1010]^-1 y[1011]")
    )

    def with_extra(forms):
        out = real(forms)
        if all(f in forms for f in square):
            out.append(extra)
        return out

    monkeypatch.setattr(pipeline, "_independent_subsets", with_extra)
    f = tmp_path / "c.txt"
    f.write_text("1 ; y[01] ; y[10]\n")
    assert commands.run(["cubulate", str(f)]) == 3
    err = capsys.readouterr().err
    assert err == (
        "internal error: cluster intersection is not a common face\n"
    )


def test_exit_codes(capsys):
    assert run(capsys, "normalize", "y[11]")[0] == 2  # domain
    assert run(capsys, "normalize", "oops")[0] == 1  # parse
    assert run(capsys, "cluster", "; y[01] ; y[011]")[0] == 2  # dependent
    assert run(capsys, "cubulate", "/nonexistent/file")[0] == 2
    assert run(capsys, "bogus-command")[0] == 1


def test_word_exponent_bound():
    assert len(parse_word(f"x[0]^{MAX_WORD_EXPONENT}")) == 1
    half = MAX_WORD_EXPONENT // 2
    with pytest.raises(DomainError, match=f"bound of {MAX_WORD_EXPONENT:,}"):
        parse_word(f"x[0]^{half} y[01]^-{half} x[1]")


class Overran(Exception):
    pass


@pytest.mark.parametrize("argv", [
    ("eval", "x[0]^100000000", "0(1)"),
    ("eval", "y[01]^100000000", "01(1)"),
    ("normalize", "x[0]^99999999"),
], ids=" ".join)
def test_huge_exponent_exits_2_within_a_second(argv, capsys):
    def overran(signum, frame):
        raise Overran("still running after a second")

    old = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code = commands.run(list(argv))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert code == 2
    assert f"bound of {MAX_WORD_EXPONENT:,}" in capsys.readouterr().err


def test_calc_work_is_bounded():
    """`exponent` counts every digit a symbol reads: y[01]^N at 01(1)
    moves about 2^N digits per digit of the tail."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))

    def calc(word):
        return subprocess.run(
            [sys.executable, "-m", "cantorg.cli", "calc", word, "01(1)"],
            env=env, capture_output=True, text=True, timeout=10)

    done = calc("y[01]^30")
    assert done.returncode == 3
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("internal error: ")
    done = calc("y[01]^16")
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "exponent: 16"


def test_normalize_work_is_bounded():
    """The normal form grows about 8 times per unit of k; `normalize`
    stops once its word passes `rewrite.MAX_WORD_ITEMS` items, long before
    it would spend its step budget."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    k = 100
    word = f"y[01]^{k} y[011]^-{k} y[01]^-{k} y[011]^{k} y[010]^-{k}"
    done = subprocess.run(
        [sys.executable, "-m", "cantorg.cli", "normalize", word],
        env=env, capture_output=True, text=True, timeout=5)
    assert done.returncode == 3
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("internal error: ")


SQUARES_FILE = pathlib.Path(__file__).resolve().parent / "golden" / "squares.txt"
LOOP_FILE = SQUARES_FILE.with_name("loop.txt")
K2_WORD = "y[01]^2 y[011]^-2 y[01]^-2 y[011]^2 y[010]^-2"


# (module, constant, value in the test or None for the real one, argv,
# message).  Rewriting K2_WORD grows its word past 20 items; a word that
# passes the real 2,000 takes about 2 s.  `y[01]^18` at 01(1) reads past the
# real step bound.  After each drain of `exponent` every buffer holds at
# most one digit and a step of the innermost symbol writes at most two, so
# the real buffer bound is never reached; two digits are passed at once.
# `squares.txt` needs a round of separation and two of decoupling.  The
# contraction of `loop.txt` spends 22 steps: one on each of its 9
# certificate entries and one on each of the 13 rearrangements of its
# word, which record no move.
BOUNDS = [
    (rewrite, "MAX_WORD_ITEMS", 20, ("normalize", K2_WORD),
     "rewriting grew a word past 20 items"),
    (calculus, "MAX_STEPS", None, ("calc", "y[01]^18", "01(1)"),
     "calculation did not stabilize within the step bound"),
    (calculus, "MAX_BUFFER", 2, ("calc", "y[01]^2", "(01)"),
     "calculation buffer exceeded bound"),
    (pipeline, "SEPARATION_ROUNDS", 1, ("cubulate", str(SQUARES_FILE)),
     "separation rounds exceeded without balance"),
    (pipeline, "DECOUPLING_ROUNDS", 1, ("cubulate", str(SQUARES_FILE)),
     "decoupling rounds exceeded"),
    (loops, "MAX_MOVES", 9, ("contract-loop", str(LOOP_FILE)),
     "loop contraction exceeded the move budget: on a loop of 9 vertices "
     "it spent 10 steps and recorded 4 of them"),
]


@pytest.mark.parametrize("module, name, value, argv, message", BOUNDS,
                         ids=[b[1] for b in BOUNDS])
def test_documented_bounds_exit_3(module, name, value, argv, message,
                                  monkeypatch, capsys):
    if value is not None:
        monkeypatch.setattr(module, name, value)
    _clear_normalize_memos()
    assert commands.run(list(argv)) == 3
    assert capsys.readouterr().err == f"internal error: {message}\n"


def test_committed_words_stay_under_the_exponent_bound():
    root = pathlib.Path(__file__).resolve().parent.parent
    files = [*root.glob("tests/golden/*.txt"), *root.glob("bench/inputs/*.txt"),
             root / "tests" / "test_golden_cli.py"]
    term = re.compile(r"[xy]\[[01]*\](?:\^(-?\d+))?")
    # a line's total bounds the total of each word on it
    totals = [sum(abs(int(m.group(1) or 1)) for m in term.finditer(line))
              for path in files for line in path.read_text().splitlines()]
    assert len(files) >= 7 and 0 < max(totals) <= MAX_WORD_EXPONENT


def test_cluster_line_round_trip(capsys):
    line = "1 ; y[01] ; y[10]^-1"
    c = commands.parse_cluster_line(line)
    assert commands.render_cluster_line(c) == line


SPEC6 = "1 ; y[00001] ; y[00011] ; y[00101] ; y[00111] ; y[01001] ; y[01011]"
SPEC10 = SPEC6 + " ; y[01101] ; y[01111] ; y[10001] ; y[10011]"


def test_cluster_cells_obeys_max_dim(capsys):
    code, out = run(capsys, "--max-dim", "8", "cluster", SPEC6, "--cells")
    assert code == 0
    assert out.splitlines()[-1] == "f-vector: 64 192 240 160 60 12 1"
    # without --max-dim the filling keeps its default bound of 4
    assert run(capsys, "cluster", SPEC6, "--cells")[0] == 2


def test_cluster_cells_over_bound_builds_nothing(monkeypatch, capsys):
    from cantorg.complexes import Cluster

    def refuse(self, base, params):
        raise AssertionError("a cluster was built past the fill bound")

    monkeypatch.setattr(Cluster, "__init__", refuse)
    assert commands.run(["cluster", SPEC6, "--cells"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "domain error: cluster dimension exceeds the configured bound\n")


SPEC17 = "1 ; " + " ; ".join("y[%s1]" % format(i, "05b") for i in range(17))


def test_cluster_parameters_over_bound_exit_2_at_once(
        tmp_path, monkeypatch, capsys):
    from cantorg.complexes import Cluster

    build = Cluster.__init__

    def refuse(self, base, params):
        if len(params) > commands.MAX_CLUSTER_PARAMS:
            raise AssertionError("a cluster was built past the bound")
        build(self, base, params)

    monkeypatch.setattr(Cluster, "__init__", refuse)
    assert commands.MAX_CLUSTER_PARAMS == 16
    path = tmp_path / "complex.txt"
    path.write_text("1 ; y[01] ; y[10]\n" + SPEC17 + "\n")
    for argv in (["cluster", SPEC17], ["cluster", SPEC17, "--cells"],
                 ["intersect", SPEC17, "1 ; y[01]"],
                 ["cubulate", str(path)]):
        assert commands.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("domain error: a cluster of 17 parameters exceeds "
                       "the bound of 16\n")


def test_equal_parses_both_words_before_normalizing(monkeypatch, capsys):
    from cantorg import rewrite

    calls = []
    real = rewrite.normalize

    def counting(word):
        calls.append(word)
        return real(word)

    for module in (commands, rewrite):
        monkeypatch.setattr(module, "normalize", counting)
    assert commands.run(["equal", "y[10]", "y[10] nonsense"]) == 1
    assert calls == []
    expansion = "x[10] y[100] y[1010]^-1 y[1011]"
    assert run(capsys, "equal", "y[10]", expansion) == (0, "equal\n")
    assert len(calls) == 2


def test_closed_stdout_pipe_is_not_an_error():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cantorg.cli", "cluster", SPEC10],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    # the output is far larger than a pipe buffer, so the writer is still
    # busy when the reader goes away
    assert proc.stdout.readline().startswith(b"cluster: ")
    assert proc.stdout.readline() == b"vertices: 1024\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_word_commands_skip_cluster_modules():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    script = (
        "import sys\n"
        "from cantorg.cli import main\n"
        "assert main(['eval', 'y[10]', '10(01)']) == 0\n"
        "assert main(['normalize', 'y[10] x[1] y[10]^-1']) == 0\n"
        "heavy = ('complexes', 'loops', 'pipeline')\n"
        "print(sorted(m for m in heavy if 'cantorg.' + m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@st.composite
def rarely(draw, junk, strategy):
    """Draws from `strategy`, and one time in ten from `junk`."""
    return draw(junk if draw(st.integers(0, 9)) == 0 else strategy)


# words of the command-line grammar, mostly well formed: a subscript ends
# in 01 or 10, as a y-letter needs, and a junk token or point is rare
SUBSCRIPTS = rarely(
    st.text("01", max_size=4),
    st.tuples(st.text("01", max_size=2), st.sampled_from(["01", "10"]))
    .map("".join))
LETTERS = st.builds("{}[{}]{}".format, st.sampled_from("xy"), SUBSCRIPTS,
                    st.sampled_from(["", "", "^-1", "^2", "^-2"]))
JUNK = st.sampled_from(["z[1]", "y[", "]", "^", "y[2]", "x[01]^", "x[0]^0",
                        "(", "oops", "y[]", ";", "1"])
POINTS = rarely(
    st.sampled_from(["(", "01", "0(", "()", "2(1)", ""]),
    st.builds("{}({})".format, st.text("01", max_size=4),
              st.text("01", min_size=1, max_size=3)))


def words(max_size=4):
    return st.lists(rarely(JUNK, LETTERS), max_size=max_size).map(" ".join)


def specs(max_params=3, max_size=4):
    return st.lists(words(max_size), min_size=1, max_size=max_params + 1
                    ).map(" ; ".join)


ARGUMENTS = {
    "normalize": [words()],
    "equal": [words(), words()],
    "eval": [words(), POINTS],
    "calc": [words(), POINTS],
    "support": [words()],
    "special": [words()],
    "cluster": [specs()],
    "intersect": [specs(), specs()],
}
# tiny files: larger cubulate inputs can take seconds
FILE_LINES = {
    "cubulate": st.lists(specs(2, 2), min_size=1, max_size=2),
    "contract-loop": st.lists(words(2), min_size=1, max_size=4),
}


@st.composite
def cli_calls(draw):
    """An argument list, the command and the text of the file it names."""
    command = draw(st.sampled_from(sorted(commands.COMMANDS)))
    if command in FILE_LINES:
        args, text = [], "\n".join(draw(FILE_LINES[command])) + "\n"
    else:
        args, text = [draw(arg) for arg in ARGUMENTS[command]], None
    if command == "cluster" and draw(st.booleans()):
        args.append("--cells")
    max_dim = draw(st.sampled_from([None, -1, 0, 1, 2, 4, 8]))
    front = [] if max_dim is None else ["--max-dim", str(max_dim)]
    return front + [command] + args, command, text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cli_calls())
def test_cli_is_total(call):
    """Every call exits 0, 1, 2 or 3 without raising, and `cubulate` on
    these inputs never reports an internal error."""
    argv, command, text = call
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            argv.append(os.path.join(tmp, "input.txt"))
            with open(argv[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = commands.run(argv)
    assert code in (0, 1, 2, 3)
    if command == "cubulate":
        assert code != 3
