import pytest

from cantorg import commands
from cantorg.cli import DomainError, ParseError, parse_word, render_word


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

    real = loops.path_of
    # a path that disagrees with the loop at its first vertex
    monkeypatch.setattr(
        loops, "path_of", lambda items: [("bogus",)] + real(items)[1:]
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
