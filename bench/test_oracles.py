"""Tests of the benchmark's own checks.

    python3 -m pytest bench/test_oracles.py
"""

import os
import random
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402


def _bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


def _agree(a, b):
    n = min(len(a), len(b))
    return a[:n] == b[:n]


def test_x_substitution():
    assert oracles.apply_letter("x", "1", 1, "100" + "11") == "10" + "11"
    assert oracles.apply_letter("x", "1", 1, "101" + "00") == "110" + "00"
    assert oracles.apply_letter("x", "1", 1, "11" + "00") == "111" + "00"
    assert oracles.apply_letter("x", "1", 1, "0110") == "0110"
    assert oracles.apply_letter("x", "", -1, "10" + "1") == "01" + "1"
    # only the subscript is known when the branch is not decided
    assert oracles.apply_letter("x", "01", 1, "010") == "01"


def test_y_substitution():
    # y: 00 -> 0, 01 -> 10 then y^-1, 1 -> 11
    assert oracles.y_symbol(1, "00" * 4) == "0" * 4
    assert oracles.y_symbol(1, "1" * 3) == "11" * 3
    assert oracles.y_symbol(1, "01" + "11" * 3) == "10" + "1" * 3
    # y^-1: 0 -> 00, 10 -> 01 then y, 11 -> 1
    assert oracles.y_symbol(-1, "0" * 3) == "00" * 3
    assert oracles.y_symbol(-1, "10" + "1" * 4) == "01" + "11" * 4
    # a lone digit that needs a partner emits nothing
    assert oracles.y_symbol(1, "0") == ""
    # identity off the cone, the substitution after the subscript inside
    assert oracles.apply_letter("y", "10", 1, "0" * 7) == "0" * 7
    assert oracles.apply_letter("y", "10", 1, "10111") == "10111111"


def test_y_inverse_undoes_y():
    rng = random.Random(1)
    for _ in range(200):
        w = _bits(rng, 60)
        for sign in (1, -1):
            back = oracles.y_symbol(-sign, oracles.y_symbol(sign, w))
            assert w.startswith(back) and len(back) > 20


def test_defining_relations_hold_on_prefixes():
    rng = random.Random(2)
    for _ in range(300):
        s = _bits(rng, rng.randint(1, 4))
        if set(s) != {"0", "1"}:
            continue
        w = s + _bits(rng, 80) if rng.random() < 0.8 else _bits(rng, 80)
        lhs = oracles.eval_prefix([("y", s, 1)], w)
        rhs = oracles.eval_prefix(
            [("x", s, 1), ("y", s + "0", 1), ("y", s + "10", -1),
             ("y", s + "11", 1)], w)
        assert _agree(lhs, rhs) and min(len(lhs), len(rhs)) > 30
        lhs = oracles.eval_prefix([("x", s, 2)], w)
        rhs = oracles.eval_prefix(
            [("x", s + "0", 1), ("x", s, 1), ("x", s + "1", 1)], w)
        assert _agree(lhs, rhs) and min(len(lhs), len(rhs)) > 30


def test_point_prefix():
    assert oracles.point_prefix("10(01)", 7) == "1001010"
    assert oracles.point_prefix("(1)", 3) == "111"


def test_readme_examples_match_the_readme():
    with open(os.path.join(os.path.dirname(HERE), "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    for argv, text in workloads.README_EXAMPLES:
        cmd = "$ cantorg %s %s" % (argv[0], " ".join('"%s"' % a
                                                     for a in argv[1:]))
        assert cmd + "\n" + text in readme


def test_tail_percentile_rule():
    assert oracles.tail_percentile(39) is None
    assert oracles.tail_percentile(40) == 75
    assert oracles.tail_percentile(99) == 75
    assert oracles.tail_percentile(100) == 90
    assert oracles.tail_percentile(199) == 90
    assert oracles.tail_percentile(200) == 95
    assert oracles.tail_percentile(1000) == 99
    assert oracles.tail_percentile(10000) == 99.9
    for n in range(40, 2000):
        p = oracles.tail_percentile(n)
        assert n - oracles.nearest_rank(n, p) >= 10
    values = list(range(1, 101))
    random.Random(3).shuffle(values)
    assert oracles.percentile(values, 90) == 90
    assert oracles.percentile(values, 50) == 50


def test_cluster_output_check():
    assert oracles.cube_f_vector(3) == (8, 12, 6, 1)
    square = ("cluster: 1 ; y[001] ; y[011]\nvertices: 4\n  1\n  a\n  b\n"
              "  c\nedges: 4\n  1 ; a\n  1 ; b\n  a ; c\n  b ; c\n"
              "f-vector: 4 4 1\n")
    assert oracles.check_cluster_output(square, 2, cells=True)
    assert not oracles.check_cluster_output(square, 3)
    broken = re.sub("edges: 4", "edges: 5", square)
    assert not oracles.check_cluster_output(broken, 2)
