"""Differential tests of the whole-string `RationalSeq` operations.

Slice-based `prefix`/`starts_with`, the one-pass `check_bits`, the fused
`replace_prefix` (with `drop` and `prepend` on top of it) and
`TreePair.act_on_seq` are compared against the digit-by-digit versions in
`binseq_oracles`, field by field on the canonical (pre, per).
"""

import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import binseq_oracles as oracle
from cantorg.binseq import ConeSet, RationalSeq, check_bits
from cantorg.thompson import TreePair, compose, x_gen

bits = st.text(alphabet="01", max_size=8)
# periods that are often powers of a shorter word, so canonicalization
# has something to shorten
periods = st.one_of(
    st.text(alphabet="01", min_size=1, max_size=6),
    st.builds(lambda u, k: u * k, st.text(alphabet="01", min_size=1,
                                         max_size=3), st.integers(2, 3)),
)


def words(max_len):
    for n in range(max_len + 1):
        for digits in itertools.product("01", repeat=n):
            yield "".join(digits)


POINTS = sorted(
    {RationalSeq(pre, per) for pre in words(6) for per in words(3) if per},
    key=RationalSeq.render,
)


def fields(xi):
    return xi.pre, xi.per


@given(bits, periods, st.text(alphabet="01", max_size=6))
def test_prefix_replacement_matches_oracle(pre, per, w):
    x = RationalSeq(pre, per)
    # n before, at and past the preperiod, over two whole periods
    for n in range(len(x.pre) + 2 * len(x.per) + 2):
        want = oracle.prepend(oracle.drop(x, n), w)
        assert fields(x.replace_prefix(n, w)) == fields(want)
        assert fields(x.drop(n)) == fields(oracle.drop(x, n))
        assert fields(x.prepend(w)) == fields(oracle.prepend(x, w))
        assert x.prefix(n) == oracle.prefix(x, n)
        assert x.starts_with(w) == oracle.starts_with(x, w)
        head = x.prefix(n)
        assert x.starts_with(head) and oracle.starts_with(x, head)


@given(st.one_of(st.text(), st.text(alphabet="01 2\n\t０٠١")))
def test_check_bits_matches_oracle(w):
    def rejects(check):
        try:
            check(w)
        except ValueError:
            return True
        return False

    assert rejects(check_bits) == rejects(oracle.check_bits)


def _pairs():
    singles = [x_gen(s) for s in words(4)]
    out = singles + [g.invert() for g in singles]
    short = [x_gen(s) for s in words(2)]
    short += [g.invert() for g in short]
    out += [compose(f, g) for f in short for g in short]
    return out


def test_act_on_seq_matches_oracle():
    assert len(POINTS) == 640
    for pair in _pairs():
        for xi in POINTS:
            got = pair.act_on_seq(xi)
            assert fields(got) == fields(oracle.act_on_seq(pair, xi))


BAD_WORDS = [None, b"01", "2", "0 1", "01\n", "０", "٠"]


@pytest.mark.parametrize("bad", BAD_WORDS, ids=repr)
def test_non_binary_words_rejected(bad):
    x = RationalSeq("10", "01")
    for build in (
        lambda: RationalSeq(bad, "1"),
        lambda: RationalSeq("0", bad),
        lambda: x.prepend(bad),
        lambda: x.replace_prefix(1, bad),
        lambda: x.replace_prefix(5, bad),
        lambda: ConeSet([bad]),
        lambda: x_gen(bad),
        lambda: TreePair((bad,), (bad,)),
    ):
        with pytest.raises(ValueError):
            build()


def test_empty_word_accepted():
    x = RationalSeq("", "1")
    assert x.prepend("") == x.replace_prefix(0, "") == x
    assert ConeSet([""]).cones == ("",)
    assert x_gen("").domain == ("00", "01", "1")
    assert TreePair(("",), ("",)).is_identity()


def test_tree_pair_rejects_non_str_leaves():
    with pytest.raises(ValueError):
        TreePair((b"0", b"1"), (b"0", b"1"))
    with pytest.raises(ValueError):
        TreePair(("0", "1"), ("0", "2"))


def test_cli_bad_point_is_a_parse_error():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "cantorg.cli", "eval", "y[01]", "0a(1)"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"parse error: ")
