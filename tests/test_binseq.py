import itertools

import pytest
from hypothesis import given, strategies as st

from cantorg.binseq import (
    ConeSet,
    RationalSeq,
    incompatible,
    is_constant,
    lex_key,
)
from binseq_oracles import lex_compare
from verifiers import contains_seq

bits = st.text(alphabet="01", max_size=8)
nonempty_bits = st.text(alphabet="01", min_size=1, max_size=6)


def test_lex_compare_examples():
    assert lex_compare("100", "10") == -1
    assert lex_compare("s10"[1:], "10") == 0
    assert lex_compare("10", "1100") == -1


def test_prefix_relation_examples():
    assert not incompatible("10", "100")
    assert incompatible("01", "10")
    assert not incompatible("", "0110")
    assert not incompatible("0110", "")
    assert not incompatible("11", "11")


def test_incompatible_matches_definition():
    # incompatible iff the words differ at some index below both lengths
    words = ["".join(w) for n in range(5) for w in itertools.product("01", repeat=n)]
    for s, t in itertools.product(words, repeat=2):
        assert incompatible(s, t) == any(a != b for a, b in zip(s, t))


def test_is_constant():
    assert is_constant("")
    assert is_constant("000")
    assert is_constant("11")
    assert not is_constant("10")


@given(bits, bits)
def test_lex_antisymmetric(s, t):
    assert lex_compare(s, t) == -lex_compare(t, s)


@given(bits, bits)
def test_lex_key_orders_as_lex_compare(s, t):
    a, b = lex_key(s), lex_key(t)
    assert (a > b) - (a < b) == lex_compare(s, t)


@given(st.lists(bits, max_size=8))
def test_lex_sorting_total(words):
    ordered = sorted(words, key=lex_key)
    for a, b in zip(ordered, ordered[1:]):
        assert lex_compare(a, b) <= 0


@given(bits, bits, bits)
def test_lex_transitive(a, b, c):
    x, y, z = sorted([a, b, c], key=lex_key)
    assert lex_compare(x, z) <= 0


def test_rational_canonicalization():
    assert RationalSeq("1", "01") == RationalSeq("", "10")
    x = RationalSeq("", "101")
    assert x.drop(2).replace_prefix(0, "10") == x
    a = RationalSeq("0111", "1")
    assert a.pre == "0" and a.per == "1"
    b = RationalSeq("", "0101")
    assert b.per == "01"
    assert RationalSeq("01", "01") == RationalSeq("", "01")


def test_rational_parse_render():
    x = RationalSeq.parse("1001(1)")
    assert x.render() == "100(1)"
    assert RationalSeq.parse("100(1)") == x
    with pytest.raises(ValueError):
        RationalSeq.parse("10)")


def test_rational_digits_and_drop():
    x = RationalSeq("10", "01")
    assert x.prefix(6) == "100101"
    assert x.drop(3) == RationalSeq("", "10")
    assert x.drop(0) == x
    assert x.replace_prefix(0, "11").prefix(4) == "1110"
    assert x.starts_with("1001")
    assert not x.starts_with("11")


@given(bits, nonempty_bits)
def test_rational_canonical_idempotent(pre, per):
    x = RationalSeq(pre, per)
    y = RationalSeq(x.pre, x.per)
    assert x == y


@given(bits, nonempty_bits, st.integers(min_value=0, max_value=12))
def test_rational_drop_consistent(pre, per, n):
    x = RationalSeq(pre, per)
    y = x.drop(n)
    for i in range(12):
        assert y.digit(i) == x.digit(n + i)


@given(bits, nonempty_bits)
def test_rational_equality_is_pointwise(pre, per):
    x = RationalSeq(pre, per)
    y = RationalSeq(pre + per, per)
    assert x == y


def test_coneset_examples():
    assert ConeSet(["10"]).intersect(ConeSet(["01"])).is_null()
    assert ConeSet(["100"]).union(ConeSet(["101"])) == ConeSet(["10"])
    assert ConeSet(["100"]).subset_of(ConeSet(["10"]))
    assert not ConeSet(["10"]).subset_of(ConeSet(["100"]))


def test_coneset_merging_cascades():
    assert ConeSet(["00", "010", "011"]) == ConeSet(["0"])
    assert ConeSet(["0", "00"]) == ConeSet(["0"])
    assert ConeSet([""]).cones == ("",)


def test_coneset_queries():
    a = ConeSet(["10", "01"])
    assert contains_seq(a, RationalSeq("01", "1"))
    assert not contains_seq(a, RationalSeq("", "0"))


@given(st.lists(bits, max_size=6), st.lists(bits, max_size=6))
def test_coneset_ops_denotational(ws1, ws2):
    a, b = ConeSet(ws1), ConeSet(ws2)
    u = a.union(b)
    i = a.intersect(b)
    assert a.subset_of(u) and b.subset_of(u)
    assert i.subset_of(a) and i.subset_of(b)
    # spot-check membership on sample points
    for w in ws1 + ws2:
        p = RationalSeq(w, "01")
        assert contains_seq(u, p) == (contains_seq(a, p) or contains_seq(b, p))
        assert contains_seq(i, p) == (contains_seq(a, p) and contains_seq(b, p))


@given(st.lists(bits, max_size=6))
def test_coneset_canonical_idempotent(ws):
    a = ConeSet(ws)
    assert ConeSet(a.cones) == a
    # antichain property
    for s in a.cones:
        for t in a.cones:
            if s != t:
                assert incompatible(s, t)
