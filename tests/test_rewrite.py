import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cantorg.binseq import RationalSeq, is_constant
from cantorg.calculus import evaluate
from cantorg.cli import parse_word
from cantorg.rewrite import (
    IDENTITY_NORMAL,
    Letter,
    _is_y,
    equal_words,
    find_potential_contraction,
    has_potential_cancellation,
    inverse_word,
    invert_normal,
    normalize,
    normalize_product,
    pair_potential_cancellation,
    split_standard,
    standardize,
)
from cantorg.thompson import IDENTITY, TreePair, compose, x_gen
from substitution_oracles import pair_cancellation_bruteforce


def rational_samples(rng, count=12):
    out = []
    for _ in range(count):
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
        out.append(RationalSeq(pre, per))
    return out


def random_word(rng, max_len=8, max_sub=4):
    word = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice("xy")
        while True:
            sub = "".join(rng.choice("01") for _ in range(rng.randint(0, max_sub)))
            if kind == "x" or not is_constant(sub):
                break
        word.append(Letter(kind, sub, rng.choice([-2, -1, 1, 2])))
    return word


def word_with_cancellation(rng):
    """The generator's next word whose standard form has a potential
    cancellation; about one word in forty has one."""
    while True:
        word = random_word(rng, max_len=6, max_sub=3)
        ys = [it for it in standardize(list(word)) if _is_y(it)]
        if has_potential_cancellation(ys) is not None:
            return word


def oracle_equal(w1, w2, rng):
    return all(
        evaluate(w1, xi) == evaluate(w2, xi) for xi in rational_samples(rng)
    )


def test_standardize_examples():
    w = parse_word("x[] y[10]")
    f, ys = split_standard(standardize(list(w)))
    assert f == x_gen("") and [lt.render() for lt in ys] == ["y[10]"]

    f, ys = split_standard(standardize(list(parse_word("y[10] x[1]"))))
    assert f == compose(x_gen("10"), x_gen("1"))
    assert [(lt.sub, lt.exp) for lt in ys] == [("10", 1), ("1100", -1), ("1101", 1)]

    f, ys = split_standard(standardize(list(parse_word("y[01] y[011]"))))
    assert f == x_gen("01")
    assert [(lt.sub, lt.exp) for lt in ys] == [
        ("010", 1),
        ("0110", -1),
        ("0111", 1),
        ("011", 1),
    ]

    # y[010]^-1 is commuted out from between the two y[110]: they fuse too
    w = parse_word("y[010] y[10] y[110] y[010]^-1 y[110]")
    assert standardize(list(w)) == parse_word("y[10] y[110]^2")


def test_standardize_preserves_element():
    rng = random.Random(3)
    for _ in range(40):
        w = random_word(rng)
        assert oracle_equal(w, standardize(list(w)), rng)


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=10**6))
def test_standard_form_is_one_leading_pair_then_y_letters(seed):
    word = random_word(random.Random(seed))
    items = standardize(list(word))
    off = 1 if items and isinstance(items[0], TreePair) else 0
    assert off == 0 or not items[0].is_identity()
    assert all(_is_y(it) for it in items[off:])


def test_pair_cancellation_examples():
    assert not pair_potential_cancellation(("10", 1), ("100", -1))
    assert pair_potential_cancellation(("10", 1), ("101", -1))
    assert not pair_potential_cancellation(("10", 1), ("100", 1))


def test_pair_cancellation_rejects_bad_input():
    with pytest.raises(ValueError):
        pair_potential_cancellation(("10", 1), ("01", -1))
    with pytest.raises(ValueError):
        pair_potential_cancellation(("10", 2), ("100", 1))


def test_pair_cancellation_matches_bruteforce_small():
    words = [
        "".join(bits)
        for n in range(1, 4)
        for bits in itertools.product("01", repeat=n)
    ]
    for s in words:
        for ext_len in range(1, 3):
            for ext in itertools.product("01", repeat=ext_len):
                u = s + "".join(ext)
                for t in (1, -1):
                    for v in (1, -1):
                        assert pair_potential_cancellation(
                            (s, t), (u, v)
                        ) == pair_cancellation_bruteforce((s, t), (u, v)), (s, u, t, v)


def test_normalize_examples():
    assert normalize(parse_word("y[10] y[10]^-1")) == IDENTITY_NORMAL
    n = normalize(parse_word("y[100]^-1 y[10]"))
    assert n.f == IDENTITY
    assert [(lt.sub, lt.exp) for lt in n.ys] == [("100", -1), ("10", 1)]
    n = normalize(parse_word("y[10] x[1]"))
    assert n.f == compose(x_gen("10"), x_gen("1"))
    assert [(lt.sub, lt.exp) for lt in n.ys] == [("10", 1), ("1100", -1), ("1101", 1)]


def test_normalize_contracts():
    n = normalize(parse_word("y[100] y[1010]^-1 y[1011]"))
    assert n.f == x_gen("10").invert()
    assert [(lt.sub, lt.exp) for lt in n.ys] == [("10", 1)]


def test_potential_contraction_patterns():
    ys = [Letter("y", s, e) for s, e in [("100", 1), ("1010", -1), ("1011", 1)]]
    assert find_potential_contraction(ys) == (1, "10")
    ys.append(Letter("y", "101", 1))
    assert find_potential_contraction(ys) is None
    ys2 = [Letter("y", s, e) for s, e in [("1000", -1), ("1001", 1), ("101", -1)]]
    assert find_potential_contraction(ys2) == (2, "10")


def test_removal_example():
    # a flagged pair is rewritten to a cancellation-free equivalent
    w = parse_word("y[101]^-1 y[10]")
    n = normalize(list(w))
    assert has_potential_cancellation(list(n.ys)) is None
    rng = random.Random(11)
    assert oracle_equal(w, n, rng)
    assert not n.is_identity()


def test_equal_words_examples():
    assert equal_words(
        parse_word("y[10] x[1]"),
        parse_word("x[10] x[1] y[10] y[1100]^-1 y[1101]"),
    )
    w = parse_word("y[01] x[] y[10]^-2")
    assert equal_words(w, w)
    assert not equal_words(parse_word("y[10]"), parse_word("y[01]"))


def test_invert_normal_examples():
    assert invert_normal(IDENTITY_NORMAL) == IDENTITY_NORMAL
    n = normalize(parse_word("y[100] y[10]"))
    inv = invert_normal(n)
    assert inv.f == x_gen("10").invert()
    assert [(lt.sub, lt.exp) for lt in inv.ys] == [
        ("1000", -1),
        ("1001", 1),
        ("100", -1),
        ("101", -1),
    ]
    n = normalize(parse_word("y[10]"))
    assert [(lt.sub, lt.exp) for lt in invert_normal(n).ys] == [("10", -1)]


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_normalize_sound_and_idempotent(seed):
    rng = random.Random(seed)
    w = random_word(rng, max_len=6, max_sub=3)
    n = normalize(list(w))
    assert oracle_equal(w, n, rng)
    assert normalize(n.to_items()) == n
    # normal form invariants
    ys = list(n.ys)
    assert has_potential_cancellation(ys) is None
    assert find_potential_contraction(ys) is None
    from binseq_oracles import lex_compare

    for a, b in zip(ys, ys[1:]):
        assert lex_compare(a.sub, b.sub) < 0


def test_normalize_sound_on_potential_cancellations():
    # the hypothesis words above rarely reach the expansion step of
    # remove_potential_cancellations; these 60 all do
    rng = random.Random(0)
    for _ in range(60):
        w = word_with_cancellation(rng)
        n = normalize(list(w))
        assert oracle_equal(w, n, rng)
        assert normalize(n.to_items()) == n


def test_units_flag_the_merged_outer_letter():
    """Split into unit letters, as a `loops._Word` holds them, the y-part
    of a standard form has its potential cancellation flagged at the same
    subscripts as the merged y-part, and its outer index is the first unit
    of that subscript: so `remove_potential_cancellations` expands by index
    the letter a search by subscript would find."""
    rng = random.Random(40)
    flagged = powers = 0
    for k in range(600):
        word = (word_with_cancellation(rng) if k % 2
                else random_word(rng, max_len=6, max_sub=3))
        ys = split_standard(standardize(list(word)))[1]
        units = [Letter("y", lt.sub, 1 if lt.exp > 0 else -1)
                 for lt in ys for _ in range(abs(lt.exp))]
        found = has_potential_cancellation(ys)
        on_units = has_potential_cancellation(units)
        if found is None:
            assert on_units is None
            continue
        (j, i), (ju, iu) = found, on_units
        assert (units[ju].sub, units[iu].sub) == (ys[j].sub, ys[i].sub)
        assert ju == next(k for k, lt in enumerate(units)
                          if lt.sub == ys[j].sub)
        flagged += 1
        powers += abs(ys[j].exp) > 1
    # 312 flagged words, 144 of them with a power as the outer letter
    assert flagged >= 300 and powers >= 100


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_inverse_roundtrip(seed):
    rng = random.Random(seed)
    w = random_word(rng, max_len=5, max_sub=3)
    n = normalize(list(w))
    inv = invert_normal(n)
    assert invert_normal(inv) == n
    assert normalize_product(n, inv) == IDENTITY_NORMAL
    assert oracle_equal(w + inverse_word(w), [], rng)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_normalize_separates_oracle(seed):
    # words the oracle separates get distinct normal forms
    rng = random.Random(seed)
    w1 = random_word(rng, max_len=4, max_sub=3)
    w2 = random_word(rng, max_len=4, max_sub=3)
    if equal_words(w1, w2):
        assert oracle_equal(w1, w2, rng)
    if oracle_equal(w1, w2, rng):
        # oracle agreement on generic samples must not contradict a
        # *provable* inequality witnessed on a deeper sweep
        if not equal_words(w1, w2):
            assert any(
                evaluate(w1, xi) != evaluate(w2, xi)
                for xi in rational_samples(random.Random(seed + 1), count=200)
            )
