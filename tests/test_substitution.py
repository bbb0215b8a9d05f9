"""Differential tests of the y-substitution table.

Every caller of `thompson.Y_RULES` is compared against the hand-written
if-chains it replaced (`substitution_oracles`): on every digit word up to
length 10, on every rational point with preperiod at most 6 and period at
most 3, and on random sorted y-words for the contraction finder.
"""

import itertools

from hypothesis import given, settings, strategies as st

import substitution_oracles as oracle
from cantorg.binseq import RationalSeq, is_constant, lex_key
from cantorg.calculus import (
    POTENTIAL_CANCELLATION,
    _consume_emitting,
    calc_string,
    eval_letter,
    exponent,
)
from cantorg.rewrite import (
    Letter,
    _outer_reduce,
    contraction,
    expand_unit,
    find_potential_contraction,
)
from cantorg.special import descends, expand_letter
from cantorg.thompson import TreePair, x_gen

SIGNS = (1, -1)


def words(max_len):
    for n in range(max_len + 1):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


WORDS = list(words(10))

POINTS = sorted(
    {RationalSeq(pre, per) for pre in words(6) for per in words(3) if per},
    key=RationalSeq.render,
)


def test_digit_word_consumers_match_oracle():
    for w in WORDS:
        for o in SIGNS:
            assert _outer_reduce(o, w) == oracle.outer_reduce(o, w), (o, w)
            assert _consume_emitting(o, w) == oracle.consume_emitting(o, w)


def test_expansions_match_oracle():
    for w in WORDS:
        for sign in SIGNS:
            assert expand_unit(w, sign) == oracle.expand_unit(w, sign)
            assert expand_letter(w, sign) == oracle.expand_letter(w, sign)


def test_x_gen_leaves_match_hand_written():
    for s in words(6):
        off = [s[:i] + ("1" if s[i] == "0" else "0") for i in range(len(s))]
        assert x_gen(s) == TreePair(
            off + [s + "00", s + "01", s + "1"],
            off + [s + "0", s + "10", s + "11"],
        )


def test_descends_matches_oracle():
    for anc in ("", "0", "10"):
        for u in WORDS:
            for sg in SIGNS:
                for w in SIGNS:
                    assert descends((anc, sg), (u, w)) == oracle.descends(
                        (anc, sg), (u, w)
                    ), (anc, sg, u, w)


def test_eval_letter_matches_oracle():
    assert len(POINTS) == 640  # distinct canonical sequences
    for xi in POINTS:
        for sign in SIGNS:
            assert eval_letter(sign, xi) == oracle.eval_letter(sign, xi)


def test_exponent_matches_oracle():
    subs = ["01", "10", "010", "100", "0110", "1001"]
    words2 = [
        [Letter("y", a, e), Letter("y", b, f)]
        for a in subs for b in subs for e in (1, -1, 2) for f in (1, -1)
        if a != b
    ]
    for xi in POINTS[::7]:
        for ys in words2:
            c = calc_string(ys, xi)
            got = exponent(c)
            want = oracle.exponent(c.segs, c.tail)
            assert (None if got == POTENTIAL_CANCELLATION else got) == want


_SUBS = st.text("01", min_size=2, max_size=5).filter(
    lambda s: not is_constant(s)
)


@st.composite
def sorted_y_words(draw):
    """Sorted y-words with distinct subscripts, often holding an expansion
    triple, sometimes spoiled by an extra letter or a sign."""
    exps = {}
    if draw(st.booleans()):
        s = draw(st.text("01", max_size=3))
        for sub, sign in oracle.expand_letter(s, draw(st.sampled_from(SIGNS))):
            exps[sub] = sign * draw(st.sampled_from((1, 1, 2, -1)))
    for sub in draw(st.lists(_SUBS, max_size=5)):
        exps[sub] = draw(st.sampled_from((-2, -1, 1, 2)))
    return [
        Letter("y", sub, exps[sub])
        for sub in sorted(exps, key=lex_key)
        if not is_constant(sub)
    ]


@settings(max_examples=400, deadline=None)
@given(sorted_y_words())
def test_contraction_finder_matches_oracle(ys):
    found = find_potential_contraction(ys)
    assert found == oracle.find_potential_contraction(ys)
    if found is not None:
        case, s = found
        triple, repl = contraction(case, s)
        assert triple == oracle.expand_letter(s, 1 if case == 1 else -1)
        assert repl == oracle.contraction_replacement(case, s)
