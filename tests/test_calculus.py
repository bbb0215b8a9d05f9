import random
from itertools import product

from hypothesis import given, settings, strategies as st

from cantorg import calculus
from cantorg.binseq import RationalSeq, is_constant
from cantorg.calculus import (
    POTENTIAL_CANCELLATION,
    calc_string,
    eval_letter,
    evaluate,
    exponent,
    supp_y,
)
from cantorg.cli import parse_word
from cantorg.rewrite import Letter, normalize


def seq(text):
    return RationalSeq.parse(text)


def test_eval_letter_fixed_points():
    assert eval_letter(1, seq("(0)")) == seq("(0)")
    assert eval_letter(-1, seq("(1)")) == seq("(1)")
    assert eval_letter(1, seq("(1)")) == seq("(1)")
    assert eval_letter(1, seq("0(1)")) == seq("10(1)")


def test_eval_letter_example():
    assert eval_letter(1, seq("01(1)")) == seq("10(1)")


@given(
    st.text(alphabet="01", max_size=6),
    st.text(alphabet="01", min_size=1, max_size=3),
)
def test_eval_letter_bijective(pre, per):
    xi = RationalSeq(pre, per)
    assert eval_letter(-1, eval_letter(1, xi)) == xi
    assert eval_letter(1, eval_letter(-1, xi)) == xi


@given(
    st.text(alphabet="01", max_size=6),
    st.text(alphabet="01", min_size=1, max_size=3),
)
def test_eval_letter_substitution_consistency(pre, per):
    # the letter action commutes with its own defining substitutions
    xi = RationalSeq(pre, per)
    out = eval_letter(1, xi)
    if xi.starts_with("00"):
        assert out == eval_letter(1, xi.drop(2)).replace_prefix(0, "0")
    elif xi.starts_with("01"):
        assert out == eval_letter(-1, xi.drop(2)).replace_prefix(0, "10")
    else:
        assert out == eval_letter(1, xi.drop(1)).replace_prefix(0, "11")


def test_evaluate_examples():
    assert evaluate(parse_word("y[10]"), seq("1001(1)")) == seq("1010(1)")
    assert evaluate(parse_word("y[10]"), seq("(0)")) == seq("(0)")
    w = parse_word("x[] y[10]^-1 y[10] x[]^-1")
    for xi in [seq("(0)"), seq("10(01)"), seq("1101(1)"), seq("(10)")]:
        assert evaluate(w, xi) == xi


def test_evaluate_is_right_action():
    rng = random.Random(7)
    for _ in range(30):
        w1 = parse_word("y[10] x[1]")
        w2 = parse_word("y[01]^-1 x[]")
        xi = RationalSeq(
            "".join(rng.choice("01") for _ in range(rng.randint(0, 5))),
            "".join(rng.choice("01") for _ in range(rng.randint(1, 3))),
        )
        assert evaluate(w1 + w2, xi) == evaluate(w2, evaluate(w1, xi))


def test_calc_string_example():
    c = calc_string(parse_word("y[100]^-1 y[10]"), seq("1001(1)"))
    assert c.render() == "10 y 0 y^-1 (1)"
    assert exponent(c) == 2


def test_calc_string_missed_cone():
    c = calc_string(parse_word("y[10]"), seq("(0)"))
    assert c.segs == ()
    assert c.render() == "(0)"
    assert exponent(c) == 0


def test_calc_string_single_insertion():
    c = calc_string(parse_word("y[01]"), seq("01(1)"))
    assert c.render() == "01 y (1)"
    assert exponent(c) == 1


def test_exponent_flags_cancellation():
    c = calc_string(parse_word("y[101]^-1 y[10]"), seq("101(1)"))
    assert exponent(c) == POTENTIAL_CANCELLATION


def test_exponent_counts_run():
    c = calc_string(parse_word("y[10]^3"), seq("10(10)"))
    assert exponent(c) == 3


def test_supp_y():
    assert supp_y(normalize(parse_word("y[10]"))).cones == ("10",)
    assert supp_y(normalize(parse_word(""))).cones == ()
    assert supp_y(normalize(parse_word("y[100]^-1 y[10]"))).cones == ("10",)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_normal_form_calculations_never_flag(seed):
    rng = random.Random(seed)
    letters = []
    for _ in range(rng.randint(1, 4)):
        sub = "".join(rng.choice("01") for _ in range(rng.randint(2, 4)))
        if sub.count("0") == 0 or sub.count("1") == 0:
            continue
        letters.append(("y", sub, rng.choice([-2, -1, 1, 2])))
    word = [
        lt
        for k, s, e in letters
        for lt in parse_word(f"{k}[{s}]^{e}")
    ]
    n = normalize(word)
    for pre, per in [("", "0"), ("", "1"), ("10", "01"), ("1101", "1")]:
        xi = RationalSeq(pre, per)
        c = calc_string(list(n.ys), xi)
        assert exponent(c) != POTENTIAL_CANCELLATION


_SUBSCRIPTS = st.text(alphabet="01", max_size=4)
_EXPONENTS = st.sampled_from([-2, -1, 1, 2])
_LETTERS = st.one_of(
    st.builds(Letter, st.just("x"), _SUBSCRIPTS, _EXPONENTS),
    st.builds(Letter, st.just("y"),
              _SUBSCRIPTS.filter(lambda s: not is_constant(s)), _EXPONENTS),
)
_POINTS = st.builds(
    RationalSeq,
    st.text(alphabet="01", max_size=6),
    st.text(alphabet="01", min_size=1, max_size=3),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(_LETTERS, max_size=6), st.lists(_POINTS, min_size=1,
                                                 max_size=4))
def test_normal_form_evaluates_as_its_word(word, points):
    normal = normalize(word)
    for xi in points:
        assert evaluate(word, xi) == evaluate(normal, xi)


def _calculations(count):
    """Seeded calculations of `exponent`: the y-part of the normal form of
    1-5 y-letters (2-5-digit subscripts, exponents ±1 to ±3) at a point
    with preperiod at most 6 and period at most 3."""
    rng = random.Random(3800)
    exps = (-3, -2, -1, 1, 2, 3)
    subs = [w for n in range(2, 6)
            for w in map("".join, product("01", repeat=n))
            if not is_constant(w)]

    def bits(lo, hi):
        return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))

    for _ in range(count):
        word = [Letter("y", rng.choice(subs), rng.choice(exps))
                for _ in range(rng.randint(1, 5))]
        xi = RationalSeq(bits(0, 6), bits(1, 3))
        yield calc_string(normalize(word).ys, xi)


def _buffer_overruns(calculations):
    overruns = 0
    for c in calculations:
        try:
            exponent(c)
        except RuntimeError as e:
            assert str(e) == "calculation buffer exceeded bound"
            overruns += 1
    return overruns


def test_exponent_buffers_hold_at_most_three_digits(monkeypatch):
    """The buffer bound of `exponent` cannot fire: after a drain each buffer
    holds at most one digit, and a step of the innermost symbol adds at most
    two.  A bound of 3 is never passed; a bound of 2 is."""
    monkeypatch.setattr(calculus, "MAX_BUFFER", 3)
    assert _buffer_overruns(_calculations(3000)) == 0
    monkeypatch.setattr(calculus, "MAX_BUFFER", 2)
    assert _buffer_overruns(_calculations(300)) > 0
