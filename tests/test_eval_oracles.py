"""Differential test of `calculus.evaluate` against the evaluation in
`eval_oracles`, which applies every x-letter as a tree pair at every point
and builds each sequence digit by digit.  Results are compared field by
field on the canonical (pre, per), from a cleared letter-application memo
and from a warm one."""

from hypothesis import given, settings, strategies as st

import eval_oracles as oracle
from cantorg import calculus
from cantorg.binseq import RationalSeq, is_constant
from cantorg.calculus import evaluate
from cantorg.rewrite import GNormal, Letter
from cantorg.thompson import IDENTITY, compose, x_unit
from test_eval_work_counts import POINTS, relation_slice

# periods that are often powers of a shorter word, so the point is not
# primitive as written
periods = st.one_of(
    st.text(alphabet="01", min_size=1, max_size=4),
    st.builds(lambda u, k: u * k, st.text(alphabet="01", min_size=1,
                                         max_size=2), st.integers(2, 3)),
)
points = st.builds(RationalSeq, st.text(alphabet="01", max_size=4), periods)
exps = st.sampled_from([-3, -2, -1, 1, 2, 3])


def fields(xi):
    return xi.pre, xi.per


@st.composite
def subscripts(draw, xi):
    """A prefix of the point half of the time, so that the letter acts;
    up to 9 digits, longer than any preperiod drawn here."""
    if draw(st.booleans()):
        return xi.prefix(draw(st.integers(0, 9)))
    return draw(st.text(alphabet="01", max_size=6))


@st.composite
def pairs(draw, xi):
    out = IDENTITY
    for _ in range(draw(st.integers(1, 3))):
        sub = draw(subscripts(xi))[:4]
        out = compose(out, x_unit(sub, draw(st.sampled_from([-1, 1]))))
    return out


@st.composite
def words(draw, xi):
    word = []
    for _ in range(draw(st.integers(0, 6))):
        choice = draw(st.sampled_from("xyf"))
        if choice == "f":
            word.append(draw(pairs(xi)))
            continue
        sub = draw(subscripts(xi))
        kind = "x" if choice == "x" or is_constant(sub) else "y"
        word.append(Letter(kind, sub, draw(exps)))
    shape = draw(st.sampled_from(["list", "normal", "single"]))
    if shape == "normal":
        return GNormal(draw(pairs(xi)),
                       tuple(lt for lt in word if isinstance(lt, Letter)
                             and lt.kind == "y"))
    if shape == "single" and word:
        return word[0]
    return word


@settings(deadline=None, max_examples=400)
@given(st.data())
def test_evaluate_matches_oracle(data):
    xi = data.draw(points)
    word = data.draw(words(xi))
    assert fields(evaluate(word, xi)) == fields(oracle.evaluate(word, xi))


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_evaluate_matches_oracle_cold_and_warm_memo(data):
    xi = data.draw(points)
    word = data.draw(words(xi))
    want = fields(oracle.evaluate(word, xi))
    calculus._apply_in_cone.cache_clear()
    assert fields(evaluate(word, xi)) == want
    assert fields(evaluate(word, xi)) == want


def test_second_pass_is_served_by_the_memo(monkeypatch):
    """A second pass over the 20-instance relation slice finds every
    letter application in the memo, which stays within its bound."""
    calculus._apply_in_cone.cache_clear()
    instances = relation_slice()
    first = [[evaluate(side, xi) for xi in POINTS]
             for inst in instances for side in inst]
    calls = []
    real = calculus.eval_letter

    def counted(sign, tail):
        calls.append(sign)
        return real(sign, tail)

    monkeypatch.setattr(calculus, "eval_letter", counted)
    second = [[evaluate(side, xi) for xi in POINTS]
              for inst in instances for side in inst]
    assert second == first
    assert calls == []
    info = calculus._apply_in_cone.cache_info()
    assert info.maxsize == calculus.APPLY_CACHE_SIZE
    assert 0 < info.currsize <= info.maxsize
