"""Exact work counts of the evaluation oracle on a fixed slice of the
criterion-1 relation sweep.

Both sides of each relation instance are evaluated at the 640 rational
points with preperiod at most 6 and period at most 3.  The number of tree
pair actions and of y-letter evaluations is fixed by the words and the
points; the number of validated `RationalSeq` constructions shows whether
prefix replacement still builds its results without re-validating them,
and the number of `RationalSeq.starts_with` calls how often the cone test
reads a subscript against the period.
All are counted from a cleared letter-application memo, whose misses and
hits are pinned too.
"""

import itertools

from cantorg import calculus
from cantorg.binseq import RationalSeq, incompatible, is_constant
from cantorg.calculus import evaluate
from cantorg.rewrite import Letter
from cantorg.thompson import TreePair, x_gen


def words(max_len):
    for n in range(max_len + 1):
        for digits in itertools.product("01", repeat=n):
            yield "".join(digits)


def X(s, e=1):
    return Letter("x", s, e)


def Y(s, e=1):
    return Letter("y", s, e)


def relation_slice():
    """The first four instances of each of the five defining relations
    over x-subscripts of length <= 2 and y-subscripts of length <= 3."""
    xs = list(words(2))
    ys = [w for w in words(3) if not is_constant(w)]
    families = [
        [([X(t), X(s)], [X(s), X(x_gen(s).act_on_word(t))])
         for t in xs for s in xs if x_gen(s).act_on_word(t) is not None],
        [([X(s, 2)], [X(s + "0"), X(s), X(s + "1")]) for s in xs],
        [([Y(t), X(s)], [X(s), Y(x_gen(s).act_on_word(t))])
         for t in ys for s in xs
         if x_gen(s).act_on_word(t) is not None
         and not is_constant(x_gen(s).act_on_word(t))],
        [([Y(t), Y(s)], [Y(s), Y(t)])
         for t, s in itertools.combinations(ys, 2) if incompatible(t, s)],
        [([Y(s)], [X(s), Y(s + "0"), Y(s + "10", -1), Y(s + "11")])
         for s in ys],
    ]
    return [inst for family in families for inst in family[:4]]


POINTS = sorted(
    {RationalSeq(pre, per) for pre in words(6) for per in words(3) if per},
    key=RationalSeq.render,
)

# The letter counts are those of the two-step prefix replacement (drop,
# then prepend) that came before.  It also made 74400 validated
# constructions: two per tree pair action (61440), two per y-letter
# application (8640) and the result of each eval_letter (4320).  Only the
# eval_letter results are still validated.
# The slice holds no tree-pair factors, and x-letters no longer act as tree
# pairs: a point outside cone(s) is left as it is, and inside it x_s^±1 is
# one step of the Y_STEP rows.  So "act_on_seq" fell from 30720 (one call
# per unit of every x-letter at every point) to 0.
# The image of a point under a letter is now memoized.  From a cleared
# memo, the slice's 17660 in-cone letter applications cover 5840 distinct
# (letter, point) pairs, so "eval_letter" and the validated constructions
# fell from 4320 each (one per y-letter unit per application) to 1200 each
# (one per unit per distinct pair).
# `evaluate` reaches `RationalSeq.starts_with` only for a subscript longer
# than the point's preperiod that extends it.  Before that test it called
# the method for every subscript longer than the preperiod: 2604 times.
EXPECTED = {
    "act_on_seq": 0,
    "eval_letter": 1200,
    "RationalSeq.__init__": 1200,
    "RationalSeq.starts_with": 1259,
}
EXPECTED_MEMO = {"misses": 5840, "hits": 11820}


def test_evaluation_work_counts(monkeypatch):
    # counts from a cold memo, whichever tests ran before in this process
    calculus._apply_in_cone.cache_clear()
    instances = relation_slice()
    assert len(instances) == 20 and len(POINTS) == 640
    counts = dict.fromkeys(EXPECTED, 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(TreePair, "act_on_seq",
                        counted("act_on_seq", TreePair.act_on_seq))
    monkeypatch.setattr(calculus, "eval_letter",
                        counted("eval_letter", calculus.eval_letter))
    monkeypatch.setattr(RationalSeq, "__init__",
                        counted("RationalSeq.__init__", RationalSeq.__init__))
    monkeypatch.setattr(
        RationalSeq, "starts_with",
        counted("RationalSeq.starts_with", RationalSeq.starts_with))
    for lhs, rhs in instances:
        for xi in POINTS:
            assert evaluate(lhs, xi) == evaluate(rhs, xi)
    assert counts == EXPECTED
    info = calculus._apply_in_cone.cache_info()
    assert {"misses": info.misses, "hits": info.hits} == EXPECTED_MEMO
