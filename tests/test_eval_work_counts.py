"""Exact work counts of the evaluation oracle on a fixed slice of the
criterion-1 relation sweep.

Both sides of each relation instance are evaluated at the 640 rational
points with preperiod at most 6 and period at most 3.  The number of tree
pair actions and of y-letter evaluations is fixed by the words and the
points; the number of validated `RationalSeq` constructions shows whether
prefix replacement still builds its results without re-validating them.
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

# The action and letter counts are those of the two-step prefix
# replacement (drop, then prepend) that came before.  It also made 74400
# validated constructions: two per tree pair action (61440), two per
# y-letter application (8640) and the result of each eval_letter (4320).
# Only the eval_letter results are still validated.
EXPECTED = {
    "act_on_seq": 30720,
    "eval_letter": 4320,
    "RationalSeq.__init__": 4320,
}


def test_evaluation_work_counts(monkeypatch):
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
    for lhs, rhs in instances:
        for xi in POINTS:
            assert evaluate(lhs, xi) == evaluate(rhs, xi)
    assert counts == EXPECTED
