"""Exhaustive checks of the cone test of `calculus.evaluate` and
`RationalSeq.starts_with` at the 640 points of the relation slice.

`evaluate` decides whether a point lies in cone(s) with string methods: a
subscript no longer than the preperiod must prefix it, and a longer one
must extend it before its rest is read against the period.  Here every
binary word of up to 7 digits (longer than any preperiod of these points)
is tested at every point against the digit-by-digit
`binseq_oracles.starts_with`, and single letters whose subscripts run past
the preperiod are evaluated against `eval_oracles.evaluate`.
"""

import binseq_oracles as seq
import eval_oracles as oracle
from cantorg import calculus
from cantorg.binseq import is_constant
from cantorg.calculus import evaluate
from cantorg.rewrite import Letter
from test_eval_work_counts import POINTS, words

SUBSCRIPTS = list(words(7))


def test_cone_test_matches_oracle(monkeypatch):
    """A letter reaches `_apply_in_cone` exactly at the points of its cone,
    and `starts_with` agrees."""
    applied = []
    monkeypatch.setattr(calculus, "_apply_in_cone",
                        lambda lt, xi: applied.append(lt.sub) or xi)
    assert len(POINTS) == 640 and len(SUBSCRIPTS) == 255
    for xi in POINTS:
        want = [w for w in SUBSCRIPTS if seq.starts_with(xi, w)]
        applied.clear()
        for w in SUBSCRIPTS:
            assert evaluate([Letter("x", w, 1)], xi) is xi
        assert applied == want, xi
        assert [w for w in SUBSCRIPTS if xi.starts_with(w)] == want, xi


def past_preperiod(xi):
    """Subscripts longer than the preperiod of xi: its extensions by one
    and two digits, in the cone or not, and each one-digit change of it
    followed by one digit, which never is."""
    pre = xi.pre
    extending = [pre + u for u in words(2) if u]
    flip = {"0": "1", "1": "0"}
    changed = [pre[:i] + flip[pre[i]] + pre[i + 1:] + d
               for i in range(len(pre)) for d in "01"]
    return extending, changed


def test_letters_past_the_preperiod_match_oracle():
    """Single x- and y-letters past the preperiod, from a cleared memo."""
    calculus._apply_in_cone.cache_clear()
    reached = {"in cone": 0, "extends, outside": 0, "changed": 0}
    for xi in POINTS:
        extending, changed = past_preperiod(xi)
        for sub in extending + changed:
            if sub in changed:
                assert not seq.starts_with(xi, sub)
                reached["changed"] += 1
            elif seq.starts_with(xi, sub):
                reached["in cone"] += 1
            else:
                reached["extends, outside"] += 1
            kinds = "x" if is_constant(sub) else "xy"
            for lt in (Letter(k, sub, e) for k in kinds for e in (1, -1, 2)):
                got = evaluate(lt, xi)
                want = oracle.evaluate(lt, xi)
                assert (got.pre, got.per) == (want.pre, want.per), (lt, xi)
    assert all(reached.values()), reached
