"""The evaluation of words as it was before each letter tested its support
cone first, kept as a test oracle.

`evaluate` and `_apply_y` are the library's former code.  An x-letter acts
through the tree pair of `x_unit`, on every point, including those outside
its cone that it fixes.  The pair actions, the cone test and the prefix
replacements go through the digit-by-digit versions in `binseq_oracles`.

The y-tail substitution `calculus.eval_letter` is shared with the library,
so a fault inside it shows on both sides and the differential test cannot
catch it; `test_calculus` and `test_substitution` check it on their own.
Only the cone test, the splicing of prefixes and the action of x-letters
and tree-pair factors are computed independently here.
"""

import binseq_oracles as seq
from cantorg.calculus import eval_letter
from cantorg.rewrite import GNormal, Letter
from cantorg.thompson import TreePair, x_unit


def _apply_y(sub, exp, xi):
    if not seq.starts_with(xi, sub):
        return xi
    tail = seq.drop(xi, len(sub))
    sign = 1 if exp > 0 else -1
    for _ in range(abs(exp)):
        tail = eval_letter(sign, tail)
    return seq.prepend(tail, sub)


def evaluate(word, xi):
    """Evaluate a word (letter list, normal form, or single letter) at a
    rational point.  Letters act left to right."""
    if isinstance(word, GNormal):
        word = word.to_items()
    if isinstance(word, (Letter, TreePair)):
        word = [word]
    for item in word:
        if isinstance(item, TreePair):
            xi = seq.act_on_seq(item, xi)
        elif item.kind == "x":
            g = x_unit(item.sub, item.exp)
            for _ in range(abs(item.exp)):
                xi = seq.act_on_seq(g, xi)
        else:
            xi = _apply_y(item.sub, item.exp, xi)
    return xi
