"""Digit-by-digit sequence operations, kept as test oracles.

These are the versions the library used before `RationalSeq` read its
prefixes as slices and rebuilt prefix replacements in one step
(`RationalSeq.replace_prefix`).  Every result here goes through the
validating constructor, so a field that the fast path carries over
unchecked is recomputed from scratch here.
"""

from cantorg.binseq import RationalSeq
from cantorg.thompson import InternalError


def check_bits(w):
    if not isinstance(w, str) or any(c not in "01" for c in w):
        raise ValueError(f"not a binary word: {w!r}")
    return w


def digit(xi, i):
    if i < len(xi.pre):
        return xi.pre[i]
    return xi.per[(i - len(xi.pre)) % len(xi.per)]


def prefix(xi, n):
    return "".join(digit(xi, i) for i in range(n))


def starts_with(xi, w):
    return all(digit(xi, i) == c for i, c in enumerate(w))


def drop(xi, n):
    if n <= len(xi.pre):
        return RationalSeq(xi.pre[n:], xi.per)
    m = (n - len(xi.pre)) % len(xi.per)
    return RationalSeq("", xi.per[m:] + xi.per[:m])


def prepend(xi, w):
    check_bits(w)
    return RationalSeq(w + xi.pre, xi.per)


def act_on_seq(pair, xi):
    """Image of xi under a tree pair, trying the leaves one by one."""
    for d, r in zip(pair.domain, pair.range):
        if starts_with(xi, d):
            return prepend(drop(xi, len(d)), r)
    raise InternalError("complete code must match some prefix")
