"""Exact evaluation of words at eventually periodic sequences, and the
digit/symbol calculation strings with their exponents.

This module is the independent oracle: it evaluates words letter by letter
using only the defining substitution of y, read from the table
`thompson.Y_RULES` (through its lookup `Y_STEP`), with cycle detection on
the periodic tail.  It never consults the rewriting engine; from `rewrite`
it takes only the word and normal-form types.

Every letter x_s^±1 and y_s^±1 fixes each point outside cone(s), so
`evaluate` tests the cone first, with string methods, and leaves such a
point as it is: s no longer than the preperiod must prefix it; a longer s
must extend it, and only then is its rest read against the period
(`RationalSeq.starts_with`).  Inside the cone both letters read the sign
±1 rows of `Y_STEP` on the digits after s: x_s^±1 takes one step of them,
as y_s^±1 does for the digits it consumes, and y_s^±1 runs them along the
whole tail (`eval_letter`).  A tree pair (a factor of the word, or the
x-part of a normal form) acts by `TreePair.act_on_seq`.

The image of a point under a letter is memoized, keyed on the (letter,
point) pair, both immutable, in a bounded least-recently-used memo of
`APPLY_CACHE_SIZE` entries.  A relation sweep evaluates
many words over one fixed set of points, and its words share their
letters and, letter by letter, the points they pass through, so most
applications repeat: the 1702 criterion-1 instances at 640 points make
568,560 in-cone applications over 14,985 distinct pairs.
"""

import functools
from typing import NamedTuple

from .binseq import ConeSet, RationalSeq
from .rewrite import GNormal, Letter
from .thompson import Y_STEP, TreePair, consume_digits


# what `exponent` returns when the substitution process can bring two
# opposite symbols together
POTENTIAL_CANCELLATION = "potential cancellation"

# bounds of `exponent`: digits read by all symbols together, digits queued
# behind the last symbol
MAX_STEPS = 200_000
MAX_BUFFER = 512


def eval_letter(sign, xi):
    """Apply one percolating symbol (sign +1 or -1) to a whole sequence by
    repeated digit substitution; the periodic tail forces a state cycle, from
    which the eventually periodic output is read off."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = []
    seen = {}
    pre_len = len(xi.pre)
    per_len = len(xi.per)
    # past the preperiod the state repeats within 2 * per_len steps of at
    # most two digits each, so no step reads past 4 * per_len + 1 of them
    digits = xi.pre + xi.per * 5
    pos = 0
    s = sign
    while True:
        if pos >= pre_len:
            key = (s, (pos - pre_len) % per_len)
            if key in seen:
                cut = seen[key]
                return RationalSeq("".join(out[:cut]), "".join(out[cut:]))
            seen[key] = len(out)
        n, written, s = Y_STEP[s, digits[pos:pos + 2]]
        out.append(written)
        pos += n


# _apply_in_cone keeps this many of its most recent results; the full
# criterion-1 sweep needs 14,985, at about 270 bytes each
APPLY_CACHE_SIZE = 1 << 15


@functools.lru_cache(maxsize=APPLY_CACHE_SIZE)
def _apply_in_cone(lt, xi):
    """The image of a point of cone(s) under the letter lt = x_s^e or
    y_s^e."""
    sub, k = lt.sub, len(lt.sub)
    sign = 1 if lt.exp > 0 else -1
    if lt.kind == "x":
        for _ in range(abs(lt.exp)):
            n, written, _ = Y_STEP[sign, xi.prefix(k + 2)[k:]]
            xi = xi.replace_prefix(k + n, sub + written)
        return xi
    tail = xi.replace_prefix(k, "")
    for _ in range(abs(lt.exp)):
        tail = eval_letter(sign, tail)
    return tail.replace_prefix(0, sub)


def evaluate(word, xi):
    """Evaluate a word (letter list, normal form, or single letter) at a
    rational point.  Letters act left to right."""
    if type(word) is not list:
        if isinstance(word, GNormal):
            word = word.to_items()
        if isinstance(word, (Letter, TreePair)):
            word = [word]
    for item in word:
        if type(item) is TreePair:
            xi = item.act_on_seq(xi)
            continue
        sub, pre = item.sub, xi.pre
        # sub prefixes pre, or extends it and its rest matches the period
        if (pre.startswith(sub) if len(sub) <= len(pre)
                else sub.startswith(pre) and xi.starts_with(sub)):
            xi = _apply_in_cone(item, xi)
    return xi


# ---------------------------------------------------------------------------
# calculation strings


class CalcString(NamedTuple):
    """The digits of the input interleaved with the percolating symbols, in
    the order they will consume digits: `segs` is a sequence of
    (digits, sign) pairs, `tail` the rest of the input."""

    segs: tuple
    tail: RationalSeq

    def render(self):
        parts = []
        for digits, sign in self.segs:
            if digits:
                parts.append(digits)
            parts.append("y" if sign > 0 else "y^-1")
        parts.append(self.tail.render())
        return " ".join(parts)


def calc_string(ys, xi):
    """The calculation of a standard-form y-letter word at a point: each
    letter whose subscript prefixes the input contributes its symbols right
    after that prefix."""
    marks = []  # (position, sign) per symbol, in application order
    for lt in ys:
        if isinstance(lt, TreePair) or lt.kind != "y":
            raise ValueError("calculation strings take y-letter words")
        if xi.starts_with(lt.sub):
            sign = 1 if lt.exp > 0 else -1
            marks.extend((len(lt.sub), sign) for _ in range(abs(lt.exp)))
    marks.sort(key=lambda m: m[0])
    segs = []
    prev = 0
    for pos, sign in marks:
        segs.append((xi.prefix(pos)[prev:], sign))
        prev = pos
    return CalcString(tuple(segs), xi.drop(prev))


def exponent(c):
    """Run the substitution process on a calculation with cycle detection.
    Returns the number of surviving symbols, or the potential-cancellation
    flag when two opposite symbols can become adjacent."""
    k = len(c.segs)
    if k == 0:
        return 0
    signs = [sign for _, sign in c.segs]
    # buffers[j] holds the digits between symbol j and symbol j+1; the digits
    # of the first segment are output already past every symbol
    buffers = [c.segs[j + 1][0] for j in range(k - 1)]
    pos = 0
    pre_len = len(c.tail.pre)
    per_len = len(c.tail.per)
    seen = set()
    read = 0  # digits read by every symbol so far

    def drain():
        # let each symbol greedily consume the buffer to its right, leftmost
        # first, flagging any empty buffer between opposite symbols; stop
        # once the symbols have read more than MAX_STEPS digits
        nonlocal read
        moved = True
        while moved and read <= MAX_STEPS:
            moved = False
            for j in range(k - 1):
                o2, emitted, rest = consume_digits(signs[j], buffers[j])
                read += len(buffers[j]) - len(rest)
                if emitted:
                    moved = True
                signs[j] = o2
                buffers[j] = rest
                if j > 0:
                    buffers[j - 1] += emitted
                if rest == "" and signs[j] == -signs[j + 1]:
                    return True
        return False

    while True:
        if drain():
            return POTENTIAL_CANCELLATION
        if read > MAX_STEPS:
            raise RuntimeError(
                "calculation did not stabilize within the step bound")
        if pos >= pre_len:
            key = (tuple(signs), tuple(buffers), (pos - pre_len) % per_len)
            if key in seen:
                return k
            seen.add(key)
        # innermost symbol consumes from the tail
        n, emit, signs[k - 1] = Y_STEP[
            signs[k - 1], c.tail.digit(pos) + c.tail.digit(pos + 1)
        ]
        pos += n
        read += n
        if k >= 2:
            buffers[k - 2] += emit
            # cannot fire: drain() leaves at most one digit per buffer (no
            # row reads a lone 0 for y, 1 for y^-1); a step adds at most two
            if len(buffers[k - 2]) > MAX_BUFFER:
                raise RuntimeError("calculation buffer exceeded bound")


def supp_y(n):
    """Union of the subscript cones of the y-part of a normal form."""
    if not isinstance(n, GNormal):
        raise TypeError("supp_y takes a normal form")
    return ConeSet([lt.sub for lt in n.ys])
