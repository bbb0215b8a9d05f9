"""Exact evaluation of words at eventually periodic sequences, and the
digit/symbol calculation strings with their exponents.

This module is the independent oracle: it evaluates words letter by letter
using only the defining substitution of y, read from the table
`thompson.Y_RULES` (through its lookup `Y_STEP`), with cycle detection on
the periodic tail.  It never consults the rewriting engine; from `rewrite`
it takes only the word and normal-form types.
"""

from typing import NamedTuple

from .binseq import ConeSet, RationalSeq
from .rewrite import FToken, GNormal, Letter
from .thompson import Y_STEP, x_unit


class PotentialCancellationFlag:
    """Returned by `exponent` when the substitution process can bring two
    opposite symbols together."""

    def __repr__(self):
        return "PotentialCancellationFlag"

    def __eq__(self, other):
        return isinstance(other, PotentialCancellationFlag)

    def __hash__(self):
        return hash(PotentialCancellationFlag)


POTENTIAL_CANCELLATION = PotentialCancellationFlag()

# bounds of `exponent`: substitution steps, digits queued behind the last symbol
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


def _apply_y(sub, exp, xi):
    if not xi.starts_with(sub):
        return xi
    tail = xi.replace_prefix(len(sub), "")
    sign = 1 if exp > 0 else -1
    for _ in range(abs(exp)):
        tail = eval_letter(sign, tail)
    return tail.replace_prefix(0, sub)


def evaluate(word, xi):
    """Evaluate a word (letter list, normal form, or single letter) at a
    rational point.  Letters act left to right."""
    if isinstance(word, GNormal):
        word = word.to_items()
    if isinstance(word, (Letter, FToken)):
        word = [word]
    for item in word:
        if isinstance(item, FToken):
            xi = item.pair.act_on_seq(xi)
        elif item.kind == "x":
            g = x_unit(item.sub, item.exp)
            for _ in range(abs(item.exp)):
                xi = g.act_on_seq(xi)
        else:
            xi = _apply_y(item.sub, item.exp, xi)
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
        if isinstance(lt, FToken) or lt.kind != "y":
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


def _consume_emitting(o, buf):
    """Greedily let a symbol of sign o consume the digit buffer to its
    right; returns its sign after, the digits it wrote and the leftover."""
    emitted = []
    while True:
        row = Y_STEP.get((o, buf[:2]))
        if row is None:
            return o, "".join(emitted), buf
        n, written, o = row
        emitted.append(written)
        buf = buf[n:]


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

    def drain():
        # let each symbol greedily consume the buffer to its right, leftmost
        # first, flagging any empty buffer between opposite symbols
        moved = True
        while moved:
            moved = False
            for j in range(k - 1):
                o2, emitted, rest = _consume_emitting(signs[j], buffers[j])
                if emitted:
                    moved = True
                signs[j] = o2
                buffers[j] = rest
                if j > 0:
                    buffers[j - 1] += emitted
                if rest == "" and signs[j] == -signs[j + 1]:
                    return True
        return False

    # initial adjacency check
    for j in range(k - 1):
        if buffers[j] == "" and signs[j] == -signs[j + 1]:
            return POTENTIAL_CANCELLATION

    for _ in range(MAX_STEPS):
        if drain():
            return POTENTIAL_CANCELLATION
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
        if k >= 2:
            buffers[k - 2] += emit
            if len(buffers[k - 2]) > MAX_BUFFER:
                raise RuntimeError("calculation buffer exceeded bound")
    raise RuntimeError("calculation did not stabilize within the step bound")


def supp_y(n):
    """Union of the subscript cones of the y-part of a normal form."""
    if not isinstance(n, GNormal):
        raise TypeError("supp_y takes a normal form")
    return ConeSet([lt.sub for lt in n.ys])
