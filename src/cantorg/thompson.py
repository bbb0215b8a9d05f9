"""Reduced tree pairs: the order-preserving prefix-replacement homeomorphisms
of Thompson's group F that form the x-part of every word.

A tree pair stores two complete prefix codes of equal size, each in
left-to-right (lex) order; the i-th domain leaf maps to the i-th range leaf,
so the map keeps the order of the leaves.  A pair is reduced when no
adjacent leaf pair is a sibling pair in both trees simultaneously; reduced
pairs are the canonical representatives, compared structurally.

Convention: these act on the right.  `compose(f, g)` is "apply f, then g",
so act_on_seq(compose(f, g), xi) == act_on_seq(g, act_on_seq(f, xi)).

The defining substitution of the percolating letter y lives here too, as
the table `Y_RULES`: a symbol y^sign meeting the digits `read` writes the
digits `written` and goes on with the sign `after`.  Its sign-1 rows are
00 -> 0, 01 -> 10 (sign flips), 1 -> 11, and the sign -1 rows are their
mirror.  Everything else derives from this one table:
  - the leaves of `x_gen(s)` are s+read -> s+written over the sign-1 rows,
    since y_s acts as x_s on the digits it consumes;
  - the expansion y_s^sign = x_s^sign y_{s+w1}^a1 y_{s+w2}^a2 y_{s+w3}^a3
    (`expand_letter`) lists the rows' written words and signs after, so
    y_s = x_s y_s0 y_s10^-1 y_s11;
  - `Y_STEP` looks the applicable row up by the sign and the next one or
    two digits, for the digit-by-digit loops of the evaluation oracle and
    the exponent calculation, and for `consume_digits`, the greedy run of
    one symbol over a digit buffer that the cancellation automaton, the
    exponent calculation and the descendant test of `special` share.

Pairs are immutable, so `x_gen` and `compose` keep their recent results in
bounded memos (`X_GEN_CACHE_SIZE`, `COMPOSE_CACHE_SIZE`): a product asked for
again is looked up, not merged again, and equal products are one object.
"""

import functools
from bisect import bisect_right

from .binseq import check_bits, incompatible


class InternalError(RuntimeError):
    """A structural guarantee of the program failed to hold."""


# sign -> rows (read, written, after) of the substitution of y^sign
Y_RULES = {
    1: (("00", "0", 1), ("01", "10", -1), ("1", "11", 1)),
    -1: (("0", "00", -1), ("10", "01", 1), ("11", "1", -1)),
}

# (sign, next one or two digits) -> (number of digits read, written, after)
# for the row that applies; absent when the digits do not determine a row
Y_STEP = {
    (sign, key): (len(read), written, after)
    for sign, rows in Y_RULES.items()
    for key in ("0", "1", "00", "01", "10", "11")
    for read, written, after in rows
    if key.startswith(read)
}


def consume_digits(sign, digits):
    """Greedily let a symbol y^sign consume the digits to its right, row by
    row, until they no longer determine a row; returns its sign after, the
    digits it wrote and the digits left."""
    written = ""
    while True:
        row = Y_STEP.get((sign, digits[:2]))
        if row is None:
            return sign, written, digits
        n, w, sign = row
        written += w
        digits = digits[n:]


def expand_letter(s, sign):
    """The letters (subscript, sign) that y_s^sign becomes behind x_s^sign:
    y_s^sign = x_s^sign times these three, in order."""
    return tuple((s + written, after) for _, written, after in Y_RULES[sign])


def _is_complete_code(leaves):
    """Whether a strictly increasing tuple of words is a complete prefix
    code: prefix-free (in a sorted list any prefix sits next to an
    extension) with cone measures summing to one."""
    if leaves == ("",):
        return True
    if any(b.startswith(a) for a, b in zip(leaves, leaves[1:])):
        return False
    depth = max(len(w) for w in leaves)
    return sum(2 ** (depth - len(w)) for w in leaves) == 2**depth


def _reduce(domain, rng):
    """Cancel the carets common to both trees, in domain order.  A merged
    caret can only become reducible with the leaf kept just before it, so
    one pass with a stack reaches the unique reduced pair."""
    doms, rngs = [], []
    for d, r in zip(domain, rng):
        while (
            doms
            and d.endswith("1")
            and r.endswith("1")
            and doms[-1] == d[:-1] + "0"
            and rngs[-1] == r[:-1] + "0"
        ):
            doms.pop()
            rngs.pop()
            d, r = d[:-1], r[:-1]
        doms.append(d)
        rngs.append(r)
    return tuple(doms), tuple(rngs)


class TreePair:
    __slots__ = ("domain", "range")

    def __init__(self, domain, rng):
        domain, rng = tuple(domain), tuple(rng)
        if len(domain) != len(rng):
            raise ValueError("leaf counts differ")
        try:
            check_bits("".join(domain + rng))
        except (TypeError, ValueError):  # a non-str or non-binary leaf
            raise ValueError("leaves must be binary words") from None
        pairs = sorted(zip(domain, rng))
        domain = tuple(d for d, _ in pairs)
        rng = tuple(r for _, r in pairs)
        if any(a >= b for a, b in zip(rng, rng[1:])):
            raise ValueError("range leaves are out of order (not in F)")
        if not _is_complete_code(domain) or not _is_complete_code(rng):
            raise ValueError("leaves do not form a complete binary tree")
        domain, rng = _reduce(domain, rng)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "range", rng)

    def __setattr__(self, name, value):
        raise AttributeError("TreePair is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, TreePair)
            and self.domain == other.domain
            and self.range == other.range
        )

    def __hash__(self):
        return hash((self.domain, self.range))

    def __repr__(self):
        body = ", ".join(
            f"{d or 'ε'}→{r or 'ε'}" for d, r in zip(self.domain, self.range)
        )
        return f"TreePair({body})"

    def is_identity(self):
        return self.domain == self.range

    def invert(self):
        """The swapped pair.  The inverse of a reduced pair over two ordered
        complete codes is reduced over the same codes, so it needs no
        validation or reduction."""
        out = object.__new__(TreePair)
        object.__setattr__(out, "domain", self.range)
        object.__setattr__(out, "range", self.domain)
        return out

    def act_on_word(self, t):
        """Image of the finite word t, or None when t is a proper prefix of a
        domain leaf (the action is undefined there).  The domain is sorted
        and prefix-free, so no leaf lies between a leaf d and a word that
        starts with d: the leaf over t is the last leaf <= t, if any."""
        i = bisect_right(self.domain, t) - 1
        if i >= 0 and t.startswith(self.domain[i]):
            return self.range[i] + t[len(self.domain[i]):]
        return None

    def act_on_seq(self, xi):
        head = xi.prefix(max(map(len, self.domain)))
        for d, r in zip(self.domain, self.range):
            if head.startswith(d):
                return xi.replace_prefix(len(d), r)
        raise InternalError("complete code must match some prefix")

    def fixes_cone(self, s):
        """True iff the map restricted to cone(s) is the identity."""
        return all(
            incompatible(d, s) or d == r
            for d, r in zip(self.domain, self.range)
        )


IDENTITY = TreePair(("",), ("",))


# x_gen keeps this many of its most recent pairs; a pass of any workload
# in bench/ asks for at most 31 subscripts
X_GEN_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=X_GEN_CACHE_SIZE)
def x_gen(s):
    """The basic generator localized at s: inside cone(s) it maps s+read
    to s+written over the sign-1 rows of Y_RULES and is the identity
    elsewhere."""
    check_bits(s)
    off = [s[:i] + ("1" if s[i] == "0" else "0") for i in range(len(s))]
    domain = off + [s + read for read, _, _ in Y_RULES[1]]
    rng = off + [s + written for _, written, _ in Y_RULES[1]]
    return TreePair(domain, rng)


def x_unit(s, sign):
    """The tree pair of x_s for a positive sign, of x_s^-1 for a negative."""
    g = x_gen(s)
    return g if sign > 0 else g.invert()


# compose keeps this many of its most recently used products.  The
# rewriting engine multiplies few distinct pairs many times: the envelope
# of the 14-dimensional draw `y[01] ; y[01100] ; y[10] || y[01] ; y[011]`
# makes 104,867 products of 546 distinct pairs
COMPOSE_CACHE_SIZE = 16_384


@functools.lru_cache(maxsize=COMPOSE_CACHE_SIZE)
def compose(f, g):
    """The pair acting as f followed by g (right-action order): one merge of
    f's range with g's domain, both in leaf order, where of two compatible
    current leaves the longer is a leaf of the common refinement (Cannon,
    Floyd and Parry, "Introductory notes on Richard Thompson's groups").
    A product still in the memo is handed out as the same object."""
    if f.is_identity() or g.is_identity():
        return g if f.is_identity() else f
    doms, rngs = [], []
    i = j = 0
    while i < len(f.range) and j < len(g.domain):
        a, b = f.range[i], g.domain[j]
        if b.startswith(a):
            doms.append(f.domain[i] + b[len(a):])
            rngs.append(g.range[j])
            i += a == b
            j += 1
        elif a.startswith(b):
            doms.append(f.domain[i])
            rngs.append(g.range[j] + a[len(b):])
            i += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return TreePair(doms, rngs)


def power(f, n):
    """f^n by repeated squaring, in O(log |n|) composes."""
    if n < 0:
        f, n = f.invert(), -n
    out = IDENTITY
    while n:
        if n & 1:
            out = compose(out, f)
        n >>= 1
        if n:
            f = compose(f, f)
    return out
