"""Finite binary words, eventually periodic infinite sequences, and finite
unions of dyadic cones.

Words are plain Python strings over the alphabet {'0', '1'}.  The order used
throughout (`lex_compare`) differs from dictionary order in one way: a proper
extension of a word is *smaller* than the word itself.
"""

import functools
import re

# ---------------------------------------------------------------------------
# finite binary words


_NOT_BITS = str.maketrans("", "", "01")  # deletes the two binary digits


def check_bits(w):
    if not isinstance(w, str) or w.translate(_NOT_BITS):
        raise ValueError(f"not a binary word: {w!r}")
    return w


def is_constant(w):
    """True iff w is all zeros or all ones (the empty word counts)."""
    return w.count("0") == 0 or w.count("1") == 0


EQUAL = "equal"
FIRST_PREFIX = "prefixOfFirst"  # first argument is a proper prefix of second
SECOND_PREFIX = "prefixOfSecond"
INCOMPATIBLE = "incompatible"


def prefix_relation(s, t):
    """Classify the prefix relation between two finite words.

    Returns FIRST_PREFIX when s is a proper prefix of t (and symmetrically),
    EQUAL, or INCOMPATIBLE when the words differ at some common index.
    """
    if s == t:
        return EQUAL
    if t.startswith(s):
        return FIRST_PREFIX
    if s.startswith(t):
        return SECOND_PREFIX
    return INCOMPATIBLE


def incompatible(s, t):
    return prefix_relation(s, t) == INCOMPATIBLE


def lex_compare(s, t):
    """Total order on binary words: -1, 0 or 1.

    A proper extension is smaller than its prefix; incompatible words compare
    by the first differing digit.
    """
    if s == t:
        return 0
    if s.startswith(t):
        return -1  # s extends t, so s is smaller
    if t.startswith(s):
        return 1
    i = next(i for i in range(min(len(s), len(t))) if s[i] != t[i])
    return -1 if s[i] < t[i] else 1


lex_key = functools.cmp_to_key(lex_compare)


# ---------------------------------------------------------------------------
# eventually periodic sequences


def _primitive(p):
    n = len(p)
    for d in range(1, n):
        if n % d == 0 and p == p[:d] * (n // d):
            return p[:d]
    return p


_RATIONAL_RE = re.compile(r"^([01]*)\(([01]+)\)$")


class RationalSeq:
    """An eventually periodic infinite binary sequence, stored canonically.

    Canonical means: the period is primitive and the preperiod is shortest
    possible (its last digit differs from the last digit of the period, so
    no digit can be rotated out of the preperiod).  Equality and hashing are
    structural on the canonical form.

    `replace_prefix` trusts the fields it keeps: a canonical period stays
    primitive under rotation (were a rotation of it u^k, the period would
    be a rotation of u, to the k), so only the new word is checked and the
    rotate-out of the preperiod redone.
    """

    __slots__ = ("pre", "per")

    def __init__(self, pre, per):
        check_bits(pre)
        check_bits(per)
        if not per:
            raise ValueError("period must be nonempty")
        self._settle(pre, _primitive(per))

    def _settle(self, pre, per):
        # rotate the preperiod's trailing digits into the primitive period
        while pre and pre[-1] == per[-1]:
            per = pre[-1] + per[:-1]
            pre = pre[:-1]
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "per", per)

    def __setattr__(self, name, value):
        raise AttributeError("RationalSeq is immutable")

    @classmethod
    def parse(cls, text):
        m = _RATIONAL_RE.match(text.strip())
        if m is None:
            raise ValueError(f"not a rational sequence: {text!r}")
        return cls(m.group(1), m.group(2))

    def render(self):
        return f"{self.pre}({self.per})"

    def __repr__(self):
        return f"RationalSeq({self.render()})"

    def __eq__(self, other):
        return (
            isinstance(other, RationalSeq)
            and self.pre == other.pre
            and self.per == other.per
        )

    def __hash__(self):
        return hash((self.pre, self.per))

    def digit(self, i):
        if i < len(self.pre):
            return self.pre[i]
        return self.per[(i - len(self.pre)) % len(self.per)]

    def prefix(self, n):
        """The first n digits as a finite word."""
        pre, per = self.pre, self.per
        # ceil((n - len(pre)) / len(per)) periods; none when n <= len(pre)
        return (pre + per * -((len(pre) - n) // len(per)))[:n]

    def starts_with(self, w):
        return self.prefix(len(w)) == w

    def replace_prefix(self, n, w):
        """The word w followed by this sequence without its first n digits."""
        check_bits(w)
        pre, per = self.pre, self.per
        if n <= len(pre):
            pre = w + pre[n:]
        else:
            m = (n - len(pre)) % len(per)
            pre, per = w, per[m:] + per[:m]
        out = object.__new__(RationalSeq)
        out._settle(pre, per)
        return out

    def drop(self, n):
        """The sequence with its first n digits removed."""
        return self.replace_prefix(n, "")

    def prepend(self, w):
        return self.replace_prefix(0, w)


# ---------------------------------------------------------------------------
# finite unions of cones


def _canonical_cones(words):
    """The maximal cones of the union, in one pass over the words in
    dictionary order: a prefix comes before its extensions, so a word
    inside a kept cone lies inside the last one, and a word ending in 1
    can only merge with the kept sibling just before it."""
    kept = []
    for w in sorted(set(words)):
        if kept and w.startswith(kept[-1]):
            continue
        while w.endswith("1") and kept and kept[-1] == w[:-1] + "0":
            w = kept.pop()[:-1]
        kept.append(w)
    return tuple(sorted(kept, key=lex_key))


class ConeSet:
    """A finite union of dyadic cones, stored as a canonical antichain of
    prefixes (sibling cones merged, contained cones absorbed)."""

    __slots__ = ("cones",)

    def __init__(self, words=()):
        # one read of the words, so that an iterator works as well
        cones = _canonical_cones(map(check_bits, words))
        object.__setattr__(self, "cones", cones)

    def __setattr__(self, name, value):
        raise AttributeError("ConeSet is immutable")

    def __eq__(self, other):
        return isinstance(other, ConeSet) and self.cones == other.cones

    def __hash__(self):
        return hash(self.cones)

    def __repr__(self):
        inner = ", ".join(f"cone({c or 'ε'})" for c in self.cones)
        return "{" + inner + "}"

    def is_null(self):
        """True iff the denoted set contains no cone (i.e. is empty)."""
        return not self.cones

    def union(self, other):
        return ConeSet(self.cones + other.cones)

    def intersect(self, other):
        out = []
        for a in self.cones:
            for b in other.cones:
                rel = prefix_relation(a, b)
                if rel == INCOMPATIBLE:
                    continue
                out.append(a if len(a) >= len(b) else b)
        return ConeSet(out)

    def subset_of(self, other):
        # canonical antichains: covered cones always extend a single member
        return all(
            any(a.startswith(b) for b in other.cones) for a in self.cones
        )

    def contains_cone(self, s):
        return any(s.startswith(b) for b in self.cones)

    def contains_seq(self, xi):
        return any(xi.starts_with(b) for b in self.cones)

    def meets_cone(self, s):
        """True iff the denoted set intersects cone(s) in a cone."""
        return any(not incompatible(s, b) for b in self.cones)


EMPTY_CONES = ConeSet()
FULL_CONES = ConeSet(("",))
