"""Words in the generators, standard forms, and the unique normal form.

A word is a list of letters x_s^k / y_s^k (y-subscripts must be nonconstant)
and tree pairs, each standing in the word as itself.  The engine reads
every x-letter as a tree pair, so a standard form is at most one leading
tree pair (an element of F) followed by y-letters.  It rewrites any word
into the canonical pair (reduced tree pair, sorted cancellation- and
contraction-free y-letter sequence), which is the unique representative
of the group element; two words are equal in the group iff they
normalize to the same pair.

The rewriting rules used are exactly the group identities:
  - rearranging   y_t^i x_s^±1  ->  x_s^±1 y_{t'}^i   (t' the image of t)
  - expansion     y_s   ->  x_s y_{s0} y_{s10}^-1 y_{s11}
  - commuting     y_u y_v = y_v y_u for incompatible u, v
  - exponent split/merge and deletion of y^i y^-i

One engine applies them (`standardize` and
`remove_potential_cancellations`) to a word object.  It reads the word's
`items`, and changes it only by `rewrite(lo, hi, new, move, window)` and
`commute(src, dst)`, a move to the left, which return the least index
they changed, where `standardize` resumes its scans.  `normalize` passes
a `_ListWord`: a plain list with merged exponents that spends a step
budget and commutes in one jump, and the driver `reduce_word` sorts and
contracts its y-letters.  A `loops._Word` holds unit letters and records
each rewrite that changes its path as a certificate move; its word lies
in F, so the cancellation pass alone empties it (see
`loops.contract_loop`).

`normalize_onto(letters, g)` is the normal form of some letters times a
normal form g, such as a loop word's suffix, a cluster's smaller corner or
a cell's base.  It takes the letters from the right, one step each: a
tree-pair factor, or an x-letter read as one, composes into g's pair; a
y-letter that g's pair moves by a prefix merges into g's sorted y-part
when three checks show that the result is normal (see `_onto`); any other
letter goes to the engine with g's items.

The answers of the cancellation automaton, the normal forms, under the
merged word alone, and the steps of `normalize_onto` (`_onto`) are kept
in bounded least-recently-used memos (`functools.lru_cache`), as every
process-global memo of the package is.
"""

import functools
from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .binseq import lex_key
from .thompson import (
    IDENTITY,
    Y_RULES,
    InternalError,
    TreePair,
    compose,
    consume_digits,
    expand_letter,
    power,
    x_gen,
    x_unit,
)


class BudgetExceeded(RuntimeError):
    """Raised when the rewriting engine exceeds its step budget or its
    bound on the length of a word."""


class Letter(NamedTuple):
    kind: str  # 'x' or 'y'
    sub: str
    exp: int

    def inverse(self):
        return Letter(self.kind, self.sub, -self.exp)

    def render(self):
        base = f"{self.kind}[{self.sub}]"
        return base if self.exp == 1 else f"{base}^{self.exp}"


def inverse_word(letters):
    return [it.invert() if isinstance(it, TreePair) else it.inverse()
            for it in reversed(list(letters))]


def _as_factor(item):
    """An x-letter as its tree-pair factor; any other item as it is."""
    if isinstance(item, Letter) and item.kind == "x":
        return power(x_gen(item.sub), item.exp)
    return item


def _merge(items):
    """Fuse adjacent equal-subscript y-letters and adjacent tree-pair
    factors, reading each x-letter as its tree-pair factor and dropping the
    identity."""
    out = []
    for item in items:
        item = _as_factor(item)
        if isinstance(item, TreePair):
            if item.is_identity():
                continue
            if out and isinstance(out[-1], TreePair):
                p = compose(out.pop(), item)
                if not p.is_identity():
                    out.append(p)
                continue
            out.append(item)
            continue
        if out and isinstance(out[-1], Letter) and out[-1].sub == item.sub:
            e = out[-1].exp + item.exp
            out.pop()
            if e != 0:
                out.append(Letter("y", item.sub, e))
            continue
        out.append(item)
    return out


def expand_unit(sub, sign):
    """One expansion step of y_sub^sign as a letter list: y_s is x_s times
    the letters of `expand_letter(s, 1)`, and y_s^-1 is the inverse word."""
    word = [Letter("x", sub, 1)] + [Letter("y", w, a)
                                    for w, a in expand_letter(sub, 1)]
    return word if sign > 0 else inverse_word(word)


def _expand_end(lt, leftmost):
    """Expand the leftmost or the rightmost unit of a y-letter power."""
    sign = 1 if lt.exp > 0 else -1
    out = expand_unit(lt.sub, sign)
    if lt.exp != sign:
        rest = [Letter("y", lt.sub, lt.exp - sign)]
        out = out + rest if leftmost else rest + out
    return out


# the rewrite steps one `normalize` may take, its cancellation and
# contraction rounds included; the round trip of some 5-letter words spends
# over 90% of it
REWRITE_STEPS = 500_000

# the items a word being normalized may grow to.  A step costs more as the
# word grows: "y[01]^k y[011]^-k y[01]^-k y[011]^k y[010]^-k" at k = 100
# reaches 2,000 items after about 2.7 s and spent the step budget after
# 15 s, while no word the test suite normalizes grows past 880 items
MAX_WORD_ITEMS = 2_000


class _Budget:
    def __init__(self, n=REWRITE_STEPS):
        self.bound = self.left = n

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded(
                f"rewriting exhausted its budget of {self.bound:,} steps")


def _is_y(item):
    return isinstance(item, Letter) and item.kind == "y"


# the kinds of move a loop word records for its rewrites
EXPANSION = "expansion"
COMMUTING = "commuting"
CANCELLATION = "cancellation"


def _fusable(a, b):
    """Whether `_merge` fuses the adjacent items a and b."""
    return type(a) is type(b) and (type(a) is TreePair or a.sub == b.sub)


class _ListWord:
    """A word as a plain list of items, kept merged: no two tree-pair
    factors and no two equal-subscript y-letters stand together.  It is
    built from items that are merged already (see `_merge`).  Each
    rewrite, commute and contraction spends one step of `budget`, and
    fuses only where it made a fusable pair.  A rewrite that grows the
    word past `MAX_WORD_ITEMS` raises `BudgetExceeded`."""

    def __init__(self, items, budget=None):
        self.items = list(items)
        self.budget = _Budget() if budget is None else budget

    def rewrite(self, lo, hi, new, move=None, window=None):
        self.budget.spend()
        self.items[lo:hi] = new
        if len(self.items) > MAX_WORD_ITEMS:
            raise BudgetExceeded(
                f"rewriting grew a word past {MAX_WORD_ITEMS:,} items")
        return self._fuse(lo, lo + len(new))

    def commute(self, src, dst):
        """Move the letter at src left to dst in one jump."""
        self.budget.spend()
        self.items.insert(dst, self.items.pop(src))
        return self._fuse(dst, src + 1)

    def _fuse(self, lo, hi):
        """Merge across the edges of `items[lo:hi]`, which holds no fusable
        pair, until none is left; the rest of the list is merged already;
        returns where the merged window begins."""
        items = self.items
        while (0 < lo < len(items) and _fusable(items[lo - 1], items[lo])
               or 0 < hi < len(items) and _fusable(items[hi - 1], items[hi])):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(items))
            merged = _merge(items[lo:hi])
            items[lo:hi] = merged
            hi = lo + len(merged)
        return lo


def _as_word(items, budget):
    if hasattr(items, "rewrite"):
        return items
    return _ListWord(_merge(items), budget)


def _expand(word, i, leftmost):
    """Expand the leftmost or the rightmost unit of the y-letter at i; the
    move's window is the three y-letters of the expanded unit."""
    lt = word.items[i]
    lo = i + (lt.exp > 0) + (not leftmost and abs(lt.exp) > 1)
    return word.rewrite(i, i + 1, _merge(_expand_end(lt, leftmost)),
                        EXPANSION, (lo, lo + 3))


def standardize(items, budget=None):
    """Rewrite to a standard form: one tree-pair factor at the front, if any,
    and among the y-letters any letter whose subscript extends another's
    occurs earlier.  Preserves the group element.  `items` is a word object,
    or an iterable of items that becomes a `_ListWord` spending `budget`;
    returns the word's items.

    At the leftmost place one applies, adjacent factors compose, a y-letter
    before a factor is rearranged or expanded, or adjacent inverse letters
    cancel; then letters of one subscript are commuted together, and then
    the shallow letter of a misordered pair expands.  The first scan
    resumes just before the last rewrite, and `find_merge` at the least
    index rewritten since it last ran: nothing before that index changed."""
    word = _as_word(items, budget)
    items = word.items
    start = merge_lo = 0
    while True:
        for i in range(start, len(items) - 1):
            a, b = items[i], items[i + 1]
            if isinstance(b, TreePair):
                if isinstance(a, TreePair):
                    p = compose(a, b)
                    lo = word.rewrite(i, i + 2, [] if p.is_identity() else [p])
                elif (t2 := b.act_on_word(a.sub)) is None:
                    lo = _expand(word, i, False)
                else:
                    lo = word.rewrite(i, i + 2, [b, Letter("y", t2, a.exp)])
                break
            if isinstance(a, Letter) and a.sub == b.sub and a.exp == -b.exp:
                lo = word.rewrite(i, i + 2, [], CANCELLATION)
                break
        else:
            # a merge pair spans three y-letters, a misordered pair two
            first = bool(items) and isinstance(items[0], TreePair)
            found = (find_merge(items, merge_lo)
                     if max(merge_lo, first + 2) < len(items) else None)
            merge_lo = len(items)
            if found is not None:
                lo = word.commute(found[1], found[0] + 1)
            else:
                i = find_misordered(items) if first + 1 < len(items) else None
                if i is None:
                    return items
                lo = _expand(word, i, True)
        start, merge_lo = max(lo - 1, 0), min(merge_lo, lo)


def find_merge(items, lo=0):
    """The first pair (i, j) of y-letters with equal subscripts, j > i + 1,
    separated only by y-letters incompatible with them, or None.  The caller
    knows that no pair ending before `lo` is one."""
    subs = [it.sub if _is_y(it) else None for it in items]
    found, last = None, {}  # the last index of each subscript in the run
    for j, s in enumerate(subs):
        if s is None:
            last = {}
            continue
        i, last[s] = last.get(s), j
        if (i is not None and j > i + 1 and j >= lo
                and (found is None or i < found[0])
                and not any(u.startswith(s) or s.startswith(u)
                            for u in subs[i + 1:j])):
            found = i, j
    return found


def find_misordered(items):
    """The index of the first y-letter that precedes a y-letter whose
    subscript it properly prefixes, or None."""
    # the sorted subscripts right of i, where s's extensions follow s
    found, right = None, []
    for i in range(len(items) - 1, -1, -1):
        if _is_y(items[i]):
            s = items[i].sub
            k = bisect_right(right, s)
            if k < len(right) and right[k].startswith(s):
                found = i
            right.insert(k, s)
    return found


def split_standard(items):
    """Split a standard form into (TreePair, y-letter list)."""
    if items and isinstance(items[0], TreePair):
        return items[0], items[1:]
    return IDENTITY, items


# ---------------------------------------------------------------------------
# potential cancellations


# the answers of the cancellation automaton that `_cancels` keeps
CANCELLATION_CACHE_SIZE = 65_536


def pair_potential_cancellation(outer, inner):
    """Whether the two-symbol calculation of y_inner y_outer on a sequence
    extending the inner subscript can bring the symbols together with
    opposite signs.

    `outer` and `inner` are (subscript, sign) with the outer subscript a
    proper prefix of the inner one.  Decided by `_cancels` on the signs and
    the inner digits past the outer subscript, all it reads.
    """
    (s, t), (u, v) = outer, inner
    if not (u.startswith(s) and u != s):
        raise ValueError("outer subscript must properly prefix the inner one")
    _check_signs(t, v)
    return _cancels(t, u[len(s):], v)


def _check_signs(t, v):
    if t not in (1, -1) or v not in (1, -1):
        raise ValueError("signs must be +1 or -1")


@functools.lru_cache(maxsize=CANCELLATION_CACHE_SIZE)
def _cancels(t, digits, v):
    """Finite-state reachability: a state is (left sign, leftover digit
    buffer, right sign) and accepting states have an empty buffer and
    opposite signs.  A sign outside ±1 reads no digit, so its buffer would
    grow without end: it raises `ValueError` instead."""
    _check_signs(t, v)
    o0, _, buf0 = consume_digits(t, digits)
    frontier = [(o0, buf0, v)]
    seen = set(frontier)
    while frontier:
        o, buf, i = frontier.pop()
        if buf == "" and o == -i:
            return True
        # the right symbol writes a row's digits for the left to consume
        for _, written, i2 in Y_RULES[i]:
            o2, _, buf2 = consume_digits(o, buf + written)
            if (o2, buf2, i2) not in seen:
                seen.add((o2, buf2, i2))
                frontier.append((o2, buf2, i2))
    return False


def neighboring_pairs(ys):
    """All (outer_index, inner_index) pairs of y-letters where the outer
    subscript properly prefixes the inner one with no occurring subscript
    strictly between them in the prefix order.  The inner letter is the
    earlier (deeper) one: the outer subscript is the longest proper prefix
    of the inner one that occurs."""
    at = {}
    for j, lt in enumerate(ys):
        at.setdefault(lt.sub, []).append(j)
    out = []
    for i, lt in enumerate(ys):
        s = lt.sub
        for k in range(len(s) - 1, -1, -1):
            if s[:k] in at:
                out.extend([(j, i) for j in at[s[:k]] if j > i])
                break
    return out


def has_potential_cancellation(ys):
    """The tightest neighboring pair (outer_index, inner_index) of a
    standard-form y-letter list that admits a cancellation: least depth
    gap, then least indices.  None when no pair does."""
    if len(ys) < 2:
        return None
    flagged = [
        (len(ys[i].sub) - len(ys[j].sub), j, i)
        for j, i in neighboring_pairs(ys)
        if pair_potential_cancellation(
            (ys[j].sub, 1 if ys[j].exp > 0 else -1),
            (ys[i].sub, 1 if ys[i].exp > 0 else -1),
        )
    ]
    return min(flagged)[1:] if flagged else None


def remove_potential_cancellations(items, budget=None):
    """Rewrite a word so that no neighboring pair admits a cancellation.
    Flagged pairs are resolved by expanding the shallow letter; the expansion
    offspring either separate from or exactly cancel against the deep one.
    Takes and returns what `standardize` does.  On a `loops._Word`'s unit
    letters the flagged outer index is the first unit of the subscript the
    merged letters flag: a standard form keeps a subscript's units
    together, of one sign."""
    word = _as_word(items, budget)
    while True:
        ys = split_standard(standardize(word))[1]
        found = has_potential_cancellation(ys)
        if found is None:
            return word.items
        # expand the outer (shallow, later) letter of the tightest pair
        _expand(word, len(word.items) - len(ys) + found[0], True)


def reduce_word(word):
    """Drive a `_ListWord` to its normal form and return it: remove the
    potential cancellations, sort the y-letters, contract a contractible
    triple (one budget step), and repeat until none is left."""
    items = word.items
    while True:
        f, ys = split_standard(remove_potential_cancellations(word))
        ys = _lex_sorted(ys)
        items[len(items) - len(ys):] = ys
        found = find_potential_contraction(ys)
        if found is None:
            return word
        word.budget.spend()
        items[:] = _merge(_apply_contraction(f, ys, *found))


# ---------------------------------------------------------------------------
# potential contractions


# per case, in case order: the sign of the contracted letter y_s^sign, its
# expansion at s = "" and the parent of the triple's two deeper subscripts
_CONTRACTIONS = tuple(
    (case, sign, t, t[1][0][:-1])
    for case, sign, t in ((1, 1, expand_letter("", 1)),
                          (2, -1, expand_letter("", -1)))
)


def find_potential_contraction(ys):
    """Locate a contractible triple in a cancellation-free sorted y-word:
    the expansion of y_s (case 1, y_{s0} y_{s10}^-1 y_{s11}) or of y_s^-1
    (case 2, y_{s00}^-1 y_{s01} y_{s1}^-1), each letter at least once with
    its sign, and no letter at the parent of the triple's two deeper
    subscripts.  Returns (case, s) or None."""
    if len(ys) < 3:
        return None
    exps = {lt.sub: lt.exp for lt in ys}
    for sub, e in exps.items():
        for case, _, ((w0, a0), (w1, a1), (w2, a2)), parent in _CONTRACTIONS:
            if e * a0 > 0 and sub.endswith(w0):
                s = sub[:-len(w0)]
                if (
                    exps.get(s + w1, 0) * a1 > 0
                    and exps.get(s + w2, 0) * a2 > 0
                    and s + parent not in exps
                ):
                    return (case, s)
    return None


def contraction(case, s):
    """The expansion triple of a contraction found at (case, s), as
    (subscript, sign) letters, and the word x_s^-sign y_s^sign it equals."""
    sign = _CONTRACTIONS[case - 1][1]
    return expand_letter(s, sign), [x_unit(s, -sign), Letter("y", s, sign)]


def _apply_contraction(f, ys, case, s):
    """Replace the matched triple by its one-letter equivalent (times a tree
    pair factor) inside the word f·ys; returns a raw item list."""
    triple, repl = contraction(case, s)
    last = triple[-1][0]
    triple = dict(triple)
    out = [f]
    inserted = False
    for lt in ys:
        if lt.sub in triple:
            e = lt.exp - triple[lt.sub]
            if e:
                out.append(Letter("y", lt.sub, e))
            if lt.sub == last:
                out.extend(repl)
                inserted = True
        else:
            out.append(lt)
    if not inserted:
        raise InternalError("contraction triple missing from the word")
    return out


# ---------------------------------------------------------------------------
# normal forms


def _lex_sorted(ys):
    # in a standard form every compatible pair is already in lex order, so
    # sorting only commutes incompatible letters
    return sorted(ys, key=lambda lt: lex_key(lt.sub))


class GNormal(NamedTuple):
    """The unique normal form: a reduced tree pair times a sorted,
    cancellation- and contraction-free y-letter sequence.

    Those three conditions concern the y-part alone.  So when v is the
    y-part of a normal form, such as a coset vertex, `GNormal(f, v)` is
    the normal form of f v for every reduced tree pair f, and the pipeline
    builds it so instead of normalizing the word again."""

    f: TreePair
    ys: tuple

    def is_identity(self):
        return self.f.is_identity() and not self.ys

    def to_items(self):
        return [self.f] + list(self.ys)

    def render(self):
        parts = []
        if not self.f.is_identity():
            dom = ",".join(w or "ε" for w in self.f.domain)
            rng = ",".join(w or "ε" for w in self.f.range)
            parts.append(f"<{dom}|{rng}>")
        parts.extend(lt.render() for lt in self.ys)
        return " ".join(parts) if parts else "1"


IDENTITY_NORMAL = GNormal(IDENTITY, ())


# the normal forms that `_normal_form` keeps, one per merged word
NORMALIZE_CACHE_SIZE = 1_000_000


def normalize(word):
    """The unique normal form of a word (letters and/or tree pairs).

    The memo is keyed by the merged word (see `_merge`), so words that
    differ only in what the merge fuses or cancels, such as `y[10]
    y[10]^-1` inside a quotient, share one entry and one reduction."""
    return _normal_form(tuple(_merge(word)))


@functools.lru_cache(maxsize=NORMALIZE_CACHE_SIZE)
def _normal_form(merged):
    f, ys = split_standard(reduce_word(_ListWord(merged)).items)
    return GNormal(f, tuple(ys))


# the products of one item and a normal form that `_onto` keeps.  The
# envelope of the 14-dimensional draw `y[01] ; y[01100] ; y[10] || y[01] ;
# y[011]` computes 102,577 and finds 162,021; four times as many entries
# saved no time there, and a quarter as many cost about a fifth more time
ONTO_CACHE_SIZE = 65_536


def normalize_onto(letters, g):
    """The normal form of the word `letters` times the normal form g: the
    letters are taken from the right, each onto the normal form of the
    letters after it (see `_onto`)."""
    for item in reversed(letters):
        g = _onto(item, g)
    return g


@functools.lru_cache(maxsize=ONTO_CACHE_SIZE)
def _onto(item, g):
    """The normal form of one item times the normal form g.  A tree-pair
    factor, or an x-letter read as one, composes into g's pair.  A y-letter
    that g's pair rearranges to y_t merges into g's sorted y-part at t's
    lex position when no letter there properly extends t, t forms no
    potential cancellation with its longest prefix there (the only
    neighbouring pair it can enter), and no triple becomes contractible:
    what is left is then a normal form.  Any other item is normalized with
    g's items by the engine."""
    item = _as_factor(item)
    if isinstance(item, TreePair):
        return GNormal(compose(item, g.f), g.ys)
    t = g.f.act_on_word(item.sub)
    merged = None if t is None else _merge_letter(t, item.exp, g.ys)
    if merged is None:
        return normalize([item] + g.to_items())
    return GNormal(g.f, merged)


def _merge_letter(t, exp, ys):
    """The sorted y-part ys with y_t^exp merged in at its lex position, or
    None when that is not a normal form's y-part (see `_onto`)."""
    k = bisect_left(ys, lex_key(t), key=lambda lt: lex_key(lt.sub))
    # the proper extensions of t sort right before it
    if k and ys[k - 1].sub.startswith(t):
        return None
    hi = k
    if k < len(ys) and ys[k].sub == t:
        exp, hi = exp + ys[k].exp, k + 1
    if exp:
        # t's prefixes sort after it
        exps = {lt.sub: lt.exp for lt in ys[hi:]}
        outer = next((t[:i] for i in range(len(t) - 1, 0, -1)
                      if t[:i] in exps), None)
        if outer is not None and pair_potential_cancellation(
                (outer, 1 if exps[outer] > 0 else -1),
                (t, 1 if exp > 0 else -1)):
            return None
    out = ys[:k] + ((Letter("y", t, exp),) if exp else ()) + ys[hi:]
    return None if find_potential_contraction(out) is not None else out


def normalize_product(*factors):
    """Normal form of a product whose factors are words, letters, tree
    pairs or normal forms: the group's multiplication on normal forms."""
    items = []
    for fac in factors:
        if isinstance(fac, GNormal):
            items.extend(fac.to_items())
        elif isinstance(fac, (Letter, TreePair)):
            items.append(fac)
        else:
            items.extend(fac)
    return normalize(items)


def invert_normal(n):
    """Normal form of the inverse of a normal form (criterion 5)."""
    return normalize(inverse_word(n.to_items()))


def equal_words(w1, w2):
    return normalize(list(w1)) == normalize(list(w2))
