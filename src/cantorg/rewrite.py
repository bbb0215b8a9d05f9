"""Words in the generators, standard forms, and the unique normal form.

A word is a list of letters x_s^k / y_s^k (y-subscripts must be nonconstant)
plus, internally, opaque tree-pair tokens.  The engine reads every x-letter
as a tree-pair token, so a standard form is at most one leading token (an
element of F) followed by y-letters.  It rewrites any word into the
canonical pair (reduced tree pair, sorted cancellation- and
contraction-free y-letter sequence), which is the unique representative of
the group element; two words are equal in the group iff they normalize to
the same pair.

The rewriting rules used are exactly the group identities:
  - rearranging   y_t^i x_s^±1  ->  x_s^±1 y_{t'}^i   (t' the image of t)
  - expansion     y_s   ->  x_s y_{s0} y_{s10}^-1 y_{s11}
  - commuting     y_u y_v = y_v y_u for incompatible u, v
  - exponent split/merge and deletion of y^i y^-i
"""

from typing import NamedTuple

from .binseq import incompatible, is_constant, lex_key
from .thompson import (
    IDENTITY,
    Y_RULES,
    Y_STEP,
    InternalError,
    TreePair,
    compose,
    expand_letter,
    power,
    x_gen,
    x_unit,
)


class BudgetExceeded(RuntimeError):
    """Raised when the rewriting engine exceeds its step budget."""


class Letter(NamedTuple):
    kind: str  # 'x' or 'y'
    sub: str
    exp: int

    def inverse(self):
        return Letter(self.kind, self.sub, -self.exp)

    def render(self):
        base = f"{self.kind}[{self.sub}]"
        return base if self.exp == 1 else f"{base}^{self.exp}"


def letter(kind, sub, exp=1):
    if kind not in ("x", "y"):
        raise ValueError(f"bad letter kind {kind!r}")
    if kind == "y" and is_constant(sub):
        raise ValueError(f"y-subscript must be nonconstant: {sub!r}")
    if exp == 0:
        raise ValueError("letter exponent must be nonzero")
    return Letter(kind, sub, exp)


class FToken(NamedTuple):
    """An opaque tree-pair factor inside a word being rewritten."""

    pair: TreePair


def inverse_word(letters):
    out = []
    for item in reversed(list(letters)):
        if isinstance(item, FToken):
            out.append(FToken(item.pair.invert()))
        else:
            out.append(item.inverse())
    return out


def _merge(items):
    """Fuse adjacent equal-subscript y-letters and adjacent tree-pair
    factors, reading each x-letter as its tree-pair factor and dropping the
    identity."""
    out = []
    for item in items:
        if isinstance(item, Letter) and item.kind == "x":
            item = FToken(power(x_gen(item.sub), item.exp))
        if isinstance(item, FToken):
            if item.pair.is_identity():
                continue
            if out and isinstance(out[-1], FToken):
                p = compose(out[-1].pair, item.pair)
                out.pop()
                if not p.is_identity():
                    out.append(FToken(p))
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


_Y_TRIPLE = expand_letter("", 1)


def expand_unit(sub, sign):
    """One expansion step of y_sub^sign as a letter list: y_s is x_s times
    the letters of `expand_letter(s, 1)`, and y_s^-1 is the inverse word."""
    (w0, a0), (w1, a1), (w2, a2) = _Y_TRIPLE
    if sign > 0:
        return [Letter("x", sub, 1), Letter("y", sub + w0, a0),
                Letter("y", sub + w1, a1), Letter("y", sub + w2, a2)]
    return [Letter("y", sub + w2, -a2), Letter("y", sub + w1, -a1),
            Letter("y", sub + w0, -a0), Letter("x", sub, -1)]


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


def standardize(items, budget=None):
    """Rewrite to a standard form: one tree-pair factor at the front, if any,
    and among the y-letters any letter whose subscript extends another's
    occurs earlier.  Equal-subscript letters are merged.  Preserves the
    group element."""
    if budget is None:
        budget = _Budget()
    items = _merge(list(items))
    while True:
        changed = False
        # 1: a y-letter immediately before a tree-pair factor: rearrange or
        # expand
        for i in range(len(items) - 1):
            a, b = items[i], items[i + 1]
            if _is_y(a) and isinstance(b, FToken):
                budget.spend()
                t2 = b.pair.act_on_word(a.sub)
                if t2 is None:
                    items[i:i + 1] = _expand_end(a, False)
                else:
                    items[i:i + 2] = [b, Letter("y", t2, a.exp)]
                changed = True
                break
        if changed:
            items = _merge(items)
            continue
        # 2: merge equal-subscript y-letters separated by incompatible letters
        # (adjacent ones were merged already)
        found = find_merge(items)
        if found is not None:
            i, j = found
            budget.spend()
            e = items[i].exp + items[j].exp
            del items[j]
            if e:
                items[i] = Letter("y", items[i].sub, e)
            else:
                del items[i]
            items = _merge(items)
            continue
        # 3: ordering: expand the shallow letter of a misordered pair
        i = find_misordered(items)
        if i is None:
            return items
        budget.spend()
        items[i:i + 1] = _expand_end(items[i], True)
        items = _merge(items)


def find_merge(items):
    """The first pair (i, j) of y-letters with equal subscripts, j > i + 1,
    separated only by y-letters incompatible with them, or None."""
    for i, a in enumerate(items):
        if not _is_y(a):
            continue
        for j in range(i + 1, len(items)):
            b = items[j]
            if not _is_y(b):
                break
            if b.sub == a.sub:
                if j > i + 1 and all(
                    incompatible(items[k].sub, a.sub) for k in range(i + 1, j)
                ):
                    return i, j
                break
    return None


def find_misordered(items):
    """The index of the first y-letter that precedes a y-letter whose
    subscript it properly prefixes, or None."""
    for i, a in enumerate(items):
        if not _is_y(a):
            continue
        for j in range(i + 1, len(items)):
            b = items[j]
            if _is_y(b) and b.sub != a.sub and b.sub.startswith(a.sub):
                return i
    return None


def split_standard(items):
    """Split a standard form into (TreePair, y-letter list)."""
    if items and isinstance(items[0], FToken):
        return items[0].pair, items[1:]
    return IDENTITY, items


# ---------------------------------------------------------------------------
# potential cancellations


def _outer_reduce(o, buf):
    """Greedily let the left symbol (sign o) consume the digit buffer to its
    right; returns the resulting sign and leftover buffer."""
    while True:
        row = Y_STEP.get((o, buf[:2]))
        if row is None:
            return o, buf
        n, _, o = row
        buf = buf[n:]


def pair_potential_cancellation(outer, inner):
    """Whether the two-symbol calculation of y_inner y_outer on a sequence
    extending the inner subscript can bring the symbols together with
    opposite signs.

    `outer` and `inner` are (subscript, sign) with the outer subscript a
    proper prefix of the inner one.  Decided by finite-state reachability:
    a state is (left sign, leftover digit buffer, right sign) and accepting
    states have an empty buffer and opposite signs.
    """
    (s, t), (u, v) = outer, inner
    if not (u.startswith(s) and u != s):
        raise ValueError("outer subscript must properly prefix the inner one")
    if t not in (1, -1) or v not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    o0, buf0 = _outer_reduce(t, u[len(s):])
    start = (o0, buf0, v)
    seen = {start}
    frontier = [start]
    while frontier:
        o, buf, i = frontier.pop()
        if buf == "" and o == -i:
            return True
        # the right symbol writes one row's digits for the left to consume
        for _, digits, i2 in Y_RULES[i]:
            o2, buf2 = _outer_reduce(o, buf + digits)
            st = (o2, buf2, i2)
            if st not in seen:
                seen.add(st)
                frontier.append(st)
    return False


def neighboring_pairs(ys):
    """All (outer_index, inner_index) pairs of y-letters where the outer
    subscript properly prefixes the inner one with no occurring subscript
    strictly between them in the prefix order.  The inner letter is the
    earlier (deeper) one."""
    subs = {lt.sub for lt in ys}
    out = []
    for i, inner in enumerate(ys):
        for j in range(i + 1, len(ys)):
            outer = ys[j]
            si, sj = inner.sub, outer.sub
            if si != sj and si.startswith(sj):
                if not any(
                    u in subs
                    for u in (si[:k] for k in range(len(sj) + 1, len(si)))
                ):
                    out.append((j, i))
    return out


def has_potential_cancellation(ys):
    """The tightest neighboring pair (outer_index, inner_index) of a
    standard-form y-letter list that admits a cancellation: least depth
    gap, then least indices.  None when no pair does."""
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
    The y-letters of a standard form are the items after its leading
    tree-pair factor, so each round reads them in place."""
    if budget is None:
        budget = _Budget()
    items = standardize(items, budget)
    while True:
        _, ys = split_standard(items)
        found = has_potential_cancellation(ys)
        if found is None:
            return items
        budget.spend()
        # expand the outer (shallow, later) letter of the tightest pair
        k = len(items) - len(ys) + found[0]
        items[k:k + 1] = _expand_end(items[k], True)
        items = standardize(items, budget)


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
    return expand_letter(s, sign), [
        FToken(x_unit(s, -sign)), Letter("y", s, sign)
    ]


def _apply_contraction(f, ys, case, s):
    """Replace the matched triple by its one-letter equivalent (times a tree
    pair factor) inside the word f·ys; returns a raw item list."""
    triple, repl = contraction(case, s)
    last = triple[-1][0]
    triple = dict(triple)
    out = [FToken(f)]
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
    cancellation- and contraction-free y-letter sequence."""

    f: TreePair
    ys: tuple

    def is_identity(self):
        return self.f.is_identity() and not self.ys

    def to_items(self):
        return [FToken(self.f)] + list(self.ys)

    def render(self):
        parts = []
        if not self.f.is_identity():
            dom = ",".join(w or "ε" for w in self.f.domain)
            rng = ",".join(w or "ε" for w in self.f.range)
            parts.append(f"<{dom}|{rng}>")
        parts.extend(lt.render() for lt in self.ys)
        return " ".join(parts) if parts else "1"


IDENTITY_NORMAL = GNormal(IDENTITY, ())


_NORMALIZE_CACHE = {}


def normalize(word):
    """The unique normal form of a word (letters and/or tree-pair tokens)."""
    key = tuple(word)
    cached = _NORMALIZE_CACHE.get(key)
    if cached is not None:
        return cached
    budget = _Budget()
    items = remove_potential_cancellations(list(key), budget)
    while True:
        f, ys = split_standard(items)
        ys = _lex_sorted(ys)
        found = find_potential_contraction(ys)
        if found is None:
            out = GNormal(f, tuple(ys))
            if len(_NORMALIZE_CACHE) > 1_000_000:
                _NORMALIZE_CACHE.clear()
            _NORMALIZE_CACHE[key] = out
            return out
        budget.spend()
        items = _apply_contraction(f, ys, *found)
        items = remove_potential_cancellations(items, budget)


def normalize_product(*factors):
    """Normal form of a product whose factors are words, letters or normal
    forms."""
    items = []
    for fac in factors:
        if isinstance(fac, GNormal):
            items.extend(fac.to_items())
        elif isinstance(fac, (Letter, FToken)):
            items.append(fac)
        elif isinstance(fac, TreePair):
            items.append(FToken(fac))
        else:
            items.extend(fac)
    return normalize(items)


def invert_normal(n):
    """Normal form of the inverse of a normal form."""
    return normalize(inverse_word(n.to_items()))


def equal_words(w1, w2):
    return normalize(list(w1)) == normalize(list(w2))
