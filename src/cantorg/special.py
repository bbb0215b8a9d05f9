"""Special forms and the right-coset calculus.

A special form is a sequence of (subscript, sign) letters whose subscripts
are consecutive leaves of some finite binary tree (left to right) and whose
signs strictly alternate.  Each special form labels an edge of the coset
complex; contracting every expansion triple gives the unique minimal form,
which is also the canonical coset representative.
"""

import functools

from .binseq import incompatible, is_constant
from .rewrite import GNormal, Letter, normalize
from .thompson import InternalError, TreePair, consume_digits, expand_letter

MAX_ROUNDS = 100_000  # expansions of one `split_while`

# the verdicts that `is_special` keeps and the minimal forms that
# `minimal_form` keeps, one per form.  A `loops` pass of seed 3001 asks
# 7,027 verdicts of 87 distinct forms
SPECIAL_CACHE_SIZE = 4096


def to_letters(form):
    return [Letter("y", s, t) for s, t in form]


def from_letters(ys):
    out = []
    for lt in ys:
        sign = 1 if lt.exp > 0 else -1
        out.extend((lt.sub, sign) for _ in range(abs(lt.exp)))
    return tuple(out)


def pair_consecutive(s, t):
    """Whether s, t can be adjacent leaves of a binary tree, s on the left:
    s must be the rightmost leaf below c0 and t the leftmost below c1 for
    their common prefix c."""
    k = 0
    while k < min(len(s), len(t)) and s[k] == t[k]:
        k += 1
    if k >= len(s) or k >= len(t) or s[k] != "0" or t[k] != "1":
        return False
    return set(s[k + 1:]) <= {"1"} and set(t[k + 1:]) <= {"0"}


def list_checks(form):
    """The three list predicates: dictionary-sorted, consecutive-leaves, and
    strictly alternating signs."""
    subs = [s for s, _ in form]
    signs = [t for _, t in form]
    sorted_ok = all(a < b for a, b in zip(subs, subs[1:]))
    consecutive = all(pair_consecutive(a, b) for a, b in zip(subs, subs[1:]))
    alternating = all(a == -b for a, b in zip(signs, signs[1:]))
    return sorted_ok, consecutive, alternating


def _key(form):
    """A form as a tuple of (subscript, sign) tuples, the key of both
    memos, so that a form built of lists finds its answer too."""
    return tuple((s, t) for s, t in form)


def is_special(form):
    """Whether the form is special, kept per form."""
    return _is_special(_key(form))


@functools.lru_cache(maxsize=SPECIAL_CACHE_SIZE)
def _is_special(form):
    if len(form) == 0:
        return False
    for s, t in form:
        if is_constant(s) or t not in (1, -1):
            return False
    sorted_ok, consecutive, alternating = list_checks(form)
    return sorted_ok and consecutive and alternating


def check_special(form):
    form = tuple(form)
    if not is_special(form):
        raise ValueError(f"not a special form: {form}")
    return form


def invert_form(form):
    """The inverse of a special form: its letters commute pairwise, so the
    inverse is the same list with all signs flipped."""
    return tuple((s, -t) for s, t in form)


def type_of(form):
    """Type 1 when the leading sign is negative, else type 2."""
    return 1 if form[0][1] == -1 else 2


def parity_of(form):
    return len(form) % 2


def expand_at(form, i):
    form = tuple(form)
    s, t = form[i]
    return form[:i] + expand_letter(s, t) + form[i + 1:]


def contract_at(form, i):
    """Inverse of expand_at, the paper's contraction: letters i..i+2 must be
    an expansion triple."""
    form = tuple(form)
    if i + 3 > len(form):
        raise ValueError("no room for a contraction at this index")
    lt = _contracted(form[i:i + 3])
    if lt is None:
        raise ValueError(f"letters at {i} do not match a contraction triple")
    return form[:i] + (lt,) + form[i + 3:]


def _contracted(triple):
    """The letter whose expansion is the triple of letters, or None."""
    triple = tuple(triple)
    for t in (1, -1):
        s = triple[0][0][:-len(expand_letter("", t)[0][0])]
        if triple == expand_letter(s, t):
            return s, t
    return None


def minimal_form(form):
    """Contract expansion triples down to the unique minimal representative
    of the coset of the form, in one pass: the letters are pushed one by
    one, and a push or a contraction can only complete a triple ending at
    the letter on top.  Triples never overlap, so the order in which they
    are contracted does not change the result.  Kept per form; a form
    that is not special raises before the memo is read."""
    return _minimal_form(check_special(_key(form)))


@functools.lru_cache(maxsize=SPECIAL_CACHE_SIZE)
def _minimal_form(form):
    out = []
    for lt in form:
        out.append(lt)
        while len(out) >= 3:
            lt = _contracted(out[-3:])
            if lt is None:
                break
            out[-3:] = [lt]
    return tuple(out)


def independent(a, b):
    """All cross pairs of subscripts incompatible."""
    return all(incompatible(s, p) for s, _ in a for p, _ in b)


def check_sorted_forms(forms):
    """The forms as a tuple of checked special forms, sorted by subscript
    and pairwise independent, or ValueError."""
    forms = tuple(check_special(f) for f in forms)
    for a, b in zip(forms, forms[1:]):
        if a[-1][0] >= b[0][0]:
            raise ValueError("parameter list is not sorted")
    for i, a in enumerate(forms):
        for b in forms[i + 1:]:
            if not independent(a, b):
                raise ValueError("parameters are not pairwise independent")
    return forms


def split_while(letters, split):
    """The letters, in order, with each one that `split` accepts expanded,
    and so on down; past MAX_ROUNDS expansions an InternalError."""
    todo, out = list(reversed(letters)), []
    rounds = 0
    while todo:
        lt = todo.pop()
        if not split(lt):
            out.append(lt)
            continue
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise InternalError("letter expansion did not terminate")
        todo.extend(reversed(expand_letter(*lt)))
    return tuple(out)


def act_f(form, f):
    """The special form with subscripts carried through a tree pair, after
    expanding letters the pair does not yet act on.  Realizes right
    multiplication of the coset by the pair: F acting on special forms."""
    form = check_special(form)
    if not isinstance(f, TreePair):
        raise TypeError("act_f takes a tree pair")
    letters = split_while(form, lambda lt: f.act_on_word(lt[0]) is None)
    return tuple((f.act_on_word(s), t) for s, t in letters)


def coset_vertex(word):
    """The canonical right-coset representative (the y-part of the normal
    form) of a word, letter list, or normal form."""
    if isinstance(word, GNormal):
        return word.ys
    return normalize(list(word)).ys


# ---------------------------------------------------------------------------
# descendant automaton and cancellation freeness


def descends(anc, dec):
    """Whether iterated expansion of the ancestor letter produces the
    descendant letter (equality counts).  Letters are (subscript, sign).
    The letter y^sg writes exactly what y^-sg reads, with the signs after
    negated, so y^-sg must consume every digit between the subscripts and
    end with the sign -w."""
    c, sg = anc
    u, w = dec
    if not u.startswith(c):
        return False
    sign, _, left = consume_digits(-sg, u[len(c):])
    return not left and sign == -w


def cancellation_free(form_a, form_b):
    """Whether no expansions of the two minimal forms share a letter."""
    a = minimal_form(form_a)
    b = minimal_form(form_b)
    return not any(
        descends(la, lb) or descends(lb, la) for la in a for lb in b
    )


# ---------------------------------------------------------------------------
# the four orbit classes and explicit carriers


def complete_tree(subs):
    """Leaves of the minimal complete binary tree containing the given
    pairwise incompatible words as leaves, in left-to-right order."""
    leaves = []
    todo = [""]
    while todo:
        prefix = todo.pop()
        if any(s.startswith(prefix) and s != prefix for s in subs):
            todo += [prefix + "1", prefix + "0"]
        else:
            leaves.append(prefix)
    return leaves


def _pad(leaves, k, at):
    """Split the first (at=0) or the last (at=-1) leaf k times over."""
    leaves = list(leaves)
    for _ in range(k):
        i = at % len(leaves)
        leaves[i:i + 1] = [leaves[i] + "0", leaves[i] + "1"]
    return leaves


def find_carrier(form_a, form_b):
    """An explicit tree pair carrying the coset of the first special form to
    the coset of the second, or None when they lie in different orbit
    classes.  Cosets share an orbit exactly when (type, parity) match, which
    gives the paper's four orbit classes (criterion 7)."""
    a = minimal_form(form_a)
    b = minimal_form(form_b)
    if (type_of(a), parity_of(a)) != (type_of(b), parity_of(b)):
        return None
    # equalize lengths by expanding the first letter of the shorter form;
    # same type and parity force identical sign sequences afterwards
    while len(a) < len(b):
        a = expand_at(a, 0)
    while len(b) < len(a):
        b = expand_at(b, 0)
    if [t for _, t in a] != [t for _, t in b]:
        raise InternalError("equal type and parity gave different signs")
    ta = complete_tree([s for s, _ in a])
    tb = complete_tree([s for s, _ in b])
    # pad the side with fewer leaves before the first letter, then the last
    ia, ib = ta.index(a[0][0]), tb.index(b[0][0])
    ta, tb = _pad(ta, ib - ia, 0), _pad(tb, ia - ib, 0)
    ra, rb = len(ta) - ta.index(a[-1][0]), len(tb) - tb.index(b[-1][0])
    ta, tb = _pad(ta, rb - ra, -1), _pad(tb, ra - rb, -1)
    return TreePair(ta, tb)
