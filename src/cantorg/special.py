"""Special forms and the right-coset calculus.

A special form is a sequence of (subscript, sign) letters whose subscripts
are consecutive leaves of some finite binary tree (left to right) and whose
signs strictly alternate.  Each special form labels an edge of the coset
complex; contracting every expansion triple gives the unique minimal form,
which is also the canonical coset representative.
"""

from .binseq import incompatible, is_constant
from .rewrite import GNormal, Letter, normalize, normalize_product
from .thompson import Y_RULES, InternalError, TreePair, expand_letter


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


def is_special(form):
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
    """Inverse of expand_at: letters i..i+2 must be an expansion triple."""
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
    are contracted does not change the result."""
    out = []
    for lt in check_special(form):
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


def product_is_special(forms):
    """Whether the concatenation of a sorted list of pairwise independent
    special forms is itself a special form."""
    return is_special(tuple(lt for f in check_sorted_forms(forms) for lt in f))


def act_f(form, f):
    """The special form with subscripts carried through a tree pair, after
    expanding letters the pair does not yet act on.  Realizes right
    multiplication of the coset by the pair."""
    form = check_special(form)
    if not isinstance(f, TreePair):
        raise TypeError("act_f takes a tree pair")
    todo = list(reversed(form))
    out = []
    while todo:
        s, t = todo.pop()
        image = f.act_on_word(s)
        if image is None:
            todo.extend(reversed(expand_letter(s, t)))
        else:
            out.append((image, t))
    return tuple(out)


def coset_vertex(word):
    """The canonical right-coset representative (the y-part of the normal
    form) of a word, letter list, or normal form."""
    if isinstance(word, GNormal):
        return word.ys
    return normalize(list(word)).ys


def vertex_in_gamma(vertex):
    """Whether a coset representative is the minimal form of a special form
    (i.e. the coset is an edge label)."""
    return is_special(from_letters(vertex))


def stabilizes_coset(f, form):
    """Whether right multiplication by the pair fixes the coset of the
    special form."""
    form = check_special(form)
    base = coset_vertex(to_letters(form))
    moved = coset_vertex(normalize_product(to_letters(form), f))
    return base == moved


# ---------------------------------------------------------------------------
# descendant automaton and overlays


def descends(anc, dec):
    """Whether iterated expansion of the ancestor letter produces the
    descendant letter (equality counts).  Letters are (subscript, sign)."""
    c, sg = anc
    u, w = dec
    while True:
        if c == u:
            return sg == w
        if not u.startswith(c):
            return False
        # step to the child letter of the expansion on the way to u
        rest = u[len(c):]
        for _, written, after in Y_RULES[sg]:
            if rest.startswith(written):
                c, sg = c + written, after
                break
        else:
            return False


def overlay(form_a, form_b):
    """Whether some expansions of the two minimal forms share a letter."""
    a = minimal_form(form_a)
    b = minimal_form(form_b)
    return any(
        descends(la, lb) or descends(lb, la) for la in a for lb in b
    )


def cancellation_free(form_a, form_b):
    return not overlay(form_a, form_b)


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


def _pad_left(leaves, k):
    leaves = list(leaves)
    for _ in range(k):
        w = leaves[0]
        leaves[0:1] = [w + "0", w + "1"]
    return leaves


def _pad_right(leaves, k):
    leaves = list(leaves)
    for _ in range(k):
        w = leaves[-1]
        leaves[-1:] = [w + "0", w + "1"]
    return leaves


def find_carrier(form_a, form_b):
    """An explicit tree pair carrying the coset of the first special form to
    the coset of the second, or None when they lie in different orbit
    classes.  Cosets share an orbit exactly when (type, parity) match."""
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
    ia = ta.index(a[0][0])
    ib = tb.index(b[0][0])
    if ia < ib:
        ta = _pad_left(ta, ib - ia)
    else:
        tb = _pad_left(tb, ia - ib)
    ra = len(ta) - ta.index(a[-1][0]) - 1
    rb = len(tb) - tb.index(b[-1][0]) - 1
    if ra < rb:
        ta = _pad_right(ta, rb - ra)
    else:
        tb = _pad_right(tb, ra - rb)
    return TreePair(ta, tb)
