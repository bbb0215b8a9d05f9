"""The normal-form rewriter and the loop contraction as they were written
before one engine served both, kept as test oracles.

`standardize`, `remove_potential_cancellations` and `normalize` rewrote a
plain list of items and merged the whole list again after every step;
`normalize` here takes a step budget and keeps no cache.  `contract_loop`
drove its word with rewriters of its own (`_standardize_moves`,
`_remove_cancellations_moves`, `_sort_moves`, `_contract_moves`), each
emitting the certificate moves of its rewrites.  The library runs the
rules once, in `rewrite.standardize` and
`rewrite.remove_potential_cancellations`, on a `rewrite._ListWord` or a
`loops._Word`, and `rewrite.reduce_word` sorts and contracts the former.
A loop word lies in F, so the library never sorts or contracts it; the
oracle keeps its sort and contraction moves as the reference.

The engine's passes as they were before they resumed at the rewritten
window are kept too: `scan_standardize` restarts its first scan at
position 0 after every rewrite, and `find_merge`, `find_misordered` and
`scan_neighboring_pairs` scan every pair of y-letters.
`pair_potential_cancellation` decides every call by its automaton, with no
table.  `scan_remove_potential_cancellations` drives `scan_standardize`
with these, and the list rewriter above uses the two full scans.
"""

from cantorg.binseq import incompatible, lex_key
from cantorg.loops import (
    CANCELLATION,
    COMMUTING,
    EXPANSION,
    SPLIT,
    TRIVIAL,
    _edge_normal,
    _Word,
    path_of,
)
from cantorg.rewrite import (
    CANCELLATION as _CANCELLATION,
    GNormal,
    Letter,
    _apply_contraction,
    _as_word,
    _Budget,
    _expand,
    _expand_end,
    _is_y,
    _lex_sorted,
    _merge,
    contraction,
    expand_unit,
    find_potential_contraction,
    has_potential_cancellation,
    normalize as _normalize,
    split_standard,
)
from cantorg.special import from_letters
from cantorg.thompson import (
    Y_RULES,
    InternalError,
    TreePair,
    compose,
    consume_digits,
)

# ---------------------------------------------------------------------------
# the engine's full scans


def scan_standardize(items, budget=None):
    """Rewrite to a standard form: one tree-pair factor at the front, if any,
    and among the y-letters any letter whose subscript extends another's
    occurs earlier.  Preserves the group element.  `items` is a word object,
    or an iterable of items that becomes a `_ListWord` spending `budget`;
    returns the word's items.

    At the leftmost place one applies, adjacent factors compose, a y-letter
    before a factor is rearranged or expanded, or adjacent inverse letters
    cancel; then letters of one subscript are commuted together, and then
    the shallow letter of a misordered pair expands."""
    word = _as_word(items, budget)
    items = word.items
    while True:
        for i in range(len(items) - 1):
            a, b = items[i], items[i + 1]
            if isinstance(b, TreePair):
                if isinstance(a, TreePair):
                    p = compose(a, b)
                    word.rewrite(i, i + 2,
                                 [] if p.is_identity() else [p])
                    break
                t2 = b.act_on_word(a.sub)
                if t2 is None:
                    _expand(word, i, False)
                else:
                    word.rewrite(i, i + 2, [b, Letter("y", t2, a.exp)])
                break
            if isinstance(a, Letter) and a.sub == b.sub and a.exp == -b.exp:
                word.rewrite(i, i + 2, [], _CANCELLATION)
                break
        else:
            found = find_merge(items)
            if found is not None:
                word.commute(found[1], found[0] + 1)
                continue
            i = find_misordered(items)
            if i is None:
                return items
            _expand(word, i, True)


def find_merge(items):
    """The first pair (i, j) of y-letters with equal subscripts, j > i + 1,
    separated only by y-letters incompatible with them, or None."""
    subs = [it.sub if _is_y(it) else None for it in items]
    for i, s in enumerate(subs):
        if s is None:
            continue
        for j in range(i + 1, len(subs)):
            t = subs[j]
            if t is None:
                break
            if t == s:
                if j > i + 1 and all(
                        incompatible(u, s) for u in subs[i + 1:j]):
                    return i, j
                break
    return None


def find_misordered(items):
    """The index of the first y-letter that precedes a y-letter whose
    subscript it properly prefixes, or None."""
    subs = [it.sub if _is_y(it) else None for it in items]
    for i, s in enumerate(subs):
        if s is None:
            continue
        for t in subs[i + 1:]:
            if t is not None and t != s and t.startswith(s):
                return i
    return None


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
    o0, _, buf0 = consume_digits(t, u[len(s):])
    start = (o0, buf0, v)
    seen = {start}
    frontier = [start]
    while frontier:
        o, buf, i = frontier.pop()
        if buf == "" and o == -i:
            return True
        # the right symbol writes one row's digits for the left to consume
        for _, digits, i2 in Y_RULES[i]:
            o2, _, buf2 = consume_digits(o, buf + digits)
            st = (o2, buf2, i2)
            if st not in seen:
                seen.add(st)
                frontier.append(st)
    return False


def scan_neighboring_pairs(ys):
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


def scan_has_potential_cancellation(ys):
    """The tightest neighboring pair (outer_index, inner_index) of a
    standard-form y-letter list that admits a cancellation: least depth
    gap, then least indices.  None when no pair does."""
    flagged = [
        (len(ys[i].sub) - len(ys[j].sub), j, i)
        for j, i in scan_neighboring_pairs(ys)
        if pair_potential_cancellation(
            (ys[j].sub, 1 if ys[j].exp > 0 else -1),
            (ys[i].sub, 1 if ys[i].exp > 0 else -1),
        )
    ]
    return min(flagged)[1:] if flagged else None


def scan_remove_potential_cancellations(items, budget=None):
    """Rewrite a word so that no neighboring pair admits a cancellation.
    Flagged pairs are resolved by expanding the shallow letter; the expansion
    offspring either separate from or exactly cancel against the deep one.
    Takes and returns what `scan_standardize` does."""
    word = _as_word(items, budget)
    while True:
        ys = split_standard(scan_standardize(word))[1]
        found = scan_has_potential_cancellation(ys)
        if found is None:
            return word.items
        # expand the outer (shallow, later) letter of the tightest pair
        sub = ys[found[0]].sub
        _expand(word, next(k for k, it in enumerate(word.items)
                           if _is_y(it) and it.sub == sub), True)

# ---------------------------------------------------------------------------
# the list rewriter of `normalize`


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
            if _is_y(a) and isinstance(b, TreePair):
                budget.spend()
                t2 = b.act_on_word(a.sub)
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


def normalize(word, budget=None):
    """The unique normal form of a word, rewritten from scratch under
    `budget`."""
    if budget is None:
        budget = _Budget()
    items = remove_potential_cancellations(list(word), budget)
    while True:
        f, ys = split_standard(items)
        ys = _lex_sorted(ys)
        found = find_potential_contraction(ys)
        if found is None:
            return GNormal(f, tuple(ys))
        budget.spend()
        items = _apply_contraction(f, ys, *found)
        items = remove_potential_cancellations(items, budget)


# ---------------------------------------------------------------------------
# the move-emitting rewriters of `contract_loop`


def contract_loop(loop):
    """Contract a loop at the base vertex to the trivial loop.  Returns the
    move certificate, beginning with ("start", the input path, None) and
    ending with a path of base vertices only."""
    loop = [tuple(v) for v in loop]
    if len(loop) < 1 or loop[0] != TRIVIAL or loop[-1] != TRIVIAL:
        raise ValueError("loop must start and end at the base vertex")
    normals = [_edge_normal(u, v) for u, v in zip(loop, loop[1:])]

    # phase 1: split every diagonal edge into single-letter edges; the
    # intermediate vertices are the suffix cosets of the exact loop word
    letters = []
    spans = []
    for nf in normals:
        if not nf.f.is_identity():
            letters.append(nf.f)
        spans.append((len(letters), len(nf.ys)))
        letters.extend(nf.ys)
    word = _Word(letters)
    word.emit("start", loop)
    fine = word.path()
    path = list(loop)
    pos = 0
    for start, k in spans:
        if fine[pos] != path[pos]:
            raise InternalError("split phase lost track of the path")
        if k > 1:
            parts = word.params(start, start + k)
            for t in range(k - 1):
                rest = tuple(lt for f in parts[t + 1:] for lt in f)
                params = (parts[t], from_letters(_normalize(
                    [Letter("y", s, sg) for s, sg in rest]).ys))
                path.insert(pos + 1 + t, fine[pos + 1 + t])
                word.emit(SPLIT, path, params)
        pos += k

    if path_of(word.items) != path:
        raise InternalError("split phase lost track of the path")

    # phase 2: drive the single-letter word to the empty word
    while True:
        _standardize_moves(word)
        _remove_cancellations_moves(word)
        _sort_moves(word)
        ys = [it for it in word.items if _is_y(it)]
        found = find_potential_contraction(_merge(ys))
        if found is None:
            break
        _contract_moves(word, *found)
    if any(_is_y(it) for it in word.items):
        raise InternalError("loop word did not reduce inside F")
    return word.moves


def _expand_item(word, i):
    """Expand the unit letter at index i into its one-step substitution,
    its x-letter read as a tree-pair factor, and emit the expansion move
    with the cluster parameters at the suffix."""
    lt = word.items[i]
    sign = 1 if lt.exp > 0 else -1
    word.splice(i, i + 1, _merge(expand_unit(lt.sub, sign)))
    # the y-letters of the block follow x_s for y_s and precede x_s^-1
    lo = i + 1 if sign > 0 else i
    word.emit(EXPANSION, word.path(), word.params(lo, lo + 3))


def _standardize_moves(word):
    """Unit-letter standardization with move emission: push tree-pair factors
    to the front, cancel adjacent inverse letters, merge equal subscripts,
    expand ordering violations."""
    items = word.items
    while True:
        changed = False
        for i in range(len(items) - 1):
            a, b = items[i], items[i + 1]
            if isinstance(a, TreePair) and isinstance(b, TreePair):
                # merge adjacent tree-pair factors; the path is unaffected
                p = compose(a, b)
                word.splice(i, i + 2, [] if p.is_identity() else [p])
                changed = True
                break
            if _is_y(a) and isinstance(b, TreePair):
                t2 = b.act_on_word(a.sub)
                if t2 is not None:
                    word.splice(i, i + 2, [b, Letter("y", t2, a.exp)])
                    word.spend()
                else:
                    _expand_item(word, i)
                changed = True
                break
            if _is_y(a) and _is_y(b) and a.sub == b.sub and a.exp == -b.exp:
                word.splice(i, i + 2, [])
                word.emit(CANCELLATION, word.path())
                changed = True
                break
        if changed:
            continue
        # merge equal subscripts separated by incompatible y-letters
        found = find_merge(items)
        if found is not None:
            i, j = found
            _commute_to(word, j, i + 1)
            continue
        # ordering: expand a y-letter preceding an extension of its subscript
        i = find_misordered(items)
        if i is None:
            return
        _expand_item(word, i)


def _commute_to(word, src, dst):
    """Move the y-letter at src to index dst by adjacent commuting swaps,
    emitting one move per swap."""
    items = word.items
    step = -1 if dst < src else 1
    k = src
    while k != dst:
        if not incompatible(items[k].sub, items[k + step].sub):
            raise InternalError("tried to commute a compatible pair")
        lo = min(k, k + step)
        word.splice(lo, lo + 2, [items[lo + 1], items[lo]])
        word.emit(COMMUTING, word.path(), word.params(lo, lo + 2))
        k += step


def _remove_cancellations_moves(word):
    while True:
        ys = _merge([it for it in word.items if _is_y(it)])
        found = has_potential_cancellation(ys)
        if found is None:
            return
        target = ys[found[0]].sub
        pos = next(
            k for k, it in enumerate(word.items)
            if _is_y(it) and it.sub == target
        )
        _expand_item(word, pos)
        _standardize_moves(word)


def _sort_moves(word):
    """Bubble-sort the y-letters into lex order by commuting swaps."""
    items = word.items
    start = next((k for k, it in enumerate(items) if _is_y(it)), len(items))
    while True:
        swapped = False
        for k in range(start, len(items) - 1):
            if lex_key(items[k].sub) > lex_key(items[k + 1].sub):
                _commute_to(word, k, k + 1)
                swapped = True
        if not swapped:
            return


def _contract_moves(word, case, s):
    """Bring a contractible triple together by commuting moves and replace
    it by its one-letter equivalent (a reverse expansion)."""
    items = word.items
    triple, repl = contraction(case, s)
    (sub1, sign1), (sub2, sign2), (sub3, sign3) = triple

    def unit_pos(sub, sign, last):
        idx = [
            k
            for k, it in enumerate(items)
            if _is_y(it) and it.sub == sub and it.exp == sign
        ]
        return idx[-1] if last else idx[0]

    # move the middle unit next to the third, then the first next to them
    p3 = unit_pos(sub3, sign3, last=False)
    p2 = unit_pos(sub2, sign2, last=True)
    _commute_to(word, p2, p3 - 1)
    p2 = p3 - 1
    p1 = unit_pos(sub1, sign1, last=True)
    _commute_to(word, p1, p2 - 1)
    base = p2 - 1
    if [(it.sub, it.exp) for it in items[base:base + 3]] != list(triple):
        raise InternalError("contraction triple did not come together")
    params = word.params(base, base + 3)
    word.splice(base, base + 3, repl)
    word.emit(EXPANSION, word.path(), params)
