"""Contraction of edge loops to the trivial loop.

A loop is a closed edge path of coset vertices starting and ending at the
base vertex.  The contraction emits a certificate: a sequence of elementary
moves (split of a diagonal edge, expansion, rearrangement, commuting,
cancellation), each replacing a subpath by a homotopic subpath inside a
cluster, ending at the trivial loop.  Moves that use a cluster record its
parameters, so every move can be re-checked locally from the certificate
alone.

The word being contracted carries the normal form of each of its suffixes.
Every move replaces a window of the word by a word equal to it in the group,
and normal forms are unique, so a move keeps the suffix normal forms outside
its window; only the suffixes starting inside the new window are normalized.
"""

from .binseq import incompatible, lex_key
from .complexes import is_one_cell, quotient, vertex_of
from .rewrite import (
    IDENTITY_NORMAL,
    FToken,
    Letter,
    _is_y,
    _merge,
    contraction,
    expand_unit,
    find_merge,
    find_misordered,
    find_potential_contraction,
    has_potential_cancellation,
    normalize,
)
from .special import from_letters, independent, is_special
from .thompson import InternalError, compose

TRIVIAL = ()

SPLIT = "split"
EXPANSION = "expansion"
REARRANGEMENT = "rearrangement"
COMMUTING = "commuting"
CANCELLATION = "cancellation"

MAX_MOVES = 20_000


def _edge_normal(u, v):
    """The normal form of u * v^-1; its letter part labels the edge from u
    to v and its tree-pair factor realigns the suffix representatives."""
    nf = quotient(u, v)
    if not is_special(from_letters(nf.ys)):
        raise ValueError("consecutive loop vertices are not joined by an edge")
    return nf


class _Word:
    """A loop word and the normal forms of its suffixes: `sfx[k]` is the
    normal form of `items[k:]`, and the last entry is the identity's.

    A move keeps the suffix normal forms outside its window: it replaces the
    window by a word equal to it in the group, and normal forms are unique."""

    def __init__(self, items):
        self.items = []
        self.sfx = [IDENTITY_NORMAL]
        self.splice(0, 0, items)

    def splice(self, lo, hi, new):
        """Replace `items[lo:hi]` by `new`, normalizing the suffixes that
        start inside the new window from right to left."""
        forms = [self.sfx[hi]]
        for item in reversed(new):
            forms.append(normalize([item] + forms[-1].to_items()))
        self.items[lo:hi] = new
        self.sfx[lo:hi] = forms[:0:-1]

    def path(self):
        """Suffix cosets at each percolating letter; the closed path the
        word spells from the base vertex."""
        verts = [nf.ys for it, nf in zip(self.items, self.sfx) if _is_y(it)]
        verts.append(TRIVIAL)
        return verts

    def params(self, lo, hi):
        """The canonical special forms of the letters `items[lo:hi]`, each
        conjugated into the coordinates of the representative of the suffix
        at `hi` by that suffix's tree-pair factor."""
        psi = self.sfx[hi].f
        tail = [] if psi.is_identity() else [FToken(psi)]
        return tuple(from_letters(normalize([lt] + tail).ys)
                     for lt in self.items[lo:hi])


def path_of(items):
    """The closed path a word spells from the base vertex."""
    return _Word(items).path()


class _Contraction(list):
    def emit(self, kind, path, params=None):
        self.append((kind, list(path), params))
        if len(self) > MAX_MOVES:
            raise RuntimeError("loop contraction exceeded the move budget")


def contract_loop(loop):
    """Contract a loop at the base vertex to the trivial loop.  Returns the
    move certificate, beginning with ("start", the input path, None) and
    ending with a path of base vertices only."""
    loop = [tuple(v) for v in loop]
    if len(loop) < 1 or loop[0] != TRIVIAL or loop[-1] != TRIVIAL:
        raise ValueError("loop must start and end at the base vertex")
    normals = [_edge_normal(u, v) for u, v in zip(loop, loop[1:])]
    state = _Contraction()
    state.emit("start", loop)

    # phase 1: split every diagonal edge into single-letter edges; the
    # intermediate vertices are the suffix cosets of the exact loop word
    letters = []
    spans = []
    for nf in normals:
        if not nf.f.is_identity():
            letters.append(FToken(nf.f))
        spans.append((len(letters), len(nf.ys)))
        letters.extend(nf.ys)
    word = _Word(letters)
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
                params = (parts[t], from_letters(normalize(
                    [Letter("y", s, sg) for s, sg in rest]).ys))
                path.insert(pos + 1 + t, fine[pos + 1 + t])
                state.emit(SPLIT, path, params)
        pos += k

    if path_of(word.items) != path:
        raise InternalError("split phase lost track of the path")

    # phase 2: drive the single-letter word to the empty word
    while True:
        _standardize_moves(word, state)
        _remove_cancellations_moves(word, state)
        _sort_moves(word, state)
        ys = [it for it in word.items if _is_y(it)]
        found = find_potential_contraction(_merge(ys))
        if found is None:
            break
        _contract_moves(word, state, *found)
    if any(_is_y(it) for it in word.items):
        raise InternalError("loop word did not reduce inside F")
    return list(state)


def _expand_item(word, state, i):
    """Expand the unit letter at index i into its one-step substitution,
    its x-letter read as a tree-pair factor, and emit the expansion move
    with the cluster parameters at the suffix."""
    lt = word.items[i]
    sign = 1 if lt.exp > 0 else -1
    word.splice(i, i + 1, _merge(expand_unit(lt.sub, sign)))
    # the y-letters of the block follow x_s for y_s and precede x_s^-1
    lo = i + 1 if sign > 0 else i
    state.emit(EXPANSION, word.path(), word.params(lo, lo + 3))


def _standardize_moves(word, state):
    """Unit-letter standardization with move emission: push tree-pair factors
    to the front, cancel adjacent inverse letters, merge equal subscripts,
    expand ordering violations."""
    items = word.items
    while True:
        changed = False
        for i in range(len(items) - 1):
            a, b = items[i], items[i + 1]
            if isinstance(a, FToken) and isinstance(b, FToken):
                # merge adjacent tree-pair factors; the path is unaffected
                p = compose(a.pair, b.pair)
                word.splice(i, i + 2, [] if p.is_identity() else [FToken(p)])
                changed = True
                break
            if _is_y(a) and isinstance(b, FToken):
                t2 = b.pair.act_on_word(a.sub)
                if t2 is not None:
                    word.splice(i, i + 2, [b, Letter("y", t2, a.exp)])
                    state.emit(REARRANGEMENT, word.path())
                else:
                    _expand_item(word, state, i)
                changed = True
                break
            if _is_y(a) and _is_y(b) and a.sub == b.sub and a.exp == -b.exp:
                word.splice(i, i + 2, [])
                state.emit(CANCELLATION, word.path())
                changed = True
                break
        if changed:
            continue
        # merge equal subscripts separated by incompatible y-letters
        found = find_merge(items)
        if found is not None:
            i, j = found
            _commute_to(word, state, j, i + 1)
            continue
        # ordering: expand a y-letter preceding an extension of its subscript
        i = find_misordered(items)
        if i is None:
            return
        _expand_item(word, state, i)


def _commute_to(word, state, src, dst):
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
        state.emit(COMMUTING, word.path(), word.params(lo, lo + 2))
        k += step


def _remove_cancellations_moves(word, state):
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
        _expand_item(word, state, pos)
        _standardize_moves(word, state)


def _sort_moves(word, state):
    """Bubble-sort the y-letters into lex order by commuting swaps."""
    items = word.items
    start = next((k for k, it in enumerate(items) if _is_y(it)), len(items))
    while True:
        swapped = False
        for k in range(start, len(items) - 1):
            if lex_key(items[k].sub) > lex_key(items[k + 1].sub):
                _commute_to(word, state, k, k + 1)
                swapped = True
        if not swapped:
            return


def _contract_moves(word, state, case, s):
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
    _commute_to(word, state, p2, p3 - 1)
    p2 = p3 - 1
    p1 = unit_pos(sub1, sign1, last=True)
    _commute_to(word, state, p1, p2 - 1)
    base = p2 - 1
    if [(it.sub, it.exp) for it in items[base:base + 3]] != list(triple):
        raise InternalError("contraction triple did not come together")
    params = word.params(base, base + 3)
    word.splice(base, base + 3, repl)
    state.emit(EXPANSION, word.path(), params)


# ---------------------------------------------------------------------------
# certificate validation


def _window(p, q):
    a = 0
    while a < len(p) and a < len(q) and p[a] == q[a]:
        a += 1
    b = 0
    while (
        b < len(p) - a and b < len(q) - a and p[len(p) - 1 - b] == q[len(q) - 1 - b]
    ):
        b += 1
    return a, p[a:len(p) - b], q[a:len(q) - b]


def _valid_path(path, checked):
    """Whether consecutive vertices are distinct and joined by a one-cell.
    `checked` holds the pairs that already passed and gains the new ones."""
    for u, v in zip(path, path[1:]):
        if (u, v) not in checked:
            if u == v or not is_one_cell(u, v):
                return False
            checked.add((u, v))
    return True


def _good_params(params):
    if not params or not all(is_special(f) for f in params):
        return False
    for i, f in enumerate(params):
        for g in params[i + 1:]:
            if not independent(f, g):
                return False
    return True


def _corner(params, v):
    word = [Letter("y", s, t) for f in params for s, t in f]
    return vertex_of(word + list(v))


def _facial_ok(params, long_path):
    """Whether the path is the descending facial walk of the cluster over
    its last vertex with the given parameters, one parameter per step."""
    if len(long_path) != len(params) + 1:
        return False
    v = long_path[-1]
    return all(
        _corner(params[j:], v) == long_path[j] for j in range(len(params))
    )


def check_certificate(loop, moves):
    """Re-verify a contraction certificate: the first entry matches the
    loop, each move is locally valid in a cluster given by its recorded
    parameters, and the final path is trivial."""
    loop = [tuple(v) for v in loop]
    if not all(isinstance(m, tuple) and len(m) == 3 for m in moves):
        return False
    if not moves or moves[0][:2] != ("start", loop):
        return False
    checked = set()
    if len(loop) > 1 and not _valid_path(loop, checked):
        return False
    last = moves[-1][1]
    if any(v != TRIVIAL for v in last):
        return False
    for (_, p, _), (kind, q, params) in zip(moves, moves[1:]):
        if q[0] != TRIVIAL or q[-1] != TRIVIAL:
            return False
        if not _valid_path(q, checked):
            return False
        a, wp, wq = _window(p, q)
        if kind == REARRANGEMENT:
            if p != q:
                return False
        elif kind == CANCELLATION:
            if len(wp) != 2 or wq or a < 1 or a + 2 > len(p):
                return False
            if p[a - 1] != p[a + 1]:
                return False
        elif kind == COMMUTING:
            if len(wp) != 1 or len(wq) != 1 or a < 1:
                return False
            if not _good_params(params) or len(params) != 2:
                return False
            u, v = q[a - 1], q[a + 1]
            if _corner(params[:1], v) != wp[0]:
                return False
            if _corner(params[1:], v) != wq[0]:
                return False
            if _corner(params, v) != u:
                return False
        elif kind in (SPLIT, EXPANSION):
            if not _good_params(params):
                return False
            grow = len(params) - 1
            if grow < 1 or (kind == SPLIT and grow != 1):
                return False
            if len(wq) == grow and not wp:
                long, base = q, a
            elif kind == EXPANSION and len(wp) == grow and not wq:
                long, base = p, a
            else:
                return False
            if base < 1:
                return False
            window = long[base - 1:base + grow + 1]
            if not _facial_ok(params, window):
                return False
            # the replaced edge is a 1-cell of the cluster (the diagonal)
            if not is_one_cell(window[0], window[-1]):
                return False
        else:
            return False
    return True
