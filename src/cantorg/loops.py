"""Contraction of edge loops to the trivial loop.

A loop is a closed edge path of coset vertices starting and ending at the
base vertex.  The contraction emits a certificate: a sequence of elementary
moves (split of a diagonal edge, expansion, commuting, cancellation), each
replacing a subpath by a homotopic subpath inside a cluster, ending at the
trivial loop.  Moves that use a cluster record its parameters, so every
move can be re-checked locally from the certificate alone.  After the start
loop, the check re-derives only a reversed expansion's new edge; each other
move proves its new edges one-cells from its parameters
(`check_certificate`).

Once the diagonal edges are split, `normalize`'s cancellation pass
(`rewrite.remove_potential_cancellations`) drives the loop word to the
empty word.  A `_Word` holds unit letters: each rewrite is a splice that
records its move, and a commute is a run of adjacent swaps, one move each.

The word carries the normal form of each of its suffixes.  Every move
replaces a window of the word by a word equal to it in the group, and
normal forms are unique, so a move keeps the suffix normal forms outside
its window; only the suffixes starting inside the new window are
normalized.
"""

from .binseq import incompatible
from .complexes import is_one_cell, quotient
from .rewrite import (
    CANCELLATION,
    COMMUTING,
    EXPANSION,
    IDENTITY_NORMAL,
    GNormal,
    Letter,
    _is_y,
    normalize,
    normalize_onto,
    remove_potential_cancellations,
)
from .special import from_letters, independent, is_special, to_letters
from .thompson import InternalError

TRIVIAL = ()

SPLIT = "split"

MAX_MOVES = 20_000


def _edge_normal(u, v):
    """The normal form of u * v^-1; its letter part labels the edge from u
    to v and its tree-pair factor realigns the suffix representatives."""
    if not is_one_cell(u, v):
        raise ValueError("consecutive loop vertices are not joined by an edge")
    return quotient(u, v)


class _Word:
    """A loop word, the normal forms of its suffixes and its certificate:
    `sfx[k]` is the normal form of `items[k:]`, the last one the identity's.
    `moves` holds the moves; `spent`, bounded by `MAX_MOVES`, counts them
    and each factor moved past a y-letter, which moves no vertex.

    A move keeps the suffix normal forms outside its window: it replaces the
    window by a word equal to it in the group, and normal forms are unique."""

    def __init__(self, items):
        self.items, self.sfx = [], [IDENTITY_NORMAL]
        self.moves, self.spent = [], 0
        self.splice(0, 0, items)

    def splice(self, lo, hi, new):
        """Replace `items[lo:hi]` by `new`, normalizing the suffixes that
        start inside the new window from right to left."""
        forms = [self.sfx[hi]]
        for item in reversed(new):
            forms.append(normalize_onto((item,), forms[-1]))
        self.items[lo:hi] = new
        self.sfx[lo:hi] = forms[:0:-1]

    def rewrite(self, lo, hi, new, move=None, window=None):
        """Splice, record the move with the window's parameters, return lo."""
        self.splice(lo, hi, new)
        if move is not None:
            params = None if window is None else self.params(*window)
            self.emit(move, self.path(), params)
        elif any(map(_is_y, new)):  # a factor moved past a y-letter
            self.spend()
        return lo

    def emit(self, kind, path, params=None):
        self.moves.append((kind, list(path), params))
        self.spend()

    def spend(self):
        self.spent += 1
        if self.spent > MAX_MOVES:
            raise RuntimeError(
                f"loop contraction exceeded the move budget: on a loop of "
                f"{len(self.moves[0][1])} vertices it spent {self.spent:,} "
                f"steps and recorded {len(self.moves):,} of them")

    def commute(self, src, dst):
        """Move the y-letter at src left to dst by adjacent swaps, one
        commuting move each; returns dst."""
        items = self.items
        for k in range(src, dst, -1):
            if not incompatible(items[k - 1].sub, items[k].sub):
                raise InternalError("tried to commute a compatible pair")
            self.rewrite(k - 1, k + 1, [items[k], items[k - 1]], COMMUTING,
                         (k - 1, k + 1))
        return dst

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
        psi = GNormal(self.sfx[hi].f, ())
        return tuple(from_letters(normalize_onto((lt,), psi).ys)
                     for lt in self.items[lo:hi])


def path_of(items):
    """The closed path a word spells from the base vertex, one edge per
    unit letter: a y-letter power is read as that many units."""
    units = []
    for it in items:
        if _is_y(it) and abs(it.exp) > 1:
            sign = 1 if it.exp > 0 else -1
            units.extend([Letter("y", it.sub, sign)] * abs(it.exp))
        else:
            units.append(it)
    return _Word(units).path()


def contract_loop(loop):
    """Contract a loop at the base vertex to the trivial loop.  Returns the
    move certificate, beginning with ("start", the input path, None) and
    ending with a path of base vertices only.

    The loop word spells a closed path at the base vertex, so it is an
    element of F, and removing its potential cancellations leaves no
    y-letter: at a point of a deepest cone, the calculation of a
    cancellation-free standard form with a y-letter has a positive
    exponent (Lodha-Moore), so near that point the word does not act by
    prefix replacement, as an element of F does.  So the loop word needs
    no sorting and no contraction."""
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
                params = (parts[t], from_letters(normalize(
                    [Letter("y", s, sg) for s, sg in rest]).ys))
                path.insert(pos + 1 + t, fine[pos + 1 + t])
                word.emit(SPLIT, path, params)
        pos += k

    if fine != path:
        raise InternalError("split phase lost track of the path")

    # phase 2: drive the single-letter word to the empty word
    remove_potential_cancellations(word)
    if any(_is_y(it) for it in word.items):
        raise InternalError("loop word did not reduce inside F")
    return word.moves


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


def _good_params(params):
    if not params or not all(is_special(f) for f in params):
        return False
    for i, f in enumerate(params):
        for g in params[i + 1:]:
            if not independent(f, g):
                return False
    return True


def _over(form, g):
    """The normal form of the letters of a form times the normal form g.
    A vertex is taken onto the identity the same way, so it need not be a
    coset vertex; when it is one, each of its letters merges on the fast
    path."""
    return normalize_onto(to_letters(form), g)


def _facial_ok(params, long_path, g):
    """Whether the path is the descending facial walk of the cluster over
    its last vertex, whose normal form is g, with the given parameters, one
    parameter per step: the corner of `params[j:]` is the j-th vertex."""
    if len(long_path) != len(params) + 1:
        return False
    for j in reversed(range(len(params))):
        g = _over(params[j], g)
        if g.ys != long_path[j]:
            return False
    return True


def check_certificate(loop, moves):
    """Re-verify a contraction certificate: the first entry is ("start",
    loop, None), each move is locally valid in a cluster given by its
    recorded parameters, and the final path is trivial.  A move is a split,
    an expansion, a commuting or a cancellation; each changes its path.

    Every path starts and ends at the base vertex, and the start loop is
    checked edge by edge.  A later path q differs from the path p before it
    only in the window `_window` finds, so its edges outside the window are
    edges of p, and each move's own check proves its new edges one-cells.
    A cancellation's new edge (p[a-1], p[a+2]) is the edge (p[a+1], p[a+2])
    of p.  A commuting move, a split and an expansion with q long walk q's
    window facially (`_facial_ok`), one special parameter over a vertex per
    step.  A special form lies outside F, so it moves every coset vertex,
    and the ends of such a step span a one-cell (`pipeline.ParamCell`).  An
    expansion with p long leaves one new edge, its diagonal, which
    `is_one_cell` checks."""
    loop = [tuple(v) for v in loop]
    if not all(isinstance(m, tuple) and len(m) == 3 for m in moves):
        return False
    if not moves or moves[0] != ("start", loop, None):
        return False
    if not all(is_one_cell(u, v) for u, v in zip(loop, loop[1:])):
        return False
    if any(not path or path[0] != TRIVIAL or path[-1] != TRIVIAL
           for _, path, _ in moves):
        return False
    if any(v != TRIVIAL for v in moves[-1][1]):
        return False
    for (_, p, _), (kind, q, params) in zip(moves, moves[1:]):
        a, wp, wq = _window(p, q)  # a >= 1: p and q share the base vertex
        if kind == CANCELLATION:
            if len(wp) != 2 or wq:
                return False
            if p[a - 1] != p[a + 1]:
                return False
        elif kind == COMMUTING:
            if len(wp) != 1 or len(wq) != 1:
                return False
            if not _good_params(params) or len(params) != 2:
                return False
            g = normalize_onto(q[a + 1], IDENTITY_NORMAL)
            if not _facial_ok(params, q[a - 1:a + 2], g):
                return False
            if _over(params[0], g).ys != wp[0]:
                return False
        elif kind in (SPLIT, EXPANSION):
            if not _good_params(params):
                return False
            grow = len(params) - 1
            if grow < 1 or (kind == SPLIT and grow != 1):
                return False
            if len(wq) == grow and not wp:
                long = q
            elif kind == EXPANSION and len(wp) == grow and not wq:
                long = p
            else:
                return False
            window = long[a - 1:a + grow + 1]
            g = normalize_onto(window[-1], IDENTITY_NORMAL)
            if not _facial_ok(params, window, g):
                return False
            # a reversed expansion's one new edge is its window's diagonal
            if long is p and not is_one_cell(window[0], window[-1]):
                return False
        else:
            return False
    return True
