"""Loop paths, cluster parameters and certificate checks computed from
scratch, kept as test oracles.

These are the versions `loops` used before the contracted word carried the
normal forms of its suffixes: `path_of` normalizes every suffix of the word
on its own, and the parameters of a window are its letters conjugated by the
tree-pair factor of the tail's own normal form.  The library's `loops._Word`
normalizes, after each move, only the suffixes inside the move's window.

`check_certificate` is the check from before each move's edges were checked
in its window only: it checks every edge of every path, and normalizes each
corner from its whole word.
"""

from cantorg.complexes import is_one_cell, vertex_of
from cantorg.loops import (
    CANCELLATION,
    COMMUTING,
    EXPANSION,
    SPLIT,
    TRIVIAL,
    _good_params,
    _window,
)
from cantorg.rewrite import Letter, _is_y, normalize
from cantorg.special import from_letters


def path_of(items):
    """Suffix cosets of a word at each percolating letter; the closed path
    the word spells from the base vertex."""
    verts = [
        vertex_of(items[i:]) for i, it in enumerate(items) if _is_y(it)
    ]
    verts.append(TRIVIAL)
    return verts


def _tail_pair(tail):
    """The tree-pair factor aligning a word suffix with the canonical
    representative of its coset."""
    return normalize(list(tail)).f


def _conj_form(letter, psi):
    """The canonical special form of a single letter conjugated into the
    coordinates of the suffix representative."""
    items = [letter]
    if not psi.is_identity():
        items.append(psi)
    return from_letters(normalize(items).ys)


def params(items, lo, hi):
    """The cluster parameters of the letters `items[lo:hi]` over the tail
    `items[hi:]`."""
    psi = _tail_pair(items[hi:])
    return tuple(_conj_form(c, psi) for c in items[lo:hi])


def _valid_path(path):
    return all(is_one_cell(u, v) for u, v in zip(path, path[1:]))


def _corner(params, v):
    word = [Letter("y", s, t) for f in params for s, t in f]
    return normalize(word + list(v)).ys


def _facial_ok(params, long_path):
    if len(long_path) != len(params) + 1:
        return False
    v = long_path[-1]
    return all(
        _corner(params[j:], v) == long_path[j] for j in range(len(params))
    )


def check_certificate(loop, moves):
    """Every path of the certificate joined by one-cells, and each move
    valid in the cluster of its recorded parameters."""
    loop = [tuple(v) for v in loop]
    if not all(isinstance(m, tuple) and len(m) == 3 for m in moves):
        return False
    if not moves or moves[0] != ("start", loop, None):
        return False
    if not _valid_path(loop):
        return False
    if any(v != TRIVIAL for v in moves[-1][1]):
        return False
    for (_, p, _), (kind, q, params) in zip(moves, moves[1:]):
        if q[0] != TRIVIAL or q[-1] != TRIVIAL or not _valid_path(q):
            return False
        a, wp, wq = _window(p, q)
        if kind == CANCELLATION:
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
            if (_corner(params[:1], v) != wp[0]
                    or _corner(params[1:], v) != wq[0]
                    or _corner(params, v) != u):
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
            if not is_one_cell(window[0], window[-1]):
                return False
        else:
            return False
    return True
