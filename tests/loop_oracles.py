"""Loop paths and cluster parameters computed from scratch, kept as test
oracles.

These are the versions `loops` used before the contracted word carried the
normal forms of its suffixes: `path_of` normalizes every suffix of the word
on its own, and the parameters of a window are its letters conjugated by the
tree-pair factor of the tail's own normal form.  The library's `loops._Word`
normalizes, after each move, only the suffixes inside the move's window.
"""

from cantorg.complexes import vertex_of
from cantorg.loops import TRIVIAL
from cantorg.rewrite import FToken, _is_y, normalize
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
        items.append(FToken(psi))
    return from_letters(normalize(items).ys)


def params(items, lo, hi):
    """The cluster parameters of the letters `items[lo:hi]` over the tail
    `items[hi:]`."""
    psi = _tail_pair(items[hi:])
    return tuple(_conj_form(c, psi) for c in items[lo:hi])
