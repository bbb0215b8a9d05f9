"""Rescan-to-fixpoint versions of canonical-form routines, kept as test
oracles.

These are the versions the library used before each became a single
left-to-right pass: tree-pair reduction, the canonical antichain of a cone
set, the minimal special form, `act_f`, and the feasibility, dimension and
vertex subset of a cube-cell signature (a union-find over the '=' cuts and a
cycle search over the strict order they leave, tried on every signature,
where the library makes only the feasible ones).  Each changes one thing and
rescans from the start until nothing changes, so its answer does not depend
on the order the single pass relies on.  The faces of a cell come from a
scan that tests every cell against the cell's closure, where the library
makes only the faces.

`_refine_letters`, `_merge_blocks` and `_deep_singles` are the letter
expansions and the block merge of decoupling and separation as they were
before `special.split_while`: the first two rescan every cross pair, or
restart from the first sequence, after each expansion or merge; the third
rescans from the first letter.

`compose` is the tree-pair composition before it became a merge: it tests
every pair of leaves for compatibility, and then finds the two leaves above
each leaf of the common refinement by a linear scan, so it needs no sorted
order either.
"""

import itertools

from cantorg.binseq import incompatible, lex_key
from cantorg.complexes import CellComplexPiece
from cantorg.special import (
    MAX_ROUNDS,
    cancellation_free,
    check_special,
    contract_at,
    descends,
)
from cantorg.thompson import InternalError, TreePair, expand_letter


def reduce_pair(domain, rng):
    domain, rng = list(domain), list(rng)
    changed = True
    while changed:
        changed = False
        for i in range(len(domain) - 1):
            d0, d1 = domain[i], domain[i + 1]
            r0, r1 = rng[i], rng[i + 1]
            if (
                d0[:-1] == d1[:-1]
                and d0.endswith("0")
                and r0[:-1] == r1[:-1]
                and r0.endswith("0")
            ):
                domain[i:i + 2] = [d0[:-1]]
                rng[i:i + 2] = [r0[:-1]]
                changed = True
                break
    return tuple(domain), tuple(rng)


def canonical_cones(words):
    cones = set(words)
    changed = True
    while changed:
        changed = False
        # absorb cones contained in another cone
        for a in sorted(cones, key=len):
            for b in cones:
                if a != b and a.startswith(b):
                    cones.discard(a)
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue
        # merge sibling cones
        for a in cones:
            if a.endswith("0") and a[:-1] + "1" in cones:
                cones.discard(a)
                cones.discard(a[:-1] + "1")
                cones.add(a[:-1])
                changed = True
                break
    return tuple(sorted(cones, key=lex_key))


def minimal_form(form):
    """Contract to the fixpoint; the unique minimal representative of the
    coset of the form."""
    form = check_special(form)
    changed = True
    while changed:
        changed = False
        for i in range(len(form) - 2):
            try:
                form = contract_at(form, i)
            except ValueError:
                continue
            changed = True
            break
    return form


def act_f(form, f):
    """The special form with subscripts carried through a tree pair, after
    expanding letters the pair does not yet act on.  Realizes right
    multiplication of the coset by the pair."""
    form = check_special(form)
    if not isinstance(f, TreePair):
        raise TypeError("act_f takes a tree pair")
    work = list(form)
    progress = True
    while progress:
        progress = False
        for i, (s, t) in enumerate(work):
            if f.act_on_word(s) is None:
                work[i:i + 1] = list(expand_letter(s, t))
                progress = True
                break
    return tuple((f.act_on_word(s), t) for s, t in work)


class FixpointCellComplexPiece(CellComplexPiece):
    """The cube filling with its cells decided by a union-find over the '='
    cuts and a cycle search over the strict order digraph, testing every
    one of the 3^(n+k) signatures of n coordinates and k cuts."""

    def __init__(self, n, cut_junctions):
        self.n = n
        self.cuts = tuple(sorted(cut_junctions))
        self.cells = [
            sig
            for sig in itertools.product(
                *(["01*"] * n + ["<=>"] * len(self.cuts))
            )
            if self._feasible(sig)
        ]
        self._dims = {sig: self._dimension(sig) for sig in self.cells}

    def _classes(self, sig):
        # union-find over coordinates joined by '=' at cut junctions
        parent = list(range(self.n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for j, rel in zip(self.cuts, sig[self.n:]):
            if rel == "=":
                parent[find(j)] = find(j + 1)
        return find

    def _feasible(self, sig):
        find = self._classes(sig)
        pin = {}
        for i, st in enumerate(sig[: self.n]):
            root = find(i)
            if st in "01":
                if pin.get(root, st) != st:
                    return False
                pin[root] = st
            else:
                if pin.get(root) in ("0", "1"):
                    return False
                pin[root] = None
        # strict order digraph over class roots plus the constants
        edges = set()
        roots = {find(i) for i in range(self.n)}
        for r in roots:
            if pin.get(r) is None:
                edges.add(("0", r))
                edges.add((r, "1"))
        edges.add(("0", "1"))
        for j, rel in zip(self.cuts, sig[self.n:]):
            if rel == "=":
                continue
            a, b = find(j), find(j + 1)
            if rel == ">":
                a, b = b, a
            a = pin[a] if pin.get(a) is not None else a
            b = pin[b] if pin.get(b) is not None else b
            if a == b:
                return False
            edges.add((a, b))
        # cycle detection
        nodes = {x for e in edges for x in e}
        succ = {x: [] for x in nodes}
        for a, b in edges:
            succ[a].append(b)
        state = {}

        def cyclic(x):
            state[x] = 1
            for y in succ[x]:
                if state.get(y) == 1:
                    return True
                if y not in state and cyclic(y):
                    return True
            state[x] = 2
            return False

        return not any(x not in state and cyclic(x) for x in nodes)

    def _dimension(self, sig):
        find = self._classes(sig)
        free = set()
        for i, st in enumerate(sig[: self.n]):
            if st == "*":
                free.add(find(i))
        return len(free)

    def vertex_subset(self, cell):
        """The corner subset of a 0-cell."""
        if self.dim(cell) != 0:
            raise ValueError("not a vertex cell")
        find = self._classes(cell)
        pin = {}
        for i, st in enumerate(cell[: self.n]):
            if st in "01":
                pin[find(i)] = st
        return frozenset(
            i for i in range(self.n) if pin[find(i)] == "1"
        )

    def is_face(self, c1, c2):
        """Whether cell c1 lies in the closure of cell c2: it keeps every
        fixed coordinate of c2, and each cut relation of c2 or equality."""
        n = self.n
        return all(b == "*" or a == b for a, b in zip(c1[:n], c2[:n])) and all(
            r1 in (r2, "=") for r1, r2 in zip(c1[n:], c2[n:]))

    def faces_of(self, cell):
        """The proper faces of a cell, found by testing every cell."""
        return [c for c in self.cells if c != cell and self.is_face(c, cell)]


def compose(f, g):
    """The pair acting as f followed by g (right-action order)."""
    common = {
        (a if len(a) >= len(b) else b)
        for a in f.range
        for b in g.domain
        if not incompatible(a, b)
    }
    doms, rngs = [], []
    for e in sorted(common):
        i = next(i for i, r in enumerate(f.range) if e.startswith(r))
        j = next(j for j, d in enumerate(g.domain) if e.startswith(d))
        doms.append(f.domain[i] + e[len(f.range[i]):])
        rngs.append(g.range[j] + e[len(g.domain[j]):])
    return TreePair(doms, rngs)


def _refine_letters(seqs):
    """Expand letters across the sequences until every cross pair of
    distinct letters is free of descendant relations.  Always expanding the
    globally shallowest coupled letter keeps the round count finite:
    freeness of a pair is inherited by the children, and the gap along the
    unique descending branch shrinks each round."""
    for _ in range(MAX_ROUNDS):
        best = None
        for i, a_seq in enumerate(seqs):
            for j, b_seq in enumerate(seqs):
                if i == j:
                    continue
                for ai, a in enumerate(a_seq):
                    for b in b_seq:
                        if a != b and descends(a, b):
                            key = (len(a[0]), a[0], a[1], i, ai)
                            if best is None or key < best:
                                best = key
        if best is None:
            return
        _, sub, sign, i, ai = best
        seqs[i][ai:ai + 1] = list(expand_letter(sub, sign))
    raise InternalError("letter refinement did not terminate")


def _merge_blocks(blocks_by_cell):
    """Greedily merge adjacent blocks within each sequence while every
    merged block stays cancellation free from all blocks of the other
    sequences.  Blocks of a single sequence occupy incompatible cones, so
    they never constrain each other."""
    changed = True
    while changed:
        changed = False
        for i, blocks in enumerate(blocks_by_cell):
            for k in range(len(blocks) - 1):
                cand = blocks[k] + blocks[k + 1]
                others = [b for j, bl in enumerate(blocks_by_cell)
                          if j != i for b in bl]
                if all(cancellation_free(cand, o) for o in others):
                    blocks[k:k + 2] = [cand]
                    changed = True
                    break
            if changed:
                break


def _deep_singles(cell, supports):
    """Single-letter decomposition of the parameter, expanded until no
    letter cone strictly contains a cone of any support; every letter is
    then inside or disjoint from each support."""
    letters = list(cell.form)
    for _ in range(MAX_ROUNDS):
        idx = None
        for i, (s, _) in enumerate(letters):
            if any(
                len(u) > len(s) and u.startswith(s)
                for sup in supports
                for u in sup.cones
            ):
                idx = i
                break
        if idx is None:
            return letters
        s, t = letters[idx]
        letters[idx:idx + 1] = list(expand_letter(s, t))
    raise InternalError("support unwinding did not terminate")
