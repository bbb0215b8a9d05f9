"""Clusters in the coset complex and their cube fillings.

A cluster is the subgraph spanned by all subset-products of a sorted list of
pairwise independent special forms over a basepoint.  Clusters fill to cubes,
possibly subdivided along diagonal hyperplanes, one per consecutive junction
of the parameter list.

A corner is named by the bitmask of its subset A, sum 2^i over i in A, and
sets below are such ints.  Four facts keep the work polynomial in the 2^n
corners:

* Corner recursion.  The corner of a subset A with least index m is
  lambda_m times the corner of A - {m}.  Normal forms are unique, so
  normalizing lambda_m followed by that corner's normal form gives the
  corner exactly, from a word that is normal past its first parameter.
* Interval lemma.  The corners A and B are joined by an edge exactly when
  the parameters indexed by A ^ B, in order and inverted on one side,
  multiply to a special form.  The subscripts of sorted, pairwise
  independent parameters are sorted, and no subscript independent of both
  fits lexicographically between two consecutive leaves, so A ^ B is
  always an index interval [i..j] whose junctions are all consecutive with
  alternating signs.  So a corner's edges take O(n^2) steps, not 2^n tests.
* Conformality.  At a vertex with bitmask A, a cluster's facial edges
  lead to the corners A ^ 2^i; naming edges by their far ends, it
  contributes a corner of the link, a bitmask over the edges there.
  Filled sets of edges are exactly the subsets of corners, so the link is
  flag iff the corners form a conformal hypergraph: every clique of the
  graph "two edges share a corner" lies in one corner.  By Gilmore's
  criterion (1962; Berge, Hypergraphs, 1989) that holds iff, for every
  three corners P, Q and R, the clique P & Q | Q & R | R & P does.
* Face criterion.  The face spanned at a corner A by a mask F has the
  corners A ^ B over B & ~F == 0.  So corners V, v0 among them, form a face
  exactly when the OR of A_v ^ A_v0 over V is an F with |V| = 2^popcount(F);
  a diagonal or an unrelated vertex set fails the count.  Two clusters
  meet in a common face when their shared corners pass the count in both.
  By the interval lemma each holds every ambient edge among those corners,
  so only their bitmasks are read, with no edge test or re-parametrization.
"""

import functools
import itertools
import operator

from .binseq import incompatible
from .rewrite import Letter, inverse_word, normalize, normalize_onto
from .special import (
    check_sorted_forms,
    coset_vertex,
    from_letters,
    invert_form,
    is_special,
    pair_consecutive,
    parity_of,
    to_letters,
    type_of,
)
from .thompson import InternalError, TreePair

FACE = "Face"
DIAGONAL = "Diagonal"
DIAGONAL_OF_FACE = "DiagonalOfFace"

MAX_CELL_DIM = 4


def vertex_of(word):
    """Canonical coset representative of a word: the base vertex map of the
    complex."""
    return coset_vertex(word)


# the quotients that `quotient` keeps and the verdicts that `is_one_cell`
# keeps, one per pair of words.  A `loops` pass of seed 3001 asks 7,751
# quotients of 1,835 distinct pairs
PAIR_QUOTIENT_CACHE_SIZE = 16_384
ONE_CELL_CACHE_SIZE = 16_384


def quotient(u, v):
    """The normal form of u * v^-1 for two words, such as coset
    representatives or the items of a base element, kept per pair."""
    return _quotient(tuple(u), tuple(v))


@functools.lru_cache(maxsize=PAIR_QUOTIENT_CACHE_SIZE)
def _quotient(u, v):
    return normalize(quotient_word(u, v))


def quotient_word(u, v):
    """A word equal to u * v^-1 in the group: the letters of u, then those
    of v inverted, less the letters the two share that commute out.

    A tree-pair factor f that v starts with goes to the end inverted, as
    u (f w)^-1 = u w^-1 f^-1.  Of two y-words, every letter where they
    differ is kept, then every shared letter whose subscript is a prefix
    or an extension of a kept one, until no more is kept.  Each letter of
    the set D of shared letters left is then disjoint from every kept
    letter, and y_a y_b = y_b y_a for disjoint cones a and b.  When D's
    letters stand in the same order in both words, as in two sorted
    normal-form y-parts, moving them to the front gives u = D B and
    v = D C, with B and C the kept letters of each word in order.  So
    u v^-1 = D (B C^-1) D^-1 = B C^-1, because B C^-1 commutes with every
    letter of D.  Words with another item, a repeated letter or D in two
    orders are returned whole."""
    tail = []
    if v and isinstance(v[0], TreePair):
        tail = [v[0].invert()]
        v = v[1:]
    drop = _commuting_shared(u, v)
    return ([lt for lt in u if lt not in drop]
            + inverse_word([lt for lt in v if lt not in drop]) + tail)


def _commuting_shared(u, v):
    """The letters D that `quotient_word` drops from the y-words u and v,
    or the empty set when it drops none."""
    su, sv = set(u), set(v)
    if (len(su) < len(u) or len(sv) < len(v)
            or not all(isinstance(lt, Letter) and lt.kind == "y"
                       for lt in su | sv)):
        return frozenset()
    shared = su & sv
    kept = [lt.sub for lt in su ^ sv]
    while near := {lt for lt in shared
                   if not all(incompatible(lt.sub, s) for s in kept)}:
        shared -= near
        kept += [lt.sub for lt in near]
    if [lt for lt in u if lt in shared] != [lt for lt in v if lt in shared]:
        return frozenset()
    return shared


@functools.lru_cache(maxsize=ONE_CELL_CACHE_SIZE)
def is_one_cell(u, v):
    """Whether two cosets, as vertex tuples, are joined by an edge: their
    quotient must be a special form.  Kept per pair."""
    return u != v and is_special(from_letters(quotient(u, v).ys))


def _concat_forms(forms):
    return [lt for f in forms for lt in to_letters(f)]


def _junctions(params):
    """Whether each junction k of a parameter list is consecutive: the last
    leaf of parameter k and the first leaf of parameter k + 1."""
    return [
        pair_consecutive(a[-1][0], b[0][0]) for a, b in zip(params, params[1:])
    ]


def _bits(mask):
    return [u for u in range(mask.bit_length()) if mask >> u & 1]


class Cluster:
    """The subgraph with vertices F(prod_{i in A} lambda_i) tau over all
    subsets A, together with every edge of the ambient complex among them.

    `base` is the normal form tau.  `corners[mask]` is the corner of the
    subset with bitmask `mask`, and `mask_of` inverts it.  Each corner is
    normalized from the next-smaller one (the corner recursion of the
    module docstring).  `neighbours` reads the edges at one corner;
    `edges` is built on first read only."""

    def __init__(self, base, params):
        self.base = base
        self.params = check_sorted_forms(params)
        self.n = n = len(self.params)
        forms = [base]
        for mask in range(1, 1 << n):
            low = mask & -mask
            word = to_letters(self.params[low.bit_length() - 1])
            forms.append(normalize_onto(word, forms[mask ^ low]))
        self.corners = [g.ys for g in forms]
        self.mask_of = {v: mask for mask, v in enumerate(self.corners)}
        if len(self.mask_of) != 1 << n:
            raise ValueError("cluster vertices are not pairwise distinct")
        self.vertices = frozenset(self.corners)

    @functools.cached_property
    def _same_sign(self):
        # per junction: None unless consecutive, else whether signs agree
        params = self.params
        return [
            a[-1][1] == b[0][1] if joined else None
            for joined, a, b in zip(_junctions(params), params, params[1:])
        ]

    def neighbours(self, mask):
        """The corners joined to the corner `mask` by the interval lemma:
        mask ^ [i..j], extended across junction k when it is consecutive and
        the bits at k and k + 1 differ iff its facing signs agree."""
        same_sign = self._same_sign
        for i in range(self.n):
            other = mask ^ (1 << i)
            yield other
            for k in range(i, self.n - 1):
                if (mask >> k ^ mask >> (k + 1)) & 1 != same_sign[k]:
                    break
                other ^= 1 << (k + 1)
                yield other

    @functools.cached_property
    def edges(self):
        """Every ambient edge among the corners, read at its smaller end."""
        corners = self.corners
        return frozenset(
            frozenset((v, corners[other]))
            for mask, v in enumerate(corners)
            for other in self.neighbours(mask)
            if other > mask
        )

    @property
    def base_vertex(self):
        return self.corners[0]

    def __eq__(self, other):
        return isinstance(other, Cluster) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Cluster({self.n} params, {len(self.vertices)} vertices)"

    def reparametrized(self, subset):
        """The same cluster based at the corner indexed by `subset`, with the
        chosen parameters inverted: a cluster is spanned from each corner."""
        subset = frozenset(subset)
        word = (_concat_forms(self.params[i] for i in sorted(subset))
                + self.base.to_items())
        params = tuple(
            invert_form(f) if i in subset else f
            for i, f in enumerate(self.params)
        )
        out = Cluster(normalize(word), params)
        if out.vertices != self.vertices:
            raise InternalError("reparametrization changed the vertex set")
        return out


def balanced_parametrizations(cluster):
    """The two balanced parametrizations, at the type-1 and type-2 corner
    basepoints respectively; by the paper every cluster has exactly two."""
    if cluster.n == 0:
        return cluster, cluster
    params = cluster.params
    signs = [1]
    for a, b in zip(params, params[1:]):
        signs.append(-signs[-1] * a[-1][1] * b[0][1])
    subset = frozenset(i for i, l in enumerate(signs) if l < 0)
    first = cluster.reparametrized(subset)
    second = cluster.reparametrized(frozenset(range(cluster.n)) - subset)
    if type_of(first.params[0]) == 1:
        return first, second
    return second, first


def a_delta(cluster):
    """The index intervals of chained equalities: singletons plus every
    interval of consecutive parameters; independent of the proper
    parametrization used, as inverting forms keeps their subscripts.  A
    cluster has 2^(n - |K|) edges along each K here."""
    n = cluster.n
    joined = _junctions(cluster.params)
    out = {frozenset((i,)) for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if all(joined[i:j]):
                out.add(frozenset(range(i, j + 1)))
    return frozenset(out)


def subcluster_type(sub, sup):
    """Classify a subcluster as Face, Diagonal, or DiagonalOfFace via the
    blocks of parent parameters its edges span (the paper's trichotomy)."""
    if not isinstance(sub, Cluster) or not isinstance(sup, Cluster):
        raise TypeError("subcluster_type takes clusters")
    if not sub.vertices <= sup.vertices:
        raise ValueError("first argument is not a subcluster of the second")
    base = sup.mask_of[sub.base_vertex]
    blocks = [sup.mask_of[sub.corners[1 << j]] ^ base for j in range(sub.n)]
    if functools.reduce(operator.or_, blocks, 0) == (1 << sup.n) - 1:
        return DIAGONAL
    if all(b.bit_count() == 1 for b in blocks):
        return FACE
    return DIAGONAL_OF_FACE


def intersect_clusters(c1, c2):
    """The intersection of two clusters, as a cluster, or None when they
    share no vertex.  Follows the constructive argument: re-base the first
    cluster at a common vertex, collect the shared edges there, and
    parametrize by the minimal shared-edge blocks.  Re-basing at the corner
    A inverts the parameters in A and moves the corner B to B ^ A, so only
    the new base is normalized."""
    common = c1.vertices & c2.vertices
    if not common:
        return None
    pivot = min(common)
    shift = c1.mask_of[pivot]
    base = normalize(
        _concat_forms(c1.params[i] for i in _bits(shift))
        + c1.base.to_items()
    )
    # c1 holds every ambient edge among the common vertices, so the shared
    # edges at the pivot are c1's edges there
    blocks = [
        other ^ shift for other in c1.neighbours(shift)
        if c1.corners[other] in common
    ]
    minimal = [a for a in blocks
               if not any(b != a and b & ~a == 0 for b in blocks)]
    params = sorted(
        (from_letters(_concat_forms(
            invert_form(c1.params[i]) if shift >> i & 1 else c1.params[i]
            for i in _bits(a)
        )) for a in minimal),
        key=lambda f: f[0][0])
    return Cluster(base, tuple(params))


def meet_in_face(c1, c2):
    """Whether two clusters share a vertex and their graph intersection is a
    face of each, by the face criterion (see the module docstring)."""
    vertices = c1.vertices & c2.vertices
    if not vertices:
        return False
    v0 = next(iter(vertices))
    for c in (c1, c2):
        a0 = c.mask_of[v0]
        free = functools.reduce(
            operator.or_, (c.mask_of[v] ^ a0 for v in vertices))
        if len(vertices) != 1 << free.bit_count():
            return False
    return True


# ---------------------------------------------------------------------------
# cube fillings via the junction hyperplane arrangement

# the relations, in "<=>" order, that a cut allows between its lower and
# upper coordinate for their 0/1/interior statuses
CUT_RELATIONS = {
    ("0", "0"): "=", ("0", "1"): "<", ("0", "*"): "<",
    ("1", "0"): ">", ("1", "1"): "=", ("1", "*"): ">",
    ("*", "0"): ">", ("*", "1"): "<", ("*", "*"): "<=>",
}


class CellComplexPiece:
    """The filled cluster: cells of the unit cube subdivided by the
    hyperplanes z_i = z_{i+1}, one per consecutive junction.  Cells are
    signatures: a 0/1/interior status per coordinate and an order relation
    per cut junction.

    A cut compares only its two neighbouring coordinates, so the cells are
    every status assignment extended by every choice of the relations its
    cuts allow (`CUT_RELATIONS`), in `itertools.product` order.  An '='
    between interior coordinates joins them into one free class, and every
    other '=' is forced between equal pins: a cell's dimension is its count
    of interior coordinates, less its '=' relations, plus its forced ones."""

    def __init__(self, n, cut_junctions):
        self.n = n
        self.cuts = tuple(sorted(cut_junctions))
        self._dims = {}
        for status in itertools.product("01*", repeat=n):
            choices = [CUT_RELATIONS[status[j], status[j + 1]]
                       for j in self.cuts]
            free = status.count("*") + choices.count("=")
            for rels in itertools.product(*choices):
                self._dims[status + rels] = free - rels.count("=")
        self.cells = list(self._dims)

    def dim(self, cell):
        return self._dims[cell]

    def f_vector(self):
        top = max(self._dims.values(), default=0)
        return tuple(
            sum(1 for d in self._dims.values() if d == k)
            for k in range(top + 1)
        )

    def euler_characteristic(self):
        """1: a filling is a subdivided cube (criterion 8)."""
        return sum((-1) ** d for d in self._dims.values())

    def faces_of(self, cell):
        """The proper faces of a cell, in `cells` order: the cells that keep
        its pinned coordinates and, at each cut, its relation or '='."""
        n, faces = self.n, []
        for p in itertools.product(*(s.replace("*", "01*") for s in cell[:n])):
            faces += (p + rels for rels in itertools.product(*(
                [r for r in CUT_RELATIONS[p[j], p[j + 1]] if r in rel + "="]
                for j, rel in zip(self.cuts, cell[n:]))))
        return [face for face in faces if face != cell]

    def vertex_subset(self, cell):
        """The corner subset of a 0-cell: 0-cells are the corners."""
        if self.dim(cell) != 0:
            raise ValueError("not a vertex cell")
        return frozenset(i for i in range(self.n) if cell[i] == "1")


def check_fill_dim(n, max_dim=MAX_CELL_DIM):
    """Refuse to fill a cluster of more than `max_dim` parameters."""
    if n > max_dim:
        raise ValueError("cluster dimension exceeds the configured bound")


def enumerate_cells(cluster, max_dim=MAX_CELL_DIM):
    """Fill the cluster: the cellular decomposition of the n-cube subdivided
    along its consecutive junctions."""
    check_fill_dim(cluster.n, max_dim)
    cuts = [j for j, joined in enumerate(_junctions(cluster.params)) if joined]
    return CellComplexPiece(cluster.n, cuts)


def cluster_orbit_invariant(cluster):
    """Orbit invariant under the group action: computed at the type-1
    balanced basepoint as (leading type, parities, junction consecutiveness).
    Two clusters lie in one orbit exactly when the invariants agree
    (criterion 9).  That
    basepoint leads with type 1 by construction, and its parameters are the
    cluster's own, some inverted, which keeps lengths and subscripts."""
    params = cluster.params
    return (
        1 if params else 0,
        tuple(parity_of(f) for f in params),
        tuple(_junctions(params)),
    )


def maximal_cliques(adj):
    """Maximal cliques, as bitmasks, of the graph whose node u has the
    neighbour bitmask adj[u] (the empty clique when there are no nodes):
    Bron-Kerbosch with pivoting (CACM Algorithm 457, 1973), branching only
    on candidates outside the neighbourhood of the candidate-richest pivot."""

    def expand(clique, cand, done):
        if not cand:
            if not done:
                yield clique
            return
        pivot = max(
            _bits(cand | done), key=lambda u: (adj[u] & cand).bit_count()
        )
        for u in _bits(cand & ~adj[pivot]):
            bit = 1 << u
            yield from expand(clique | bit, cand & adj[u], done & adj[u])
            cand &= ~bit
            done |= bit

    yield from expand(0, (1 << len(adj)) - 1, 0)


def link_flag_check(clusters, vertex):
    """Gromov flag condition at a vertex of a union of filled clusters:
    every pairwise-filled set of corner edges must itself span a cluster
    corner in the piece.  Returns (True, None) or (False, witness edges).

    Filled sets are the subsets of corners, so by Gilmore's criterion (see
    the module docstring) the clique of edges that two of three corners
    share must lie in one corner.  The witness is a minimal unfilled subset
    of the first clique that does not: each of its proper subsets is
    filled, so it has at least three edges."""
    clusters = [c for c in clusters if vertex in c.vertices]
    if len(clusters) < 3:
        # the criterion's degenerate case: there are no three corners
        return True, None
    # each facial edge {vertex, w} is named by its far end w, indexed in
    # the order first seen
    index, masks = {}, []
    for cluster in clusters:
        at = cluster.mask_of[vertex]
        masks.append(sum(
            1 << index.setdefault(cluster.corners[at ^ 1 << i], len(index))
            for i in range(cluster.n)))

    def filled(subset):
        return any(subset & ~m == 0 for m in masks)

    for a, b, c in itertools.combinations(masks, 3):
        clique = a & b | b & c | c & a
        if filled(clique):
            continue
        for u in _bits(clique):
            if not filled(clique & ~(1 << u)):
                clique &= ~(1 << u)
        nodes = list(index)
        return False, frozenset(
            frozenset((vertex, nodes[u])) for u in _bits(clique))
    return True, None
