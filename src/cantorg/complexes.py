"""Clusters in the coset complex and their cube fillings.

A cluster is the subgraph spanned by all subset-products of a sorted list of
pairwise independent special forms over a basepoint.  Clusters fill to cubes,
possibly subdivided along diagonal hyperplanes, one per consecutive junction
of the parameter list.

Four facts keep the work polynomial in the 2^n corners:

* Corner recursion.  The corner of a subset A with least index m is
  lambda_m times the corner of A - {m}.  Normal forms are unique, so
  normalizing lambda_m followed by that corner's normal form gives the
  corner exactly, from a word that is normal past its first parameter.
* Interval lemma.  The corners indexed by subsets A and B are joined by an
  edge exactly when the parameters indexed by A ^ B, in order and inverted
  on one side, multiply to a special form.  The subscripts of sorted,
  pairwise independent parameters are sorted, and no subscript independent
  of both fits lexicographically between two consecutive leaves, so A ^ B
  is always an index interval [i..j] whose junctions are all consecutive
  with alternating signs.  Edges are generated as corners x intervals in
  O(2^n * n) steps instead of testing all C(2^n, 2) corner pairs.
* Clique criterion.  At a vertex of a union of filled clusters, each
  cluster contributes a corner (its facial edges there), and filled sets
  of edges are exactly the subsets of corners, so they are closed
  downward.  The link is flag iff every maximal clique of the graph "two
  edges share a corner" lies in one corner.  Maximal cliques come from
  Bron-Kerbosch with pivoting (CACM Algorithm 457, 1973): at most
  3^(m/3) of them for m edges at the vertex, each tested against the k
  corners as bitmasks, instead of the 2^m subsets of a scan.
* Face criterion.  A face is spanned at a corner A by a subset F of the
  parameters; its corners are A ^ B over B <= F.  So corners V, v0 among
  them, form a face exactly when the sets A_v ^ A_v0 over V have a union F
  with |V| = 2^|F|; a diagonal or an unrelated vertex set fails the count.
  Two clusters meet in a common face when their shared corners pass the
  count in both.  By the interval lemma each holds every ambient edge
  among those corners, so their shared edges need no test: only the
  corner indices are read, with no re-parametrization.
"""

import functools
import itertools

from .rewrite import GNormal, normalize, inverse_word
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
from .thompson import InternalError

FACE = "Face"
DIAGONAL = "Diagonal"
DIAGONAL_OF_FACE = "DiagonalOfFace"

MAX_CELL_DIM = 4


def vertex_of(word):
    """Canonical coset representative of a word: the base vertex map of the
    complex."""
    return coset_vertex(word)


def quotient(u, v):
    """The normal form of u * v^-1 for two words, such as coset
    representatives or the items of a base element."""
    return normalize(list(u) + inverse_word(list(v)))


def quotient_form(u, v):
    """The y-part of u * v^-1 for two coset representatives."""
    return quotient(u, v).ys


def is_one_cell(u, v):
    """Whether two cosets are joined by an edge: their quotient must be a
    special form."""
    if u == v:
        return False
    return is_special(from_letters(quotient_form(u, v)))


def _concat_forms(forms):
    return [lt for f in forms for lt in to_letters(f)]


def _junctions(params):
    """Whether each junction k of a parameter list is consecutive: the last
    leaf of parameter k and the first leaf of parameter k + 1."""
    return [
        pair_consecutive(a[-1][0], b[0][0]) for a, b in zip(params, params[1:])
    ]


class Cluster:
    """The subgraph with vertices F(prod_{i in A} lambda_i) tau over all
    subsets A, together with every edge of the ambient complex among them.

    Building it normalizes each corner from the next-smaller one (the corner
    recursion of the module docstring).  The edges are generated on first
    read of `edges`; the corner indices already decide every edge question,
    so the cubulation never reads them."""

    def __init__(self, base, params):
        if not isinstance(base, GNormal):
            base = normalize(list(base))
        self.base = base
        self.params = check_sorted_forms(params)
        self.n = n = len(self.params)
        forms = [base]
        for mask in range(1, 1 << n):
            low = mask & -mask
            word = to_letters(self.params[low.bit_length() - 1])
            forms.append(normalize(word + forms[mask ^ low].to_items()))
        corners = [g.ys for g in forms]
        if len(set(corners)) != 1 << n:
            raise ValueError("cluster vertices are not pairwise distinct")
        self._by_subset = {
            frozenset(i for i in range(n) if mask >> i & 1): v
            for mask, v in enumerate(corners)
        }
        self._subset_of = {v: a for a, v in self._by_subset.items()}
        self.vertices = frozenset(corners)

    @functools.cached_property
    def edges(self):
        """Every ambient edge among the corners, by the interval lemma: a
        corner A and an index interval [i..j], emitted once, from the end
        with i outside A.  The interval extends across junction k exactly
        when its leaves are consecutive (`same_sign` is None otherwise) and
        A's bits at k and k + 1 differ iff the facing signs agree, so that
        the signs alternate once A inverts the parameters it does not hold."""
        n, params = self.n, self.params
        # the corners in bitmask order: bit i set when parameter i is chosen
        corners = list(self._by_subset.values())
        same_sign = [
            a[-1][1] == b[0][1] if joined else None
            for joined, a, b in zip(_junctions(params), params, params[1:])
        ]
        edges = []
        for mask, v in enumerate(corners):
            for i in range(n):
                if mask >> i & 1:
                    continue
                other = mask ^ (1 << i)
                edges.append(frozenset((v, corners[other])))
                for k in range(i, n - 1):
                    if (mask >> k ^ mask >> (k + 1)) & 1 != same_sign[k]:
                        break
                    other ^= 1 << (k + 1)
                    edges.append(frozenset((v, corners[other])))
        return frozenset(edges)

    def vertex(self, subset):
        return self._by_subset[frozenset(subset)]

    def subset_of(self, vertex):
        return self._subset_of.get(vertex)

    @property
    def base_vertex(self):
        return self._by_subset[frozenset()]

    def __eq__(self, other):
        return isinstance(other, Cluster) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Cluster({self.n} params, {len(self.vertices)} vertices)"

    def reparametrized(self, subset):
        """The same cluster based at the corner indexed by `subset`, with the
        chosen parameters inverted."""
        subset = frozenset(subset)
        word = _concat_forms(
            self.params[i] for i in sorted(subset)
        ) + self.base.to_items()
        params = tuple(
            invert_form(f) if i in subset else f
            for i, f in enumerate(self.params)
        )
        out = Cluster(normalize(word), params)
        if out.vertices != self.vertices:
            raise InternalError("reparametrization changed the vertex set")
        return out

    def facial_edges_at(self, vertex):
        """The edges at a vertex along single parameters, intervals [i..i]."""
        a = self.subset_of(vertex)
        if a is None:
            raise ValueError("not a vertex of the cluster")
        return frozenset(
            frozenset((vertex, self.vertex(a ^ {i}))) for i in range(self.n))


def is_balanced(params):
    """Whether the parameter list has alternating signs across junctions."""
    return all(
        a[-1][1] == -b[0][1] for a, b in zip(params, params[1:])
    )


def is_proper(params):
    """Consecutive junctions must alternate in sign."""
    return all(
        a[-1][1] == -b[0][1]
        for joined, a, b in zip(_junctions(params), params, params[1:])
        if joined
    )


def balanced_parametrizations(cluster):
    """The two balanced parametrizations, at the type-1 and type-2 corner
    basepoints respectively."""
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
    parametrization used."""
    params = balanced_parametrizations(cluster)[0].params
    n = len(params)
    joined = _junctions(params)
    out = {frozenset((i,)) for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if all(joined[i:j]):
                out.add(frozenset(range(i, j + 1)))
    return frozenset(out)


def subcluster_type(sub, sup):
    """Classify a subcluster as Face, Diagonal, or DiagonalOfFace via the
    blocks of parent parameters its edges span."""
    if not isinstance(sub, Cluster) or not isinstance(sup, Cluster):
        raise TypeError("subcluster_type takes clusters")
    if not sub.vertices <= sup.vertices:
        raise ValueError("first argument is not a subcluster of the second")
    base = sup.subset_of(sub.base_vertex)
    blocks = [sup.subset_of(sub.vertex({j})) ^ base for j in range(sub.n)]
    union = frozenset().union(*blocks)
    if union == frozenset(range(sup.n)):
        return DIAGONAL
    if all(len(c) == 1 for c in blocks):
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
    shift = c1.subset_of(pivot)
    base = normalize(
        _concat_forms(c1.params[i] for i in sorted(shift))
        + c1.base.to_items()
    )
    # c1 holds every ambient edge among the common vertices, so the shared
    # edges are c1's edges there
    shared = [e for e in c1.edges if pivot in e and e <= common]
    if not shared:
        return Cluster(base, ())
    blocks = [
        c1.subset_of(next(v for v in e if v != pivot)) ^ shift
        for e in shared
    ]
    minimal = [ca for ca in blocks if not any(cb < ca for cb in blocks)]
    params = []
    for ca in minimal:
        form = from_letters(_concat_forms(
            invert_form(c1.params[i]) if i in shift else c1.params[i]
            for i in sorted(ca)
        ))
        params.append(form)
    params.sort(key=lambda f: f[0][0])
    return Cluster(base, tuple(params))


def meet_in_face(c1, c2):
    """Whether two clusters share a vertex and their graph intersection is a
    face of each, by the face criterion (see the module docstring)."""
    vertices = c1.vertices & c2.vertices
    if not vertices:
        return False
    for c in (c1, c2):
        a0 = c.subset_of(next(iter(vertices)))
        free = frozenset().union(*(c.subset_of(v) ^ a0 for v in vertices))
        if len(vertices) != 1 << len(free):
            return False
    return True


# ---------------------------------------------------------------------------
# cube fillings via the junction hyperplane arrangement


class CellComplexPiece:
    """The filled cluster: cells of the unit cube subdivided by the
    hyperplanes z_i = z_{i+1}, one per consecutive junction.  Cells are
    signatures: a 0/1/interior status per coordinate and an order relation
    per cut junction."""

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

    def _feasible(self, sig):
        # a cut only compares neighbouring coordinates, so the order
        # constraints form a path and hold together iff each holds alone
        for j, rel in zip(self.cuts, sig[self.n:]):
            lo, hi = sig[j], sig[j + 1]
            if rel == "=":
                if lo != hi:
                    return False
                continue
            if rel == ">":
                lo, hi = hi, lo
            if lo == "1" or hi == "0":
                return False
        return True

    def _dimension(self, sig):
        # an '=' cut between interior coordinates joins them into one free
        # class
        joined = sum(
            1
            for j, rel in zip(self.cuts, sig[self.n:])
            if rel == "=" and sig[j] == "*"
        )
        return sig[: self.n].count("*") - joined

    def dim(self, cell):
        return self._dims[cell]

    def f_vector(self):
        top = max(self._dims.values(), default=0)
        return tuple(
            sum(1 for d in self._dims.values() if d == k)
            for k in range(top + 1)
        )

    def euler_characteristic(self):
        return sum((-1) ** d for d in self._dims.values())

    def is_face(self, c1, c2):
        """Whether cell c1 lies in the closure of cell c2."""
        for i in range(self.n):
            if c2[i] in "01" and c1[i] != c2[i]:
                return False
        for k in range(len(self.cuts)):
            r2 = c2[self.n + k]
            r1 = c1[self.n + k]
            if r2 == "=" and r1 != "=":
                return False
            if r2 in "<>" and r1 not in (r2, "="):
                return False
        return True

    def faces_of(self, cell):
        return [c for c in self.cells if c != cell and self.is_face(c, cell)]

    def vertex_subset(self, cell):
        """The corner subset of a 0-cell."""
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
    params = balanced_parametrizations(cluster)[0].params
    cuts = [j for j, joined in enumerate(_junctions(params)) if joined]
    return CellComplexPiece(cluster.n, cuts)


def cluster_orbit_invariant(cluster):
    """Orbit invariant under the group action: computed at the type-1
    balanced basepoint as (leading type, parities, junction consecutiveness).
    Two clusters lie in one orbit exactly when the invariants agree."""
    params = balanced_parametrizations(cluster)[0].params
    return (
        type_of(params[0]) if params else 0,
        tuple(parity_of(f) for f in params),
        tuple(_junctions(params)),
    )


def _bits(mask):
    return [u for u in range(mask.bit_length()) if mask >> u & 1]


def maximal_cliques(adj):
    """Maximal cliques, as bitmasks, of the graph whose node u has the
    neighbour bitmask adj[u]: Bron-Kerbosch with pivoting, branching only on
    candidates outside the neighbourhood of the candidate-richest pivot."""

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

    Filled sets are the subsets of corners, so by the clique criterion (see
    the module docstring) it suffices that every maximal clique of size at
    least two of the graph "two edges share a corner" lies in one corner;
    the cliques come from Bron-Kerbosch, each tested against every corner
    as a bitmask.  The witness is a minimal unfilled subset of the first
    bad clique: each of its proper subsets is filled."""
    clusters = [c for c in clusters if vertex in c.vertices]
    if len(clusters) < 3:
        # an unfilled clique holds an edge outside each corner, but with
        # corners A and B only, an edge of A - B and one of B - A share none
        return True, None
    corners = [c.facial_edges_at(vertex) for c in clusters]
    nodes = sorted(set().union(*corners), key=sorted)
    index = {e: u for u, e in enumerate(nodes)}
    masks = [sum(1 << index[e] for e in corner) for corner in corners]
    adj = [0] * len(nodes)
    for m in masks:
        for u in _bits(m):
            adj[u] |= m & ~(1 << u)

    def filled(subset):
        return any(subset & ~m == 0 for m in masks)

    for clique in maximal_cliques(adj):
        if filled(clique):
            continue
        for u in _bits(clique):
            if not filled(clique & ~(1 << u)):
                clique &= ~(1 << u)
        return False, frozenset(nodes[u] for u in _bits(clique))
    return True, None
