"""The intersection check and the subset enumeration that `cubulate` used
before it read intersections off the corner indices, kept as test oracles.

`reparametrized_intersection` is the constructive intersection as it was
first written: it re-bases both clusters at a shared vertex (2^n
normalizations each) and parametrizes the result by the minimal blocks of
shared edges.  `facial_intersection` is the old `cubulate` verdict on a
pair of clusters: the plain graph intersection must be that cluster, and
the cluster must be all of each side or a face of it by `subcluster_type`.
`enumerated_independent_subsets` lists every pairwise independent subset
and keeps the maximal ones with a quadratic scan.  `clique_flag_check` is
the flag check of a vertex link before it used Gilmore's criterion: it
lists the maximal cliques of the graph "two edges share a corner" by
Bron-Kerbosch and asks that each lies in one corner.
`whole_word_corners` is the corner construction of `Cluster` before it
built each corner from a smaller one: every subset's parameters, in order,
then the base, normalized as one word.  `corner` and `subset_of` read a
corner of a cluster by its subset of parameters, and back.
`skeleton_matches` and `check_incidence` verify a filling of a cluster: its
one-skeleton is the cluster graph, and its face poset is graded.
"""

import itertools

from cantorg.complexes import (
    FACE,
    Cluster,
    _bits,
    balanced_parametrizations,
    maximal_cliques,
    subcluster_type,
    vertex_of,
)
from cantorg.pipeline import _independent_subsets, param_form_at
from cantorg.rewrite import normalize
from cantorg.special import (
    check_special,
    from_letters,
    independent,
    to_letters,
)


def corner(c, subset):
    """The corner of a cluster at a subset of its parameter indices."""
    return c.corners[sum(1 << i for i in set(subset))]


def subset_of(c, v):
    """The subset of parameter indices of a corner, None off the cluster."""
    mask = c.mask_of.get(v)
    return None if mask is None else frozenset(_bits(mask))


def brute_intersection(c1, c2):
    """Vertex and edge sets of the plain graph intersection."""
    return c1.vertices & c2.vertices, c1.edges & c2.edges


def reparametrized_intersection(c1, c2):
    """The intersection of two clusters, as a cluster, or None when they
    share no vertex: re-base both at the least common vertex, collect the
    shared edges there, and parametrize by the minimal shared-edge
    blocks."""
    common = c1.vertices & c2.vertices
    if not common:
        return None
    pivot = min(common)
    r1 = c1.reparametrized(subset_of(c1, pivot))
    r2 = c2.reparametrized(subset_of(c2, pivot))
    shared = [e for e in r1.edges & r2.edges if pivot in e]
    if not shared:
        return Cluster(r1.base, ())
    blocks = []
    for e in shared:
        other = next(v for v in e if v != pivot)
        blocks.append((subset_of(r1, other), subset_of(r2, other)))
    minimal = [
        (ca, da)
        for ca, da in blocks
        if not any(cb < ca for cb, _ in blocks)
    ]
    params = []
    for ca, _ in minimal:
        letters = [lt for i in sorted(ca) for lt in to_letters(r1.params[i])]
        params.append(check_special(from_letters(letters)))
    params.sort(key=lambda f: f[0][0])
    return Cluster(r1.base, tuple(params))


def facial_intersection(c1, c2):
    """Whether two clusters share a vertex and meet in a common face, decided
    as `cubulate` first did: the graph intersection must equal the
    constructive intersection, which must be each cluster or a face of it."""
    verts, edges = brute_intersection(c1, c2)
    if not verts:
        return False
    inter = reparametrized_intersection(c1, c2)
    if inter.vertices != verts or inter.edges != edges:
        return False
    return all(
        inter.vertices == c.vertices or subcluster_type(inter, c) == FACE
        for c in (c1, c2)
    )


def whole_word_corners(base, params):
    """The corners of the cluster on a base normal form and a parameter
    list, keyed by subset and ordered as `Cluster.corners`."""
    n = len(params)
    chosen = [
        [i for i in range(n) if mask >> i & 1] for mask in range(1 << n)
    ]
    return {
        frozenset(a): vertex_of(
            [lt for i in a for lt in to_letters(params[i])] + base.to_items()
        )
        for a in chosen
    }


def enumerated_independent_subsets(forms):
    """All pairwise independent subsets, maximal ones only, in the order of
    enumeration: by size, then lexicographically by index.  The empty
    subset is maximal only when there are no forms."""
    subsets = []
    for r in range(len(forms) + 1):
        for combo in itertools.combinations(forms, r):
            if all(
                independent(a, b) for a, b in itertools.combinations(combo, 2)
            ):
                subsets.append(combo)
    return [
        s
        for s in subsets
        if not any(set(s) < set(t) for t in subsets)
    ]


def clique_flag_check(clusters, vertex):
    """Gromov flag condition at a vertex of a union of filled clusters:
    every pairwise-filled set of corner edges must itself span a cluster
    corner in the piece.  Returns (True, None) or (False, witness edges).

    Filled sets are the subsets of corners, so by the clique criterion it
    suffices that every maximal clique of size at least two of the graph
    "two edges share a corner" lies in one corner.  The witness is a
    minimal unfilled subset of the first bad clique: each of its proper
    subsets is filled."""
    clusters = [c for c in clusters if vertex in c.vertices]
    if len(clusters) < 3:
        # an unfilled clique holds an edge outside each corner, but with
        # corners A and B only, an edge of A - B and one of B - A share none
        return True, None
    # each facial edge {vertex, w} is named by its far end w; sorting the far
    # ends orders the edges as sorting them by their sorted ends would
    corners = [[c.corners[c.mask_of[vertex] ^ 1 << i] for i in range(c.n)]
               for c in clusters]
    nodes = sorted(set().union(*corners))
    index = {w: u for u, w in enumerate(nodes)}
    masks = [sum(1 << index[w] for w in corner) for corner in corners]
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
        return False, frozenset(
            frozenset((vertex, nodes[u])) for u in _bits(clique))
    return True, None


def span_clusters(system):
    """The cluster of every span of a free system, in the order `cubulate`
    scans them: by vertex, then by the size and indices of the maximal
    independent set of the vertex's parameters."""
    return [
        Cluster(normalize(list(v)),
                tuple(sorted(combo, key=lambda f: f[0][0])))
        for v in sorted(system.vertices)
        for combo in _independent_subsets(
            sorted({param_form_at(e, v) for e in system.incident_cells(v)})
        )
    ]


def maximal_span_clusters(spans):
    """The clusters kept of all the span clusters: a set drops repeated
    vertex sets, keeping the one inserted first, then every cluster inside
    another goes."""
    clusters = set(spans)
    return {
        c for c in clusters
        if not any(c is not d and c.vertices <= d.vertices for d in clusters)
    }


def skeleton_matches(piece, cluster):
    """Whether the 1-skeleton of a filling agrees with the cluster graph."""
    ref = balanced_parametrizations(cluster)[0]
    verts = {c: corner(ref, piece.vertex_subset(c))
             for c in piece.cells if piece.dim(c) == 0}
    if set(verts.values()) != cluster.vertices:
        return False
    edge_cells = [c for c in piece.cells if piece.dim(c) == 1]
    if len(edge_cells) != len(cluster.edges):
        return False
    seen = set()
    for c in edge_cells:
        ends = [verts[f] for f in piece.faces_of(c) if piece.dim(f) == 0]
        if len(ends) != 2:
            return False
        seen.add(frozenset(ends))
    return seen == set(cluster.edges)


def check_incidence(piece):
    """Grading sanity of the face poset of a filling: each edge has two
    vertex ends, each k-cell has at least two codimension-one faces for
    k >= 1."""
    for cell in piece.cells:
        d = piece.dim(cell)
        faces = piece.faces_of(cell)
        if d >= 1:
            ends = [c for c in faces if piece.dim(c) == 0]
            if d == 1 and len(ends) != 2:
                return False
            if len([c for c in faces if piece.dim(c) == d - 1]) < 2:
                return False
    return True
