"""The intersection check and the subset enumeration that `cubulate` used
before it read intersections off the corner indices, kept as test oracles.

`reparametrized_intersection` is the constructive intersection as it was
first written: it re-bases both clusters at a shared vertex (2^n
normalizations each) and parametrizes the result by the minimal blocks of
shared edges.  `facial_intersection` is the old `cubulate` verdict on a
pair of clusters: the plain graph intersection must be that cluster, and
the cluster must be all of each side or a face of it by `subcluster_type`.
`enumerated_independent_subsets` lists every pairwise independent subset
and keeps the maximal ones with a quadratic scan.  `whole_word_corners` is
the corner construction of `Cluster` before it built each corner from a
smaller one: every subset's parameters, in order, then the base, normalized
as one word.
"""

import itertools

from cantorg.complexes import FACE, Cluster, subcluster_type, vertex_of
from cantorg.special import (
    check_special,
    from_letters,
    independent,
    to_letters,
)


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
    r1 = c1.reparametrized(c1.subset_of(pivot))
    r2 = c2.reparametrized(c2.subset_of(pivot))
    shared = [e for e in r1.edges & r2.edges if pivot in e]
    if not shared:
        return Cluster(r1.base, ())
    blocks = []
    for e in shared:
        other = next(v for v in e if v != pivot)
        blocks.append((r1.subset_of(other), r2.subset_of(other)))
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
    list, keyed and ordered as `Cluster._by_subset`."""
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
    """All nonempty pairwise independent subsets, maximal ones only, in the
    order of enumeration: by size, then lexicographically by index."""
    subsets = []
    for r in range(1, len(forms) + 1):
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
