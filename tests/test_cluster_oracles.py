"""Differential tests: cluster edges and the flag check against the plain
scans they replace.

The oracles are the original definitions: an edge test on every pair of
cluster corners, and a flag check that enumerates every subset of corner
edges at a vertex.  Both are exponential in the number of corners or edges,
so they serve as references on small inputs only.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from cantorg.cli import parse_word
from cantorg.commands import parse_cluster_line
from cantorg.complexes import Cluster, is_one_cell, link_flag_check, vertex_of
from cantorg.pipeline import envelope
from cantorg.rewrite import normalize
from cantorg.special import from_letters, is_constant, pair_consecutive


def cl(base_text, *param_texts):
    params = tuple(from_letters(parse_word(p)) for p in param_texts)
    return Cluster(normalize(parse_word(base_text)), params)


def _flip(form):
    return tuple((s, -t) for s, t in form)


def _corner_edge(params, a, b):
    """Edge test between two corners of a cluster, done on subscripts alone.

    The quotient of the two corner cosets is the product of the parameters
    indexed by the symmetric difference (inverted on one side), taken in
    subscript order.  Over pairwise-independent parameters that product is
    sorted and cancellation-free, and contractions neither create nor destroy
    specialness, so it is special exactly when every junction joins
    consecutive leaves with alternating signs."""
    diff = sorted(a ^ b)
    if not diff:
        return False
    prev = None
    for i in diff:
        form = params[i] if i in a else _flip(params[i])
        if prev is not None and (
            not pair_consecutive(prev[0], form[0][0])
            or prev[1] == form[0][1]
        ):
            return False
        prev = form[-1]
    return True


def pair_scan_edges(cluster):
    """The cluster's edges by testing every pair of corners."""
    subsets = [
        frozenset(i for i, b in enumerate(bits) if b)
        for bits in itertools.product((0, 1), repeat=cluster.n)
    ]
    return frozenset(
        frozenset((cluster.vertex(a), cluster.vertex(b)))
        for a, b in itertools.combinations(subsets, 2)
        if _corner_edge(cluster.params, a, b)
    )


def _corners_at(clusters, vertex):
    return [
        frozenset(c.facial_edges_at(vertex))
        for c in clusters
        if vertex in c.vertices
    ]


def subset_flag_check(clusters, vertex):
    """The flag condition by enumerating every subset of corner edges."""
    corners = _corners_at(clusters, vertex)
    nodes = sorted(set().union(*corners)) if corners else []

    def filled(subset):
        return any(subset <= corner for corner in corners)

    for size in range(2, len(nodes) + 1):
        for combo in itertools.combinations(nodes, size):
            subset = frozenset(combo)
            if filled(subset):
                continue
            if all(
                filled(frozenset(p))
                for p in itertools.combinations(combo, 2)
            ):
                return False, subset
    return True, None


def assert_same_flag_verdict(clusters, vertex):
    got = link_flag_check(clusters, vertex)
    ok, witness = subset_flag_check(clusters, vertex)
    assert got[0] == ok
    if ok:
        assert got == (True, None)
        return
    corners = _corners_at(clusters, vertex)

    def filled(subset):
        return any(subset <= corner for corner in corners)

    witness = got[1]
    assert len(witness) >= 3 and not filled(witness)
    pairs = itertools.combinations(witness, 2)
    assert all(filled(frozenset(p)) for p in pairs)
    assert all(filled(witness - {e}) for e in witness)


# ---------------------------------------------------------------------------
# edges


@st.composite
def sorted_independent_params(draw):
    """Parameter lists cut from the leaves of a random binary tree: leaves
    are pairwise independent, and neighbouring leaves are consecutive.
    Dropping a leaf leaves a non-consecutive junction; a run of kept leaves
    is either one special form or split into several parameters, whose
    junctions are then consecutive (diagonals), with either sign."""
    leaves = [""]
    for _ in range(draw(st.integers(4, 30))):
        i = draw(st.integers(0, len(leaves) - 1))
        if len(leaves[i]) < 6:
            leaves[i:i + 1] = [leaves[i] + "0", leaves[i] + "1"]
    params = []
    current = None
    for s in leaves:
        if is_constant(s):
            current = None
            continue
        action = draw(st.sampled_from(["drop", "new", "new", "extend"]))
        if action == "drop":
            current = None
        elif action == "extend" and current is not None:
            current.append((s, -current[-1][1]))
        else:
            current = [(s, draw(st.sampled_from([1, -1])))]
            params.append(current)
    return [tuple(p) for p in params[:7]]


@settings(deadline=None, max_examples=60, derandomize=True)
@given(sorted_independent_params())
def test_interval_edges_match_pair_scan(params):
    c = Cluster(normalize([]), params)
    assert c.edges == pair_scan_edges(c)


def test_interval_edges_match_pair_scan_examples():
    for texts in [
        ("y[01]", "y[10]^-1"),
        ("y[01]", "y[10]"),
        ("y[001]", "y[01]", "y[10]"),
        ("y[001]", "y[01]^-1", "y[100] y[101]^-1"),
        ("y[0010]", "y[0011]^-1", "y[01]", "y[100] y[101]^-1", "y[110]"),
    ]:
        c = cl("y[10]^2", *texts)
        assert c.edges == pair_scan_edges(c)
        for subset in [frozenset(), frozenset({0}), frozenset(range(c.n))]:
            r = c.reparametrized(subset)
            assert r.edges == c.edges == pair_scan_edges(r)


def test_large_cluster_edges():
    subs = [format(k, "05b") + "1" for k in range(12)]
    c = Cluster(normalize([]), tuple(((s, 1),) for s in subs))
    assert len(c.vertices) == 4096
    assert len(c.edges) == 12 * 2 ** 11
    rng = random.Random(12)
    for edge in rng.sample(sorted(map(sorted, c.edges)), 200):
        assert is_one_cell(*edge)


# ---------------------------------------------------------------------------
# flag check


def test_flag_check_matches_subset_scan_three_squares():
    trivial = vertex_of([])
    a, b, c = "y[01]", "y[100]", "y[1010]^-1 y[1011]"
    pieces = [cl("", a, b), cl("", a, c), cl("", b, c)]
    for v in set().union(*(p.vertices for p in pieces)):
        assert_same_flag_verdict(pieces, v)
    assert not link_flag_check(pieces, trivial)[0]
    pieces.append(cl("", a, b, c))
    for v in set().union(*(p.vertices for p in pieces)):
        assert_same_flag_verdict(pieces, v)


# criterion-11 draws 13, 23, 28 and 37 of seed 15: their envelopes have
# four to eight clusters of dimension 3 to 7 and take about a second each
ENVELOPE_DRAWS = [
    ["y[10] ; y[10]^-1", "y[10] ; y[100]"],
    ["y[10] ; y[0010] ; y[01] ; y[1010]^-1 y[1011]", "y[10] ; y[011]"],
    ["y[10] ; y[011]", "y[10] ; y[01100]"],
    ["y[01] ; y[01] ; y[100]", "y[01] ; y[10]^-1"],
]


def test_flag_check_matches_subset_scan_on_envelopes():
    bad = 0
    for lines in ENVELOPE_DRAWS:
        out = envelope([parse_cluster_line(line) for line in lines])
        clusters = sorted(out.clusters, key=lambda c: sorted(c.vertices))
        for v in sorted(set().union(*(c.vertices for c in clusters))):
            assert_same_flag_verdict(clusters, v)
        # without one of its clusters, a complex can lose flag links
        for drop in clusters:
            rest = [c for c in clusters if c is not drop]
            for v in sorted(drop.vertices):
                assert_same_flag_verdict(rest, v)
                bad += not link_flag_check(rest, v)[0]
    assert bad > 0
