"""Differential tests: cluster corners and edges, the flag check, the
intersection check, the independent subsets at a vertex and the clusters
`cubulate` builds against the constructions they replace.

The oracles are the original definitions: an edge test on every pair of
cluster corners, a flag check that enumerates every subset of corner edges
at a vertex, and, from `cluster_oracles`, the flag check that lists
maximal cliques, the intersection check that re-parametrizes both
clusters, the enumeration of all independent subsets, the corners
normalized as whole words and the cubulation that built every span's
cluster before it kept the maximal ones.  The scans are exponential in the
number of corners, edges or forms, so they serve as references on small
inputs only.
"""

import itertools
import os
import random

from hypothesis import given, settings, strategies as st

from cantorg import pipeline
from cantorg.cli import parse_word
from cantorg.commands import (
    parse_cluster_line,
    read_cluster_file,
    render_cluster_line,
)
from cantorg.complexes import (
    Cluster,
    intersect_clusters,
    is_one_cell,
    link_flag_check,
    meet_in_face,
    vertex_of,
)
from cantorg.pipeline import _independent_subsets, envelope
from cantorg.rewrite import normalize
from cantorg.special import from_letters, is_constant, pair_consecutive
from cluster_oracles import (
    clique_flag_check,
    corner,
    enumerated_independent_subsets,
    facial_intersection,
    maximal_span_clusters,
    reparametrized_intersection,
    span_clusters,
    subset_of,
    whole_word_corners,
)
from test_envelope_digest import _pool_draws
from test_golden_cli import GOLDEN
from test_hash_seed import DRAWS
from test_work_counts import CORNER_CLUSTERS


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
        frozenset((corner(cluster, a), corner(cluster, b)))
        for a, b in itertools.combinations(subsets, 2)
        if _corner_edge(cluster.params, a, b)
    )


def _corners_at(clusters, vertex):
    return [
        frozenset(
            frozenset((vertex, corner(c, subset_of(c, vertex) ^ {i})))
            for i in range(c.n))
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


def assert_same_as_clique_check(clusters, vertex):
    """`link_flag_check` gives the verdict of `clique_flag_check`, and each
    witness is unfilled, pairwise filled, and filled without any one of its
    edges.  Returns the verdict."""
    got = link_flag_check(clusters, vertex)
    want = clique_flag_check(clusters, vertex)
    assert got[0] == want[0]
    if got[0]:
        assert got == want == (True, None)
        return True
    corners = _corners_at(clusters, vertex)

    def filled(subset):
        return any(subset <= corner for corner in corners)

    for _, witness in (got, want):
        assert len(witness) >= 3 and not filled(witness)
        pairs = itertools.combinations(witness, 2)
        assert all(filled(frozenset(p)) for p in pairs)
        assert all(filled(witness - {e}) for e in witness)
    return False


def assert_same_flag_verdict(clusters, vertex):
    ok = assert_same_as_clique_check(clusters, vertex)
    assert subset_flag_check(clusters, vertex)[0] == ok


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
# corners


def assert_corners_match_whole_words(c):
    want = whole_word_corners(c.base, c.params)
    assert c.corners == list(want.values())


@settings(deadline=None, max_examples=60, derandomize=True)
@given(sorted_independent_params(),
       st.sampled_from(["y[10]^2", "x[0] y[01]", "x[1]^-1 y[0110]^-1 y[10]"]))
def test_corners_match_whole_words(params, base):
    assert_corners_match_whole_words(
        Cluster(normalize(parse_word(base)), params))


def test_corners_match_whole_words_on_envelopes():
    assert len(CORNER_CLUSTERS) == 22
    assert max(len(params) for _, params in CORNER_CLUSTERS) == 3
    for base, params in CORNER_CLUSTERS:
        assert_corners_match_whole_words(cl(base, *params))


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


def test_flag_check_matches_clique_check_on_twelve():
    """The envelope of the 12-dimensional golden draw, at every vertex and
    with each cluster dropped in turn at its vertices.  The subset scan is
    exponential in the edges at a vertex, so it is left out."""
    out = envelope(read_cluster_file(os.path.join(GOLDEN, "twelve.txt")))
    clusters = sorted(out.clusters, key=lambda c: sorted(c.vertices))
    for v in out.vertices:
        assert assert_same_as_clique_check(clusters, v)
    calls = bad = 0
    for drop in clusters:
        rest = [c for c in clusters if c is not drop]
        for v in drop.vertices:
            calls += 1
            bad += not assert_same_as_clique_check(rest, v)
    assert (calls, bad) == (14720, 128)


# ---------------------------------------------------------------------------
# intersections


# the cluster pool of criterion 10, as (base, parameters); it holds the
# pool of the intersection tests of `test_complexes`
INTERSECTION_POOL = [
    ("", ("y[01]",)),
    ("", ("y[01]", "y[10]")),
    ("", ("y[01]", "y[10]^-1")),
    ("", ("y[100]", "y[1010]^-1 y[1011]")),
    ("", ("y[10]",)),
    ("", ("y[100]",)),
    ("", ("y[01]", "y[100]", "y[1010]^-1 y[1011]")),
    ("y[10]", ("y[01]",)),
    ("", ("y[001]", "y[01]^-1", "y[10]")),
    ("y[01]^2", ("y[010]",)),
    ("", ("y[0010]", "y[010]^-1")),
    ("x[0]", ("y[01]", "y[10]")),
]


def test_face_criterion_matches_old_verdict_on_pools():
    clusters = [cl(base, *params) for base, params in INTERSECTION_POOL]
    rejected = 0
    for c1, c2 in itertools.product(clusters, repeat=2):
        verdict = facial_intersection(c1, c2)
        assert meet_in_face(c1, c2) == verdict
        rejected += bool(c1.vertices & c2.vertices) and not verdict
    assert rejected > 0


def test_intersect_clusters_matches_reparametrized_intersection():
    clusters = [cl(base, *params) for base, params in INTERSECTION_POOL]
    for c1, c2 in itertools.product(clusters, repeat=2):
        got = intersect_clusters(c1, c2)
        want = reparametrized_intersection(c1, c2)
        if want is None:
            assert got is None
            continue
        assert got.base.to_items() == want.base.to_items()
        assert got.params == want.params
        assert (got.vertices, got.edges) == (want.vertices, want.edges)


# a dozen criterion-11 draws of seed 15, by index, that take under a
# second each: one to eight output clusters of up to nine parameters, and in
# all but draw 24 some pair of clusters meets in no common face
CRITERION_11_DRAWS = {
    13: ["y[10] ; y[10]^-1", "y[10] ; y[100]"],
    14: ["y[10] ; y[011] ; y[100] y[101]^-1"],
    23: ["y[10] ; y[0010] ; y[01] ; y[1010]^-1 y[1011]", "y[10] ; y[011]"],
    24: ["y[10]^2 ; y[01] ; y[100]", "y[10]^2 ; y[1010]^-1 y[1011]"],
    28: ["y[10] ; y[011]", "y[10] ; y[01100]"],
    32: ["1 ; y[011] ; y[100] y[101]^-1"],
    37: ["y[01] ; y[01] ; y[100]", "y[01] ; y[10]^-1"],
    41: ["y[01] ; y[01] ; y[100] y[101]^-1"],
    44: ["y[10]^2 ; y[0010] ; y[01]^-1 ; y[100] y[101]^-1"],
    45: ["y[10]^2 ; y[100] ; y[1010]^-1 y[1011]"],
    46: ["y[10] ; y[011] ; y[100] y[101]^-1"],
    47: ["y[10]^2 ; y[10]", "y[10]^2 ; y[1010]^-1 y[1011]"],
}


def test_face_criterion_matches_old_verdict_on_envelopes():
    rejected = 0
    for lines in CRITERION_11_DRAWS.values():
        inputs = [parse_cluster_line(line) for line in lines]
        out = envelope(inputs)
        clusters = sorted(out.clusters, key=lambda c: sorted(c.vertices))
        for c1, c2 in itertools.combinations(clusters + inputs, 2):
            verdict = facial_intersection(c1, c2)
            assert meet_in_face(c1, c2) == verdict
            rejected += bool(c1.vertices & c2.vertices) and not verdict
    assert rejected > 0


@st.composite
def subclusters(draw):
    """A cluster, and the subcluster spanned at a random corner by blocks
    of its parameters taken there: single parameters span a face, and a
    block of consecutive ones spans a diagonal.  The corner is drawn so
    that the signs alternate across every junction inside a block, which
    makes the block's product special."""
    params = draw(sorted_independent_params())[:5]
    base = draw(st.sampled_from(["", "y[10]", "x[0] y[01]"]))
    c = Cluster(normalize(parse_word(base)), params)
    n = c.n
    kept = [i for i in range(n) if draw(st.integers(0, 3))]
    joined = {
        i
        for i in kept
        if i - 1 in kept
        and pair_consecutive(params[i - 1][-1][0], params[i][0][0])
        and draw(st.integers(0, 3))
    }
    bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    for i in sorted(joined):
        bits[i] = bits[i - 1] ^ (params[i - 1][-1][1] == params[i][0][1])
    r = c.reparametrized({i for i in range(n) if bits[i]})
    blocks = []
    for i in kept:
        if i in joined:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    forms = [tuple(lt for k in b for lt in r.params[k]) for b in blocks]
    return c, Cluster(r.base, forms), not joined


@settings(deadline=None, max_examples=100, derandomize=True)
@given(subclusters())
def test_face_criterion_on_faces_and_diagonals(case):
    c, sub, face = case
    assert sub.vertices <= c.vertices
    assert meet_in_face(c, sub) == meet_in_face(sub, c) == face
    assert facial_intersection(c, sub) == face


# ---------------------------------------------------------------------------
# independent subsets at a vertex


@st.composite
def form_lists(draw):
    """Sorted distinct forms of one or two letters over short subscripts,
    so that some pairs are independent and some nest or coincide."""
    forms = set()
    for _ in range(draw(st.integers(0, 9))):
        s = draw(st.text("01", min_size=1, max_size=4))
        t = draw(st.sampled_from([1, -1]))
        if draw(st.booleans()):
            forms.add(((s, t),))
        else:
            forms.add(((s + "0", t), (s + "1", -t)))
    return sorted(forms)


@settings(deadline=None, max_examples=100, derandomize=True)
@given(form_lists())
def test_independent_subsets_match_enumeration(forms):
    assert _independent_subsets(forms) == enumerated_independent_subsets(forms)


# ---------------------------------------------------------------------------
# cubulation


def test_cubulate_builds_the_maximal_span_clusters(monkeypatch):
    """Each envelope builds exactly the clusters that building every span
    and filtering kept, with the same parameters, and every span it skips
    spans a subcluster of the first built cluster holding the span's vertex
    and its neighbours across the parameters."""
    inputs = [[parse_cluster_line(p) for p in draw.split("||")]
              for draw in DRAWS + _pool_draws()[:100]]
    inputs.append(read_cluster_file(os.path.join(GOLDEN, "squares.txt")))
    systems, built = [], []
    cubulate = pipeline.cubulate

    def recording_cubulate(system, max_dim=None):
        systems.append(system)
        return cubulate(system, max_dim)

    def recording_cluster(base, params):
        built.append(Cluster(base, params))
        return built[-1]

    monkeypatch.setattr(pipeline, "cubulate", recording_cubulate)
    monkeypatch.setattr(pipeline, "Cluster", recording_cluster)
    skipped = 0
    for clusters in inputs:
        del built[:]
        out = envelope(clusters)
        spans = span_clusters(systems[-1])
        want = maximal_span_clusters(spans)
        assert sorted(map(render_cluster_line, built)) == sorted(
            map(render_cluster_line, want))
        assert out.clusters == frozenset(built) == want
        done = {(c.base_vertex, c.params) for c in built}
        for c in spans:
            if (c.base_vertex, c.params) in done:
                continue
            skipped += 1
            ends = {c.corners[1 << i] for i in range(c.n)} | {c.base_vertex}
            cover = next(b for b in built if ends <= b.vertices)
            assert c.vertices <= cover.vertices
    assert skipped > 0
