import itertools
import random

import pytest

from cantorg.cli import parse_word
from cantorg.complexes import (
    DIAGONAL,
    DIAGONAL_OF_FACE,
    FACE,
    Cluster,
    a_delta,
    balanced_parametrizations,
    cluster_orbit_invariant,
    enumerate_cells,
    intersect_clusters,
    is_one_cell,
    link_flag_check,
    subcluster_type,
    vertex_of,
)
from cantorg.rewrite import normalize
from cantorg.special import from_letters, type_of
from cluster_oracles import (
    brute_intersection,
    check_incidence,
    skeleton_matches,
)
from verifiers import is_balanced, is_proper


def form_of(text):
    return from_letters(parse_word(text))


def cl(base_text, *param_texts):
    return Cluster(normalize(parse_word(base_text)), tuple(form_of(p) for p in param_texts))


def test_vertex_of_examples():
    assert vertex_of(parse_word("x[] y[10]")) == vertex_of(parse_word("y[10]"))
    assert vertex_of(parse_word("y[100] y[1010]^-1 y[1011]")) == vertex_of(
        parse_word("y[10]")
    )
    assert vertex_of(parse_word("x[01]")) == ()


def test_is_one_cell_examples():
    trivial = vertex_of([])
    assert is_one_cell(trivial, vertex_of(parse_word("y[10]")))
    assert not is_one_cell(trivial, vertex_of(parse_word("y[01] y[10]")))
    assert is_one_cell(
        vertex_of(parse_word("y[01]")), vertex_of(parse_word("y[10]"))
    )


def test_build_cluster_examples():
    c = cl("", "y[01]", "y[10]^-1")
    assert len(c.vertices) == 4 and len(c.edges) == 5
    c = cl("", "y[01]", "y[110]")
    assert len(c.vertices) == 4 and len(c.edges) == 4
    c = cl("", "y[10]")
    assert len(c.vertices) == 2 and len(c.edges) == 1


def test_build_cluster_rejects_bad_params():
    with pytest.raises(ValueError):
        cl("", "y[10]", "y[01]")  # unsorted
    with pytest.raises(ValueError):
        cl("", "y[01]", "y[011]")  # dependent


def test_balanced_parametrizations():
    c = cl("", "y[01]", "y[10]^-1")
    p1, p2 = balanced_parametrizations(c)
    assert is_balanced(p1.params) and is_balanced(p2.params)
    assert p1 == c and p2 == c  # same cluster
    bases = {p1.base_vertex, p2.base_vertex}
    assert bases == {
        vertex_of([]),
        vertex_of(parse_word("y[01] y[10]^-1")),
    }
    # the unbalanced pair is re-balanced by flipping one parameter
    c = cl("", "y[01]", "y[10]")
    p1, p2 = balanced_parametrizations(c)
    assert is_balanced(p1.params) and is_balanced(p2.params)
    # the first reparametrization already starts with a type-1 form
    c = cl("", "y[01]^-1", "y[10]")
    p1, p2 = balanced_parametrizations(c)
    assert is_balanced(p1.params) and is_balanced(p2.params)
    assert type_of(p1.params[0]) == 1
    # a cluster without parameters is its own two parametrizations
    c = cl("y[01]")
    assert balanced_parametrizations(c) == (c, c)


def test_is_proper():
    assert is_proper((form_of("y[01]"), form_of("y[10]^-1")))
    assert not is_proper((form_of("y[01]"), form_of("y[10]")))
    # non-consecutive junction carries no sign constraint
    assert is_proper((form_of("y[01]"), form_of("y[110]")))
    c = cl("", "y[01]", "y[10]^-1")
    for p in balanced_parametrizations(c):
        assert is_proper(p.params)


def test_a_delta_examples():
    c = cl("", "y[01]", "y[10]^-1")
    assert a_delta(c) == {
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    }
    c = cl("", "y[01]", "y[110]")
    assert a_delta(c) == {frozenset({0}), frozenset({1})}
    c = cl("", "y[10]")
    assert a_delta(c) == {frozenset({0})}


def test_intersect_clusters_examples():
    big = cl("", "y[100]", "y[1010]^-1 y[1011]")
    small = cl("", "y[10]")
    got = intersect_clusters(big, small)
    assert got == small
    far = cl("y[01]^2", "y[010]")
    assert intersect_clusters(small, far) is None
    c1 = cl("", "y[01]", "y[10]")
    c2 = cl("", "y[01]", "y[110]")
    got = intersect_clusters(c1, c2)
    assert got == cl("", "y[01]")


def test_intersect_matches_bruteforce_random():
    rng = random.Random(31)
    pool = [
        ("", ("y[01]",)),
        ("", ("y[01]", "y[10]")),
        ("", ("y[01]", "y[10]^-1")),
        ("", ("y[100]", "y[1010]^-1 y[1011]")),
        ("", ("y[10]",)),
        ("", ("y[100]",)),
        ("", ("y[01]", "y[100]", "y[1010]^-1 y[1011]")),
        ("y[10]", ("y[01]",)),
        ("", ("y[001]", "y[01]^-1", "y[10]")),
    ]
    for _ in range(40):
        b1, p1 = rng.choice(pool)
        b2, p2 = rng.choice(pool)
        c1 = cl(b1, *p1)
        c2 = cl(b2, *p2)
        got = intersect_clusters(c1, c2)
        verts, edges = brute_intersection(c1, c2)
        if got is None:
            assert not verts
        else:
            assert got.vertices == verts
            assert got.edges == edges


def test_subcluster_types():
    big = cl("", "y[100]", "y[1010]^-1 y[1011]")
    assert subcluster_type(cl("", "y[10]"), big) == DIAGONAL
    two = cl("", "y[01]", "y[10]")
    assert subcluster_type(cl("", "y[01]"), two) == FACE
    three = cl("", "y[01]", "y[100]", "y[1010]^-1 y[1011]")
    assert subcluster_type(cl("", "y[10]"), three) == DIAGONAL_OF_FACE
    with pytest.raises(ValueError):
        subcluster_type(cl("", "y[001]"), two)


def test_enumerate_cells_f_vectors():
    piece = enumerate_cells(cl("", "y[01]", "y[10]^-1"))
    assert piece.f_vector() == (4, 5, 2)
    piece = enumerate_cells(cl("", "y[01]", "y[110]"))
    assert piece.f_vector() == (4, 4, 1)
    assert sum(piece.f_vector()) == 9


def test_enumerate_cells_nine_cluster_with_eight_cuts():
    # every junction of the nine parameters is consecutive; computed once
    # by testing all 3^17 signatures
    c = cl("", "y[0100]", "y[0101]^-1", "y[011]", "y[100]^-1", "y[1010]",
           "y[1011]^-1", "y[110]", "y[1110]^-1", "y[11110]")
    piece = enumerate_cells(c, max_dim=9)
    assert len(piece.cuts) == 8
    assert piece.f_vector() == (512, 4097, 14846, 31748, 44024, 40976,
                                25568, 10304, 2432, 256)
    assert piece.euler_characteristic() == 1


def test_enumerate_cells_three_cluster():
    c = cl("", "y[001]", "y[01]^-1", "y[10]")
    piece = enumerate_cells(c)
    fv = piece.f_vector()
    assert fv[0] == 8 and fv[1] == 17
    assert piece.euler_characteristic() == 1
    assert skeleton_matches(piece, c)
    assert check_incidence(piece)


def test_enumerate_cells_diagonal_free():
    c = cl("", "y[001]", "y[011]", "y[101]")
    piece = enumerate_cells(c)
    assert sum(piece.f_vector()) == 27
    assert piece.euler_characteristic() == 1
    assert skeleton_matches(piece, c)


def test_skeleton_matches_all_small():
    for texts in [
        ("y[10]",),
        ("y[01]", "y[10]"),
        ("y[01]", "y[10]^-1"),
        ("y[01]", "y[110]"),
        ("y[100]", "y[1010]^-1 y[1011]"),
    ]:
        c = cl("", *texts)
        piece = enumerate_cells(c)
        assert skeleton_matches(piece, c)
        assert piece.euler_characteristic() == 1


def test_edge_count_formula():
    # edges = sum over A_Delta of 2^(n - |K|)
    for texts in [
        ("y[01]", "y[10]^-1"),
        ("y[01]", "y[110]"),
        ("y[001]", "y[01]^-1", "y[10]"),
    ]:
        c = cl("", *texts)
        expected = sum(2 ** (c.n - len(k)) for k in a_delta(c))
        assert len(c.edges) == expected


def test_cluster_orbit_invariant_one_cells():
    vals = set()
    for text in ["y[10]", "y[10]^-1", "y[01]", "y[100]^-1", "y[100] y[101]^-1"]:
        vals.add(cluster_orbit_invariant(cl("", text)))
    assert len(vals) == 2


def test_cluster_orbit_invariant_action():
    from cantorg.rewrite import normalize_product

    c = cl("", "y[01]", "y[10]^-1")
    # right-multiply the basepoint by a group element: same orbit invariant
    moved = Cluster(
        normalize_product(c.base, parse_word("y[110] x[1]")),
        c.params,
    )
    assert cluster_orbit_invariant(moved) == cluster_orbit_invariant(c)


def test_link_flag_check():
    trivial = vertex_of([])
    one = cl("", "y[01]", "y[100]")
    assert link_flag_check([one], trivial) == (True, None)
    # three 2-clusters pairwise sharing corners at F, spanning 3-cluster absent
    a, b, c = "y[01]", "y[100]", "y[1010]^-1 y[1011]"
    pieces = [cl("", a, b), cl("", a, c), cl("", b, c)]
    ok, witness = link_flag_check(pieces, trivial)
    assert not ok
    assert witness == {
        frozenset((trivial, vertex_of(parse_word(p)))) for p in (a, b, c)
    }
    pieces.append(cl("", a, b, c))
    assert link_flag_check(pieces, trivial) == (True, None)


def test_reparametrized_preserves_cluster():
    c = cl("", "y[01]", "y[10]^-1")
    for bits in itertools.product((0, 1), repeat=2):
        subset = frozenset(i for i, x in enumerate(bits) if x)
        assert c.reparametrized(subset) == c
