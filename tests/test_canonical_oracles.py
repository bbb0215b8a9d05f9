"""Differential tests of the single-pass canonical forms against the
rescan-to-fixpoint versions in `canonical_oracles`: tree-pair reduction,
the canonical antichain of a cone set, the minimal special form, `act_f`,
the cells of a cube filling with their dimensions, vertex subsets and faces,
tree-pair composition by a merge against the all-pairs refinement, and the
letter refinement, block merge and support unwinding of the envelope
pipeline, on random forms and on every call the pool envelopes make.
"""

import itertools
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

import canonical_oracles as oracle
from cantorg import pipeline
from cantorg.binseq import ConeSet, _canonical_cones
from cantorg.commands import parse_cluster_line
from cantorg.complexes import CellComplexPiece
from cantorg.pipeline import _deep_singles, _merge_blocks, _refine_letters
from cantorg.special import (
    act_f,
    expand_at,
    invert_form,
    is_special,
    minimal_form,
)
from cantorg.thompson import IDENTITY, TreePair, _reduce, compose, x_gen
from test_envelope_digest import _pool_draws
from test_thompson import UNITS


def random_code(rng, leaves):
    """The leaves of a random complete binary tree, left to right."""
    code = [""]
    while len(code) < leaves:
        i = rng.randrange(len(code))
        code[i:i + 1] = [code[i] + "0", code[i] + "1"]
    return code


def random_special_form(rng):
    """A run of interior leaves of a random tree with alternating signs,
    then a few random expansions, so that contractions can cascade."""
    code = random_code(rng, rng.randint(3, 8))
    start = rng.randrange(1, len(code) - 1)
    run = code[start:rng.randint(start + 1, len(code) - 1)]
    sign = rng.choice([1, -1])
    form = tuple((s, sign * (-1) ** k) for k, s in enumerate(run))
    for _ in range(rng.randint(0, 6)):
        form = expand_at(form, rng.randrange(len(form)))
    assert is_special(form)
    return form


def test_cube_cells_match_oracle():
    """Every signature for n <= 5 over every cut set (67,863 in all)."""
    signatures = 0
    for n in range(1, 6):
        for k in range(n):
            for cuts in itertools.combinations(range(n - 1), k):
                piece = CellComplexPiece(n, cuts)
                want = oracle.FixpointCellComplexPiece(n, cuts)
                signatures += 3 ** (n + k)
                assert piece.cells == want.cells
                for cell in piece.cells:
                    assert piece.dim(cell) == want.dim(cell)
                    if piece.dim(cell) == 0:
                        got = piece.vertex_subset(cell)
                        assert got == want.vertex_subset(cell)
    assert signatures == 67863


def test_cube_faces_match_oracle():
    """The faces of every cell, in order, for every cut set of n <= 4 and
    for the 5-parameter, 4-cut fill (1,770 cells in all)."""
    fills = [(n, cuts) for n in range(1, 5) for k in range(n)
             for cuts in itertools.combinations(range(n - 1), k)]
    cells = 0
    for n, cuts in fills + [(5, (0, 1, 2, 3))]:
        piece = CellComplexPiece(n, cuts)
        want = oracle.FixpointCellComplexPiece(n, cuts)
        for cell in piece.cells:
            assert piece.faces_of(cell) == want.faces_of(cell)
        cells += len(piece.cells)
    assert cells == 1770


@settings(max_examples=300)
@given(st.randoms(use_true_random=False))
def test_reduce_matches_oracle_after_common_splits(rng):
    leaves = rng.randint(1, 6)
    domain = random_code(rng, leaves)
    codomain = random_code(rng, leaves)
    reduced = TreePair(domain, codomain)
    i = 0
    for _ in range(rng.randint(0, 8)):
        # split one leaf in both trees, often a leaf of the last split so
        # that the carets nest and their cancellations cascade
        if rng.random() < 0.5:
            i = min(rng.choice([i, i + 1]), len(domain) - 1)
        else:
            i = rng.randrange(len(domain))
        d, r = domain[i], codomain[i]
        domain[i:i + 1] = [d + "0", d + "1"]
        codomain[i:i + 1] = [r + "0", r + "1"]
    # splitting the i-th leaf of both codes keeps both in leaf order
    domain, codomain = tuple(domain), tuple(codomain)
    got = _reduce(domain, codomain)
    assert got == oracle.reduce_pair(domain, codomain)
    assert got == (reduced.domain, reduced.range)


@settings(max_examples=300)
@given(st.randoms(use_true_random=False))
def test_cone_sets_match_oracle(rng):
    # part of a complete code (so siblings merge, up to whole subtrees)
    # plus random words of length up to 5 (so cones absorb each other)
    code = random_code(rng, rng.randint(1, 12))
    words = rng.sample(code, rng.randint(0, len(code)))
    for _ in range(rng.randint(0, 8)):
        length = rng.randint(0, 5)
        words.append("".join(rng.choice("01") for _ in range(length)))
    rng.shuffle(words)
    want = oracle.canonical_cones(words)
    assert _canonical_cones(words) == want
    assert ConeSet(words).cones == want
    assert ConeSet(iter(words)).cones == want


@settings(max_examples=300)
@given(st.randoms(use_true_random=False))
def test_minimal_form_matches_oracle(rng):
    form = random_special_form(rng)
    assert minimal_form(form) == oracle.minimal_form(form)


def test_act_f_matches_oracle():
    pairs = [
        x_gen("".join(p))
        for n in range(5)
        for p in itertools.product("01", repeat=n)
    ]
    pairs += [f.invert() for f in pairs]
    forms = []
    for code in (
        ["0", "10", "11"],
        ["00", "01", "10", "11"],
        ["000", "001", "01", "100", "101", "11"],
        ["0", "100", "1010", "1011", "11"],
    ):
        for i, j in itertools.combinations(range(1, len(code)), 2):
            for sign in (1, -1):
                form = tuple(
                    (s, sign * (-1) ** k) for k, s in enumerate(code[i:j])
                )
                forms.append(form)
                forms.extend(expand_at(form, k) for k in range(len(form)))
    for form in forms:
        for f in pairs:
            assert act_f(form, f) == oracle.act_f(form, f)


def _assert_compose_matches_oracle(f, g):
    """Both orders, f against its inverse and the identity on either
    side."""
    cases = [(f, g), (g, f), (f, f.invert()), (IDENTITY, f), (f, IDENTITY)]
    for a, b in cases:
        want = oracle.compose(a, b)
        try:
            got = compose(a, b)
        except ValueError as exc:  # the merge lost or repeated a leaf
            raise AssertionError(f"compose({a}, {b}): {exc}") from None
        assert got.domain == want.domain
        assert got.range == want.range


def random_tree_pair(rng):
    """An element of F over two random complete codes of equal size, each
    in leaf order."""
    leaves = rng.randint(1, 9)
    return TreePair(random_code(rng, leaves), random_code(rng, leaves))


@settings(max_examples=300)
@given(st.randoms(use_true_random=False))
def test_compose_matches_oracle(rng):
    f, g = random_tree_pair(rng), random_tree_pair(rng)
    _assert_compose_matches_oracle(f, g)


@given(st.lists(st.sampled_from(UNITS), min_size=2, max_size=5),
       st.sampled_from(UNITS))
def test_compose_matches_oracle_on_unit_composites(units, g):
    f = units[0]
    for u in units[1:]:
        f = oracle.compose(f, u)
    _assert_compose_matches_oracle(f, g)


def related_forms(rng):
    """2-4 special forms, each a run of one root form grown by random
    expansions and sometimes inverted, so that letters of one descend to
    letters of another, and some letters are shared."""
    root = random_special_form(rng)
    forms = []
    for _ in range(rng.randint(2, 4)):
        form = root
        for _ in range(rng.randint(0, 5)):
            form = expand_at(form, rng.randrange(len(form)))
        i = rng.randrange(len(form))
        form = form[i:rng.randint(i + 1, len(form))]
        forms.append(invert_form(form) if rng.random() < 0.2 else form)
    return forms


def _assert_decoupling_matches_oracle(seqs):
    """The refinement of the sequences, then the merge of the refined
    single-letter blocks; whether either changed anything."""
    want = [list(seq) for seq in seqs]
    oracle._refine_letters(want)
    refined = [list(seq) for seq in _refine_letters(seqs)]
    assert refined == want
    singles = [[(lt,) for lt in seq] for seq in refined]
    want = [list(blocks) for blocks in singles]
    got = [list(blocks) for blocks in singles]
    oracle._merge_blocks(want)
    _merge_blocks(got)
    assert got == want
    return refined != [list(seq) for seq in seqs], got != singles


# no deadline: the oracle rescans every cross pair after each expansion
@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_decoupling_matches_oracle(rng):
    _assert_decoupling_matches_oracle(related_forms(rng))


@settings(max_examples=300)
@given(st.randoms(use_true_random=False))
def test_deep_singles_match_oracle(rng):
    cell = SimpleNamespace(form=random_special_form(rng))
    supports = [
        ConeSet("".join(rng.choice("01") for _ in range(rng.randint(0, 7)))
                for _ in range(rng.randint(0, 4)))
        for _ in range(rng.randint(0, 3))
    ]
    want = oracle._deep_singles(cell, supports)
    assert list(_deep_singles(cell, supports)) == want


def test_pool_envelopes_decouple_as_oracle(monkeypatch):
    """Every decoupling and support unwinding in the envelopes of the pool
    draws; the counts pin that the sweep reaches both."""
    seen = {"decouple": 0, "refined": 0, "merged": 0, "deep": 0,
            "expanded": 0}

    def checked_refine(seqs):
        refined, merged = _assert_decoupling_matches_oracle(seqs)
        seen["decouple"] += 1
        seen["refined"] += refined
        seen["merged"] += merged
        return _refine_letters(seqs)

    def checked_deep(cell, supports):
        got = _deep_singles(cell, supports)
        assert list(got) == oracle._deep_singles(cell, supports)
        seen["deep"] += 1
        seen["expanded"] += got != cell.form
        return got

    monkeypatch.setattr(pipeline, "_refine_letters", checked_refine)
    monkeypatch.setattr(pipeline, "_deep_singles", checked_deep)
    for text in _pool_draws():
        pipeline.envelope([parse_cluster_line(p) for p in text.split("||")])
    assert seen == {"decouple": 59, "refined": 33, "merged": 32, "deep": 216,
                    "expanded": 41}
