"""Differential tests of the single-pass canonical forms against the
rescan-to-fixpoint versions in `canonical_oracles`: tree-pair reduction,
the canonical antichain of a cone set, the minimal special form, `act_f`,
the cells of a cube filling with their dimensions and vertex subsets, and
tree-pair composition by a merge against the all-pairs refinement.
"""

import itertools

from hypothesis import given, settings, strategies as st

import canonical_oracles as oracle
from cantorg.binseq import ConeSet, _canonical_cones
from cantorg.complexes import CellComplexPiece
from cantorg.special import act_f, expand_at, is_special, minimal_form
from cantorg.thompson import IDENTITY, TreePair, _reduce, compose, x_gen
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
